from __future__ import annotations

import numpy as np
import pytest

import grassflow.orbit as orbit
from grassflow.algebra import (
    AlgebraSpec,
    Family,
    decompose,
    exp_map,
    frobenius,
    membership_residual,
    sigma3,
)
from grassflow.fields import Grid, MatrixField, periodic_diff
from grassflow.gauge import PotentialState
from grassflow.initial_data import (
    random_frame_state,
    random_orbit_state,
    random_smooth_potential,
    random_tangent_field,
    state_from_potential,
)
from grassflow.orbit import (
    FramedState,
    OrbitState,
    _rk4_path,
    _running_products,
    conjugate_base,
    frame_from_potential,
    gauge_fix_frame,
    orbit_from_frame,
    spectrum_deviation,
    verify_identities,
)
from conftest import TWO_PI, all_specs


def _identity_frame_state(spec: AlgebraSpec, grid: Grid) -> FramedState:
    eye = np.broadcast_to(np.eye(spec.n), (grid.num_points, spec.n, spec.n)).copy()
    zero = np.zeros_like(eye)
    return FramedState(spec, MatrixField(grid, eye), MatrixField(grid, zero))


def test_identity_frame_gives_constant_base_point(grid64):
    for spec in all_specs():
        os = orbit_from_frame(_identity_frame_state(spec, grid64))
        assert np.allclose(os.phi.values, sigma3(spec), atol=1e-15)
        assert spectrum_deviation(os) < 1e-14
        ids = verify_identities(_identity_frame_state(spec, grid64))
        assert ids["involution"] == pytest.approx(0.0, abs=1e-13)
        for value in ids.values():
            assert value < 1e-12


def _commuting_frame_rate(spec, direction):
    # envelope times a fixed direction integrates in closed form
    errors = []
    for npts in (32, 64):
        grid = Grid(npts, TWO_PI)
        pv = np.cos(grid.x)[:, None, None] * direction
        fs, _ = frame_from_potential(spec, MatrixField(grid, pv))
        exact = exp_map(np.sin(grid.x)[:, None, None] * direction)
        errors.append(np.max(np.abs(fs.frame.values - exact)))
    return np.log2(errors[0] / errors[1])


def test_frame_integration_matches_commuting_exact_solution(u2):
    direction = np.array([[0.0, 0.4 - 0.1j], [0.1 + 0.4j, 0.0]])
    direction = 0.5 * (direction - direction.conj().T)
    assert _commuting_frame_rate(u2, direction) > 3.7


def test_frame_integration_right_convention_split_family(para2):
    # the split family obeys the same frame equation F_x = P F as the others
    direction = np.array([[0.0, 0.5], [0.2, 0.0]], dtype=complex)
    assert _commuting_frame_rate(para2, direction) > 3.7


def test_closure_defect_small_for_zero_mean_separable(grid64):
    for spec in all_specs():
        ps = random_smooth_potential(spec, grid64, seed=2)
        _, defect = frame_from_potential(spec, ps.assemble())
        assert defect < 1e-8


def test_closure_defect_flags_holonomy(u2, grid64):
    q = np.full((grid64.num_points, 1, 1), 0.3, dtype=complex)
    ps = PotentialState.from_q(u2, grid64, q)
    _, defect = frame_from_potential(u2, ps.assemble())
    assert defect > 0.1
    with pytest.raises(ValueError):
        state_from_potential(ps)


def test_gauge_fix_preserves_base_point_field(grid64):
    for spec in all_specs():
        xi = random_tangent_field(spec, grid64, seed=4, amplitude=0.2)
        raw = MatrixField(grid64, exp_map(xi))
        before = conjugate_base(spec, raw.values)
        fixed = gauge_fix_frame(spec, raw)
        after = conjugate_base(spec, fixed.frame.values)
        assert np.max(np.abs(before - after)) < 1e-10
        k = spec.k
        pv = fixed.potential.values
        assert np.max(np.abs(pv[:, :k, :k])) < 1e-14
        assert np.max(np.abs(pv[:, k:, k:])) < 1e-14


def test_structural_identities_hold_for_random_frames(grid128):
    # gauge-fixed random frames, and frames marched from a potential
    for spec in all_specs():
        marched, _ = frame_from_potential(
            spec, random_smooth_potential(spec, grid128, seed=9, amplitude=0.15).assemble()
        )
        for fs in (random_frame_state(spec, grid128, seed=9, amplitude=0.15), marched):
            for name, value in verify_identities(fs).items():
                assert value < 1e-6, f"{spec.family} {name} = {value:.3e}"


def tangency_defect(fs: FramedState, field_values: np.ndarray) -> float:
    """How far a field at phi is from the orbit's tangent distribution:
    conjugate by the frame, F X F^-1, and measure the block-diagonal part."""
    ev = fs.frame.values
    k_part, _ = decompose(fs.spec, ev @ field_values @ np.linalg.inv(ev))
    return frobenius(k_part)


def test_tangency_of_rotated_potential(grid64):
    for spec in all_specs():
        fs = random_frame_state(spec, grid64, seed=11, amplitude=0.2)
        os = orbit_from_frame(fs)
        from grassflow.algebra import bracket

        xi = bracket(os.phi.values, random_tangent_field(spec, grid64, seed=12))
        assert tangency_defect(fs, xi) < 1e-10


def test_spectrum_deviation_detects_off_orbit_fields(u2, grid64):
    os = random_orbit_state(u2, grid64, seed=13)
    assert spectrum_deviation(os) < 1e-13
    bent = MatrixField(grid64, os.phi.values + 1e-3 * 1j * np.eye(2))
    assert spectrum_deviation(OrbitState(u2, bent)) > 1e-4


def _eigenvalue_deviation(spec, values):
    # the largest distance between the eigenvalues, sorted by decreasing
    # imaginary (complex families) or real part (split family), and the
    # base point's diagonal, which is sorted the same way
    w = np.linalg.eigvals(values)
    key = -w.imag if spec.family.is_unitary else -w.real
    w = np.take_along_axis(w, np.argsort(key, axis=-1, kind="stable"), axis=-1)
    return float(np.max(np.abs(w - np.diagonal(sigma3(spec)))))


# Stated margin of the polynomial residual over the eigenvalue deviation: the
# Frobenius norm and the eigenvector conditioning of amplitude-1.5 states
# put it between 1.1 and 2.4 on the cases below.
_RESIDUAL_OVER_EIGENVALUES = 4.0


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (4, 2)])
def test_spectrum_deviation_bounds_the_eigenvalue_deviation(grid64, family, n, k):
    spec = AlgebraSpec(family, n, k)
    direction = random_tangent_field(spec, grid64, seed=6, amplitude=1.0)
    for amplitude in (0.3, 1.5):
        phi = random_orbit_state(spec, grid64, seed=5, amplitude=amplitude).phi.values
        for eps in (1e-10, 1e-6, 1e-3):
            values = phi + eps * direction
            eig = _eigenvalue_deviation(spec, values)
            got = spectrum_deviation(OrbitState(spec, MatrixField(grid64, values)))
            assert eig <= got <= _RESIDUAL_OVER_EIGENVALUES * eig, (amplitude, eps)


def test_spectrum_deviation_sees_a_jordan_block_with_the_base_spectrum(grid64):
    # upper triangular in the algebra, with exactly the base point's
    # eigenvalues; a roundoff perturbation d of the block would split the
    # double one by sqrt(1e-6 d), about 1e-11
    spec = AlgebraSpec(Family.PARA_REAL, 3, 1)
    jordan = sigma3(spec)
    jordan[1, 2] = 1e-6
    values = np.broadcast_to(jordan, (grid64.num_points, 3, 3)).copy()
    assert membership_residual(spec, values) == 0.0
    assert _eigenvalue_deviation(spec, values) < 1e-10
    assert spectrum_deviation(OrbitState(spec, MatrixField(grid64, values))) >= 0.5e-6


def test_spectrum_deviation_counts_the_multiplicities(grid64):
    # the (3, 2) base point squares to c^2 I, but has its -c once, not twice
    spec = AlgebraSpec(Family.PARA_REAL, 3, 1)
    other = sigma3(AlgebraSpec(Family.PARA_REAL, 3, 2))
    values = np.broadcast_to(other, (grid64.num_points, 3, 3)).copy()
    assert spectrum_deviation(OrbitState(spec, MatrixField(grid64, values))) >= 0.5


def test_orbit_state_json_roundtrip(u2, grid64):
    os = random_orbit_state(u2, grid64, seed=17)
    back = OrbitState.from_json_dict(os.to_json_dict())
    assert back.spec == os.spec
    assert back.time == os.time
    assert np.allclose(back.phi.values, os.phi.values, atol=1e-15)
    assert back.frame is not None
    assert np.allclose(back.frame.values, os.frame.values, atol=1e-15)


def _per_cell_march(rhs, a, start, h, cells):
    """Classic RK4 across each cell in turn, the half-node values by cubic
    interpolation: the reference for the batched propagator march."""
    npts = a.shape[0]
    amid = (-np.roll(a, 1, 0) + 9.0 * a + 9.0 * np.roll(a, -1, 0) - np.roll(a, -2, 0)) / 16.0
    out = [start]
    for j in cells:
        m = out[-1]
        k1 = rhs(a[j], m)
        k2 = rhs(amid[j], m + 0.5 * h * k1)
        k3 = rhs(amid[j], m + 0.5 * h * k2)
        k4 = rhs(a[(j + 1) % npts], m + h * k3)
        out.append(m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(out)


def test_batched_frame_march_matches_per_cell_march():
    # the reference marches the whole period too: F(0), ..., F(L)
    grid = Grid(256, TWO_PI)
    h, cells = grid.h, range(grid.num_points)
    for spec in all_specs():
        eye = np.eye(spec.n, dtype=complex)
        pv = random_smooth_potential(spec, grid, seed=4, amplitude=0.3).assemble().values
        fs, defect = frame_from_potential(spec, MatrixField(grid, pv))
        want = _per_cell_march(np.matmul, pv, eye, h, cells)
        assert np.max(np.abs(fs.frame.values - want[:-1])) < 1e-13, spec.family
        assert abs(defect - frobenius(want[-1] - want[0])) < 1e-13

        raw = exp_map(random_tangent_field(spec, grid, seed=4, amplitude=0.2))
        fixed = gauge_fix_frame(spec, MatrixField(grid, raw))
        k_part, _ = decompose(spec, periodic_diff(raw, 1, h) @ np.linalg.inv(raw))
        d = _per_cell_march(lambda kv, m: -(m @ kv), k_part, eye, h, cells)[:-1]
        assert np.max(np.abs(fixed.frame.values - d @ raw)) < 1e-13, spec.family


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("period", [1, 2, 3, 5, 127, 255, 2047])
def test_rk4_path_matches_per_cell_march(n, period):
    rng = np.random.default_rng(10 * period + n)
    shape = (period, n, n)
    z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # anti-Hermitian, so the march stays near unitary and 1e-13 is roundoff
    a = z - np.conj(np.swapaxes(z, -1, -2))
    h = TWO_PI / 2048
    want = _per_cell_march(np.matmul, a, np.eye(n, dtype=complex), h, range(period))
    assert np.max(np.abs(_rk4_path(a, h) - want)) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4])
def test_running_products_are_prefix_stable(n):
    # the frame at the nodes is the prefix of the march to x = L, bit for bit
    rng = np.random.default_rng(n)
    shape = (300, n, n)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    full = _running_products(m)
    for j in range(len(m) + 1):
        assert np.array_equal(_running_products(m[:j]), full[:j]), j


def test_frame_and_its_closure_come_from_one_march(monkeypatch, grid64):
    calls = []

    def counted(a, h):
        calls.append(len(a))
        return _rk4_path(a, h)

    monkeypatch.setattr(orbit, "_rk4_path", counted)
    for spec in all_specs():
        calls.clear()
        state_from_potential(random_smooth_potential(spec, grid64, seed=5))
        assert calls == [grid64.num_points], spec.family
        calls.clear()
        raw = exp_map(random_tangent_field(spec, grid64, seed=5, amplitude=0.2))
        gauge_fix_frame(spec, MatrixField(grid64, raw))
        assert calls == [grid64.num_points], spec.family
