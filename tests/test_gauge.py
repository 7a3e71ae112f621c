from __future__ import annotations

import math

import numpy as np
import pytest

import grassflow.gauge as gauge

from grassflow.algebra import AlgebraSpec, Family, _matmul
from grassflow.fields import Grid, MatrixField, periodic_diff
from grassflow.functionals import FlowParams
from grassflow.gauge import (
    GaugeError,
    PotentialState,
    akns4_rhs,
    connection,
    curvature_residual,
    curvature_target,
    evolve_potential,
    gauge_transform,
    matrix_kdv_rhs,
    potential_rhs,
    slaved_r,
    state_from_potential,
)
from grassflow.flows import FlowBlowupError, FlowKind, evolve, stability_bound
from grassflow.initial_data import random_orbit_state, random_smooth_potential
from grassflow.orbit import FramedState
from grassflow.reductions import _anchored_scalar_rhs, scalar_rhs
from conftest import TWO_PI


def _smooth_q(grid: Grid, shape: tuple[int, int]) -> np.ndarray:
    x = grid.x
    base = 0.3 * np.exp(1j * x) + 0.1 * np.exp(-2j * x)
    out = np.zeros((grid.num_points,) + shape, dtype=complex)
    out[:, 0, 0] = base
    if shape[1] > 1:
        out[:, 0, 1] = 0.2 * np.cos(x)
    return out


def test_potential_state_validation(u2, para2):
    grid = Grid(16, TWO_PI)
    good = np.zeros((16, 1, 1), dtype=complex)
    with pytest.raises(ValueError):
        PotentialState(u2, grid, np.zeros((16, 2, 1)), np.zeros((16, 1, 1)))
    with pytest.raises(ValueError):
        PotentialState(u2, grid, good, np.zeros((8, 1, 1)))
    ps = PotentialState(u2, grid, good, good)
    with pytest.raises(ValueError):
        ps.q[0, 0, 0] = 1.0


def test_slaved_block_conventions(u2, u31, para2):
    q = np.array([[[1.0 + 2.0j, 0.5]]])
    np.testing.assert_array_equal(
        slaved_r(u2, q), -np.conj(np.swapaxes(q, -1, -2))
    )
    np.testing.assert_array_equal(
        slaved_r(u31, q), np.conj(np.swapaxes(q, -1, -2))
    )
    with pytest.raises(ValueError):
        slaved_r(para2, q)
    with pytest.raises(ValueError):
        PotentialState.from_q(para2, Grid(4, TWO_PI), np.zeros((4, 1, 1)))


def test_assemble_places_blocks(u31):
    grid = Grid(8, TWO_PI)
    q = np.full((8, 1, 2), 2.0 + 0.0j)
    ps = PotentialState.from_q(u31, grid, q)
    full = ps.assemble().values
    np.testing.assert_array_equal(full[:, :1, 1:], q)
    np.testing.assert_array_equal(full[:, 1:, :1], np.conj(np.swapaxes(q, -1, -2)))
    assert np.all(full[:, :1, :1] == 0) and np.all(full[:, 1:, 1:] == 0)


def test_gauge_transform_rejects_block_diagonal_part(u2):
    grid = Grid(16, TWO_PI)
    frame = MatrixField(grid, np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
    bad = np.zeros((16, 2, 2), dtype=complex)
    bad[:, 0, 0] = 1j * 0.01
    bad[:, 1, 1] = -1j * 0.01
    fs = FramedState(u2, frame, MatrixField(grid, bad))
    with pytest.raises(GaugeError):
        gauge_transform(fs)


def test_tolerance_guards_reject_non_finite_defects(u2):
    grid = Grid(16, TWO_PI)
    nan_q = np.full((16, 1, 1), np.nan, dtype=complex)
    with pytest.raises(ValueError, match="potential is not finite"):
        state_from_potential(PotentialState.from_q(u2, grid, nan_q))
    frame = MatrixField(grid, np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
    bad = np.zeros((16, 2, 2), dtype=complex)
    bad[:, 0, 0] = np.nan
    with pytest.raises(GaugeError):
        gauge_transform(FramedState(u2, frame, MatrixField(grid, bad)))


def test_gauge_transform_extracts_blocks(u2):
    grid = Grid(16, TWO_PI)
    q = _smooth_q(grid, (1, 1))
    ps = PotentialState.from_q(u2, grid, q, time=0.5)
    frame = MatrixField(grid, np.broadcast_to(np.eye(2), (16, 2, 2)).copy())
    fs = FramedState(u2, frame, ps.assemble(), time=0.5)
    back = gauge_transform(fs)
    np.testing.assert_allclose(back.q, ps.q, atol=1e-14)
    np.testing.assert_allclose(back.r, ps.r, atol=1e-14)
    assert back.time == 0.5


def test_constant_potential_rate(u2):
    # with a constant block every derivative and every running integral
    # vanishes, leaving a closed cubic-quintic rate
    grid = Grid(32, TWO_PI)
    c = 0.4 + 0.3j
    a2 = abs(c) ** 2
    p = FlowParams(1.2, 0.3, 0.05)
    q = np.full((32, 1, 1), c)
    ps = PotentialState.from_q(u2, grid, q)
    rate = potential_rhs(ps, p).q
    want = -1j * (2.0 * p.alpha * a2 * c + (32.0 * p.gamma - 2.0 * p.beta) * a2**2 * c)
    np.testing.assert_allclose(rate, np.full((32, 1, 1), want), atol=1e-13)


def test_fourth_order_integrable_point(u2):
    # at alpha=0, beta=1, gamma=-1/8 the nonlocal coefficient vanishes and
    # the block equation collapses onto the literal integrable form
    grid = Grid(64, TWO_PI)
    p = FlowParams(0.0, 1.0, -0.125)
    for spec, shape in (
        (u2, (1, 1)),
        (AlgebraSpec(Family.COMPACT_UNITARY, 3, 1), (1, 2)),
    ):
        q = _smooth_q(grid, shape)
        ps = PotentialState.from_q(spec, grid, q)
        got = potential_rhs(ps, p).q
        want = akns4_rhs(q, grid.h)
        gap = np.max(np.abs(got - want))
        assert gap < 1e-12, f"{spec.family}: {gap:.3e}"


def test_plane_wave_phase_rotation(u2):
    # a single mode under the leading flow only rotates its phase; the
    # semidiscrete rate is the second-difference symbol minus the cubic shift
    grid = Grid(64, TWO_PI)
    c, mode, alpha = 0.35, 3, 1.0
    h = grid.h
    q0 = (c * np.exp(1j * mode * grid.x))[:, None, None]
    ps = PotentialState.from_q(u2, grid, q0)
    p = FlowParams(alpha, 0.0, 0.0)
    T = 0.01
    (last,) = evolve_potential(ps, p, T, 1e-4, output_times=[T])
    sym2 = (30.0 - 32.0 * np.cos(mode * h) + 2.0 * np.cos(2.0 * mode * h)) / (12.0 * h**2)
    exact = q0 * np.exp(1j * alpha * (sym2 - 2.0 * c**2) * T)
    gap = np.max(np.abs(last.q - exact))
    assert gap < 1e-10, f"{gap:.3e}"


def test_zero_potential_is_stationary(para2):
    grid = Grid(16, TWO_PI)
    z = np.zeros((16, 1, 1))
    ps = PotentialState(para2, grid, z, z)
    last = evolve_potential(ps, FlowParams(1.0, 0.2, 0.1), 0.01, 1e-3)[-1]
    assert np.all(last.q == 0) and np.all(last.r == 0)


def test_evolve_potential_validates_arguments(u2):
    grid = Grid(16, TWO_PI)
    ps = PotentialState.from_q(u2, grid, np.zeros((16, 1, 1)))
    p = FlowParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        evolve_potential(ps, p, -1.0, 1e-3)
    with pytest.raises(ValueError):
        evolve_potential(ps, p, 1.0, -1e-3)
    with pytest.raises(ValueError):
        evolve_potential(ps, p, 1.0, 1e-3, output_times=[0.5, 0.5])
    with pytest.raises(ValueError):
        evolve_potential(ps, p, 1.0, 1e-3, output_times=[-1.0, 0.5])
    with pytest.raises(ValueError):
        evolve_potential(ps, p, 1e-10, 1e-12, output_times=[0.0, 1e-10 + 5e-10])


@pytest.mark.parametrize("dt", [1e-6, 1e-10, 1e-12])
def test_evolve_potential_takes_every_step_at_any_dt(u2, dt, monkeypatch):
    # one block evaluation per stage for a complex family, four per step
    calls = [0]
    real_block = gauge._collected_block

    def counting_block(*args, **kwargs):
        calls[0] += 1
        return real_block(*args, **kwargs)

    monkeypatch.setattr(gauge, "_collected_block", counting_block)
    grid = Grid(16, TWO_PI)
    ps = PotentialState.from_q(u2, grid, _smooth_q(grid, (1, 1)))
    T = 40 * dt
    last = evolve_potential(ps, FlowParams(1.0, 0.1, -0.0125), T, dt)[-1]
    assert calls == [4 * math.ceil(T / dt)] == [160]
    assert last.time == T
    assert np.any(last.q != ps.q)


def test_potential_blowup_carries_last_state_and_step_index(u2):
    grid = Grid(16, TWO_PI)
    ps = PotentialState.from_q(u2, grid, _smooth_q(grid, (1, 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FlowBlowupError) as err:
            evolve_potential(ps, FlowParams(50.0, 0.0, 0.0), 10.0, 0.5)
    # the first step of 0.5 is finite, the second is not
    assert err.value.step_index == 2
    assert err.value.time == 1.0
    last = err.value.last_state
    assert isinstance(last, PotentialState)
    assert last.time == 0.5
    assert np.all(np.isfinite(last.q)) and np.all(np.isfinite(last.r))


def test_scalar_rhs_matches_block_equation(u2, u31, para2):
    # the scalar transcription and the matrix assembly share every term,
    # so for one-by-one blocks they must agree to roundoff
    grid = Grid(64, TWO_PI)
    x = grid.x
    p = FlowParams(1.0, 0.1, 0.05)
    qs = 0.3 * np.exp(1j * x) + 0.1 * np.exp(-2j * x)
    for spec in (u2, AlgebraSpec(Family.NONCOMPACT_UNITARY, 2, 1)):
        ps = PotentialState.from_q(spec, grid, qs[:, None, None])
        got = potential_rhs(ps, p).q[:, 0, 0]
        want = _anchored_scalar_rhs(grid, qs, p, spec.family)
        assert np.max(np.abs(got - want)) < 1e-12
    rs = 0.2 * np.cos(x) - 0.15 * np.sin(3 * x)
    qr = (0.3 * np.cos(x) + 0.1 * np.sin(2 * x)).astype(complex)
    ps = PotentialState(para2, grid, qr[:, None, None], rs[:, None, None])
    got = potential_rhs(ps, p)
    wq, wr = _anchored_scalar_rhs(grid, qr, p, Family.PARA_REAL, r=rs)
    assert np.max(np.abs(got.q[:, 0, 0] - wq)) < 1e-12
    assert np.max(np.abs(got.r[:, 0, 0] - wr)) < 1e-12


def test_scalar_rhs_validation(u2):
    grid = Grid(16, TWO_PI)
    q = np.zeros(16, dtype=complex)
    p = FlowParams(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        scalar_rhs(grid, q, p, Family.PARA_REAL)
    with pytest.raises(ValueError):
        scalar_rhs(grid, q, p, Family.COMPACT_UNITARY, r=q)
    with pytest.raises(ValueError):
        scalar_rhs(grid, np.zeros((16, 1, 1)), p, Family.COMPACT_UNITARY)


def test_constant_scalar_closed_rate():
    grid = Grid(32, TWO_PI)
    c = 0.5 - 0.2j
    a2 = abs(c) ** 2
    p = FlowParams(0.8, 0.3, 0.06)
    q = np.full(32, c)
    rate = scalar_rhs(grid, q, p, Family.COMPACT_UNITARY)
    want = -1j * (
        2.0 * p.alpha * a2 * c
        - 6.0 * p.beta * a2**2 * c
        + 6.0 * (8.0 * p.gamma + p.beta) * a2**2 * c
    )
    np.testing.assert_allclose(rate, np.full(32, want), atol=1e-14)


def test_closed_and_integral_modes_differ_by_anchor_shift():
    # the closed equations use the exact primitive of the nonlocal
    # integrand; the running integral anchors it at the first node, so the
    # two differ by a constant multiple of the field plus quadrature error
    grid = Grid(128, TWO_PI)
    x = grid.x
    p = FlowParams(1.0, 0.1, 0.05)
    cnl = 2.0 * (8.0 * p.gamma + p.beta)
    q = 0.3 * np.exp(1j * x) + 0.1 * np.exp(-2j * x)
    for family, sign in ((Family.COMPACT_UNITARY, -1.0), (Family.NONCOMPACT_UNITARY, 1.0)):
        closed = scalar_rhs(grid, q, p, family)
        integ = _anchored_scalar_rhs(grid, q, p, family)
        raw = np.max(np.abs(closed - integ))
        shift = -1j * cnl * (sign * abs(q[0]) ** 2) ** 2 * q
        res = np.max(np.abs(closed - integ - shift))
        assert raw > 1e-3 and res < 1e-4, f"{family}: raw {raw:.3e} res {res:.3e}"
    qr = (0.3 * np.cos(x) + 0.1 * np.sin(2 * x)).astype(complex)
    rs = (0.2 * np.cos(x) - 0.15 * np.sin(3 * x)).astype(complex)
    dqc, drc = scalar_rhs(grid, qr, p, Family.PARA_REAL, r=rs)
    dqi, dri = _anchored_scalar_rhs(grid, qr, p, Family.PARA_REAL, r=rs)
    qr0 = (qr[0] * rs[0]) ** 2
    assert np.max(np.abs(dqc - dqi - cnl * qr0 * qr)) < 1e-4
    assert np.max(np.abs(drc - dri + cnl * qr0 * rs)) < 1e-4


def test_split_kdv_point_reduces_to_scalar():
    # beta=gamma=0 with a symmetric real pair turns the matrix equation
    # into the classical third-order scalar flow up to the alpha scaling
    grid = Grid(64, TWO_PI)
    prof = 0.25 * np.cos(grid.x)
    q = prof[:, None, None].astype(complex)
    got = matrix_kdv_rhs(np.concatenate([
        np.concatenate([np.zeros_like(q), q], axis=2),
        np.concatenate([q, np.zeros_like(q)], axis=2),
    ], axis=1), grid.h)
    from grassflow.fields import periodic_diff

    pc = prof.astype(complex)
    want = periodic_diff(pc, 3, grid.h) - 2.0 * periodic_diff(pc**3, 1, grid.h)
    assert np.max(np.abs(got[:, 0, 1] - want)) < 1e-12
    assert np.max(np.abs(got[:, 1, 0] - want)) < 1e-12
    assert np.max(np.abs(got[:, 0, 0])) == 0.0


def test_connection_base_component_is_spectral_multiple(u2):
    grid = Grid(32, TWO_PI)
    os = random_orbit_state(u2, grid, seed=2, modes=2, amplitude=0.2)
    a_x, _ = connection(os, FlowParams(1.0, 0.1, -0.0125), 1.5)
    np.testing.assert_array_equal(a_x, 1.5 * os.phi.values)


def test_curvature_target_vanishes_at_special_ratio(u2):
    grid = Grid(32, TWO_PI)
    os = random_orbit_state(u2, grid, seed=2, modes=2, amplitude=0.2)
    target = curvature_target(os, FlowParams(1.0, 0.2, -0.025), 2.0)
    assert np.max(np.abs(target.values)) == 0.0
    nonzero = curvature_target(os, FlowParams(1.0, 0.2, 0.0), 2.0)
    assert np.max(np.abs(nonzero.values)) > 0.0


def test_curvature_target_is_the_cubic_term_bit_for_bit(para2):
    grid = Grid(32, TWO_PI)
    os = random_orbit_state(para2, grid, seed=4, modes=2, amplitude=0.2)
    p, lam = FlowParams(0.8, 0.1, 0.06), 1.3
    phix = periodic_diff(os.phi.values, 1, grid.h)
    cube = _matmul(phix, phix, phix)
    target = curvature_target(os, p, lam).values
    assert np.array_equal(target, -2.0 * lam**2 * (8.0 * p.gamma + p.beta) * cube)


def test_curvature_residual_small_on_flow_and_large_off_flow(u2):
    grid = Grid(128, TWO_PI)
    ps = random_smooth_potential(u2, grid, seed=7, modes=2, amplitude=0.25)
    from grassflow.initial_data import state_from_potential

    os = state_from_potential(ps)
    p = FlowParams(1.0, 0.1, -0.0125)
    dt = 0.5 * stability_bound(p, grid.h, FlowKind.THIRD_ORDER)
    delta = 2e-4
    states = evolve(os, p, FlowKind.THIRD_ORDER, 2 * delta, dt,
                    output_times=[0.0, delta, 2 * delta])
    residual = curvature_residual(states, p, 1.0)
    assert len(residual) == 1
    t, value = residual[0]
    assert t == delta
    assert value < 1e-3, f"{value:.3e}"
    wrong = curvature_residual(states, FlowParams(1.0, 0.1, 0.05), 1.0)[0][1]
    assert wrong > 10.0 * value


def test_curvature_residual_needs_three_snapshots(u2):
    grid = Grid(32, TWO_PI)
    os = random_orbit_state(u2, grid, seed=2, modes=2, amplitude=0.2)
    states = evolve(os, FlowParams(0.1, 0, 0), FlowKind.LEADING_ORDER, 0.0, 1e-4)
    with pytest.raises(ValueError):
        curvature_residual(states, FlowParams(0.1, 0, 0), 1.0)
