from __future__ import annotations

import math
import pickle
import warnings

import numpy as np
import pytest

import grassflow.flows as flows

from grassflow.algebra import (
    AlgebraSpec,
    Family,
    _matmul,
    _orbit_square,
    bracket,
    exp_map,
    membership_residual,
)
from grassflow.fields import Grid, MatrixField, periodic_diff
from grassflow.flows import (
    _flow_params,
    auto_dt,
    FOURTH_DERIV_GAIN,
    THIRD_DERIV_GAIN,
    FlowBlowupError,
    FlowKind,
    NewtonError,
    StabilityError,
    evolve,
    stability_bound,
    step,
    step_count,
    third_order_generator,
)
from grassflow.functionals import FlowParams
from grassflow.gauge import PotentialState, curve_flow_rhs, matrix_kdv_rhs, sym_pohlmeyer_curve
from grassflow.initial_data import make_initial_state, random_orbit_state, state_from_potential
from grassflow.orbit import conjugate_base, spectrum_deviation
from conftest import TWO_PI, all_specs


PARAMS = FlowParams(1.0, 0.1, -0.0125)


def _state(spec: AlgebraSpec, grid: Grid, seed: int = 5):
    return random_orbit_state(spec, grid, seed=seed, modes=2, amplitude=0.2)


def test_dispersive_generator_reduces_to_leading_term():
    # the leading-order flow is the third-order flow at beta = gamma = 0,
    # whatever beta and gamma it is given
    grid = Grid(64, TWO_PI)
    lead_params = FlowParams(PARAMS.alpha, 0.0, 0.0)
    dt = 0.5 * stability_bound(PARAMS, grid.h, FlowKind.LEADING_ORDER)
    for spec in all_specs():
        os = _state(spec, grid)
        lead = step(os, PARAMS, FlowKind.LEADING_ORDER, dt)
        full = step(os, lead_params, FlowKind.THIRD_ORDER, dt)
        np.testing.assert_array_equal(lead.phi.values, full.phi.values)
        np.testing.assert_array_equal(lead.frame.values, full.frame.values)


def third_order_generator_via_inverse(os, p: FlowParams) -> MatrixField:
    """Same generator assembled without the on-orbit power reduction, using
    explicit matrix inverses.  Slower; kept as a cross-check."""
    h = os.phi.grid.h
    phi = os.phi.values
    w = np.zeros_like(phi)
    if p.alpha != 0.0:
        w -= p.alpha * periodic_diff(phi, 2, h)
    if p.beta != 0.0:
        w += p.beta * periodic_diff(phi, 4, h)
    coeff = 4.0 * p.gamma - 2.0 * p.beta
    if coeff != 0.0:
        phix = periodic_diff(phi, 1, h)
        phiinv = np.linalg.inv(phi)
        chain = phix @ phiinv @ phix @ phiinv @ phix
        w += coeff * periodic_diff(chain, 1, h)
    return MatrixField(os.phi.grid, w)


def test_generator_power_reduction_matches_inverse_route():
    # the cubic term is reduced to a polynomial in phi_x using the orbit
    # relations; against the unreduced inverse form the leftover is pure
    # stencil error, so it must vanish at fourth order
    def gap_at(spec, points):
        grid = Grid(points, TWO_PI)
        os = _state(spec, grid)
        fast = third_order_generator(os, PARAMS).values
        slow = third_order_generator_via_inverse(os, PARAMS).values
        return np.max(np.abs(fast - slow))

    for spec in all_specs():
        coarse = gap_at(spec, 64)
        fine = gap_at(spec, 128)
        assert coarse < 1e-5, f"{spec.family}: {coarse:.3e}"
        rate = np.log2(coarse / fine)
        assert rate > 3.5, f"{spec.family}: rate {rate:.2f}"


def test_stability_bound_formulas():
    h = TWO_PI / 128
    p = FlowParams(2.0, 0.3, 0.1)
    third = stability_bound(p, h, FlowKind.THIRD_ORDER)
    assert third == pytest.approx(
        min(0.2 * h**4 / (0.3 * FOURTH_DERIV_GAIN), 0.2 * h**2 / 2.0)
    )
    lead = stability_bound(p, h, FlowKind.LEADING_ORDER)
    assert lead == pytest.approx(0.2 * h**2 / 2.0)
    second = stability_bound(p, h, FlowKind.SECOND_ORDER)
    assert second == pytest.approx(0.2 * h**3 / THIRD_DERIV_GAIN)
    assert stability_bound(FlowParams(0, 0, 0), h, FlowKind.LEADING_ORDER) == np.inf


def test_step_rejects_unstable_dt():
    # on para_gl, where no implicit step applies; the refusal names the step
    # and the bound, and nothing else
    grid = Grid(32, TWO_PI)
    os = _state(AlgebraSpec(Family.PARA_REAL, 2, 1), grid)
    bound = stability_bound(PARAMS, grid.h, FlowKind.THIRD_ORDER)
    with pytest.raises(StabilityError) as err:
        step(os, PARAMS, FlowKind.THIRD_ORDER, 2.0 * bound)
    assert str(err.value) == f"dt={2.0 * bound:.3e} exceeds the stability bound {bound:.3e}"
    # a NaN step is outside the bound, not a step that blows up
    with pytest.raises(StabilityError, match="^dt=nan exceeds the stability bound"):
        step(os, PARAMS, FlowKind.THIRD_ORDER, float("nan"))


@pytest.mark.parametrize("kind", list(FlowKind))
def test_evolve_at_the_bound_does_not_warn(u2, kind):
    # the march cuts the last step to the target, which can leave it a few
    # ulps longer than dt; a run that evolve accepted must not warn inside
    grid = Grid(32, TWO_PI)
    os = _state(u2, grid)
    bound = stability_bound(PARAMS, grid.h, kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        evolve(os, PARAMS, kind, 400 * bound, bound)
    # the slack is far below any step that matters; beyond it a step is
    # refused where no implicit step applies
    para = _state(AlgebraSpec(Family.PARA_REAL, 2, 1), grid)
    with pytest.raises(StabilityError, match="exceeds the stability bound"):
        step(para, PARAMS, kind, bound * (1.0 + 1e-6))


def test_generators_are_built_once_per_grid_and_params(u2):
    grid, kind, second = Grid(32, TWO_PI), FlowKind.THIRD_ORDER, FlowKind.SECOND_ORDER
    flow = flows._flow(u2, grid, PARAMS, kind)
    assert flows._flow(u2, Grid(32, TWO_PI), FlowParams(1.0, 0.1, -0.0125), kind) is flow
    assert flows._flow(u2, Grid(16, TWO_PI), PARAMS, kind).generator is not flow.generator
    assert flows._flow(u2, grid, PARAMS, second) is flows._flow(u2, grid, PARAMS, second)


def test_commutator_step_preserves_spectrum_and_frame(u2):
    grid = Grid(64, TWO_PI)
    os = _state(u2, grid)
    dt = 0.5 * stability_bound(PARAMS, grid.h, FlowKind.THIRD_ORDER)
    cur = os
    for _ in range(5):
        cur = step(cur, PARAMS, FlowKind.THIRD_ORDER, dt)
    assert spectrum_deviation(cur) < 1e-12
    assert cur.frame is not None
    # the frame keeps reconstructing phi
    e = cur.frame.values
    rebuilt = np.linalg.solve(e, np.broadcast_to(
        0.5j * np.diag([1.0, -1.0]), e.shape).copy() @ e)
    assert np.max(np.abs(rebuilt - cur.phi.values)) < 1e-8


def test_second_order_step_keeps_frame_and_spectrum():
    grid = Grid(64, TWO_PI)
    dt = 0.5 * stability_bound(FlowParams(0, 0, 0), grid.h, FlowKind.SECOND_ORDER)
    for spec in all_specs():
        new = step(_state(spec, grid), FlowParams(0, 0, 0), FlowKind.SECOND_ORDER, dt)
        assert spectrum_deviation(new) <= 1e-12, spec.family
        rebuilt = conjugate_base(spec, new.frame.values)
        assert np.max(np.abs(rebuilt - new.phi.values)) <= 1e-12, spec.family


@pytest.mark.parametrize("family", list(Family))
def test_second_order_time_accuracy_is_fourth_order(family):
    grid = Grid(32, TWO_PI)
    os = random_orbit_state(AlgebraSpec(family, 2, 1), grid, seed=5, modes=4, amplitude=0.6)
    p = FlowParams(0, 0, 0)
    dt = 0.8 * stability_bound(p, grid.h, FlowKind.SECOND_ORDER)
    T = 40 * dt
    sols = [
        evolve(os, p, FlowKind.SECOND_ORDER, T, dt / divide, output_times=[T])[-1]
        for divide in (1, 2, 4)
    ]
    err_coarse, err_fine = (np.max(np.abs(s.phi.values - sols[2].phi.values)) for s in sols[:2])
    rate = np.log2(err_coarse / err_fine)
    assert rate >= 3.5, f"observed time order {rate:.2f}"


def test_time_accuracy_is_fourth_order(u2):
    grid = Grid(32, TWO_PI)
    os = _state(u2, grid)
    p = FlowParams(1.0, 0.0, 0.0)
    T = 0.08
    sols = []
    for divide in (1, 2, 4):
        dt = 0.004 / divide
        (last,) = evolve(os, p, FlowKind.LEADING_ORDER, T, dt, output_times=[T])
        sols.append(last.phi.values)
    err_coarse = np.max(np.abs(sols[0] - sols[2]))
    err_fine = np.max(np.abs(sols[1] - sols[2]))
    rate = np.log2(err_coarse / err_fine)
    assert rate > 3.5, f"observed time order {rate:.2f}"


def test_evolve_validates_arguments(u2):
    grid = Grid(32, TWO_PI)
    os = _state(u2, grid)
    p = FlowParams(0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        evolve(os, p, FlowKind.LEADING_ORDER, -1.0, 1e-4)
    with pytest.raises(ValueError):
        evolve(os, p, FlowKind.LEADING_ORDER, 1e-3, 0.0)
    with pytest.raises(ValueError):
        evolve(os, p, FlowKind.LEADING_ORDER, 1e-3, np.inf)
    with pytest.raises(ValueError):
        evolve(os, p, FlowKind.LEADING_ORDER, 1e-3, 1e-4, output_times=[0.0, 0.0])
    with pytest.raises(ValueError):
        evolve(os, p, FlowKind.LEADING_ORDER, 1e-3, 1e-4, output_times=[0.0, 2e-3])
    with pytest.raises(ValueError, match="must be finite"):
        evolve(os, p, FlowKind.LEADING_ORDER, 1e-3, 1e-4, output_times=[0.0, np.nan])
    # a run that stopped at its last output time would come back short of T
    for times in ([0.0, 5e-4], []):
        with pytest.raises(ValueError, match="must end at start"):
            evolve(os, p, FlowKind.LEADING_ORDER, 1e-3, 1e-4, output_times=times)


def test_evolve_zero_duration_gives_single_snapshot(u2):
    grid = Grid(32, TWO_PI)
    os = _state(u2, grid)
    states = evolve(os, FlowParams(0.1, 0, 0), FlowKind.LEADING_ORDER, 0.0, 1e-4)
    assert [s.time for s in states] == [0.0]
    np.testing.assert_array_equal(states[0].phi.values, os.phi.values)


def _count_steps(monkeypatch):
    """Patch flows.step to count its calls; returns the one-item counter."""
    calls = [0]
    real_step = flows.step

    def counting_step(*args, **kwargs):
        calls[0] += 1
        return real_step(*args, **kwargs)

    monkeypatch.setattr(flows, "step", counting_step)
    return calls


def test_evolve_lands_exactly_on_output_times(u2, monkeypatch):
    calls = _count_steps(monkeypatch)
    grid = Grid(32, TWO_PI)
    os = _state(u2, grid)
    wanted = [0.0, 3.3e-4, 1e-3]
    states = evolve(os, FlowParams(0.1, 0, 0), FlowKind.LEADING_ORDER, 1e-3, 1e-4,
                    output_times=wanted)
    assert [s.time for s in states] == wanted
    # ceil(3.3) + ceil(6.7) steps, the last of each segment shortened
    assert calls == [11]


@pytest.mark.parametrize("dt", [1e-6, 1e-10, 1e-12])
def test_evolve_takes_every_step_at_any_dt(u2, dt, monkeypatch):
    # the stopping rule is relative to dt, so tiny steps are not dropped
    # and the state is not stamped with a time it never reached
    calls = _count_steps(monkeypatch)
    os = _state(u2, Grid(16, TWO_PI))
    T = 40 * dt
    last = evolve(os, PARAMS, FlowKind.THIRD_ORDER, T, dt)[-1]
    assert calls == [math.ceil(T / dt)] == [40]
    assert last.time == T
    assert np.any(last.phi.values != os.phi.values)


def test_evolve_rejects_output_times_past_the_run_by_many_steps(u2):
    os = _state(u2, Grid(16, TWO_PI))
    T, dt = 1e-10, 1e-12
    with pytest.raises(ValueError):
        evolve(os, PARAMS, FlowKind.THIRD_ORDER, T, dt, output_times=[0.0, T + 5e-10])


def test_blowup_carries_last_state_and_step_index():
    # the para_gl flow is ill-posed at grid scale, so a run at its own step
    # bound still blows up, within 400 steps
    grid = Grid(32, TWO_PI)
    os = _state(AlgebraSpec(Family.PARA_REAL, 2, 1), grid, seed=3)
    bound = stability_bound(PARAMS, grid.h, FlowKind.THIRD_ORDER)
    with np.errstate(all="ignore"):
        with pytest.raises(FlowBlowupError) as err:
            evolve(os, PARAMS, FlowKind.THIRD_ORDER, 400 * bound, bound)
    index = err.value.step_index
    assert 1 <= index < 400
    assert err.value.time == pytest.approx(index * bound, rel=1e-12, abs=0.0)
    assert err.value.last_state.time == pytest.approx((index - 1) * bound, rel=1e-12, abs=0.0)
    assert np.all(np.isfinite(err.value.last_state.phi.values))


@pytest.mark.parametrize("multiple", [1e3, 1e6])
def test_blowup_on_example_state_is_typed_at_any_stage(multiple):
    # alpha = beta = 0 leaves no step bound, so steps of 1e3 and 1e6 times
    # the example's bound are taken; far past it a stage of the first steps
    # goes non-finite, and the march reports it as a blow-up, not as an
    # error from inside the step
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
    grid = Grid(128, TWO_PI)
    os = make_initial_state(
        spec, grid, {"generator": "random_smooth", "seed": 3, "modes": 2, "amplitude": 0.3}
    )
    p = FlowParams(0.0, 0.0, 10.0)
    assert stability_bound(p, grid.h, FlowKind.THIRD_ORDER) == np.inf
    dt = multiple * stability_bound(PARAMS, grid.h, FlowKind.THIRD_ORDER)
    with np.errstate(all="ignore"):
        with pytest.raises(FlowBlowupError) as err:
            evolve(os, p, FlowKind.THIRD_ORDER, 50 * dt, dt)
    index = err.value.step_index
    last = err.value.last_state
    assert 1 <= index < 50
    assert last.time == pytest.approx((index - 1) * dt, rel=1e-12, abs=0.0)
    assert np.all(np.isfinite(last.phi.values))
    assert np.all(np.isfinite(last.frame.values))


def test_commutator_step_takes_no_linear_solve(monkeypatch):
    grid = Grid(32, TWO_PI)
    states = [_state(spec, grid) for spec in all_specs()]
    calls = []
    for name in ("solve", "inv", "eig", "eigh"):
        real = getattr(np.linalg, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for os in states:
        for kind in FlowKind:
            dt = 0.5 * stability_bound(PARAMS, grid.h, kind)
            new = step(os, PARAMS, kind, dt)
            assert new.frame is not None
    assert calls == []


def _solve_based_step(os, p, dt):
    """One two-commutator RKMK step that conjugates by linear solves against
    exp(sigma) rather than by exp(-sigma), with the K_i scaled by dt, and
    moves the frame to frame exp(sigma)."""
    spec, h, phi0 = os.spec, os.phi.grid.h, os.phi.values

    gen = flows._generator(spec, h, p)

    def conj(sigma):
        g = exp_map(sigma)
        return np.linalg.solve(g, phi0 @ g)

    k1 = dt * gen(phi0)
    k2 = dt * gen(conj(k1 / 2))
    k3 = dt * gen(conj(k2 / 2 + bracket(k1, k2) / 8))
    k4 = dt * gen(conj(k3))
    sigma = (k1 + 2 * k2 + 2 * k3 + k4) / 6 + bracket(k1, k4) / 12
    return conj(sigma), os.frame.values @ exp_map(sigma)


def test_frame_step_matches_solve_reference():
    # at half the third-order bound the commutator terms of the step are
    # below roundoff on smooth data; at the leading-order bound of a coarse
    # grid they are not, and a flipped sign in either moves the step by 3e-12
    # or more
    cases = (
        (FlowKind.THIRD_ORDER, Grid(64, TWO_PI), 0.5),
        (FlowKind.LEADING_ORDER, Grid(32, TWO_PI), 1.0),
    )
    for kind, grid, share in cases:
        p = _flow_params(PARAMS, kind)
        dt = share * stability_bound(p, grid.h, kind)
        for spec in all_specs():
            os = _state(spec, grid)
            new = step(os, p, kind, dt)
            phi_ref, frame_ref = _solve_based_step(os, p, dt)
            assert np.max(np.abs(new.frame.values - frame_ref)) < 1e-13, (kind, spec.family)
            assert np.max(np.abs(new.phi.values - phi_ref)) < 1e-13, (kind, spec.family)
            # the stepped frame still reconstructs the stepped field
            rebuilt = conjugate_base(spec, new.frame.values)
            assert np.max(np.abs(rebuilt - new.phi.values)) < 1e-12, (kind, spec.family)


def test_reprojected_flow_matches_matrix_mkdv_reduction(para2):
    # symmetric off-diagonal data for the split family closes the
    # intermediate flow onto Q_t = Q_xxx - 2(Q^3)_x - [Q, [Q, Q_x]];
    # compare through the conjugation-invariant density tr((phi_x phi^-1)^2)
    grid = Grid(64, TWO_PI)
    prof = 0.25 * np.cos(grid.x)
    q = prof[:, None, None].astype(complex)
    ps = PotentialState(para2, grid, q, q)
    os0 = state_from_potential(ps)

    def density(state):
        phi = state.phi.values
        ratio = periodic_diff(phi, 1, grid.h) @ np.linalg.inv(phi)
        return np.real(np.einsum("xij,xji->x", ratio, ratio))

    assert np.max(np.abs(density(os0) - 8.0 * prof**2)) < 1e-5

    T = 2e-3
    dt = 0.4 * stability_bound(FlowParams(0, 0, 0), grid.h, FlowKind.SECOND_ORDER)
    (last,) = evolve(os0, FlowParams(0, 0, 0), FlowKind.SECOND_ORDER, T, dt, output_times=[T])
    got = density(last)

    steps = int(round(T / dt))
    v = ps.assemble().values.copy()
    dstep = T / steps
    for _ in range(steps):
        k1 = matrix_kdv_rhs(v, grid.h)
        k2 = matrix_kdv_rhs(v + 0.5 * dstep * k1, grid.h)
        k3 = matrix_kdv_rhs(v + 0.5 * dstep * k2, grid.h)
        k4 = matrix_kdv_rhs(v + dstep * k3, grid.h)
        v = v + (dstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    want = 8.0 * np.real(v[:, 0, 1] * v[:, 1, 0])

    assert np.max(np.abs(got - want)) < 1e-5
    # time-reversed reference must not match, pinning the orientation
    v = ps.assemble().values.copy()
    for _ in range(steps):
        k1 = -matrix_kdv_rhs(v, grid.h)
        k2 = -matrix_kdv_rhs(v + 0.5 * dstep * k1, grid.h)
        k3 = -matrix_kdv_rhs(v + 0.5 * dstep * k2, grid.h)
        k4 = -matrix_kdv_rhs(v + dstep * k3, grid.h)
        v = v + (dstep / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    reversed_ref = 8.0 * np.real(v[:, 0, 1] * v[:, 1, 0])
    assert np.max(np.abs(got - reversed_ref)) > 1e-4


def test_curve_velocity_differentiates_to_flow_velocity():
    # gamma_x = phi, so d/dx of the curve velocity must reproduce
    # [phi, W]; both sides are smooth, so spectral-accuracy leftovers only
    grid = Grid(96, TWO_PI)
    for spec in all_specs():
        os = _state(spec, grid, seed=9)
        vel = curve_flow_rhs(os, PARAMS)
        lhs = periodic_diff(vel.values, 1, grid.h)
        rhs = bracket(os.phi.values, third_order_generator(os, PARAMS).values)
        scale = max(np.max(np.abs(rhs)), 1.0)
        gap = np.max(np.abs(lhs - rhs)) / scale
        assert gap < 5e-4, f"{spec.family}: {gap:.3e}"


def _chain_curve_velocity(os, p):
    """The curve velocity written directly in phi, with the cubic term as
    the chain phi_x phi^-1 phi_x phi^-1 phi_x."""
    phi = os.phi.values
    phix, phixx, phixxx = periodic_diff(phi, (1, 2, 3), os.phi.grid.h)
    out = -p.alpha * bracket(phi, phix)
    if p.beta != 0.0:
        out += p.beta * (bracket(phi, phixxx) - bracket(phix, phixx))
    coeff = 4.0 * p.gamma - 2.0 * p.beta
    if coeff != 0.0:
        phiinv = phi / _orbit_square(os.spec)  # phi^2 = c^2 I on the orbit
        out += coeff * bracket(phi, _matmul(phix, phiinv, phix, phiinv, phix))
    return out


@pytest.mark.parametrize("params", [(1.0, 0.0, 0.05), (0.8, 0.1, 0.06)], ids=str)
@pytest.mark.parametrize(
    "family, n, k",
    [("compact_u", 2, 1), ("compact_u", 4, 2), ("noncompact_u", 3, 1), ("para_gl", 2, 1)],
)
def test_curve_velocity_is_the_chain_formula(family, n, k, params):
    # the connection writes the cubic term through phi_x^3, the chain through
    # phi^-1; they differ by the stencil's defect in phi phi_x = -phi_x phi,
    # at most 1.7e-14 on this draw at N = 128 (1.8e-12 at N = 64)
    os = _state(AlgebraSpec(Family(family), n, k), Grid(128, TWO_PI), seed=811)
    p = FlowParams(*params)
    got = curve_flow_rhs(os, p).values
    want = _chain_curve_velocity(os, p)
    assert np.max(np.abs(want)) > 0.05
    assert np.max(np.abs(got - want)) < 1e-13


def test_curve_is_antiderivative_of_phi(u2):
    grid = Grid(64, TWO_PI)
    os = _state(u2, grid)
    curve = sym_pohlmeyer_curve(os)
    assert curve.values.shape == os.phi.values.shape
    np.testing.assert_array_equal(curve.values[0], np.zeros((2, 2)))
    deriv = periodic_diff(curve.values, 1, grid.h)
    # derivative of the running integral returns phi away from the seam
    interior = slice(4, grid.num_points - 4)
    gap = np.max(np.abs(deriv[interior] - os.phi.values[interior]))
    assert gap < 1e-3


def _four_stencil_generator(spec, h, phi, p):
    """The generator from four separate periodic_diff passes."""
    w = np.zeros_like(phi)
    if p.alpha != 0.0:
        w -= p.alpha * periodic_diff(phi, 2, h)
    if p.beta != 0.0:
        w += p.beta * periodic_diff(phi, 4, h)
    coeff = 4.0 * (4.0 * p.gamma - 2.0 * p.beta)
    if coeff != 0.0:
        phix = periodic_diff(phi, 1, h)
        cube = phix @ phix @ phix
        w += (-4.0 * _orbit_square(spec) * coeff) * periodic_diff(cube, 1, h)
    return w


@pytest.mark.parametrize("points", [16, 17, 128])
def test_fused_generator_matches_separate_stencils(points):
    # the fused seven-point stencil adds the same terms in another order, so
    # the two forms differ by roundoff in the size of the terms summed:
    # max |phi| times the sum of the stencil weights' magnitudes
    grid = Grid(points, TWO_PI)
    h = grid.h
    for spec in all_specs():
        phi = _state(spec, grid).phi.values
        for kind in (FlowKind.LEADING_ORDER, FlowKind.THIRD_ORDER):
            p = _flow_params(PARAMS, kind)
            want = _four_stencil_generator(spec, h, phi, p)
            got = flows._generator(spec, h, p)(phi)
            terms = np.max(np.abs(phi)) * (
                abs(p.alpha) * 64.0 / (12.0 * h**2) + abs(p.beta) * 160.0 / (6.0 * h**4)
            )
            gap = np.max(np.abs(got - want))
            assert gap <= 1e-13 * max(terms, np.max(np.abs(want))), (spec.family, kind, gap)


def test_commutator_step_makes_two_brackets_and_no_stencil_pass(monkeypatch):
    grid = Grid(32, TWO_PI)
    counts = {"bracket": 0, "periodic_diff": 0}
    for name in counts:
        real = getattr(flows, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(flows, name, counted)
    os = _state(AlgebraSpec(Family.COMPACT_UNITARY, 2, 1), grid)
    dt = 0.5 * stability_bound(PARAMS, grid.h)
    gen = flows._generator(os.spec, grid.h, PARAMS)
    flows._rkmk_step(gen, os.phi.values, os.frame.values, dt)
    assert counts == {"bracket": 2, "periodic_diff": 0}


MIDPOINT_SPECS = [
    AlgebraSpec(Family.COMPACT_UNITARY, 2, 1),
    AlgebraSpec(Family.NONCOMPACT_UNITARY, 3, 1),
]
MIDPOINT_KINDS = [FlowKind.LEADING_ORDER, FlowKind.THIRD_ORDER]


def _count_schemes(monkeypatch):
    """Count the midpoint and RKMK4 steps taken from here on."""
    counts = {"midpoint": 0, "rkmk4": 0}

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(flows, "_isomp_step", counted("midpoint", flows._isomp_step))
    monkeypatch.setattr(flows, "_rkmk_step", counted("rkmk4", flows._rkmk_step))
    return counts


@pytest.mark.parametrize("kind", MIDPOINT_KINDS)
@pytest.mark.parametrize("spec", MIDPOINT_SPECS, ids=lambda spec: spec.family.value)
def test_midpoint_time_accuracy_is_second_order(spec, kind):
    # against an RKMK run at half the bound; the midpoint runs at 20x and
    # 10x the bound
    grid = Grid(32, TWO_PI)
    os = _state(spec, grid)
    bound = stability_bound(PARAMS, grid.h, kind)
    T = 80 * bound
    (ref,) = evolve(os, PARAMS, kind, T, auto_dt(PARAMS, grid.h, kind), output_times=[T])
    errs = []
    for dt in (20 * bound, 10 * bound):
        (last,) = evolve(os, PARAMS, kind, T, dt, output_times=[T])
        errs.append(np.max(np.abs(last.phi.values - ref.phi.values)))
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.9, f"observed time order {rate:.2f}"


@pytest.mark.parametrize("kind", MIDPOINT_KINDS)
@pytest.mark.parametrize("spec", MIDPOINT_SPECS, ids=lambda spec: spec.family.value)
def test_midpoint_keeps_spectrum_membership_and_frame_at_100x_the_bound(spec, kind):
    grid = Grid(32, TWO_PI)
    dt = 100 * stability_bound(PARAMS, grid.h, kind)
    states = evolve(_state(spec, grid), PARAMS, kind, 5 * dt, dt)
    assert max(spectrum_deviation(s) for s in states) <= 1e-13
    assert max(membership_residual(spec, s.phi.values) for s in states) <= 1e-13
    last = states[-1]
    rebuilt = conjugate_base(spec, last.frame.values)
    assert np.max(np.abs(rebuilt - last.phi.values)) <= 1e-12


def test_midpoint_takes_the_step_count_of_the_march(u2, monkeypatch):
    grid = Grid(32, TWO_PI)
    os = _state(u2, grid)
    bound = stability_bound(PARAMS, grid.h)
    dt = 30 * bound
    calls = []
    real = flows.step

    def counted(*args, **kwargs):
        calls.append(args[3])
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "step", counted)
    counts = _count_schemes(monkeypatch)
    # every step, the cut ones too, is beyond the bound
    times = [0.0, 0.4 * dt, 2.5 * dt, 7.0 * dt]
    evolve(os, PARAMS, FlowKind.THIRD_ORDER, times[-1], dt, output_times=times)
    expected = sum(step_count(a, b, dt) for a, b in zip(times, times[1:]))
    assert len(calls) == expected == 9
    assert counts == {"midpoint": 9, "rkmk4": 0}
    # a last step cut to within the bound is an explicit one
    calls.clear()
    evolve(os, PARAMS, FlowKind.THIRD_ORDER, dt + 0.5 * bound, dt)
    assert len(calls) == 2 and calls[1] <= bound
    assert counts == {"midpoint": 10, "rkmk4": 1}


def test_steps_within_the_bound_stay_explicit(u2, monkeypatch):
    grid = Grid(32, TWO_PI)
    os = _state(u2, grid)
    bound = stability_bound(PARAMS, grid.h)
    counts = _count_schemes(monkeypatch)
    evolve(os, PARAMS, FlowKind.THIRD_ORDER, 4 * bound, bound)
    assert counts == {"midpoint": 0, "rkmk4": 4}
    # the midpoint takes over past the same slack as the bound's check
    step(os, PARAMS, FlowKind.THIRD_ORDER, bound * (1.0 + 1e-6))
    assert counts == {"midpoint": 1, "rkmk4": 4}


@pytest.mark.parametrize(
    "family, kind",
    [(Family.PARA_REAL, FlowKind.THIRD_ORDER), (Family.COMPACT_UNITARY, FlowKind.SECOND_ORDER)],
)
def test_midpoint_leaves_para_gl_and_the_second_order_flow_to_the_bound(family, kind):
    grid = Grid(32, TWO_PI)
    os = _state(AlgebraSpec(family, 2, 1), grid)
    bound = stability_bound(PARAMS, grid.h, kind)
    dt = 10 * bound
    message = f"dt={dt:.3e} exceeds the stability bound {bound:.3e}"
    with pytest.raises(StabilityError) as err:
        step(os, PARAMS, kind, dt)
    assert str(err.value) == message
    with pytest.raises(StabilityError) as err:
        evolve(os, PARAMS, kind, 3 * dt, dt)
    assert str(err.value) == message


def test_midpoint_has_no_step_bound(u2):
    grid = Grid(32, TWO_PI)
    dt = 100 * stability_bound(PARAMS, grid.h)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step(_state(u2, grid), PARAMS, FlowKind.THIRD_ORDER, dt)


def test_failed_newton_solve_is_typed_and_indexed(u2):
    # at 9,000x the bound Newton misses its tolerance within its cap; the
    # step before it, at 9x, converges
    grid = Grid(32, TWO_PI)
    os = random_orbit_state(u2, grid, seed=3, modes=2, amplitude=0.3)
    with pytest.raises(NewtonError) as err:
        step(os, PARAMS, FlowKind.THIRD_ORDER, 1.0)
    assert err.value.step_index == 1
    assert err.value.last_state is os
    assert err.value.time == 1.0
    assert math.isfinite(err.value.residual) and err.value.residual > 1e-12
    with pytest.raises(NewtonError) as err:
        evolve(os, PARAMS, FlowKind.THIRD_ORDER, 1.001, 1.0, output_times=[0.001, 1.001])
    assert err.value.step_index == 2
    assert err.value.last_state.time == pytest.approx(0.001)
    assert np.all(np.isfinite(err.value.last_state.phi.values))
    assert str(err.value).startswith("Newton solve of step 2 (t=1.001) left residual")


def test_midpoint_converges_at_1024_points(u2):
    # the example physics and data at N = 1024, where the roundoff term of
    # the stop test, eps (dt / 2) max|L| = 8.4e-12 at dt = 4e-5, is above
    # NEWTON_TOL; a stop test without it fails at the first step
    grid = Grid(1024, TWO_PI)
    data = {"generator": "random_smooth", "seed": 3, "modes": 2, "amplitude": 0.3}
    os = make_initial_state(u2, grid, data)
    T = 8 * 4e-5
    (coarse,) = evolve(os, PARAMS, FlowKind.THIRD_ORDER, T, 4e-5, output_times=[T])
    (fine,) = evolve(os, PARAMS, FlowKind.THIRD_ORDER, T, 2e-5, output_times=[T])
    assert spectrum_deviation(coarse) <= 1e-13
    assert np.max(np.abs(fine.phi.values - coarse.phi.values)) <= 1e-10


@pytest.mark.parametrize("family", [Family.COMPACT_UNITARY, Family.NONCOMPACT_UNITARY])
def test_midpoint_keeps_the_family_at_1024_points(family):
    # the midpoint X is in the algebra only to within the solve's error, and
    # a W = (dt / 2) W(X) amplifies that like N^4; unprojected, the Cayley
    # factor left the group and the membership residual here reached 2e-11
    # on u(2) and 4e-11 on u(1,1)
    spec = AlgebraSpec(family, 2, 1)
    grid = Grid(1024, TWO_PI)
    data = {"generator": "random_smooth", "seed": 3, "modes": 2, "amplitude": 0.3}
    os = make_initial_state(spec, grid, data)
    T = 8 * 4e-5
    states = evolve(os, PARAMS, FlowKind.THIRD_ORDER, T, 4e-5, output_times=[T / 2, T])
    assert max(membership_residual(spec, s.phi.values) for s in states) <= 1e-13
    assert max(spectrum_deviation(s) for s in states) <= 1e-13


def _nan_generator(phi):
    return np.full_like(phi, np.nan)


@pytest.mark.parametrize("fault", ["nan_generator", "singular_cayley_factor"])
def test_non_finite_midpoint_step_is_a_blowup(monkeypatch, fault):
    # a midpoint step that cannot give a finite field raises FlowBlowupError
    # from step itself, and the march counts the steps before it; here the
    # first step is sound and the later ones are not.  The singular Cayley
    # factor is a real one: on u(2,2), a W = [[0, I], [I, 0]] / a is in the
    # algebra and I + a W is exactly singular, so its closed-form inverse
    # is non-finite
    spec = AlgebraSpec(Family.NONCOMPACT_UNITARY, 4, 2)
    grid = Grid(32, TWO_PI)
    os = _state(spec, grid)
    dt = 2.0 ** -10  # a = dt / 2 and 1 / a are exact
    assert dt > 5 * stability_bound(PARAMS, grid.h)
    swap = np.block([[np.zeros((2, 2)), np.eye(2)], [np.eye(2), np.zeros((2, 2))]])
    singular = swap / (0.5 * dt)

    def singular_generator(phi):
        return np.broadcast_to(singular, phi.shape).astype(np.complex128)

    real = flows._isomp_step
    calls = []

    def faulty(gen, *args):
        calls.append(gen)
        if len(calls) == 1:
            return real(gen, *args)
        return real(_nan_generator if fault == "nan_generator" else singular_generator, *args)

    monkeypatch.setattr(flows, "_isomp_step", faulty)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowBlowupError) as err:
            evolve(os, PARAMS, FlowKind.THIRD_ORDER, 3 * dt, dt)
    assert err.value.step_index == 2
    assert err.value.last_state.time == pytest.approx(dt)
    assert err.value.time == pytest.approx(2 * dt)
    assert np.all(np.isfinite(err.value.last_state.phi.values))
    with pytest.raises(FlowBlowupError) as err:
        step(os, PARAMS, FlowKind.THIRD_ORDER, dt)
    assert err.value.step_index == 1
    assert err.value.last_state is os


@pytest.mark.parametrize(
    "spec, points",
    [
        (AlgebraSpec(Family.COMPACT_UNITARY, 2, 1), 1024),
        (AlgebraSpec(Family.NONCOMPACT_UNITARY, 4, 2), 256),
    ],
    ids=["u2-1024", "u22-256"],
)
def test_one_midpoint_step_keeps_the_orbit_at_scale(spec, points):
    # one step of the example physics and data at the example's dt, far
    # beyond the bound: the Cayley factor from two closed-form inverses
    # keeps the spectrum and the family to roundoff
    grid = Grid(points, TWO_PI)
    data = {"generator": "random_smooth", "seed": 3, "modes": 2, "amplitude": 0.3}
    os = make_initial_state(spec, grid, data)
    assert 4e-5 > 1000 * stability_bound(PARAMS, grid.h)
    new = step(os, PARAMS, FlowKind.THIRD_ORDER, 4e-5)
    assert spectrum_deviation(new) < 1e-13
    assert membership_residual(spec, new.phi.values) < 1e-13


def test_singular_two_by_two_cayley_factor_is_a_blowup(monkeypatch):
    # on u(1,1), a W = [[0, 1], [1, 0]] is in the algebra and I + a W is
    # exactly singular: the closed-form inverse gives non-finite values, which
    # step reports as a blow-up, warning of nothing
    spec = AlgebraSpec(Family.NONCOMPACT_UNITARY, 2, 1)
    grid = Grid(32, TWO_PI)
    os = _state(spec, grid)
    dt = 2.0 ** -10  # a = dt / 2 and 1 / a are exact
    assert dt > stability_bound(PARAMS, grid.h)
    singular = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128) / (0.5 * dt)

    def generator(phi):
        return np.broadcast_to(singular, phi.shape).copy()

    real = flows._flow
    monkeypatch.setattr(flows, "_flow", lambda *args: real(*args)._replace(generator=generator))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FlowBlowupError) as err:
            step(os, PARAMS, FlowKind.THIRD_ORDER, dt)
    assert err.value.step_index == 1
    assert err.value.last_state is os


def test_non_finite_rkmk_step_is_a_blowup(u2, monkeypatch):
    # a step within the bound is checked as a midpoint step is: step raises,
    # rather than return a non-finite state
    real = flows._flow
    monkeypatch.setattr(
        flows, "_flow", lambda *args: real(*args)._replace(generator=_nan_generator)
    )
    grid = Grid(32, TWO_PI)
    os = _state(u2, grid)
    dt = 0.5 * stability_bound(PARAMS, grid.h)
    with np.errstate(all="ignore"), pytest.raises(FlowBlowupError) as err:
        step(os, PARAMS, FlowKind.THIRD_ORDER, dt)
    assert err.value.last_state is os
    assert err.value.step_index == 1
    assert err.value.time == os.time + dt


def _small_system(size=12, seed=7):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    a = np.diag(1.0 + np.arange(size)) + 0.3 * noise
    b = (rng.standard_normal(size) + 1j * rng.standard_normal(size)).reshape(3, size // 3)
    products = [0]

    def apply(v):
        products[0] += 1
        return (a @ v.ravel()).reshape(v.shape)

    return a, b, apply, products


@pytest.mark.parametrize("precond", ["identity", "diagonal"])
def test_gcr_solves_a_small_complex_system(precond):
    a, b, apply, products = _small_system()
    inverse_diagonal = (1.0 / np.diag(a)).reshape(b.shape)
    pre = (lambda v: v) if precond == "identity" else (lambda v: inverse_diagonal * v)
    tol = 1e-12 * np.linalg.norm(b)
    x = flows._gcr(apply, pre, b, tol)
    want = np.linalg.solve(a, b.ravel()).reshape(b.shape)
    assert np.linalg.norm(a @ x.ravel() - b.ravel()) <= tol
    assert np.max(np.abs(x - want)) < 1e-10
    # one product per direction, at most one per unknown
    assert 1 <= products[0] <= b.size


def test_gcr_stops_at_its_tolerance(monkeypatch):
    a, b, apply, products = _small_system()
    tol = 0.1 * np.linalg.norm(b)
    x = flows._gcr(apply, lambda v: v, b, tol)
    taken = products[0]
    assert np.linalg.norm(a @ x.ravel() - b.ravel()) <= tol
    # one product fewer leaves the residual above it
    monkeypatch.setattr(flows, "KRYLOV_ITERS", taken - 1)
    x = flows._gcr(apply, lambda v: v, b, tol)
    assert np.linalg.norm(a @ x.ravel() - b.ravel()) > tol


def test_gcr_stops_at_its_product_cap(monkeypatch):
    a, b, apply, products = _small_system()
    monkeypatch.setattr(flows, "KRYLOV_ITERS", 3)
    x = flows._gcr(apply, lambda v: v, b, 0.0)
    assert products == [3]
    assert 0 < np.linalg.norm(a @ x.ravel() - b.ravel()) < np.linalg.norm(b)


def test_gcr_of_a_zero_right_hand_side_is_zero():
    _, b, apply, products = _small_system()
    x = flows._gcr(apply, lambda v: v, np.zeros_like(b), 0.0)
    assert products == [0]
    assert x.shape == b.shape and not np.any(x)


@pytest.mark.parametrize(
    "error_type, detail", [(FlowBlowupError, "off its cone"), (NewtonError, 3.5e-12)]
)
def test_step_errors_survive_pickling(u2, error_type, detail):
    # a suite worker hands its error to the parent through pickle
    os = _state(u2, Grid(16, TWO_PI))
    err = error_type(os, 7, 0.25, detail)
    err.step_index += 2  # a march adds the steps of its earlier segments
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is error_type
    assert (back.step_index, back.time) == (9, 0.25)
    assert getattr(back, "what" if error_type is FlowBlowupError else "residual") == detail
    assert str(back) == str(err)
    assert back.last_state.time == os.time
    assert np.array_equal(back.last_state.phi.values, os.phi.values)
