"""Verification drivers.

Each measure_* function runs one family of checks and returns a list of
records {"name", "residual", "tolerance", "pass"}.  A suite is a fixed
contract: it takes no arguments, and its grids, counts, seeds and
tolerances are written in its body and in the task functions it hands to
_map, which runs its independent pieces on every usable CPU.  Order checks
report the observed order in the residual slot and pass when it reaches the
tolerance from above.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .algebra import AlgebraSpec, Family, bracket
from .fields import Grid, MatrixField
from .flows import (
    FlowKind,
    auto_dt,
    curve_flow_rhs,
    evolve,
    sym_pohlmeyer_curve,
    third_order_generator,
)
from .functionals import FUNCTIONAL_NAMES, FlowParams, energy_report, fd_gradient_check
from .gauge import (
    _frame_invariants,
    _potential_invariants,
    akns4_rhs,
    curvature_residual,
    potential_rhs,
)
from .initial_data import (
    _trig_sum,
    latitude_circle_state,
    random_frame_state,
    random_orbit_state,
    random_smooth_potential,
    random_tangent_field,
)
from .orbit import spectrum_deviation, verify_identities
from .reductions import (
    Geometry,
    SpinField,
    _anchored_scalar_rhs,
    cross_check_matrix_vs_vector,
    phi_to_s_values,
    s_to_phi,
    spin_rhs,
)

_LENGTH = 2.0 * np.pi
_U21 = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
_SHAPES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
# Grid sizes of the refinement checks.
_COARSE, _FINE = 128, 256
_ORDER_FLOOR = 1e-9
_NO_ERROR_ORDER = 99.0


def _map(fn, items):
    """[fn(x) for x in items], in order, computed on a pool of forked
    workers, one per item up to the CPUs this process may run on.  It runs
    serially when that is one worker or the platform cannot fork.  Every
    worker is joined before the call returns.  A worker's exception is
    raised here as its own type; a worker that dies, or whose result or
    error cannot be sent back, ends the call with
    concurrent.futures.process.BrokenProcessPool.  fn and the items must
    pickle, so fn is a module-level function."""
    # imported here: at the top they would cost every CLI start ~30 ms
    import multiprocessing
    import os
    from concurrent.futures import ProcessPoolExecutor

    items = list(items)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else {0}
    workers = min(len(items), len(cpus))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(x) for x in items]
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(fn, items))


def _check(name, residual, tolerance, lower_is_better=True):
    residual = float(residual)
    tolerance = float(tolerance)
    ok = residual <= tolerance if lower_is_better else residual >= tolerance
    return {"name": name, "residual": residual, "tolerance": tolerance, "pass": bool(ok)}


def _order(coarse, fine):
    """Observed order of a residual that halving the grid or step takes
    from coarse to fine."""
    return np.log2(max(coarse, 1e-300) / max(fine, 1e-300))


def _refined(residual_name, order_name, coarse, fine, tol, order_min):
    """The fine residual within tol, and its order against the coarse one
    at least order_min."""
    return [
        _check(residual_name, fine, tol),
        _check(order_name, _order(coarse, fine), order_min, lower_is_better=False),
    ]


def _three_steps(points, p, seed, amplitude):
    """dt and the states after one, two and three third-order steps of dt,
    half the stability bound, from a random compact_u(2, 1) orbit state."""
    grid = Grid(points, _LENGTH)
    os = random_orbit_state(_U21, grid, seed, 2, amplitude)
    dt = auto_dt(p, grid.h, FlowKind.THIRD_ORDER)
    times = [dt, 2.0 * dt, 3.0 * dt]
    return dt, evolve(os, p, FlowKind.THIRD_ORDER, 3.0 * dt, dt, output_times=times)


def _identity_draw(task):
    """Identity residuals of one random frame draw on the coarse and the
    fine grid."""
    fi, family, idx = task
    n, k = _SHAPES[idx % len(_SHAPES)]
    spec = AlgebraSpec(family, n, k)
    seed = 101 + 7919 * fi + 13 * idx
    amplitude = 0.08 + 0.07 * (idx % 5) / 4.0
    return [
        verify_identities(random_frame_state(spec, Grid(points, _LENGTH), seed, 2, amplitude))
        for points in (_COARSE, _FINE)
    ]


def measure_identities():
    """Frame identity residuals on random states, with grid refinement."""
    draws = 50
    families = list(enumerate(Family))
    tasks = [(fi, family, idx) for fi, family in families for idx in range(draws)]
    residuals = _map(_identity_draw, tasks)
    checks = []
    for fi, family in families:
        worst = 0.0
        min_order = _NO_ERROR_ORDER
        for coarse, fine in residuals[fi * draws : (fi + 1) * draws]:
            worst = max(worst, max(coarse.values()))
            for key, rc in coarse.items():
                if rc >= _ORDER_FLOOR:
                    min_order = min(min_order, _order(rc, fine[key]))
        checks.append(_check(f"identities_{family.value}_max", worst, 1e-6))
        checks.append(_check(f"identities_{family.value}_order", min_order, 3.5, lower_is_better=False))
    return checks


def _gradient_draw(task):
    """Relative gradient gaps of one random state and direction, by
    functional, and the gap of its quartic identity."""
    spec, offset, idx = task
    grid = Grid(256, _LENGTH)
    seed = 211 + 1009 * idx + offset
    os = random_orbit_state(spec, grid, seed, 2, 0.2)
    xi = MatrixField(grid, random_tangent_field(spec, grid, seed + 5000, 2, 0.3))
    rels = {
        name: abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
        for name, (analytic, numeric) in fd_gradient_check(os, xi).items()
    }
    rep = energy_report(os, FlowParams(0.0, 0.0, 0.0))
    return rels, abs(rep.Etilde - 2.0 * rep.E23) / max(1.0, abs(rep.Etilde))


def measure_gradients():
    """First-variation checks for every declared gradient, plus the
    identity tying the quartic functional to the chain term."""
    draws = 10
    specs = ((_U21, 0), (AlgebraSpec(Family.PARA_REAL, 2, 1), 37))
    tasks = [(spec, offset, idx) for spec, offset in specs for idx in range(draws)]
    gaps = _map(_gradient_draw, tasks)
    checks = []
    for si, (spec, _) in enumerate(specs):
        worst = {name: 0.0 for name in FUNCTIONAL_NAMES}
        worst_id = 0.0
        for rels, gap in gaps[si * draws : (si + 1) * draws]:
            for name in FUNCTIONAL_NAMES:
                worst[name] = max(worst[name], rels[name])
            worst_id = max(worst_id, gap)
        for name in FUNCTIONAL_NAMES:
            checks.append(_check(f"gradient_{spec.family.value}_{name}", worst[name], 1e-5))
        checks.append(_check(f"quartic_identity_{spec.family.value}", worst_id, 1e-10))
    return checks


def _conservation_run(task):
    """Relative H drift and largest spectrum deviation of one third-level
    run."""
    os, p, T, dt = task
    states = evolve(os, p, FlowKind.THIRD_ORDER, T, dt)
    h0 = energy_report(states[0], p).H
    drift = abs(energy_report(states[-1], p).H - h0) / max(1.0, abs(h0))
    return drift, max(spectrum_deviation(state) for state in states)


def measure_conservation():
    """Hamiltonian drift and spectrum preservation along the third-level
    flow, with a time-refinement order estimate on helical data.  The
    helix is exactly precessed by the semidiscrete flow, so its drift
    isolates the time integrator."""
    grid = Grid(128, _LENGTH)
    p = FlowParams(1.0, 0.0, 0.01)
    dt = auto_dt(p, grid.h, FlowKind.THIRD_ORDER)
    helix = latitude_circle_state(grid, mode=8, height=0.65)
    generic = random_orbit_state(_U21, grid, 331, 2, 0.2)
    runs = [(helix, p, 0.1, dt), (helix, p, 0.1, 0.5 * dt), (generic, p, 0.05, dt)]
    (drift1, specdev), (drift2, _), (drift_g, _) = _map(_conservation_run, runs)
    return [
        _check("conservation_drift", drift1, 1e-6),
        _check("conservation_spectrum", specdev, 1e-10),
        _check("conservation_order", _order(drift1, drift2), 3.5, lower_is_better=False),
        _check("conservation_generic_drift", drift_g, 1e-6),
    ]


def random_spin_field(geometry: Geometry, grid: Grid, seed: int = 0) -> SpinField:
    """Smooth random field planted exactly on the geometry's quadric."""
    # three profiles of two modes, drawn in (profile, mode, cos/sin) order,
    # mode m weighted 0.4 / m^2
    draw = np.random.default_rng(seed).standard_normal((3, 2, 2))
    coeffs = draw.T * (0.4 / np.arange(1, 3) ** 2)[:, None]
    g = Geometry(geometry)
    p = _trig_sum(grid, coeffs).T
    if g is Geometry.SPHERE:
        v = np.stack([1.5 + p[0], p[1], p[2]], axis=-1)
        s = v / np.linalg.norm(v, axis=-1, keepdims=True)
    elif g is Geometry.HYPERBOLIC:
        s = np.stack([p[0], p[1], np.sqrt(1.0 + p[0] ** 2 + p[1] ** 2)], axis=-1)
    else:
        radial = np.sqrt(1.0 + p[0] ** 2)
        s = np.stack([radial * np.cos(p[1]), radial * np.sin(p[1]), p[0]], axis=-1)
    return SpinField(g, grid, s)


def _reduction_gaps(task):
    """Gap between the matrix and vector forms of one geometry, at the
    level of the right-hand sides and along a trajectory."""
    gi, geometry, p_traj = task
    seed = 431 + 17 * gi
    # The pointwise identity holds at any resolution; a coarser grid keeps
    # the 1/h^4 roundoff of the fourth-derivative stencil well under tolerance.
    sf_rhs = random_spin_field(geometry, Grid(64, _LENGTH), seed)
    p_rhs = FlowParams(0.9, 0.35, 0.07)
    vec = spin_rhs(sf_rhs, p_rhs)
    os = s_to_phi(sf_rhs)
    w = third_order_generator(os, p_rhs)
    phidot = bracket(os.phi.values, w.values)
    rhs_gap = float(np.max(np.abs(phi_to_s_values(geometry, phidot) - vec)))
    grid = Grid(128, _LENGTH)
    dt = auto_dt(p_traj, grid.h, FlowKind.THIRD_ORDER)
    sf = random_spin_field(geometry, grid, seed)
    return rhs_gap, cross_check_matrix_vs_vector(sf, p_traj, FlowKind.THIRD_ORDER, 0.05, dt)


def measure_reductions():
    """Conjugacy of the matrix and vector forms, first at the level of the
    right-hand sides, then along full trajectories."""
    # Split-signature tangent planes turn half the dispersive modes into
    # growing ones, so the trajectory leg there needs a small alpha to keep
    # the amplification of grid-scale noise bounded over the run.
    traj_params = {
        Geometry.SPHERE: FlowParams(1.0, 0.0, 0.05),
        Geometry.HYPERBOLIC: FlowParams(1.0, 0.0, 0.05),
        Geometry.DE_SITTER: FlowParams(0.1, 0.0, 0.02),
    }
    tasks = [(gi, geometry, traj_params[geometry]) for gi, geometry in enumerate(Geometry)]
    checks = []
    for geometry, (rhs_gap, traj_gap) in zip(Geometry, _map(_reduction_gaps, tasks)):
        checks.append(_check(f"reduction_rhs_{geometry.value}", rhs_gap, 1e-10))
        checks.append(_check(f"reduction_trajectory_{geometry.value}", traj_gap, 1e-6))
    return checks


def _gauge_side(task):
    """|q| at t = 0.05 on one side of the gauge comparison on one grid; the
    step is half the stability bound, as gauge.frame_potential_gaps asks."""
    side, points, p = task
    grid = Grid(points, _LENGTH)
    ps0 = random_smooth_potential(_U21, grid, seed=521, modes=3, amplitude=0.3)
    dt = auto_dt(p, grid.h, FlowKind.THIRD_ORDER)
    (invariant,) = side(ps0, p, FlowKind.THIRD_ORDER, [0.05], dt)
    return invariant


def measure_gauge_compare():
    """Same data driven through the frame flow plus gauge fixing and
    through the potential equation directly; interior comparison of |q|."""
    p = FlowParams(1.0, 0.0, 0.02)
    grids = (_COARSE, _FINE)
    tasks = [(side, n, p) for n in grids for side in (_frame_invariants, _potential_invariants)]
    sides = _map(_gauge_side, tasks)
    coarse, fine = (
        float(np.max(np.abs(frame - direct)[Grid(n, _LENGTH).interior]))
        for n, frame, direct in zip(grids, sides[0::2], sides[1::2])
    )
    return _refined("gauge_compare_gap", "gauge_compare_order", coarse, fine, 1e-4, 2.0)


def measure_curvature():
    """Connection curvature against its target along a short trajectory,
    under simultaneous space and time refinement, plus a discrimination
    check on a deliberately frozen trajectory."""
    p = FlowParams(0.8, 0.1, 0.06)
    _, coarse = _three_steps(_COARSE, p, 613, 0.25)
    _, fine = _three_steps(_FINE, p, 613, 0.25)
    # the fine trajectory's middle state stamped at all three of its times
    frozen = [replace(fine[1], time=s.time) for s in fine]
    checks = []
    for lam in (0.5, 1.0, 2.0):
        tag = f"{lam:g}"
        res_coarse, res_fine, bad = (
            curvature_residual(states, p, lam)[0][1] for states in (coarse, fine, frozen)
        )
        checks += _refined(
            f"curvature_residual_lam{tag}", f"curvature_order_lam{tag}", res_coarse, res_fine, 1e-3, 2.0
        )
        checks.append(_check(f"curvature_corrupted_lam{tag}", bad, 1e-1, lower_is_better=False))
    return checks


def measure_integrable_limit():
    """On the collapse locus the potential equation must reproduce the
    classical fourth-order matrix equation exactly, and the scalar form
    must match the matrix form entrywise at generic parameters."""
    p_limit = FlowParams(0.0, 1.0, -0.125)
    checks = []
    grid = Grid(128, _LENGTH)
    for n in (2, 3):
        spec = AlgebraSpec(Family.COMPACT_UNITARY, n, 1)
        worst = 0.0
        for idx in range(10):
            ps = random_smooth_potential(spec, grid, 719 + 29 * idx + n, 2, 0.3)
            lhs = potential_rhs(ps, p_limit).q
            rhs = akns4_rhs(ps.q, grid.h)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        checks.append(_check(f"integrable_limit_u{n}", worst, 1e-12))
    p_gen = FlowParams(0.8, 0.45, 0.11)
    worst = 0.0
    for idx in range(10):
        ps = random_smooth_potential(_U21, grid, 1719 + idx, 2, 0.3)
        matrix = potential_rhs(ps, p_gen).q[:, 0, 0]
        scalar = _anchored_scalar_rhs(grid, ps.q[:, 0, 0], p_gen, Family.COMPACT_UNITARY)
        worst = max(worst, float(np.max(np.abs(matrix - scalar))))
    checks.append(_check("scalar_reduction", worst, 1e-12))
    return checks


def _curve_gap(points, p):
    dt, (before, middle, after) = _three_steps(points, p, 811, 0.2)
    rate = (sym_pohlmeyer_curve(after).values - sym_pohlmeyer_curve(before).values) / (2.0 * dt)
    rhs = curve_flow_rhs(middle, p).values
    gap = np.max(np.abs(rate - (rhs - rhs[0])), axis=(1, 2))
    return float(np.max(gap[middle.phi.grid.interior]))


def measure_curve_reconstruction():
    """Motion of the reconstructed curve against the declared velocity
    field, anchored at the first node."""
    p = FlowParams(1.0, 0.0, 0.05)
    coarse, fine = _curve_gap(_COARSE, p), _curve_gap(_FINE, p)
    return _refined("curve_residual", "curve_order", coarse, fine, 1e-3, 1.5)


SUITES = {
    "identities": measure_identities,
    "gradients": measure_gradients,
    "conservation": measure_conservation,
    "reductions": measure_reductions,
    "gauge-compare": measure_gauge_compare,
    "curvature": measure_curvature,
    "integrable-limit": measure_integrable_limit,
    "curve": measure_curve_reconstruction,
}


def run_suite(name: str) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose one of {sorted(SUITES)}")
    checks = SUITES[name]()
    return {"suite": name, "checks": checks, "pass": all(c["pass"] for c in checks)}
