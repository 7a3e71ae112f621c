"""Verification drivers.

Each measure_* function runs one family of checks and returns a list of
records {"name", "residual", "tolerance", "pass"}.  Defaults are the
full-strength configurations; callers that want a faster smoke pass can
shrink the counts and grids through the keyword arguments.  Order checks
report the observed order in the residual slot and pass when it reaches
the tolerance from above.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .algebra import AlgebraSpec, Family, bracket
from .fields import Grid, MatrixField
from .flows import (
    FlowKind,
    curve_flow_rhs,
    evolve,
    stability_bound,
    sym_pohlmeyer_curve,
    third_order_generator,
)
from .functionals import FUNCTIONAL_NAMES, FlowParams, energy_report, fd_gradient_check
from .gauge import akns4_rhs, curvature_residual, frame_potential_gaps, potential_rhs
from .initial_data import (
    latitude_circle_state,
    random_frame_state,
    random_orbit_state,
    random_smooth_potential,
    random_tangent_field,
)
from .orbit import verify_identities
from .reductions import (
    Geometry,
    SpinField,
    cross_check_matrix_vs_vector,
    phi_to_s_values,
    s_to_phi,
    scalar_rhs,
    spin_rhs,
)

_SHAPES = ((2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
_ORDER_FLOOR = 1e-9
_NO_ERROR_ORDER = 99.0


def _check(name, residual, tolerance, lower_is_better=True):
    residual = float(residual)
    tolerance = float(tolerance)
    ok = residual <= tolerance if lower_is_better else residual >= tolerance
    return {"name": name, "residual": residual, "tolerance": tolerance, "pass": bool(ok)}


def measure_identities(
    states_per_family=50,
    base_points=128,
    length=2.0 * np.pi,
    tol=1e-6,
    order_min=3.5,
    check_refinement=True,
    seed0=101,
):
    """Frame identity residuals on random states, with grid refinement."""
    checks = []
    for fi, family in enumerate(Family):
        worst = 0.0
        min_order = _NO_ERROR_ORDER
        for idx in range(states_per_family):
            n, k = _SHAPES[idx % len(_SHAPES)]
            spec = AlgebraSpec(family, n, k)
            seed = seed0 + 7919 * fi + 13 * idx
            amplitude = 0.08 + 0.07 * (idx % 5) / 4.0
            fs = random_frame_state(spec, Grid(base_points, length), seed, 2, amplitude)
            coarse = verify_identities(fs)
            worst = max(worst, max(coarse.values()))
            if check_refinement:
                fs2 = random_frame_state(spec, Grid(2 * base_points, length), seed, 2, amplitude)
                fine = verify_identities(fs2)
                for key, rc in coarse.items():
                    if rc >= _ORDER_FLOOR:
                        min_order = min(min_order, np.log2(rc / max(fine[key], 1e-300)))
        checks.append(_check(f"identities_{family.value}_max", worst, tol))
        if check_refinement:
            checks.append(
                _check(f"identities_{family.value}_order", min_order, order_min, lower_is_better=False)
            )
    return checks


def measure_gradients(
    states_per_family=10,
    points=256,
    length=2.0 * np.pi,
    tol=1e-5,
    identity_tol=1e-10,
    seed0=211,
):
    """First-variation checks for every declared gradient, plus the
    identity tying the quartic functional to the chain term."""
    checks = []
    specs = (
        AlgebraSpec(Family.COMPACT_UNITARY, 2, 1),
        AlgebraSpec(Family.PARA_REAL, 2, 1),
    )
    grid = Grid(points, length)
    for spec in specs:
        worst = {name: 0.0 for name in FUNCTIONAL_NAMES}
        worst_id = 0.0
        for idx in range(states_per_family):
            seed = seed0 + 1009 * idx + (0 if spec.family is Family.COMPACT_UNITARY else 37)
            os = random_orbit_state(spec, grid, seed, 2, 0.2)
            xi = MatrixField(grid, random_tangent_field(spec, grid, seed + 5000, 2, 0.3))
            for name in FUNCTIONAL_NAMES:
                analytic, numeric = fd_gradient_check(os, name, xi)
                rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-8)
                worst[name] = max(worst[name], rel)
            rep = energy_report(os, FlowParams(0.0, 0.0, 0.0))
            gap = abs(rep.Etilde - 2.0 * rep.E23) / max(1.0, abs(rep.Etilde))
            worst_id = max(worst_id, gap)
        for name in FUNCTIONAL_NAMES:
            checks.append(_check(f"gradient_{spec.family.value}_{name}", worst[name], tol))
        checks.append(_check(f"quartic_identity_{spec.family.value}", worst_id, identity_tol))
    return checks


def measure_conservation(
    points=128,
    length=2.0 * np.pi,
    T=0.1,
    drift_tol=1e-6,
    spectrum_tol=1e-10,
    order_min=3.5,
    check_order=True,
    generic_check=True,
    seed=331,
):
    """Hamiltonian drift and spectrum preservation along the third-level
    flow, with a time-refinement order estimate on helical data.  The
    helix is exactly precessed by the semidiscrete flow, so its drift
    isolates the time integrator."""
    grid = Grid(points, length)
    p = FlowParams(1.0, 0.0, 0.01)
    os = latitude_circle_state(grid, mode=8, height=0.65)
    dt = 0.5 * stability_bound(p, grid.h, FlowKind.THIRD_ORDER)

    def run(dt_run):
        traj = evolve(os, p, FlowKind.THIRD_ORDER, T, dt_run)
        h0 = traj.reports[0].H
        drift = abs(traj.reports[-1].H - h0) / max(1.0, abs(h0))
        return drift, max(traj.spectrum_deviations)

    drift1, specdev = run(dt)
    checks = [
        _check("conservation_drift", drift1, drift_tol),
        _check("conservation_spectrum", specdev, spectrum_tol),
    ]
    if check_order:
        drift2, _ = run(0.5 * dt)
        order = np.log2(max(drift1, 1e-300) / max(drift2, 1e-300))
        checks.append(_check("conservation_order", order, order_min, lower_is_better=False))
    if generic_check:
        spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
        os_g = random_orbit_state(spec, grid, seed, 2, 0.2)
        traj = evolve(os_g, p, FlowKind.THIRD_ORDER, min(T, 0.05), dt)
        h0 = traj.reports[0].H
        drift_g = abs(traj.reports[-1].H - h0) / max(1.0, abs(h0))
        checks.append(_check("conservation_generic_drift", drift_g, drift_tol))
    return checks


def _smooth_profiles(rng, x, length, count, modes=2, amplitude=0.4):
    out = np.zeros((count, x.shape[0]))
    wave = 2.0 * np.pi / length
    for i in range(count):
        for m in range(1, modes + 1):
            c, s = rng.standard_normal(2) * amplitude / m**2
            out[i] += c * np.cos(m * wave * x) + s * np.sin(m * wave * x)
    return out


def random_spin_field(geometry: Geometry, grid: Grid, seed: int = 0) -> SpinField:
    """Smooth random field planted exactly on the geometry's quadric."""
    rng = np.random.default_rng(seed)
    g = Geometry(geometry)
    p = _smooth_profiles(rng, grid.x, grid.length, 3)
    if g is Geometry.SPHERE:
        v = np.stack([1.5 + p[0], p[1], p[2]], axis=-1)
        s = v / np.linalg.norm(v, axis=-1, keepdims=True)
    elif g is Geometry.HYPERBOLIC:
        s = np.stack([p[0], p[1], np.sqrt(1.0 + p[0] ** 2 + p[1] ** 2)], axis=-1)
    else:
        radial = np.sqrt(1.0 + p[0] ** 2)
        s = np.stack([radial * np.cos(p[1]), radial * np.sin(p[1]), p[0]], axis=-1)
    return SpinField(g, grid, s)


def measure_reductions(
    points=128,
    rhs_points=64,
    length=2.0 * np.pi,
    rhs_tol=1e-10,
    traj_tol=1e-6,
    T=0.05,
    seed=431,
):
    """Conjugacy of the matrix and vector forms, first at the level of the
    right-hand sides, then along full trajectories."""
    checks = []
    grid = Grid(points, length)
    # The pointwise identity holds at any resolution; a coarser grid keeps
    # the 1/h^4 roundoff of the fourth-derivative stencil well under tolerance.
    rhs_grid = Grid(rhs_points, length)
    p_rhs = FlowParams(0.9, 0.35, 0.07)
    # Split-signature tangent planes turn half the dispersive modes into
    # growing ones, so the trajectory leg there needs a small alpha to keep
    # the amplification of grid-scale noise bounded over the run.
    traj_params = {
        Geometry.SPHERE: FlowParams(1.0, 0.0, 0.05),
        Geometry.HYPERBOLIC: FlowParams(1.0, 0.0, 0.05),
        Geometry.DE_SITTER: FlowParams(0.1, 0.0, 0.02),
    }
    for gi, geometry in enumerate(Geometry):
        sf_rhs = random_spin_field(geometry, rhs_grid, seed + 17 * gi)
        vec = spin_rhs(sf_rhs, p_rhs)
        os = s_to_phi(sf_rhs)
        w = third_order_generator(os, p_rhs)
        phidot = bracket(os.phi.values, w.values)
        matrix_vec = phi_to_s_values(geometry, phidot)
        rhs_gap = float(np.max(np.abs(matrix_vec - vec)))
        checks.append(_check(f"reduction_rhs_{geometry.value}", rhs_gap, rhs_tol))
        sf = random_spin_field(geometry, grid, seed + 17 * gi)
        p_traj = traj_params[geometry]
        dt = 0.5 * stability_bound(p_traj, grid.h, FlowKind.THIRD_ORDER)
        traj_gap = cross_check_matrix_vs_vector(sf, p_traj, FlowKind.THIRD_ORDER, T, dt)
        checks.append(_check(f"reduction_trajectory_{geometry.value}", traj_gap, traj_tol))
    return checks


def _gauge_gap(spec, points, length, T, p, seed, window):
    grid = Grid(points, length)
    ps0 = random_smooth_potential(spec, grid, seed=seed, modes=3, amplitude=0.3)
    dt = 0.5 * stability_bound(p, grid.h, FlowKind.THIRD_ORDER)
    (gap,) = frame_potential_gaps(ps0, p, FlowKind.THIRD_ORDER, [T], dt)
    lo, hi = window
    mask = (grid.x >= lo * length) & (grid.x <= hi * length)
    return float(np.max(gap[mask]))


def measure_gauge_compare(
    base_points=128,
    fine_points=256,
    length=2.0 * np.pi,
    T=0.05,
    tol=1e-4,
    order_min=2.0,
    window=(0.1, 0.9),
    seed=521,
):
    """Same data driven through the frame flow plus gauge fixing and
    through the potential equation directly; interior comparison of |q|."""
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
    p = FlowParams(1.0, 0.0, 0.02)
    gap_coarse = _gauge_gap(spec, base_points, length, T, p, seed, window)
    gap_fine = _gauge_gap(spec, fine_points, length, T, p, seed, window)
    order = np.log2(max(gap_coarse, 1e-300) / max(gap_fine, 1e-300))
    return [
        _check("gauge_compare_gap", gap_fine, tol),
        _check("gauge_compare_order", order, order_min, lower_is_better=False),
    ]


def _curvature_trajectory(points, length, p, seed):
    grid = Grid(points, length)
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
    os = random_orbit_state(spec, grid, seed, 2, 0.25)
    dt = 0.5 * stability_bound(p, grid.h, FlowKind.THIRD_ORDER)
    times = [dt, 2.0 * dt, 3.0 * dt]
    return evolve(os, p, FlowKind.THIRD_ORDER, 3.0 * dt, dt, output_times=times)


def measure_curvature(
    base_points=128,
    fine_points=256,
    length=2.0 * np.pi,
    lambdas=(0.5, 1.0, 2.0),
    tol=1e-3,
    order_min=2.0,
    corrupted_min=1e-1,
    seed=613,
):
    """Connection curvature against its target along a short trajectory,
    under simultaneous space and time refinement, plus a discrimination
    check on a deliberately frozen trajectory."""
    p = FlowParams(0.8, 0.1, 0.06)
    coarse = _curvature_trajectory(base_points, length, p, seed)
    fine = _curvature_trajectory(fine_points, length, p, seed)
    # the fine trajectory with its middle snapshot at all three times; the
    # residual reads only the times and the states
    frozen = replace(fine, states=[fine.states[1]] * 3)
    checks = []
    for lam in lambdas:
        tag = f"{lam:g}"
        res_coarse = curvature_residual(coarse, p, lam)[0][1]
        res_fine = curvature_residual(fine, p, lam)[0][1]
        order = np.log2(max(res_coarse, 1e-300) / max(res_fine, 1e-300))
        checks.append(_check(f"curvature_residual_lam{tag}", res_fine, tol))
        checks.append(_check(f"curvature_order_lam{tag}", order, order_min, lower_is_better=False))
        bad = curvature_residual(frozen, p, lam)[0][1]
        checks.append(_check(f"curvature_corrupted_lam{tag}", bad, corrupted_min, lower_is_better=False))
    return checks


def measure_integrable_limit(
    fields_per_size=10,
    points=128,
    length=2.0 * np.pi,
    tol=1e-12,
    seed0=719,
):
    """On the collapse locus the potential equation must reproduce the
    classical fourth-order matrix equation exactly, and the scalar form
    must match the matrix form entrywise at generic parameters."""
    p_limit = FlowParams(0.0, 1.0, -0.125)
    checks = []
    grid = Grid(points, length)
    for n in (2, 3):
        spec = AlgebraSpec(Family.COMPACT_UNITARY, n, 1)
        worst = 0.0
        for idx in range(fields_per_size):
            ps = random_smooth_potential(spec, grid, seed0 + 29 * idx + n, 2, 0.3)
            lhs = potential_rhs(ps, p_limit).q
            rhs = akns4_rhs(ps.q, grid.h)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        checks.append(_check(f"integrable_limit_u{n}", worst, tol))
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
    p_gen = FlowParams(0.8, 0.45, 0.11)
    worst = 0.0
    for idx in range(fields_per_size):
        ps = random_smooth_potential(spec, grid, seed0 + 1000 + idx, 2, 0.3)
        matrix = potential_rhs(ps, p_gen).q[:, 0, 0]
        scalar = scalar_rhs(grid, ps.q[:, 0, 0], p_gen, Family.COMPACT_UNITARY)
        worst = max(worst, float(np.max(np.abs(matrix - scalar))))
    checks.append(_check("scalar_reduction", worst, tol))
    return checks


def _curve_residual_at(points, length, p, seed, window):
    grid = Grid(points, length)
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
    os = random_orbit_state(spec, grid, seed, 2, 0.2)
    dt = 0.5 * stability_bound(p, grid.h, FlowKind.THIRD_ORDER)
    times = [dt, 2.0 * dt, 3.0 * dt]
    traj = evolve(os, p, FlowKind.THIRD_ORDER, 3.0 * dt, dt, output_times=times)
    before = sym_pohlmeyer_curve(traj.states[0]).values
    after = sym_pohlmeyer_curve(traj.states[2]).values
    rate = (after - before) / (2.0 * dt)
    rhs = curve_flow_rhs(traj.states[1], p).values
    anchored = rhs - rhs[0]
    gap = np.max(np.abs(rate - anchored), axis=(1, 2))
    lo, hi = window
    mask = (grid.x >= lo * length) & (grid.x <= hi * length)
    return float(np.max(gap[mask]))


def measure_curve_reconstruction(
    base_points=128,
    fine_points=256,
    length=2.0 * np.pi,
    tol=1e-3,
    order_min=1.5,
    window=(0.1, 0.9),
    seed=811,
):
    """Motion of the reconstructed curve against the declared velocity
    field, anchored at the first node."""
    p = FlowParams(1.0, 0.0, 0.05)
    res_coarse = _curve_residual_at(base_points, length, p, seed, window)
    res_fine = _curve_residual_at(fine_points, length, p, seed, window)
    order = np.log2(max(res_coarse, 1e-300) / max(res_fine, 1e-300))
    return [
        _check("curve_residual", res_fine, tol),
        _check("curve_order", order, order_min, lower_is_better=False),
    ]


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


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose one of {sorted(SUITES)}")
    checks = SUITES[name](**kwargs)
    return {"suite": name, "checks": checks, "pass": all(c["pass"] for c in checks)}
