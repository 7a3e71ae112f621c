from __future__ import annotations

import numpy as np
import pytest

from grassflow.algebra import (
    AlgebraSpec,
    Family,
    _project,
    exp_map,
    membership_residual,
    sigma3,
)
import grassflow.initial_data as initial_data
from grassflow.fields import Grid
from grassflow.gauge import PotentialState
from grassflow.initial_data import (
    GENERATOR_NAMES,
    _fixed_direction,
    _reference_grid,
    _trig_table,
    _spectral_coeffs,
    draws_seed,
    gaussian_bump_potential,
    latitude_circle_state,
    make_initial_potential,
    make_initial_state,
    plane_wave_potential,
    random_orbit_state,
    random_smooth_potential,
    random_tangent_field,
    state_from_potential,
    two_bump_potential,
)
from grassflow.orbit import spectrum_deviation
from conftest import TWO_PI, all_specs

POTENTIAL_BUILDERS = (
    random_smooth_potential,
    gaussian_bump_potential,
    two_bump_potential,
    plane_wave_potential,
)


def test_generator_names_frozen():
    assert GENERATOR_NAMES == (
        "gaussian_bump",
        "latitude_circle",
        "plane_wave",
        "random_frame",
        "random_smooth",
        "two_bump",
    )


def test_draws_seed_names_the_seeded_generators():
    for name in GENERATOR_NAMES:
        assert draws_seed({"generator": name}) is (name in ("random_frame", "random_smooth"))
    assert draws_seed({"generator": "no_such_generator"}) is False
    assert draws_seed({"generator": ["random_smooth"]}) is False  # unhashable, and not a name
    assert draws_seed({}) is False


def test_potential_profiles_have_zero_mean():
    grid = Grid(128, TWO_PI)
    for spec in all_specs():
        for build in POTENTIAL_BUILDERS:
            ps = build(spec, grid)
            mean = np.abs(np.mean(ps.q, axis=0)).max()
            assert mean < 1e-6, f"{build.__name__}/{spec.family}: {mean:.3e}"


def test_sampling_is_resolution_independent():
    # generators sample a fixed function of x, with every normalization
    # taken on an internal reference grid, so coarse samples must agree
    # with every other resolution pointwise
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
    coarse = Grid(64, TWO_PI)
    fine = Grid(128, TWO_PI)
    for build in POTENTIAL_BUILDERS:
        qc = build(spec, coarse).q
        qf = build(spec, fine).q
        np.testing.assert_allclose(qc, qf[::2], atol=1e-12, err_msg=build.__name__)


def test_peak_amplitude_is_normalized():
    grid = Grid(128, TWO_PI)
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 3, 1)
    for build in POTENTIAL_BUILDERS:
        ps = build(spec, grid, amplitude=0.4)
        peak = np.max(np.abs(ps.q))
        assert peak <= 0.4 * (1.0 + 1e-12), build.__name__
        assert peak > 0.3, build.__name__


def test_random_smooth_is_rank_one():
    # every sample is a multiple of one direction matrix, the property
    # that keeps the integrated frame periodic
    grid = Grid(64, TWO_PI)
    wide = (
        AlgebraSpec(Family.COMPACT_UNITARY, 4, 2),
        AlgebraSpec(Family.NONCOMPACT_UNITARY, 3, 1),
        AlgebraSpec(Family.PARA_REAL, 3, 1),
    )
    for spec in wide:
        ps = random_smooth_potential(spec, grid, seed=12)
        for block in (ps.q, ps.r):
            flat = block.reshape(grid.num_points, -1)
            svals = np.linalg.svd(flat, compute_uv=False)
            assert svals[1] < 1e-12 * max(svals[0], 1.0), spec.family


def test_seed_controls_draw():
    grid = Grid(32, TWO_PI)
    spec = AlgebraSpec(Family.COMPACT_UNITARY, 2, 1)
    a = random_smooth_potential(spec, grid, seed=3).q
    b = random_smooth_potential(spec, grid, seed=3).q
    c = random_smooth_potential(spec, grid, seed=4).q
    np.testing.assert_array_equal(a, b)
    assert np.max(np.abs(a - c)) > 1e-3


def test_bump_potentials_use_leading_entry(u31, para2):
    grid = Grid(64, TWO_PI)
    ps = gaussian_bump_potential(u31, grid)
    assert np.max(np.abs(ps.q[:, :, 1])) == 0.0
    ps = two_bump_potential(para2, grid)
    np.testing.assert_array_equal(ps.r[:, 0, 0], -ps.q[:, 0, 0])


def test_plane_wave_rejects_zero_mode(u2):
    with pytest.raises(ValueError):
        plane_wave_potential(u2, Grid(32, TWO_PI), mode=0)


def test_state_from_potential_lands_on_orbit():
    grid = Grid(128, TWO_PI)
    for spec in all_specs():
        for build in POTENTIAL_BUILDERS:
            os = state_from_potential(build(spec, grid))
            assert spectrum_deviation(os) < 1e-10, build.__name__
            assert membership_residual(spec, os.phi.values) < 1e-8, build.__name__
            assert os.frame is not None


def test_state_from_potential_rejects_holonomy(u2):
    grid = Grid(64, TWO_PI)
    q = np.full((64, 1, 1), 0.3 + 0.0j)
    ps = PotentialState.from_q(u2, grid, q)
    with pytest.raises(ValueError, match="holonomy"):
        state_from_potential(ps)


def test_random_tangent_field_stays_in_algebra():
    grid = Grid(48, TWO_PI)
    for spec in all_specs():
        xi = random_tangent_field(spec, grid, seed=5, amplitude=0.3)
        assert membership_residual(spec, xi) < 1e-12
        # the peak is normalized on an internal reference grid, so the
        # sampled maximum sits at or just below the requested amplitude
        peak = np.max(np.abs(xi))
        assert 0.27 < peak <= 0.3 * (1.0 + 1e-12)


def _per_mode_sum(x, length, cos_c, sin_c):
    # the per-mode loop that the one-product evaluator replaced, kept as its oracle
    wave = 2.0 * np.pi / length
    out = np.zeros((x.shape[0],) + cos_c.shape[1:], dtype=cos_c.dtype)
    for m in range(1, cos_c.shape[0] + 1):
        out += np.cos(m * wave * x)[:, None, None] * cos_c[m - 1]
        out += np.sin(m * wave * x)[:, None, None] * sin_c[m - 1]
    return out


def _per_mode_tangent_field(spec, grid, seed, modes, amplitude):
    # projects and normalizes the summed field rather than the coefficients
    rng = np.random.default_rng(seed)
    cos_c, sin_c = _spectral_coeffs(rng, modes, spec.n, spec.n, spec.family.is_unitary)
    reference = _reference_grid(grid.length)
    ref = _project(spec, _per_mode_sum(reference.x, grid.length, cos_c, sin_c))
    raw = _project(spec, _per_mode_sum(grid.x, grid.length, cos_c, sin_c))
    return (amplitude / np.max(np.abs(ref))) * raw


def _per_mode_smooth_potential(spec, grid, seed, modes, amplitude):
    rng = np.random.default_rng(seed)
    cos_c, sin_c = _spectral_coeffs(rng, modes, 1, 1, False)
    ref = _per_mode_sum(_reference_grid(grid.length).x, grid.length, cos_c, sin_c)
    profile = _per_mode_sum(grid.x, grid.length, cos_c, sin_c)[:, 0, 0] / np.max(np.abs(ref))
    qdir = _fixed_direction(rng, spec.k, spec.n - spec.k, spec.family.is_unitary)
    q = amplitude * profile[:, None, None] * qdir
    if spec.family.is_unitary:
        return q, PotentialState.from_q(spec, grid, q).r
    rdir = _fixed_direction(rng, spec.n - spec.k, spec.k, False)
    return q, amplitude * profile[:, None, None] * rdir


@pytest.mark.parametrize("points", [16, 128, 2048])
@pytest.mark.parametrize("modes", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", list(Family))
def test_draws_match_the_per_mode_loop(family, n, modes, points):
    # the two evaluators sum in different orders, so they agree to roundoff
    # of the peak, not bit for bit
    grid = Grid(points, TWO_PI)
    eps = np.finfo(float).eps
    for k in range(1, n):
        spec = AlgebraSpec(family, n, k)
        for seed in (0, 5):
            xi = random_tangent_field(spec, grid, seed=seed, modes=modes, amplitude=0.2)
            want = _per_mode_tangent_field(spec, grid, seed, modes, 0.2)
            np.testing.assert_allclose(xi, want, rtol=0, atol=8 * eps * 0.2)
            ps = random_smooth_potential(spec, grid, seed=seed, modes=modes, amplitude=0.3)
            want_q, want_r = _per_mode_smooth_potential(spec, grid, seed, modes, 0.3)
            np.testing.assert_allclose(ps.q, want_q, rtol=0, atol=8 * eps * 0.3)
            np.testing.assert_allclose(ps.r, want_r, rtol=0, atol=8 * eps * 0.3)


def test_cached_trig_tables_give_the_uncached_draws(monkeypatch):
    # a table is built once per (grid, modes) and shared, read-only, by
    # every later draw and by the peak on the reference grid; the draws are
    # bit for bit those of a table built afresh for each evaluation
    specs = all_specs() + [AlgebraSpec(Family.NONCOMPACT_UNITARY, 4, 2)]
    grids = [Grid(64, TWO_PI), Grid(128, TWO_PI), Grid(100, 7.5)]

    def draws():
        out = []
        for spec in specs:
            for grid in grids:
                for seed in (0, 3):
                    ps = random_smooth_potential(spec, grid, seed=seed)
                    xi = random_tangent_field(spec, grid, seed=seed, modes=3)
                    frame = random_orbit_state(spec, grid, seed=seed).frame.values
                    out += [ps.q, ps.r, xi, frame]
        return out

    cached = draws()
    table = _trig_table(grids[0], 2)
    assert _trig_table(Grid(64, TWO_PI), 2) is table
    assert not table.flags.writeable
    monkeypatch.setattr(initial_data, "_trig_table", _trig_table.__wrapped__)
    for got, want in zip(cached, draws(), strict=True):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("spec", all_specs() + [
    AlgebraSpec(Family.COMPACT_UNITARY, 4, 2),
    AlgebraSpec(Family.NONCOMPACT_UNITARY, 4, 2),
    AlgebraSpec(Family.PARA_REAL, 3, 1),
], ids=lambda spec: f"{spec.family.value}-{spec.n}-{spec.k}")
def test_draw_peaks_on_the_reference_grid_are_the_amplitude(spec):
    # a grid of the reference size samples the points the peak is taken on
    grid = Grid(2048, TWO_PI)
    assert grid == _reference_grid(grid.length)
    amplitude = 0.4
    ulp = np.spacing(amplitude)
    for seed in (0, 1, 2):
        for build in (random_smooth_potential, random_tangent_field):
            draw = build(spec, grid, seed=seed, amplitude=amplitude)
            blocks = (draw.q, draw.r) if build is random_smooth_potential else (draw,)
            for block in blocks:
                assert abs(np.max(np.abs(block)) - amplitude) <= 4 * ulp, (build.__name__, seed)
    for build in (gaussian_bump_potential, two_bump_potential, plane_wave_potential):
        peak = np.max(np.abs(build(spec, grid, amplitude=amplitude).q))
        assert abs(peak - amplitude) <= 4 * ulp, build.__name__


def test_latitude_circle_validation(grid64):
    os = latitude_circle_state(grid64, mode=4, height=0.4)
    assert spectrum_deviation(os) < 1e-12
    with pytest.raises(ValueError):
        latitude_circle_state(grid64, height=1.0)


def test_make_initial_state_dispatch(u2):
    grid = Grid(64, TWO_PI)
    os = make_initial_state(u2, grid, {"generator": "plane_wave", "mode": 2})
    assert spectrum_deviation(os) < 1e-10
    os = make_initial_state(u2, grid, {"generator": "latitude_circle", "mode": 4})
    assert spectrum_deviation(os) < 1e-12
    os = make_initial_state(u2, grid, {"generator": "random_frame", "seed": 7})
    assert spectrum_deviation(os) < 1e-12


def test_make_initial_state_errors(u2, para2):
    grid = Grid(32, TWO_PI)
    with pytest.raises(ValueError, match="unknown generator"):
        make_initial_state(u2, grid, {"generator": "bogus"})
    with pytest.raises(ValueError, match="latitude_circle"):
        make_initial_state(para2, grid, {"generator": "latitude_circle"})
    with pytest.raises(ValueError, match="bad options"):
        make_initial_state(u2, grid, {"generator": "random_smooth", "bogus": 1})
    with pytest.raises(ValueError, match="amplitude must be finite"):
        make_initial_state(u2, grid, {"generator": "plane_wave", "amplitude": np.inf})
    with pytest.raises(ValueError, match="amplitude must be a number"):
        make_initial_state(u2, grid, {"generator": "plane_wave", "amplitude": False})
    for name in ("plane_wave", "latitude_circle"):
        with pytest.raises(ValueError, match="mode must be a whole number"):
            make_initial_state(u2, grid, {"generator": name, "mode": 2.5})


def test_seed_reaches_the_seeded_generators_unless_config_gives_one(u2):
    grid = Grid(32, TWO_PI)
    for name in ("random_smooth", "random_frame"):
        drawn = make_initial_state(u2, grid, {"generator": name}, seed=7)
        given = make_initial_state(u2, grid, {"generator": name, "seed": 7})
        kept = make_initial_state(u2, grid, {"generator": name, "seed": 7}, seed=8)
        np.testing.assert_array_equal(drawn.phi.values, given.phi.values)
        np.testing.assert_array_equal(kept.phi.values, given.phi.values)
    ps = make_initial_potential(u2, grid, {"generator": "random_smooth"}, seed=7)
    np.testing.assert_array_equal(ps.q, random_smooth_potential(u2, grid, seed=7).q)
    # an unseeded generator takes no seed option
    bump = make_initial_potential(u2, grid, {"generator": "gaussian_bump"}, seed=7)
    np.testing.assert_array_equal(bump.q, gaussian_bump_potential(u2, grid).q)


def test_make_initial_potential_rejects_frame_generators(u2):
    grid = Grid(32, TWO_PI)
    ps = make_initial_potential(u2, grid, {"generator": "gaussian_bump"})
    assert ps.q.shape == (32, 1, 1)
    with pytest.raises(ValueError, match="does not produce a potential"):
        make_initial_potential(u2, grid, {"generator": "random_frame"})
    with pytest.raises(ValueError, match="bad options"):
        make_initial_potential(u2, grid, {"generator": "plane_wave", "bogus": 2})


def test_split_random_orbit_state_conjugates_by_the_drawn_exponential(para2, grid64):
    # the split family draws its raw frame as exp(-xi), so with phi = F^-1 s F
    # the field is exp(xi) s exp(-xi); gauge fixing does not move it
    os = random_orbit_state(para2, grid64, seed=2)
    xi = random_tangent_field(para2, grid64, seed=2)
    want = exp_map(xi) @ sigma3(para2) @ exp_map(-xi)
    np.testing.assert_allclose(os.phi.values, want, rtol=0, atol=1e-13)


def test_random_orbit_state_all_families(grid64):
    for spec in all_specs():
        os = random_orbit_state(spec, grid64, seed=2)
        assert spectrum_deviation(os) < 1e-12
        assert os.frame is not None


@pytest.mark.parametrize("modes", [0, -2, 1025, 2.0, None])
def test_spectral_draws_refuse_modes_off_the_reference_grid(u2, modes):
    grid = Grid(32, TWO_PI)
    for draw in (random_smooth_potential, random_tangent_field, random_orbit_state):
        with pytest.raises(ValueError, match="modes must be an integer from 1 to 1024"):
            draw(u2, grid, seed=1, modes=modes)


def test_spectral_draws_take_modes_up_to_the_reference_nyquist(u2):
    grid = Grid(32, TWO_PI)
    for modes in (1, np.int64(1024)):
        assert np.all(np.isfinite(random_tangent_field(u2, grid, seed=1, modes=modes)))


@pytest.mark.parametrize("width", [0.0, -0.3, np.inf, np.nan])
def test_bumps_refuse_widths_that_are_not_positive_and_finite(u2, width):
    grid = Grid(32, TWO_PI)
    for bump in (gaussian_bump_potential, two_bump_potential):
        with pytest.raises(ValueError, match="width must be positive and finite"):
            bump(u2, grid, width=width)
