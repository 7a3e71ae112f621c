"""Deterministic generators for grids, potentials, frames, and states.

Random draws are seeded and resolution independent: only spectral
coefficients are drawn, never grid samples, so refining the grid samples
the same underlying function.  For the same reason the amplitude of a
bump, a random profile or a tangent field is its peak modulus on one fixed
2048-point reference grid, which one normalizer sets for all three.  A
spectral draw is evaluated as one product of a cos/sin table with its
coefficients, the table built once per grid and mode count.
"""

from __future__ import annotations

import functools
import inspect

import numpy as np

from .algebra import AlgebraSpec, Family, _project, exp_map
from .fields import Grid, MatrixField
from .gauge import PotentialState, state_from_potential
from .orbit import FramedState, OrbitState, gauge_fix_frame, orbit_from_frame
from .reductions import Geometry, SpinField, s_to_phi

_REFERENCE_POINTS = 2048


def _reference_grid(length: float) -> Grid:
    return Grid(_REFERENCE_POINTS, length)


def _peak_normalized(env_of, grid, amplitude):
    """env_of(grid), scaled so that the peak modulus of env_of on the
    reference grid is amplitude: the same function of x at every
    resolution."""
    peak = float(np.max(np.abs(env_of(_reference_grid(grid.length)))))
    if peak == 0.0:
        raise ValueError("degenerate envelope")
    return (amplitude / peak) * env_of(grid)


@functools.lru_cache(maxsize=32)
def _trig_table(grid: Grid, modes: int) -> np.ndarray:
    """The read-only (2 modes, N) table of cos(m w x) over sin(m w x),
    m = 1 .. modes, w = 2 pi / L, at the nodes x of grid.  Built once per
    grid and mode count: every draw of a run, and its peak on the reference
    grid, evaluates the same table."""
    phase = np.outer(np.arange(1, modes + 1) * (2.0 * np.pi / grid.length), grid.x)
    table = np.concatenate((np.cos(phase), np.sin(phase)))
    table.setflags(write=False)
    return table


def _trig_sum(grid, coeffs):
    """sum over m of cos(m w x) coeffs[0, m-1] + sin(m w x) coeffs[1, m-1]
    at the nodes of grid, w = 2 pi / L, as one product of the cos/sin
    table, transposed, with the coefficients as a (2 modes, rows cols)
    matrix."""
    modes = coeffs.shape[1]
    flat = coeffs.reshape(2 * modes, -1)
    # complex coefficients as pairs of real columns, so the product is real
    values = _trig_table(grid, modes).T @ flat.view(np.float64)
    return values.view(coeffs.dtype).reshape((grid.num_points,) + coeffs.shape[2:])


def _spectral_coeffs(rng, modes, rows, cols, complex_valued):
    """The cos and sin coefficients of a draw, shape (2, modes, rows, cols).
    modes must be an integer from 1 to the Nyquist mode of the reference
    grid, which normalizes every draw."""
    nyquist = _REFERENCE_POINTS // 2
    if not isinstance(modes, (int, np.integer)) or not 1 <= modes <= nyquist:
        raise ValueError(f"modes must be an integer from 1 to {nyquist}, got {modes!r}")
    # weight ~ m^-4 keeps high stencil derivatives of the samples small
    shape = (2, modes, rows, cols)
    coeffs = rng.standard_normal(shape)
    if complex_valued:
        coeffs = coeffs + 1j * rng.standard_normal(shape)
    weights = np.array([1.0 / m**4 for m in range(1, modes + 1)])
    return coeffs * weights[:, None, None]


def _fixed_direction(rng, rows, cols, complex_valued):
    d = rng.standard_normal((rows, cols))
    if complex_valued:
        d = d + 1j * rng.standard_normal((rows, cols))
    return d / np.max(np.abs(d))


def random_smooth_potential(
    spec: AlgebraSpec,
    grid: Grid,
    seed: int = 0,
    modes: int = 3,
    amplitude: float = 0.3,
) -> PotentialState:
    """Potential of the form q(x) = f(x) Q with a real zero-mean profile f
    and a fixed random direction matrix Q.

    Every value of the assembled coefficient field is then a multiple of a
    single matrix, so the frame integral telescopes and closes up over the
    period.  A generic matrix-valued draw would instead leave holonomy in
    the frame, and every wrap-around difference of it would be garbage.
    """
    rng = np.random.default_rng(seed)
    rows, cols = spec.k, spec.n - spec.k
    coeffs = _spectral_coeffs(rng, modes, 1, 1, False)
    profile = _peak_normalized(lambda g: _trig_sum(g, coeffs)[:, 0, 0], grid, 1.0)
    qdir = _fixed_direction(rng, rows, cols, spec.family.is_unitary)
    q = amplitude * profile[:, None, None] * qdir
    if spec.family.is_unitary:
        return PotentialState.from_q(spec, grid, q)
    rdir = _fixed_direction(rng, cols, rows, False)
    r = amplitude * profile[:, None, None] * rdir
    return PotentialState(spec, grid, q, r)


def _periodized_bump(x, length, center, width):
    # demeaned analytically, so the profile integrates to zero at any N; a
    # width too narrow to evaluate is refused by the potential's checks
    # later, without warnings here
    env = np.full_like(x, -np.sqrt(2.0 * np.pi) * width / length)
    with np.errstate(all="ignore"):
        for image in (-1.0, 0.0, 1.0):
            env += np.exp(-((x - center - image * length) ** 2) / (2.0 * width**2))
    return env


def _width(width) -> float:
    width = float(width)
    if not 0.0 < width < np.inf:
        raise ValueError(f"width must be positive and finite, got {width!r}")
    return width


def _leading_entry_potential(spec: AlgebraSpec, grid: Grid, env: np.ndarray) -> PotentialState:
    rows, cols = spec.k, spec.n - spec.k
    q = np.zeros((grid.num_points, rows, cols), dtype=np.complex128)
    q[:, 0, 0] = env
    if spec.family.is_unitary:
        return PotentialState.from_q(spec, grid, q)
    r = np.zeros((grid.num_points, cols, rows), dtype=np.complex128)
    r[:, 0, 0] = -env
    return PotentialState(spec, grid, q, r)


def gaussian_bump_potential(
    spec: AlgebraSpec,
    grid: Grid,
    amplitude: float = 0.3,
    width: float | None = None,
    center: float | None = None,
) -> PotentialState:
    """Localized pulse in the leading entry over a uniform negative offset
    that cancels its mean, periodized over three images."""
    length = grid.length
    width = _width(length / 10.0 if width is None else width)
    center = length / 2.0 if center is None else float(center)
    env = _peak_normalized(lambda g: _periodized_bump(g.x, length, center, width), grid, amplitude)
    return _leading_entry_potential(spec, grid, env)


def two_bump_potential(
    spec: AlgebraSpec,
    grid: Grid,
    amplitude: float = 0.3,
    width: float | None = None,
    separation: float | None = None,
) -> PotentialState:
    """Pair of pulses at different sites in the leading entry, the second
    slightly weaker, over the offset that cancels their combined mean."""
    length = grid.length
    width = _width(length / 12.0 if width is None else width)
    separation = length / 3.0 if separation is None else float(separation)
    c1 = (length - separation) / 2.0
    c2 = (length + separation) / 2.0
    env = _peak_normalized(
        lambda g: _periodized_bump(g.x, length, c1, width)
        + 0.7 * _periodized_bump(g.x, length, c2, width),
        grid,
        amplitude,
    )
    return _leading_entry_potential(spec, grid, env)


def plane_wave_potential(
    spec: AlgebraSpec,
    grid: Grid,
    amplitude: float = 0.3,
    mode: int = 1,
) -> PotentialState:
    """Single-harmonic standing profile in the leading entry."""
    if mode != int(mode):  # a fractional mode breaks the profile at the wrap
        raise ValueError("mode must be a whole number")
    if mode == 0:
        raise ValueError("mode must be nonzero")
    wave = 2.0 * np.pi * mode / grid.length
    return _leading_entry_potential(spec, grid, amplitude * np.cos(wave * grid.x))


def random_tangent_field(
    spec: AlgebraSpec,
    grid: Grid,
    seed: int = 0,
    modes: int = 2,
    amplitude: float = 0.2,
) -> np.ndarray:
    """Smooth periodic field of algebra elements, peak entry at the stated
    amplitude.  Used both as frame generators and as variation directions."""
    rng = np.random.default_rng(seed)
    coeffs = _spectral_coeffs(rng, modes, spec.n, spec.n, spec.family.is_unitary)
    # the projection is real-linear and the cos/sin weights are real, so
    # projecting the coefficients projects every sample
    coeffs = _project(spec, coeffs)
    return _peak_normalized(lambda g: _trig_sum(g, coeffs), grid, amplitude)


def random_frame_state(
    spec: AlgebraSpec,
    grid: Grid,
    seed: int = 0,
    modes: int = 2,
    amplitude: float = 0.2,
) -> FramedState:
    """Random periodic frame with a block-off-diagonal potential.

    A frame is first built pointwise as the exponential of a random
    tangent field, which makes it exactly periodic, then rotated into the
    gauge whose connection has no block-diagonal part.
    """
    xi = random_tangent_field(spec, grid, seed=seed, modes=modes, amplitude=amplitude)
    # the split family draws exp(-xi): its orbit field is then exp(xi) s exp(-xi),
    # the field that earlier versions drew, so seeded split-family data is kept
    raw = exp_map(xi if spec.family.is_unitary else -xi)
    return gauge_fix_frame(spec, MatrixField(grid, raw))


def random_orbit_state(
    spec: AlgebraSpec,
    grid: Grid,
    seed: int = 0,
    modes: int = 2,
    amplitude: float = 0.2,
) -> OrbitState:
    return orbit_from_frame(random_frame_state(spec, grid, seed, modes, amplitude))


def latitude_circle_state(grid: Grid, mode: int = 8, height: float = 0.65) -> OrbitState:
    """Helical circle at fixed height on the sphere, mapped to the compact
    rank-one orbit.  The induced flow is a rigid precession, which makes
    the state a sharp probe of time-integration error."""
    if not -1.0 < height < 1.0:
        raise ValueError("height must lie strictly between -1 and 1")
    if mode != int(mode):  # a fractional mode breaks the circle at the wrap
        raise ValueError("mode must be a whole number")
    radius = np.sqrt(1.0 - height * height)
    wave = 2.0 * np.pi * mode / grid.length
    s = np.empty((grid.num_points, 3))
    s[:, 0] = radius * np.cos(wave * grid.x)
    s[:, 1] = radius * np.sin(wave * grid.x)
    s[:, 2] = height
    return s_to_phi(SpinField(Geometry.SPHERE, grid, s))


def _latitude_circle(spec: AlgebraSpec, grid: Grid, **options) -> OrbitState:
    if spec.family is not Family.COMPACT_UNITARY or (spec.n, spec.k) != (2, 1):
        raise ValueError("latitude_circle needs the compact rank-one algebra on n = 2")
    return latitude_circle_state(grid, **options)


# name -> builder(spec, grid, **options), of a PotentialState or an OrbitState
_GENERATORS = {
    "random_smooth": random_smooth_potential,
    "gaussian_bump": gaussian_bump_potential,
    "two_bump": two_bump_potential,
    "plane_wave": plane_wave_potential,
    "random_frame": random_orbit_state,
    "latitude_circle": _latitude_circle,
}
_POTENTIAL_GENERATORS = ("gaussian_bump", "plane_wave", "random_smooth", "two_bump")

GENERATOR_NAMES = tuple(sorted(_GENERATORS))
# the builders that take a seed; a tuple, so an unhashable name is simply absent
_SEEDED_NAMES = tuple(
    name for name in GENERATOR_NAMES if "seed" in inspect.signature(_GENERATORS[name]).parameters
)


def draws_seed(config: dict) -> bool:
    """Whether the generator that config names draws from a seed."""
    return config.get("generator") in _SEEDED_NAMES


def _generate(spec: AlgebraSpec, grid: Grid, config: dict, seed: int | None):
    """Run the builder that config names with the rest of config as keyword
    options.  A builder that draws from a seed gets seed unless config
    gives one.  Bad, boolean or non-finite options raise ValueError."""
    options = dict(config)
    name = options.pop("generator", None)
    builder = _GENERATORS[name]
    for key, value in options.items():
        if isinstance(value, bool):  # Python counts a boolean as an int
            raise ValueError(f"bad options for generator '{name}': {key} must be a number")
        if isinstance(value, float) and not np.isfinite(value):
            raise ValueError(f"bad options for generator '{name}': {key} must be finite")
    if seed is not None and draws_seed(config):
        options.setdefault("seed", seed)
    try:
        return builder(spec, grid, **options)
    except TypeError as exc:
        raise ValueError(f"bad options for generator '{name}': {exc}") from None


def make_initial_potential(
    spec: AlgebraSpec, grid: Grid, config: dict, seed: int | None = None
) -> PotentialState:
    """Build a starting potential; the generator must be one of the
    potential-valued kinds.  A seeded generator draws from seed unless
    config gives its own."""
    name = config.get("generator")
    if name not in _POTENTIAL_GENERATORS:
        raise ValueError(
            f"generator {name!r} does not produce a potential; "
            f"choose one of {list(_POTENTIAL_GENERATORS)}"
        )
    return _generate(spec, grid, config, seed)


def make_initial_state(
    spec: AlgebraSpec, grid: Grid, config: dict, seed: int | None = None
) -> OrbitState:
    """Build a starting state from a generator name plus keyword options.
    A seeded generator draws from seed unless config gives its own."""
    name = config.get("generator")
    if name not in GENERATOR_NAMES:  # a tuple, so an unhashable name is unknown too
        raise ValueError(f"unknown generator {name!r}; choose one of {list(GENERATOR_NAMES)}")
    state = _generate(spec, grid, config, seed)
    if name in _POTENTIAL_GENERATORS:
        return state_from_potential(state)
    return state
