"""Time evolution of orbit fields for the three levels of the hierarchy.

All three flows are commutator flows phi_t = [phi, W] and are integrated by
one fourth-order Lie-group method, Munthe-Kaas's Runge-Kutta scheme in its
two-commutator form: the stages are conjugations of the start value, with
no dexp^-1 series, and one step makes two brackets.  The update is the
conjugation exp(-sigma) phi exp(sigma), with both exponentials taken from
one truncated Taylor evaluation whose error is below roundoff, so the
spectrum (and hence the orbit) is kept to roundoff without a linear solve.
A frame F with phi = F^-1 s F rides along as F exp(sigma).
The leading-order flow is the third-order flow with beta = gamma = 0; each
stage evaluates their generator W with one seven-point stencil for its
linear part and takes phi_x and the derivative of the cube from padded
copies, so their steps call periodic_diff nowhere.  A flow's bound, generator
and midpoint symbol are one record, built once per (spec, grid, params, kind).
The intermediate flow is a direct equation phi_t = F(phi); on the orbit
ad_phi^2 = 4 c^2 on tangent vectors, so its tangent part is [phi, W] with
W = [phi, F] / (4 c^2).

The explicit step's bound dt <= 0.2 h^4 / (|beta| 80/3) makes the step count
to a fixed T grow like N^4.  A step of the leading- or third-order flow on
the complex families that is longer than that bound is an isospectral
midpoint step instead, an implicit second-order scheme with no step bound:
a Newton-Krylov solve for the midpoint, then a conjugation by a Cayley
factor built from a W projected onto the algebra, which keeps the spectrum
and the family to roundoff whether or not the solve converged.  A solve
that misses its tolerance raises NewtonError; the step never retries.
Elsewhere a step longer than the bound is refused with a StabilityError.
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import functools
import math

import numpy as np

from .algebra import (
    AlgebraSpec,
    Family,
    _exp_pair,
    _inv,
    _matmul,
    _orbit_square,
    _project,
    bracket,
)
from .fields import (
    _STENCILS,
    Grid,
    MatrixField,
    _wrap_pad,
    cumulative_trapezoid,
    periodic_diff,
    stencil_symbol,
)
from .functionals import FlowParams
from .orbit import OrbitState

# Peak spectral amplification of the difference stencils, used for the
# step-size bounds: the peak of |stencil_symbol(order, N, h)| h^order.  The
# fourth-order peak is exactly 80/3; the third-order peak is 4.609, and 4.7
# is a stated margin over it.
FOURTH_DERIV_GAIN = 80.0 / 3.0
THIRD_DERIV_GAIN = 4.7

# A segment whose length is within this fraction of a step of a whole number
# of steps takes that whole number: the last step lands on the target rather
# than leave a sliver step.  Output times may overshoot the run by as much.
STEP_SLACK = 1e-9


class FlowKind(str, enum.Enum):
    LEADING_ORDER = "leading_order"
    SECOND_ORDER = "second_order"
    THIRD_ORDER = "third_order"


# Highest derivative order that a step of each flow takes.
DERIVATIVE_ORDER = {
    FlowKind.LEADING_ORDER: 2,
    FlowKind.SECOND_ORDER: 3,
    FlowKind.THIRD_ORDER: 4,
}


class StabilityError(RuntimeError):
    """Requested step exceeds the explicit bound where no midpoint step applies."""


class FlowBlowupError(RuntimeError):
    """Evolution produced non-finite values, or a field its step cannot
    carry on; carries the last good state (an OrbitState, PotentialState or
    SpinField), the index of the step that failed, counted from 1, the time
    that step reached and what went wrong.  A caller that marched earlier
    segments may add their steps to step_index; the message follows."""

    def __init__(self, last_state, step_index: int, time: float, what: str = "non-finite field"):
        # the arguments go to args, from which pickle rebuilds the error
        super().__init__(last_state, step_index, time, what)
        self.last_state = last_state
        self.step_index = step_index
        self.time = time
        self.what = what

    def __str__(self):
        return f"{self.what} after step {self.step_index} (t={self.time:.6g})"


class NewtonError(RuntimeError):
    """The isospectral midpoint's Newton solve missed its tolerance within
    NEWTON_ITERS iterations.  Carries the state the step started from, the
    index of the step that failed, counted from 1 (a march adds the steps
    before it, as for FlowBlowupError), the time that step would have
    reached and the max-abs residual it was left with, which is finite: a
    step whose residual is not raises FlowBlowupError."""

    def __init__(self, last_state, step_index: int, time: float, residual: float):
        super().__init__(last_state, step_index, time, residual)
        self.last_state = last_state
        self.step_index = step_index
        self.time = time
        self.residual = residual

    def __str__(self):
        return (
            f"Newton solve of step {self.step_index} (t={self.time:.6g}) left "
            f"residual {self.residual:.3e} after {NEWTON_ITERS} iterations"
        )


def stability_bound(p: FlowParams, h: float, kind: FlowKind = FlowKind.THIRD_ORDER) -> float:
    """Step-size bound for the explicit integrators."""
    kind = FlowKind(kind)
    if kind is FlowKind.SECOND_ORDER:
        return 0.2 * h ** 3 / THIRD_DERIV_GAIN
    p = _flow_params(p, kind)
    bound = np.inf
    if p.beta != 0.0:
        bound = min(bound, 0.2 * h ** 4 / (abs(p.beta) * FOURTH_DERIV_GAIN))
    if p.alpha != 0.0:
        bound = min(bound, 0.2 * h ** 2 / abs(p.alpha))
    return float(bound)


def auto_dt(p: FlowParams, h: float, kind: FlowKind) -> float:
    """The step of `dt: auto` and of the suites: half the stability bound."""
    return 0.5 * stability_bound(p, h, kind)


def _flow_params(p: FlowParams, kind: FlowKind) -> FlowParams:
    """The coefficients a commutator flow of this kind integrates: the
    leading-order flow is the third-order flow with beta = gamma = 0.  The
    second-order flow takes none, so the comparisons with the potential and
    vector equations, which integrate these coefficients, exclude it."""
    kind = FlowKind(kind)
    if kind is FlowKind.SECOND_ORDER:
        raise ValueError("the comparisons cover leading_order and third_order")
    if kind is FlowKind.LEADING_ORDER:
        return FlowParams(p.alpha, 0.0, 0.0)
    return p


def _generator(spec: AlgebraSpec, h: float, p: FlowParams):
    """The map phi -> W of the commutator flow phi_t = [phi, W] with
    W = -alpha phi_xx + beta phi_xxxx + 4 (4 gamma - 2 beta) sgn (phi_x^3)_x.

    The stencils of -alpha D2 + beta D4 are combined once here into one
    symmetric seven-point stencil.  Each call wrap-pads phi once and takes
    both that stencil and phi_x from the padded copy, summing the two
    values at offsets +o and -o before weighting them (D1 is
    antisymmetric); the derivative of the cube is taken the same way from
    one padded copy of the cube.
    """
    # weights of phi[j] (at 0) and of each sum phi[j + o] + phi[j - o] in
    # -alpha D2 + beta D4, and of each difference phi[j + o] - phi[j - o] in D1
    even = [0.0] * 4
    for order, scale in ((4, p.beta), (2, -p.alpha)):
        offsets, weights, denom, power = _STENCILS[order]
        for off, w in zip(offsets, weights):
            if off >= 0:
                even[off] += scale * w / (denom * h ** power)
    center = even[0]
    pairs = [(off, c) for off, c in enumerate(even) if off > 0 and c != 0.0]
    offsets1, weights1, denom1, _ = _STENCILS[1]
    odd = [(off, w / (denom1 * h)) for off, w in zip(offsets1, weights1) if off > 0]
    coeff = 4.0 * (4.0 * p.gamma - 2.0 * p.beta)
    # on the orbit phi^-1 = phi / c^2 and phi phi_x = -phi_x phi, so the
    # chain phi_x phi^-1 phi_x phi^-1 phi_x is -phi_x^3 / c^2 = 4 sgn phi_x^3
    cube_coeff = -4.0 * _orbit_square(spec) * coeff
    pad = max(_STENCILS[4][0])
    pad1 = max(offsets1)

    def shifted(padded, width, off):
        # rows j + off, j = 0 .. N - 1, of an array wrap-padded by width rows
        return padded[width + off : len(padded) - width + off]

    def d1(padded, width):
        return sum(
            c * (shifted(padded, width, off) - shifted(padded, width, -off)) for off, c in odd
        )

    def gen(phi: np.ndarray) -> np.ndarray:
        padded = _wrap_pad(phi, pad)
        w = center * phi
        for off, c in pairs:
            w += c * (shifted(padded, pad, off) + shifted(padded, pad, -off))
        if cube_coeff != 0.0:
            phix = d1(padded, pad)
            cube = _matmul(phix, phix, phix)
            w += cube_coeff * d1(_wrap_pad(cube, pad1), pad1)
        return w

    return gen


def third_order_generator(os: OrbitState, p: FlowParams) -> MatrixField:
    """Flow generator W of the third-level commutator flow phi_t = [phi, W],
    with the cubic term reduced to a polynomial in phi_x."""
    gen = _flow(os.spec, os.phi.grid, p, FlowKind.THIRD_ORDER).generator
    return MatrixField(os.phi.grid, gen(os.phi.values))


def _conjugate(g: np.ndarray, ginv: np.ndarray, phi: np.ndarray) -> np.ndarray:
    # exp(-sigma) phi exp(sigma) with g, ginv = exp(sigma), exp(-sigma)
    return _matmul(ginv, phi, g)


def _rkmk_step(gen, phi0: np.ndarray, frame0: np.ndarray | None, dt: float):
    """One RKMK step of phi_t = [phi, gen(phi)], in Munthe-Kaas's
    two-commutator form of order 4.  With Ad(s) = exp(-s) phi0 exp(s) and
    K_i = dt gen(Ad(s_i)), the stages are s_1 = 0, s_2 = K_1 / 2,
    s_3 = K_2 / 2 + [K_1, K_2] / 8 and s_4 = K_3, and the step is
    sigma = (K_1 + 2 K_2 + 2 K_3 + K_4) / 6 + [K_1, K_4] / 12.  Below,
    k_i = K_i / dt, and dt enters the combinations."""

    def stage(sigma):
        return gen(_conjugate(*_exp_pair(sigma), phi0))

    k1 = gen(phi0)
    k2 = stage((0.5 * dt) * k1)
    k3 = stage((0.5 * dt) * k2 + (0.125 * dt * dt) * bracket(k1, k2))
    k4 = stage(dt * k3)
    sigma = (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4) + (dt * dt / 12.0) * bracket(k1, k4)
    g, ginv = _exp_pair(sigma)
    phi1 = _conjugate(g, ginv, phi0)
    # phi = F^-1 s F, so the frame moves on the right: F exp(sigma)
    frame1 = None if frame0 is None else _matmul(frame0, g)
    return phi1, frame1


# Newton on the isospectral midpoint stops once the max-abs residual is
# NEWTON_TOL + eps (dt / 2) max|L| times phi's largest entry, the second
# term being the roundoff of evaluating the residual (Kelley 1995), and
# fails after NEWTON_ITERS updates.  Each update is a Krylov solve to
# KRYLOV_TOL times the residual's 2-norm, capped at KRYLOV_ITERS products.
NEWTON_TOL = 1e-12
NEWTON_ITERS = 8
KRYLOV_TOL = 1e-3
KRYLOV_ITERS = 60


def _gcr(apply, precond, b: np.ndarray, tol: float) -> np.ndarray:
    """x with ||apply(x) - b|| <= tol in the 2-norm over all entries, by the
    generalized conjugate residual method (Eisenstat, Elman and Schultz
    1983) right-preconditioned by precond.  Each direction precond(r) has
    its image under apply made orthonormal to the earlier images, so x
    minimises the residual over the directions so far, as GMRES does.
    Returns what it has after KRYLOV_ITERS products of apply, or once an
    image vanishes."""
    x, r = np.zeros_like(b), b
    dirs, images = [], []
    while float(np.linalg.norm(r)) > tol and len(images) < KRYLOV_ITERS:
        p = precond(r)
        ap = apply(p)
        for d, image in zip(dirs, images):  # modified Gram-Schmidt
            c = np.vdot(image, ap)
            ap = ap - c * image
            p = p - c * d
        norm = float(np.linalg.norm(ap))
        if norm == 0.0:
            return x
        dirs.append(p / norm)
        images.append(ap / norm)
        c = np.vdot(images[-1], r)
        x = x + c * dirs[-1]
        r = r - c * images[-1]
    return x


def _isomp_step(gen, symbol, peak: float, spec: AlgebraSpec, phi0: np.ndarray, frame0, dt: float):
    """One step of the isospectral midpoint (Modin and Viviani, FoCM 2020)
    for phi_t = [phi, gen(phi)].  With a = dt / 2 and W = gen(X), Newton
    solves (I + a W) X (I - a W) = phi0 for the midpoint X, each update by
    GCR on finite-difference Jacobian products (Knoll and Keyes, JCP
    2004).  The step projects a W onto the algebra of spec and conjugates
    by the Cayley factor C = (I + a W)^-1 (I - a W): phi1 = C phi0 C^-1,
    frame1 = frame0 C^-1, so phi1 is isospectral to phi0, and stays in the
    family, however far Newton got.  Since I - a W = 2 I - (I + a W),
    C = 2 (I + a W)^-1 - I and C^-1 = 2 (I - a W)^-1 - I: two inverses
    and no product.

    Returns (phi1, frame1, residual, tol) from the last iterate, residual
    being the max-abs residual of the midpoint equation and tol its stop
    test; the caller judges them.  A singular Cayley factor makes phi1
    non-finite.  symbol is the FFT symbol of the linear part L of gen and
    peak its largest modulus.
    """
    a = 0.5 * dt
    c2 = _orbit_square(spec)
    tol = (NEWTON_TOL + np.finfo(float).eps * a * peak) * np.max(np.abs(phi0))

    def residual(x):
        aw = a * gen(x)
        left = x + _matmul(aw, x)
        return left - _matmul(left, aw) - phi0, aw

    # The Jacobian is about I - a ad_phi0 L.  On tangent vectors
    # ad_phi0^2 = 4 c^2 = -1, so there its inverse is about
    # (I + a ad_phi0 L)(I + a^2 L^2)^-1, the second factor diagonal in
    # Fourier space; on normal vectors, which commute with phi0, it is about
    # I.  The tangent part of v is ad_phi0^2 v / (4 c^2), which is
    # (v - phi0 v phi0 / c^2) / 2 since phi0^2 = c^2 I.
    damp = (1.0 / (1.0 + (a * symbol) ** 2))[:, None, None]
    lsym = symbol[:, None, None]

    def precond(v):
        tangent = 0.5 * (v - _matmul(phi0, v, phi0) / c2)
        vh = np.fft.fft(tangent, axis=0) * damp
        lv = np.fft.ifft(lsym * vh, axis=0)
        return v - tangent + np.fft.ifft(vh, axis=0) + a * bracket(phi0, lv)

    x = phi0
    r, aw = residual(x)
    err = float(np.max(np.abs(r)))
    for _ in range(NEWTON_ITERS):
        if err <= tol or not math.isfinite(err):
            break
        x0, r0 = x, r
        # finite-difference steps of about sqrt(machine eps) relative to x0
        reach = 1.5e-8 * (1.0 + np.linalg.norm(x0))

        def jacobian(v, x0=x0, r0=r0, reach=reach):
            eps = reach / np.linalg.norm(v)
            return (residual(x0 + eps * v)[0] - r0) / eps

        x = x0 + _gcr(jacobian, precond, -r0, KRYLOV_TOL * np.linalg.norm(r0))
        r, aw = residual(x)
        err = float(np.max(np.abs(r)))
    # a W is in the algebra only to within the solve's error, which a W
    # amplifies at large N; projected, the Cayley factor is in the group
    aw = _project(spec, aw)
    eye = np.eye(phi0.shape[-1])
    c = 2.0 * _inv(eye + aw) - eye
    cinv = 2.0 * _inv(eye - aw) - eye
    phi1 = _matmul(c, phi0, cinv)
    frame1 = None if frame0 is None else _matmul(frame0, cinv)
    return phi1, frame1, err, tol


def _second_order_generator(spec: AlgebraSpec, h: float):
    """The map phi -> W = [phi, F] / (4 c^2) of the intermediate flow
    phi_t = F = phi_xxx - 6 c^2 [phi_x, [phi, phi_x]]_x: [phi, W] is the
    tangent part of F."""
    c2 = _orbit_square(spec)

    def gen(phi: np.ndarray) -> np.ndarray:
        phix, phixxx = periodic_diff(phi, (1, 3), h)
        corr = bracket(phix, bracket(phi, phix))
        rate = phixxx + (-6.0 * c2) * periodic_diff(corr, 1, h)
        return bracket(phi, rate) / (4.0 * c2)

    return gen


_Flow = collections.namedtuple("_Flow", "bound generator symbol peak")


@functools.lru_cache(maxsize=16)
def _flow(spec: AlgebraSpec, grid: Grid, p: FlowParams, kind: FlowKind) -> _Flow:
    """What a step of this flow needs, built once: its explicit step bound,
    its generator phi -> W, the real, read-only FFT symbol of the linear
    part L = -alpha D2 + beta D4 of W, and the symbol's peak modulus, which
    scales the midpoint's stop test.  Both are None where no midpoint step
    applies: its preconditioner divides by 1 - 4 c^2 a^2 L^2, singular
    on para_gl (4 c^2 = +1: the flow is ill-posed at grid scale), and knows
    L only on the leading and third orders."""
    kind, h = FlowKind(kind), grid.h
    bound = stability_bound(p, h, kind)
    if kind is FlowKind.SECOND_ORDER:
        return _Flow(bound, _second_order_generator(spec, h), None, None)
    physics = _flow_params(p, kind)
    symbol = peak = None
    if spec.family is not Family.PARA_REAL:
        d2, d4 = (stencil_symbol(order, grid.num_points, h) for order in (2, 4))
        symbol = (-physics.alpha * d2 + physics.beta * d4).real
        symbol.setflags(write=False)
        peak = float(np.max(np.abs(symbol)))
    return _Flow(bound, _generator(spec, h, physics), symbol, peak)


def _check_stability(bound: float, dt: float):
    # the march may cut a last step a few ulps longer than dt; a NaN dt is
    # outside the bound too
    if not dt <= bound * (1.0 + STEP_SLACK):
        raise StabilityError(f"dt={dt:.3e} exceeds the stability bound {bound:.3e}")


def step(os: OrbitState, p: FlowParams, kind: FlowKind, dt: float) -> OrbitState:
    """Advance one time step; a frame rides along.  A step within the
    explicit bound is an RKMK4 step, a longer one a midpoint step where the
    flow has a midpoint symbol and a StabilityError elsewhere.  A midpoint
    step raises NewtonError when its solve misses its tolerance.  Either
    raises FlowBlowupError, with os and step index 1, on a non-finite phi,
    frame or midpoint residual, or on a singular Cayley factor; the
    arithmetic that made the non-finite values warns of nothing."""
    bound, gen, symbol, peak = _flow(os.spec, os.phi.grid, p, kind)
    frame0 = None if os.frame is None else os.frame.values
    residual, tol = 0.0, math.inf  # an RKMK step solves nothing
    if symbol is None:
        _check_stability(bound, dt)
    explicit = dt <= bound * (1.0 + STEP_SLACK)
    with np.errstate(all="ignore"):
        if explicit:
            phi1, frame1 = _rkmk_step(gen, os.phi.values, frame0, dt)
        else:
            phi1, frame1, residual, tol = _isomp_step(
                gen, symbol, peak, os.spec, os.phi.values, frame0, dt
            )
    if not all(np.all(np.isfinite(a)) for a in (phi1, frame1, residual) if a is not None):
        raise FlowBlowupError(os, 1, os.time + dt)
    if residual > tol:
        raise NewtonError(os, 1, os.time + dt, residual)
    frame_field = None if frame1 is None else MatrixField(os.phi.grid, frame1)
    return OrbitState(os.spec, MatrixField(os.phi.grid, phi1), os.time + dt, frame_field)


def _output_times(t0: float, T: float, dt: float, output_times=None) -> list[float]:
    """Output times of a run of duration T from t0 with step dt: by default
    the two ends, else the given times, which must be finite, increase
    strictly, lie within [t0, t0 + T] and end at t0 + T, up to STEP_SLACK
    steps."""
    times = None if output_times is None else [float(t) for t in output_times]
    if times is not None and not all(math.isfinite(t) for t in times):
        raise ValueError("must be finite")
    if not (math.isfinite(T) and math.isfinite(dt) and T >= 0 and dt > 0):
        raise ValueError("need finite T >= 0 and dt > 0")
    if times is None:
        return [t0, t0 + T] if T > 0 else [t0]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValueError("must be strictly increasing")
    slack = STEP_SLACK * dt
    if times and (times[0] < t0 - slack or times[-1] > t0 + T + slack):
        raise ValueError("must lie within [start, start + T]")
    if not times or times[-1] < t0 + T - slack:
        raise ValueError(f"must end at start + T = {t0 + T!r}")
    return times


def step_count(t: float, target: float, dt: float) -> int:
    """Steps a march takes from t to target: ceil((target - t) / dt) up to
    STEP_SLACK, each of length dt except the last, which is cut to land on
    target."""
    return max(0, math.ceil((target - t) / dt - STEP_SLACK))


def _march(state, output_times, dt: float, advance):
    """Carry state from its own time onto each output time in turn,
    yielding it stamped with that time exactly on arrival, and go on from
    the stamped state.

    A segment from state.time to target takes step_count(state.time,
    target, dt) steps of advance(state, h), which returns a finite state at
    state.time + h or raises FlowBlowupError or NewtonError with step index
    1; the march adds the steps before it to that index."""
    step_index = 0
    for target in output_times:
        count = step_count(state.time, target, dt)
        for i in range(count):
            h = dt if i < count - 1 else target - state.time
            try:
                state = advance(state, h)
            except (NewtonError, FlowBlowupError) as exc:
                exc.step_index += step_index
                raise
            step_index += 1
        state = dataclasses.replace(state, time=target)
        yield state


def evolve(
    os: OrbitState,
    p: FlowParams,
    kind: FlowKind,
    T: float,
    dt: float,
    output_times: list[float] | None = None,
) -> list[OrbitState]:
    """Run the flow for a duration T and return the state at each output
    time, stamped with that time exactly.  Each step is taken by step, so a
    dt beyond the explicit bound runs the isospectral midpoint where that
    applies, and a last step cut to within the bound is an RKMK4 step; where
    no midpoint applies, such a dt is refused before the first step.  Raises
    FlowBlowupError (with the last finite state and the offending step index)
    if the field stops being finite, and NewtonError (likewise) if a midpoint
    solve fails."""
    times = _output_times(os.time, T, dt, output_times)
    flow = _flow(os.spec, os.phi.grid, p, kind)
    if flow.symbol is None:
        _check_stability(flow.bound, dt)
    return list(_march(os, times, dt, lambda state, h: step(state, p, kind, h)))


def sym_pohlmeyer_curve(os: OrbitState) -> MatrixField:
    """Curve whose derivative is the orbit field: the running integral of
    phi anchored at the first node."""
    grid = os.phi.grid
    return MatrixField(grid, cumulative_trapezoid(os.phi.values, grid.h))


def curve_flow_rhs(os: OrbitState, p: FlowParams) -> MatrixField:
    """Velocity of the reconstructed curve, written in terms of phi.  The
    curve built by sym_pohlmeyer_curve moves by this field minus its value
    at the anchor node."""
    h = os.phi.grid.h
    phi = os.phi.values
    phix, phixx, phixxx = periodic_diff(phi, (1, 2, 3), h)
    out = -p.alpha * bracket(phi, phix)
    if p.beta != 0.0:
        out += p.beta * (bracket(phi, phixxx) - bracket(phix, phixx))
    coeff = 4.0 * p.gamma - 2.0 * p.beta
    if coeff != 0.0:
        phiinv = phi / _orbit_square(os.spec)  # phi^2 = c^2 I on the orbit
        chain = _matmul(phix, phiinv, phix, phiinv, phix)
        out += coeff * bracket(phi, chain)
    return MatrixField(os.phi.grid, out)
