"""Zero-curvature connections and the gauge-transformed potential equations.

The connection pair (A_x, A_t) depends polynomially on a spectral
parameter; along solutions of the third-level flow its curvature collapses
to a single cubic term, which curvature_residual measures from trajectory
snapshots.  gauge_transform rewrites a gauge-fixed framed state as a pair
of rectangular blocks (q, r), and potential_rhs evolves the pair directly;
state_from_potential goes back by one frame march, which also gives the
closure defect it checks.  frame_potential_gaps compares the two routes for
the gauge-compare command, and the verification suite runs the same two
sides apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Family, _matmul, _orbit_square, bracket, decompose, frobenius
from .fields import Grid, MatrixField, cumulative_trapezoid, periodic_diff
from .flows import (
    FlowBlowupError,
    FlowKind,
    _check_stability,
    _flow,
    _flow_params,
    _march,
    _output_times,
    evolve,
)
from .functionals import FlowParams
from .orbit import (
    FramedState,
    OrbitState,
    frame_from_potential,
    gauge_fix_frame,
    orbit_from_frame,
)


class GaugeError(RuntimeError):
    """Frame is not in the gauge required for block extraction."""


@dataclass(frozen=True)
class PotentialState:
    """Rectangular block pair (q, r) of a block-off-diagonal potential.

    The complex families slave r to q (r = -q* compact, r = +q*
    noncompact); the split family carries an independent real pair.
    """

    spec: AlgebraSpec
    grid: Grid
    q: np.ndarray
    r: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        spec = self.spec
        npts = self.grid.num_points
        k, m = spec.k, spec.n - spec.k
        q = np.array(self.q, dtype=np.complex128, copy=True)
        r = np.array(self.r, dtype=np.complex128, copy=True)
        if q.shape != (npts, k, m):
            raise ValueError(f"q must have shape ({npts}, {k}, {m})")
        if r.shape != (npts, m, k):
            raise ValueError(f"r must have shape ({npts}, {m}, {k})")
        q.setflags(write=False)
        r.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @classmethod
    def from_q(cls, spec: AlgebraSpec, grid: Grid, q: np.ndarray, time: float = 0.0):
        """Build a state with the slaved block for the complex families."""
        if spec.family is Family.PARA_REAL:
            raise ValueError("the split family needs an explicit r block")
        q = np.asarray(q, dtype=np.complex128)
        r = slaved_r(spec, q)
        return cls(spec, grid, q, r, time)

    def assemble(self) -> MatrixField:
        """Full block-off-diagonal potential field."""
        npts = self.grid.num_points
        n, k = self.spec.n, self.spec.k
        p = np.zeros((npts, n, n), dtype=np.complex128)
        p[:, :k, k:] = self.q
        p[:, k:, :k] = self.r
        return MatrixField(self.grid, p)


def slaved_r(spec: AlgebraSpec, q: np.ndarray) -> np.ndarray:
    """The r block forced by membership for the complex families."""
    qh = np.conj(np.swapaxes(q, -1, -2))
    if spec.family is Family.COMPACT_UNITARY:
        return -qh
    if spec.family is Family.NONCOMPACT_UNITARY:
        return qh
    raise ValueError("the split family has no slaved block")


# Largest block-diagonal potential part that gauge_transform accepts.
_GAUGE_TOL = 1e-8


def gauge_transform(fs: FramedState) -> PotentialState:
    """Extract the block pair from a gauge-fixed framed state.  Raises if
    the stored potential has a block-diagonal part above _GAUGE_TOL, or one
    that is not finite."""
    spec = fs.spec
    pv = fs.potential.values
    k_part, m_part = decompose(spec, pv)
    defect = frobenius(k_part)
    if not defect <= _GAUGE_TOL:
        raise GaugeError(
            f"frame is not gauge fixed: block-diagonal residual {defect:.3e} > {_GAUGE_TOL:.1e}"
        )
    k = spec.k
    return PotentialState(spec, fs.potential.grid, m_part[:, :k, k:], m_part[:, k:, :k], fs.time)


# Largest frame closure defect that state_from_potential accepts.
_CLOSURE_TOL = 1e-2


def state_from_potential(ps: PotentialState) -> OrbitState:
    """Integrate the frame once around the period and conjugate the base point.

    The resulting samples only represent a periodic field when the frame
    closes up over one period, so a closure defect above _CLOSURE_TOL is
    rejected, and so is a potential that is not finite.
    """
    potential = ps.assemble()
    if not np.all(np.isfinite(potential.values)):
        raise ValueError("potential is not finite")
    fs, defect = frame_from_potential(ps.spec, potential, time=ps.time)
    if not defect <= _CLOSURE_TOL:
        raise ValueError(
            f"potential carries holonomy: frame closure defect {defect:.3e} "
            f"exceeds {_CLOSURE_TOL:.1e}"
        )
    return orbit_from_frame(fs)


def _connection_and_target(os: OrbitState, p: FlowParams, lam: float):
    """connection's pair (A_x, A_t) and curvature_target's values, from one cube phi_x^3."""
    h = os.phi.grid.h
    phi = os.phi.values
    phix, phixx, phixxx = periodic_diff(phi, (1, 2, 3), h)
    phix2 = _matmul(phix, phix)
    cube = _matmul(phix2, phix)
    lam = float(lam)
    sgn = -4.0 * _orbit_square(os.spec)
    a_x = lam * phi
    inner_w = -p.alpha * phix + p.beta * phixxx + 4.0 * sgn * (4.0 * p.gamma - 2.0 * p.beta) * cube
    a_t = (
        -(lam ** 4) * p.beta * phi
        - (sgn * lam ** 3) * p.beta * bracket(phi, phix)
        + (lam ** 2) * (-sgn * p.alpha * phi + p.beta * (sgn * phixx - 6.0 * _matmul(phix2, phi)))
        + lam * (bracket(phi, inner_w) - p.beta * bracket(phix, phixx))
    )
    target = -2.0 * (lam ** 2) * (8.0 * p.gamma + p.beta) * cube
    return a_x, a_t, target


def connection(os: OrbitState, p: FlowParams, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Connection pair (A_x, A_t) at one spectral value along the
    third-level flow, as value arrays on the grid.

    One formula serves every family; the sign sgn = -4 c^2 (+1 for the
    complex families, -1 for the split family) carries the orbit square
    phi^2 = c^2 I."""
    a_x, a_t, _ = _connection_and_target(os, p, lam)
    return a_x, a_t


def curvature_target(os: OrbitState, p: FlowParams, lam: float) -> MatrixField:
    """The residual two-form left by the flow: a single cubic term, formed
    with the connection as curvature_residual forms it."""
    return MatrixField(os.phi.grid, _connection_and_target(os, p, lam)[2])


def curvature_residual(states, p: FlowParams, lam: float) -> list[tuple[float, float]]:
    """Curvature defect at the interior snapshots of a list of states, each
    at its own time (as evolve returns them).

    The time derivative of A_x is formed by centered differencing of the
    neighbouring snapshots (second order, uneven spacing handled); the
    result is a list of (time, residual) pairs.
    """
    if len(states) < 3:
        raise ValueError("need at least three snapshots for a curvature residual")
    out = []
    for i in range(1, len(states) - 1):
        dm = states[i].time - states[i - 1].time
        dp = states[i + 1].time - states[i].time
        phi_prev = states[i - 1].phi.values
        phi_next = states[i + 1].phi.values
        phi_dot = (
            dm ** 2 * phi_next + (dp ** 2 - dm ** 2) * states[i].phi.values - dp ** 2 * phi_prev
        ) / (dp * dm * (dp + dm))
        ax, at, target = _connection_and_target(states[i], p, lam)
        h = states[i].phi.grid.h
        f = periodic_diff(at, 1, h) - lam * phi_dot + bracket(ax, at)
        out.append((states[i].time, frobenius(f - target)))
    return out


def _collected_block(q, r, h, alpha, beta, cnl):
    """Shared polynomial-plus-nonlocal block of the potential equations.

    The complex families use i times this value as q_t; the split family
    uses its negative for q_t and the argument-swapped value for r_t.
    """
    if beta == 0.0:
        qxx = periodic_diff(q, 2, h)
    else:
        qx, qxx, qxxxx = periodic_diff(q, (1, 2, 4), h)
        rx, rxx = periodic_diff(r, (1, 2), h)
    rq = _matmul(r, q)
    qr = _matmul(q, r)
    qrq = _matmul(q, rq)
    out = alpha * (-qxx + 2.0 * qrq)
    if beta != 0.0:
        out = out + beta * (
            qxxxx
            - 4.0 * _matmul(qxx, rq)
            - 2.0 * _matmul(q, rxx, q)
            - 4.0 * _matmul(qr, qxx)
            - 2.0 * _matmul(qx, rx, q)
            - 6.0 * _matmul(qx, r, qx)
            - 2.0 * _matmul(q, rx, qx)
            + 6.0 * _matmul(qrq, rq)
        )
    if cnl != 0.0:
        n1 = cumulative_trapezoid(_matmul(q, periodic_diff(rq, 1, h), r), h)
        n2 = cumulative_trapezoid(_matmul(r, periodic_diff(qr, 1, h), q), h)
        out = out - cnl * (
            -periodic_diff(qrq, 2, h) + 2.0 * _matmul(qrq, rq) + _matmul(q, n2) + _matmul(n1, q)
        )
    return out


def _potential_values(spec: AlgebraSpec, h: float, q, r, p: FlowParams):
    cnl = 2.0 * (8.0 * p.gamma + p.beta)
    if spec.family is Family.PARA_REAL:
        return (
            -_collected_block(q, r, h, p.alpha, p.beta, cnl),
            _collected_block(r, q, h, p.alpha, p.beta, cnl),
        )
    dq = 1j * _collected_block(q, r, h, p.alpha, p.beta, cnl)
    return dq, slaved_r(spec, dq)


def potential_rhs(ps: PotentialState, p: FlowParams) -> PotentialState:
    """Time derivative of a potential state under the third-level flow,
    returned in the same container (q and r hold dq/dt and dr/dt).

    The nonlocal terms are running integrals anchored at the first node,
    so solutions match the orbit-side flow up to the usual block-diagonal
    gauge freedom.
    """
    dq, dr = _potential_values(ps.spec, ps.grid.h, ps.q, ps.r, p)
    return PotentialState(ps.spec, ps.grid, dq, dr, ps.time)


def evolve_potential(
    ps: PotentialState,
    p: FlowParams,
    T: float,
    dt: float,
    output_times: list[float] | None = None,
) -> list[PotentialState]:
    """Integrate the potential equations with a classical one-step method
    and return the state at each output time, stamped with that time
    exactly.  Raises FlowBlowupError (with the last finite state and the
    offending step index) if q or r stops being finite."""
    spec = ps.spec
    h = ps.grid.h
    times = _output_times(ps.time, T, dt, output_times)

    def rhs(q, r):
        return _potential_values(spec, h, q, r, p)

    def advance(state, dt_step):
        q, r = state.q, state.r
        # a non-finite result raises FlowBlowupError below, without warnings
        with np.errstate(all="ignore"):
            k1q, k1r = rhs(q, r)
            k2q, k2r = rhs(q + 0.5 * dt_step * k1q, r + 0.5 * dt_step * k1r)
            k3q, k3r = rhs(q + 0.5 * dt_step * k2q, r + 0.5 * dt_step * k2r)
            k4q, k4r = rhs(q + dt_step * k3q, r + dt_step * k3r)
            q = q + (dt_step / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            r = r + (dt_step / 6.0) * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(r))):
            raise FlowBlowupError(state, 1, state.time + dt_step)
        return PotentialState(spec, state.grid, q, r, state.time + dt_step)

    return list(_march(ps, times, dt, advance))


def _gauge_invariant(ps: PotentialState) -> np.ndarray:
    """Pointwise quantity that the residual block-diagonal gauge keeps: |q|
    under the unitary gauges of the complex families, tr(q r) under the
    real gauge q -> a q b^-1, r -> b r a^-1 of the split family."""
    if ps.spec.family is Family.PARA_REAL:
        return np.einsum("xij,xji->x", ps.q, ps.r)
    return np.linalg.norm(ps.q, axis=(1, 2))


def _frame_invariants(
    ps0: PotentialState, p: FlowParams, kind: FlowKind, times: list[float], dt: float
) -> list[np.ndarray]:
    """The gauge invariant of ps0 driven through the frame flow of this kind
    at each of the output times, each snapshot gauge fixed and transformed;
    one march covers all of them."""
    T = max(times, default=ps0.time) - ps0.time
    frames = evolve(state_from_potential(ps0), p, kind, T, dt, output_times=times)
    return [
        _gauge_invariant(gauge_transform(gauge_fix_frame(ps0.spec, state.frame, time=state.time)))
        for state in frames
    ]


def _potential_invariants(
    ps0: PotentialState, p: FlowParams, kind: FlowKind, times: list[float], dt: float
) -> list[np.ndarray]:
    """The gauge invariant of ps0 driven through the potential equation of
    the same coefficients at each of the output times, in one march."""
    T = max(times, default=ps0.time) - ps0.time
    direct = evolve_potential(ps0, _flow_params(p, kind), T, dt, output_times=times)
    return [_gauge_invariant(ps) for ps in direct]


def frame_potential_gaps(
    ps0: PotentialState, p: FlowParams, kind: FlowKind, times: list[float], dt: float
) -> list[np.ndarray]:
    """Pointwise gap of the gauge invariant (|q|, or tr(q r) for the split
    family) between the frame side and the potential side of ps0 at each of
    the output times.  Both sides are explicit integrators at the same dt,
    so a dt beyond the frame flow's stability bound is refused."""
    _check_stability(_flow(ps0.spec, ps0.grid, p, kind).bound, dt)
    frames = _frame_invariants(ps0, p, kind, times, dt)
    direct = _potential_invariants(ps0, p, kind, times, dt)
    return [np.abs(a - b) for a, b in zip(frames, direct)]


def akns4_rhs(q: np.ndarray, h: float) -> np.ndarray:
    """Literal fourth-order integrable matrix equation for the reduced
    block, written independently of potential_rhs as an oracle."""
    q = np.asarray(q, dtype=np.complex128)
    qs = np.conj(np.swapaxes(q, -1, -2))
    qx, qxx, qxxxx = periodic_diff(q, (1, 2, 4), h)
    qsx, qsxx = periodic_diff(qs, (1, 2), h)
    return 1j * (
        qxxxx
        + 4.0 * _matmul(qxx, qs, q)
        + 2.0 * _matmul(q, qsxx, q)
        + 4.0 * _matmul(q, qs, qxx)
        + 2.0 * _matmul(qx, qsx, q)
        + 6.0 * _matmul(qx, qs, qx)
        + 2.0 * _matmul(q, qsx, qx)
        + 6.0 * _matmul(q, qs, q, qs, q)
    )


def matrix_kdv_rhs(q: np.ndarray, h: float) -> np.ndarray:
    """Third-order integrable matrix equation used by the split-family
    cross-checks: Q_t = Q_xxx - 2(Q^3)_x - [Q, [Q, Q_x]]."""
    q = np.asarray(q, dtype=np.complex128)
    qx, qxxx = periodic_diff(q, (1, 3), h)
    return (
        qxxx
        - 2.0 * periodic_diff(_matmul(q, q, q), 1, h)
        - bracket(q, bracket(q, qx))
    )
