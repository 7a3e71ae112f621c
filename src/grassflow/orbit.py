"""Orbit states, moving frames, gauge fixing, and the structural identities.

An orbit state is a field phi(x) lying on the conjugacy orbit of the base
point s.  Every family uses one frame convention: phi = F^-1 s F with frame
equation F_x = P F, and a flow moves the frame on the right.  Potentials P
are block-off-diagonal.  The families differ only in the square of the
base point, s^2 = c^2 I with c^2 = -1/4 for the complex families and +1/4
for the split family.  Flows move phi by conjugation, so nothing here
projects back onto the orbit.  A frame equation is marched once around the
period, so the frame at the nodes and its closure at x = L come from one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraSpec,
    _inv,
    _matmul,
    _orbit_square,
    bracket,
    decompose,
    frobenius,
    sigma3,
)
from .fields import MatrixField, _rk4, periodic_diff


@dataclass(frozen=True)
class OrbitState:
    """Field of orbit points, with an optional frame that generated it."""

    spec: AlgebraSpec
    phi: MatrixField
    time: float = 0.0
    frame: MatrixField | None = None

    def __post_init__(self):
        if self.phi.matrix_dim != self.spec.n:
            raise ValueError("phi matrix size must match the algebra")
        if self.frame is not None and (
            self.frame.grid != self.phi.grid or self.frame.matrix_dim != self.phi.matrix_dim
        ):
            raise ValueError("frame grid and matrix size must match phi's")

    def to_json_dict(self) -> dict:
        d = {
            "algebra": self.spec.to_json_dict(),
            "time": float(self.time),
            "phi": self.phi.to_json_dict(),
        }
        if self.frame is not None:
            d["frame"] = self.frame.to_json_dict()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "OrbitState":
        frame = MatrixField.from_json_dict(d["frame"]) if "frame" in d else None
        time = float(d.get("time", 0.0))
        if not math.isfinite(time):
            raise ValueError(f"time must be finite, not {time}")
        return cls(
            AlgebraSpec.from_json_dict(d["algebra"]),
            MatrixField.from_json_dict(d["phi"]),
            time,
            frame,
        )


@dataclass(frozen=True)
class FramedState:
    """Frame field together with its block-off-diagonal potential."""

    spec: AlgebraSpec
    frame: MatrixField
    potential: MatrixField
    time: float = 0.0

    def __post_init__(self):
        if self.frame.matrix_dim != self.spec.n or self.potential.matrix_dim != self.spec.n:
            raise ValueError("frame and potential size must match the algebra")
        if self.frame.grid.num_points != self.potential.grid.num_points:
            raise ValueError("frame and potential must share the grid")


def conjugate_base(spec: AlgebraSpec, frame_values: np.ndarray) -> np.ndarray:
    """Orbit field of a frame, F^-1 s F, for every family.  The base point s
    is diagonal, so F^-1 s scales the columns of F^-1."""
    return _matmul(_inv(frame_values) * np.diagonal(sigma3(spec)), frame_values)


def orbit_from_frame(fs: FramedState) -> OrbitState:
    phi = conjugate_base(fs.spec, fs.frame.values)
    return OrbitState(fs.spec, MatrixField(fs.frame.grid, phi), fs.time, fs.frame)


def _running_products(m: np.ndarray) -> np.ndarray:
    """The running products m[j] ... m[0], later factors on the left, by
    recursive pairing (Blelloch's work-efficient scan): the products of
    neighbouring pairs, their running products by recursion, and one more
    product for each even entry.  About 2 len(m) products in 2 log2 len(m)
    batched rounds, where doubling takes about len(m) log2 len(m)."""
    if len(m) < 2:
        return m
    out = np.empty_like(m)
    out[0] = m[0]
    out[1::2] = _running_products(_matmul(m[1::2], m[:-1:2]))
    out[2::2] = _matmul(m[2::2], out[1:-1:2])
    return out


def _rk4_path(a: np.ndarray, h: float) -> np.ndarray:
    """March the linear equation m' = a(x) m from the identity once around
    the periodic grid by the classical fourth-order step _rk4.  Cell j
    runs from node j to node j + 1 (wrapping); a at its half node comes
    from cubic interpolation of the four nearest nodes.  Returns the N + 1
    values from the identity at x = 0 to the value at x = L.

    The equation is linear, so one step across cell j is m -> Phi_j m with
    Phi_j the step applied to the identity: the propagators of all cells
    are formed in one batch, and the march is their running products
    Phi_j ... Phi_0.
    """
    a1 = np.roll(a, -1, axis=0)
    am = (-np.roll(a, 1, axis=0) + 9.0 * a + 9.0 * a1 - np.roll(a, -2, axis=0)) / 16.0
    eye = np.eye(a.shape[-1], dtype=np.complex128)

    def rhs(c, m):
        # the step starts at the identity, so the first stage is a itself
        return (a,) if c == 0.0 else (_matmul(am if c == 0.5 else a1, m),)

    return np.concatenate((eye[None], _running_products(_rk4(rhs, (eye,), h)[0])))


def frame_from_potential(
    spec: AlgebraSpec, potential: MatrixField, time: float = 0.0
) -> tuple[FramedState, float]:
    """March the frame equation F_x = P F once around the period from the
    identity.  Returns the frame at the grid nodes and its closure defect
    ||F(L) - I||: nonzero closure means the potential carries holonomy and
    the frame samples do not represent a periodic field.
    """
    path = _rk4_path(potential.values, potential.grid.h)
    fs = FramedState(spec, MatrixField(potential.grid, path[:-1]), potential, time)
    return fs, frobenius(path[-1] - path[0])


def gauge_fix_frame(spec: AlgebraSpec, raw_frame: MatrixField, time: float = 0.0) -> FramedState:
    """Rotate a frame by a block-diagonal factor so that its connection is
    purely block-off-diagonal.  The orbit field is unchanged.

    The frame samples must come from a periodic frame field (no holonomy
    across the wrap), since the connection is recovered by periodic
    differencing.  The stored potential is block-off-diagonal by
    construction.
    """
    ev = raw_frame.values
    h = raw_frame.grid.h
    conn = _matmul(periodic_diff(ev, 1, h), _inv(ev))
    k_part, m_part = decompose(spec, conn)
    # the rotation D solves D_x = -D K, so that (D F)_x = D M D^-1 (D F);
    # its transpose solves the left-multiplied D^T_x = -K^T D^T
    d_t = _rk4_path(-np.swapaxes(k_part, -1, -2), h)[:-1]
    d = np.swapaxes(d_t, -1, -2)
    new_e = _matmul(d, ev)
    new_p = _matmul(d, m_part, _inv(d))
    grid = raw_frame.grid
    return FramedState(spec, MatrixField(grid, new_e), MatrixField(grid, new_p), time)


def verify_identities(fs: FramedState) -> dict:
    """Residuals of the structural identities tying phi to its frame and
    potential: the orbit involution, the frame-conjugated tangent formula,
    both left-translation forms, the compatibility bracket, and the square
    relation.  Each entry is the largest Frobenius norm over the grid."""
    spec = fs.spec
    h = fs.frame.grid.h
    c2 = _orbit_square(spec)
    sig = sigma3(spec)
    ev = fs.frame.values
    pv = fs.potential.values
    einv = _inv(ev)
    phi = _matmul(einv, sig, ev)
    phix = periodic_diff(phi, 1, h)
    phiinv = _inv(phi)
    conj_p = _matmul(einv, pv, ev)
    r = _matmul(phix, phiinv)
    return {
        "involution": frobenius(phiinv - phi / c2),
        "tangent": frobenius(phix - _matmul(einv, bracket(sig, pv), ev)),
        "translate_left": frobenius(r + 2.0 * conj_p),
        "translate_right": frobenius(_matmul(phiinv, phix) - 2.0 * conj_p),
        "compatibility": frobenius(bracket(phi, phix) + 2.0 * c2 * r),
        "square": frobenius(_matmul(phix, phix) + c2 * _matmul(r, r)),
    }


def spectrum_deviation(os: OrbitState) -> float:
    """Distance of phi from the orbit of the base point s: the largest over
    the points of max(||phi^2 - c^2 I||_F, |tr phi - tr s|), non-finite
    where phi is.

    If phi v = lambda v, then (lambda - c)(lambda + c) v = R v with
    R = phi^2 - c^2 I, so |lambda - c| |lambda + c| <= ||R||_F.  Near c the
    second factor is about |2c| = 1, and near -c the first: to first order
    each eigenvalue lies within ||R||_F of c or -c, and the trace fixes how
    many lie at each, so the value bounds the eigenvalues' distance from
    those of s.  It also sees a phi with exactly the spectrum of s that is
    not diagonalizable, which the eigenvalues cannot.
    """
    spec, phi = os.spec, os.phi.values
    square = _matmul(phi, phi) - _orbit_square(spec) * np.eye(spec.n)
    trace_gap = np.abs(np.einsum("...ii->...", phi) - np.trace(sigma3(spec)))
    return float(np.max(np.maximum(np.linalg.norm(square, axis=(-2, -1)), trace_gap)))
