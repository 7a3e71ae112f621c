"""Periodic grid, matrix-valued fields, finite differences, running integrals."""

from __future__ import annotations

import base64
import math
from dataclasses import dataclass

import numpy as np


# Fractions of the period that bound its interior, where the gauge and
# curve comparisons take their maxima.
INTERIOR = (0.1, 0.9)


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, L) with nodes x_j = j L / N."""

    num_points: int
    length: float

    def __post_init__(self):
        n, L = self.num_points, self.length
        if int(n) != n or n < 4:
            raise ValueError("num_points must be an integer >= 4")
        if not (np.isfinite(L) and L > 0):
            raise ValueError("length must be positive and finite")
        object.__setattr__(self, "num_points", int(n))
        object.__setattr__(self, "length", float(L))

    @property
    def h(self) -> float:
        return self.length / self.num_points

    @property
    def x(self) -> np.ndarray:
        return self.h * np.arange(self.num_points)

    @property
    def interior(self) -> np.ndarray:
        """Mask of the nodes within the INTERIOR fractions of the period."""
        lo, hi = INTERIOR
        return (self.x >= lo * self.length) & (self.x <= hi * self.length)

    def to_json_dict(self) -> dict:
        return {"N": self.num_points, "L": self.length}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Grid":
        return cls(int(d["N"]), float(d["L"]))


def complex_from_pairs(pairs) -> np.ndarray:
    """The complex array of an (N, rows, cols, 2) array of [re, im] pairs,
    or of its nested lists, the values of a snapshot written as text."""
    pairs = np.asarray(pairs)
    if pairs.dtype.kind not in "iuf" or pairs.ndim != 4 or pairs.shape[-1] != 2:
        raise ValueError("values must be an (N, rows, cols, 2) array of numeric [re, im] pairs")
    return np.ascontiguousarray(pairs, dtype=np.float64).view(np.complex128)[..., 0]


def _complex_from_base64(text: str, num_points: int) -> np.ndarray:
    """The (N, n, n) complex array whose little-endian complex128 bytes,
    row major, text encodes in base64; n follows from the byte count."""
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValueError(f"values is not valid base64: {exc}") from None
    n = math.isqrt(len(raw) // (16 * num_points))
    if n < 1 or len(raw) != 16 * num_points * n * n:
        raise ValueError(
            f"values holds {len(raw)} bytes, not 16 N n^2 for N = {num_points} and a whole n >= 1"
        )
    return np.frombuffer(raw, dtype="<c16").reshape(num_points, n, n)


class _Base64Text(str):
    """The base64 text of a MatrixField's values, as to_json_dict gives it.
    A JSON writer may copy it into its output as is: base64 needs no escape
    in a JSON string."""

    __slots__ = ()


@dataclass(frozen=True)
class MatrixField:
    """One square matrix per grid node, stored as a read-only (N, n, n) array."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128, copy=True)
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise ValueError("values must have shape (N, n, n)")
        if v.shape[0] != self.grid.num_points:
            raise ValueError("leading axis must match the grid")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def matrix_dim(self) -> int:
        return self.values.shape[-1]

    def to_json_dict(self) -> dict:
        """Grid and values; values is the base64 text of the array's bytes as
        little-endian complex128 ("<c16"), row major, shape (N, n, n), so it
        reads back bit for bit."""
        raw = self.values.astype("<c16", copy=False).tobytes()
        text = _Base64Text(base64.b64encode(raw), "ascii")
        return {"grid": self.grid.to_json_dict(), "values": text}

    @classmethod
    def from_json_dict(cls, d: dict) -> "MatrixField":
        """Read to_json_dict's output, or the nested [re, im] lists of values
        that snapshots were once written with."""
        grid = Grid.from_json_dict(d["grid"])
        values = d["values"]
        if isinstance(values, str):
            return cls(grid, _complex_from_base64(values, grid.num_points))
        if isinstance(values, list):
            return cls(grid, complex_from_pairs(values))
        raise ValueError("values must be a base64 string or nested [re, im] lists")


# order -> (offsets, weights, denominator, power of h)
_STENCILS = {
    1: ((-2, -1, 1, 2), (1.0, -8.0, 8.0, -1.0), 12.0, 1),
    2: ((-2, -1, 0, 1, 2), (-1.0, 16.0, -30.0, 16.0, -1.0), 12.0, 2),
    3: ((-3, -2, -1, 1, 2, 3), (1.0, -8.0, 13.0, -13.0, 8.0, -1.0), 8.0, 3),
    4: ((-3, -2, -1, 0, 1, 2, 3), (-1.0, 12.0, -39.0, 56.0, -39.0, 12.0, -1.0), 6.0, 4),
}

# order -> fewest grid points periodic_diff accepts
MIN_POINTS = {1: 5, 2: 5, 3: 16, 4: 16}


def periodic_diff(values: np.ndarray, order: int, h: float) -> np.ndarray:
    """Central fourth-order-accurate difference along axis 0 with wraparound.

    Works on any array whose leading axis is the grid axis.  The array is
    wrap-padded once and the stencil summed over shifted slices of it.
    """
    if order not in _STENCILS:
        raise ValueError("derivative order must be 1, 2, 3 or 4")
    v = np.asarray(values)
    npts = v.shape[0]
    if npts < MIN_POINTS[order]:
        raise ValueError(f"need at least {MIN_POINTS[order]} points for an order-{order} derivative")
    offsets, weights, denom, power = _STENCILS[order]
    pad = max(offsets)  # the stencils are symmetric
    padded = _wrap_pad(v, pad)
    first, dtype = pad + offsets[0], np.result_type(v.dtype, np.float64)
    # the sum starts from its first term, in at least double precision
    acc = np.multiply(weights[0], padded[first : first + npts], dtype=dtype)
    for off, w in zip(offsets[1:], weights[1:]):
        acc += w * padded[pad + off : pad + off + npts]
    return acc / (denom * h ** power)


def stencil_symbol(order: int, num_points: int, h: float) -> np.ndarray:
    """FFT symbol of the order-`order` stencil on num_points nodes of
    spacing h: fft(periodic_diff(v, order, h), axis=0) equals
    stencil_symbol(order, len(v), h) times fft(v, axis=0), mode by mode in
    numpy's FFT order.  Real for the even orders up to roundoff, imaginary
    for the odd ones."""
    if order not in _STENCILS:
        raise ValueError("derivative order must be 1, 2, 3 or 4")
    offsets, weights, denom, power = _STENCILS[order]
    theta = 2.0 * np.pi * np.arange(num_points) / num_points
    total = sum(w * np.exp(1j * off * theta) for off, w in zip(offsets, weights))
    return total / (denom * h ** power)


def _wrap_pad(values: np.ndarray, pad: int) -> np.ndarray:
    """values with its last pad rows put in front and its first pad rows
    after, along axis 0."""
    npts = values.shape[0]
    return np.concatenate((values[npts - pad :], values, values[:pad]))


def cumulative_trapezoid(values: np.ndarray, h: float) -> np.ndarray:
    """Running trapezoid integral along axis 0, anchored to zero at the
    first node.  No wraparound: the last node does not connect back."""
    v = np.asarray(values)
    out = np.zeros(v.shape, dtype=np.result_type(v.dtype, np.float64))
    if v.shape[0] > 1:
        out[1:] = np.cumsum(0.5 * h * (v[:-1] + v[1:]), axis=0)
    return out
