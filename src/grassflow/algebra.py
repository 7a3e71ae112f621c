"""Matrix-algebra kernel for the three families behind the flow hierarchy.

A family is fixed by a signature condition on a two-block split of sizes k
and n - k: skew-Hermitian matrices (compact), J-skew-Hermitian matrices
with J = diag(I_k, -I_{n-k}) (noncompact), and real matrices (split).  All
data is carried as complex128 arrays batched over leading axes; the split
family keeps exactly-zero imaginary parts through every operation here.

The exponential is a truncated Taylor series whose degree is chosen from the
argument's 1-norm so that the truncation error stays below 2**-53, with
scaling and squaring for norms above 1.143; exp(a) and exp(-a) are E + O and
E - O, from one split of the series into its even and odd parts.

This module decides how batched small-matrix algebra is computed, and every
other module goes through its three kernels rather than calling `@` or
np.linalg.inv or solve on a field: _matmul (a left-to-right product of any
number of factors), _solve and _inv.  The matrix shape picks the path.  2x2
matrices, the common case, take closed forms: products from gathers on the
flat (..., 4) view, inverses from the adjugate over the determinant and
solves as inverse times right-hand side.  Every other shape goes to matmul
and LAPACK.  A singular 2x2 matrix gives non-finite values rather than
LinAlgError, for the caller's finiteness check to catch.
"""

from __future__ import annotations

import bisect
import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class Family(str, enum.Enum):
    """The three symmetric matrix families."""

    COMPACT_UNITARY = "compact_u"
    NONCOMPACT_UNITARY = "noncompact_u"
    PARA_REAL = "para_gl"

    @property
    def is_unitary(self) -> bool:
        return self is not Family.PARA_REAL


@dataclass(frozen=True)
class AlgebraSpec:
    """A family together with the matrix size n and block index k.

    The split must be proper: 1 <= k <= n - 1.
    """

    family: Family
    n: int
    k: int

    def __post_init__(self):
        object.__setattr__(self, "family", Family(self.family))
        n, k = self.n, self.k
        if int(n) != n or n < 2:
            raise ValueError("n must be an integer >= 2")
        if int(k) != k or not 1 <= k <= n - 1:
            raise ValueError("k must be an integer with 1 <= k <= n-1")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "k", int(k))

    @property
    def block_scale(self) -> complex:
        """Eigenvalue scale of the base point: i/2 complex, 1/2 split."""
        return 0.5j if self.family.is_unitary else 0.5 + 0.0j

    def to_json_dict(self) -> dict:
        return {"family": self.family.value, "n": self.n, "k": self.k}

    @classmethod
    def from_json_dict(cls, d: dict) -> "AlgebraSpec":
        return cls(Family(d["family"]), int(d["n"]), int(d["k"]))


class LieDecomposition(NamedTuple):
    """Block-diagonal part and block-off-diagonal part of a matrix."""

    k_part: np.ndarray
    m_part: np.ndarray


def sigma3(spec: AlgebraSpec) -> np.ndarray:
    """Base point of the orbit: diag(c I_k, -c I_{n-k}) with the family scale."""
    c = spec.block_scale
    d = np.full(spec.n, -c, dtype=np.complex128)
    d[: spec.k] = c
    return np.diag(d)


def _orbit_square(spec: AlgebraSpec) -> float:
    """c^2 in phi^2 = c^2 I on the orbit: -1/4 for the complex families,
    +1/4 for the split family."""
    return (spec.block_scale ** 2).real


def _signs(spec: AlgebraSpec) -> np.ndarray:
    """The diagonal of the signature: k entries +1, then n - k entries -1."""
    d = np.full(spec.n, -1.0)
    d[: spec.k] = 1.0
    return d


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator ab - ba, batched over leading axes."""
    return _matmul(a, b) - _matmul(b, a)


def trace_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(ab) per matrix."""
    return np.einsum("...ij,...ji->...", a, b)


def inner(spec: AlgebraSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Invariant pairing: -Re tr(ab) on the compact family, +Re tr(ab) else.

    Positive definite on each family.  tr(ab) is real for members; the
    imaginary part is exposed separately as a contamination diagnostic.
    """
    sign = -1.0 if spec.family is Family.COMPACT_UNITARY else 1.0
    return sign * np.real(trace_product(a, b))


def frobenius(a: np.ndarray) -> float:
    """Largest Frobenius norm over the batch."""
    a = np.asarray(a)
    return float(np.max(np.sqrt(np.sum(np.abs(a) ** 2, axis=(-2, -1)))))


def membership_residual(spec: AlgebraSpec, a: np.ndarray) -> float:
    """Frobenius distance from the family's defining linear condition.

    compact ||a* + a||, noncompact ||a* J + J a||, split ||Im a||; the
    largest value over the batch is returned.
    """
    a = np.asarray(a, dtype=np.complex128)
    ah = np.conj(np.swapaxes(a, -1, -2))
    if spec.family is Family.COMPACT_UNITARY:
        d = ah + a
    elif spec.family is Family.NONCOMPACT_UNITARY:
        s = _signs(spec)  # a* J + J a, J scaling columns and rows by signs
        d = ah * s + s[:, None] * a
    else:
        d = np.imag(a)
    return frobenius(d)


def _project(spec: AlgebraSpec, a: np.ndarray) -> np.ndarray:
    """Nearest member of the family in the Frobenius norm: (a - a*) / 2
    compact, (a - J a* J) / 2 noncompact, Re a split."""
    ah = np.conj(np.swapaxes(a, -1, -2))
    if spec.family is Family.COMPACT_UNITARY:
        return 0.5 * (a - ah)
    if spec.family is Family.NONCOMPACT_UNITARY:
        s = _signs(spec)
        return 0.5 * (a - np.outer(s, s) * ah)
    return np.real(a).astype(np.complex128)


def decompose(spec: AlgebraSpec, a: np.ndarray) -> LieDecomposition:
    """Split a into its block-diagonal and block-off-diagonal parts.

    The two parts sum back to a exactly.
    """
    a = np.asarray(a)
    k = spec.k
    k_part = np.zeros_like(a)
    k_part[..., :k, :k] = a[..., :k, :k]
    k_part[..., k:, k:] = a[..., k:, k:]
    return LieDecomposition(k_part, a - k_part)


# Largest 1-norm at which the degree-m Taylor polynomial (m = 1..18) has
# remainder bound ||a||^(m+1)/(m+1)! / (1 - ||a||/(m+2)) <= 2**-53, rounded down.
_TAYLOR_THETA = (
    1.490e-08, 8.733e-06, 2.271e-04, 1.678e-03, 6.562e-03, 1.776e-02,
    3.811e-02, 6.993e-02, 1.148e-01, 1.737e-01, 2.472e-01, 3.352e-01,
    4.374e-01, 5.534e-01, 6.827e-01, 8.245e-01, 9.783e-01, 1.143e+00,
)
_TAYLOR_COEFFS = tuple(1.0 / math.factorial(k) for k in range(len(_TAYLOR_THETA) + 1))


# Positions, in the row-major (..., 4) view of a 2x2 matrix, of: the diagonal
# entry of each column (b00, b11, b00, b11), the entries with the columns
# swapped (a01, a00, a11, a10), the off-diagonal entry of each column
# (b10, b01, b10, b01), and the entries of the adjugate up to the signs
# _ADJ_SIGN (a11, -a01, -a10, a00).
_DIAG = np.array([0, 3, 0, 3])
_SWAP = np.array([1, 0, 3, 2])
_ANTI = np.array([2, 1, 2, 1])
_ADJ = np.array([3, 1, 2, 0])
_ADJ_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched a @ b, broadcast over leading axes.  Two 2x2 operands are
    formed on the (..., 4) view as a * diag(b) + swapcols(a) * antidiag(b),
    three gathers and two contiguous products, which avoids matmul's
    per-matrix overhead; every other shape uses matmul."""
    sa, sb = a.shape, b.shape
    if sa[-2:] == (2, 2) == sb[-2:]:
        a4, b4 = a.reshape(sa[:-2] + (4,)), b.reshape(sb[:-2] + (4,))
        prod = a4 * b4.take(_DIAG, axis=-1) + a4.take(_SWAP, axis=-1) * b4.take(_ANTI, axis=-1)
        return prod.reshape(sa if sa == sb else prod.shape[:-1] + (2, 2))
    return a @ b


def _matmul(*factors: np.ndarray) -> np.ndarray:
    """Batched product of the factors, multiplied left to right, so that
    _matmul(a, b, c) is (a @ b) @ c; each pair is formed by _product."""
    return functools.reduce(_product, factors)


def _inv(a: np.ndarray) -> np.ndarray:
    """Batched inverse: the adjugate over the determinant for 2x2, which is
    non-finite where a is singular, and np.linalg.inv otherwise."""
    if a.shape[-2:] == (2, 2):
        a4 = a.reshape(a.shape[:-2] + (4,))
        det = a4[..., 0] * a4[..., 3] - a4[..., 1] * a4[..., 2]
        return (a4.take(_ADJ, axis=-1) * _ADJ_SIGN / det[..., None]).reshape(a.shape)
    return np.linalg.inv(a)


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched a^-1 b for matrices b: _inv(a) b for 2x2, non-finite where a
    is singular, and np.linalg.solve otherwise.  For n > 2 the LAPACK solve
    is kept because it is faster than an inverse and a product: on a 2-vCPU
    host, at n = 4 and 256 points, the Cayley pair of a midpoint step takes
    0.67 ms by two solves and 0.91 ms by two inverses and two products."""
    if a.shape[-2:] == (2, 2):
        return _matmul(_inv(a), b)
    return np.linalg.solve(a, b)


def _polynomial(powers: list, coeffs) -> np.ndarray:
    """sum_i coeffs[i] B^i by Paterson-Stockmeyer, powers being I, B, ...,
    B^q: chunk j covers degrees jq .. jq + q - 1, the last one runs on to
    the top degree, and the chunks are joined by Horner's rule in B^q."""

    def chunk(lo, hi):
        total = coeffs[lo] * powers[0]
        for i in range(1, hi - lo + 1):
            c = coeffs[lo + i]
            total = total + (powers[i] if c == 1.0 else c * powers[i])
        return total

    top = len(coeffs) - 1
    if top == 0:
        return chunk(0, 0)
    q = len(powers) - 1
    r = (top - 1) // q
    acc = chunk(r * q, top)
    for j in range(r - 1, -1, -1):
        acc = _matmul(acc, powers[q]) + chunk(j * q, j * q + q - 1)
    return acc


def _exp_pair(a: np.ndarray, pair: bool = True) -> tuple:
    """exp(a), and exp(-a) when pair, as E + O and E - O from one even/odd
    split of the Taylor polynomial.

    The Taylor degree is the smallest m with ||a||_1 <= _TAYLOR_THETA[m - 1];
    above the last threshold a is scaled by 2**-s and the results squared s
    times.  The even part E = sum (a^2)^j / (2j)! and the odd part
    O = a sum (a^2)^j / (2j + 1)! are polynomials in B = a^2, evaluated by
    Paterson-Stockmeyer over the shared powers B, ..., B^q.  No input
    check: non-finite input comes out non-finite, for the caller to detect.
    """
    # the 1-norm is the largest column sum; einsum sums the columns with far
    # less overhead than sum(axis=-2) on small matrices
    top = float(np.einsum("...ij->...j", np.abs(a)).max()) if a.size else 0.0
    if not math.isfinite(top):
        top = 0.0  # degree 1, which carries the non-finite entries through
    squarings = 0
    if top > _TAYLOR_THETA[-1]:
        squarings = math.ceil(math.log2(top / _TAYLOR_THETA[-1]))
        a = a * 2.0 ** -squarings
        top *= 2.0 ** -squarings
    m = min(bisect.bisect_left(_TAYLOR_THETA, top), len(_TAYLOR_THETA) - 1) + 1
    even = _TAYLOR_COEFFS[0 : m + 1 : 2]
    odd = _TAYLOR_COEFFS[1 : m + 1 : 2]
    # powers B .. B^q with q = ceil(sqrt(degree of E in B))
    q = math.isqrt(max(len(even) - 2, 0)) + 1
    powers = [np.eye(a.shape[-1], dtype=np.complex128)]
    if m > 1:
        powers.append(_matmul(a, a))
        for _ in range(q - 1):
            powers.append(_matmul(powers[-1], powers[1]))
    e = _polynomial(powers, even)
    o = a if len(odd) == 1 else _matmul(a, _polynomial(powers, odd))
    out = []
    for acc in (e + o, e - o) if pair else (e + o,):
        for _ in range(squarings):
            acc = _matmul(acc, acc)
        out.append(acc)
    return tuple(out)


def exp_map(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by a truncated Taylor series of norm-selected
    degree, with scaling and squaring above norm 1.143.

    Batched over leading axes.  The truncation error is below 2**-53 in
    the 1-norm of the scaled argument, so the result is accurate to
    roundoff; non-finite input raises.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("exp_map needs square matrices")
    if not np.all(np.isfinite(a)):
        raise ValueError("exp_map: non-finite input")
    return _exp_pair(a, pair=False)[0]
