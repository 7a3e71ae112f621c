"""Matrix-algebra kernel for the three families behind the flow hierarchy.

A family is fixed by a signature condition on a two-block split of sizes k
and n - k: skew-Hermitian matrices (compact), J-skew-Hermitian matrices
with J = diag(I_k, -I_{n-k}) (noncompact), and real matrices (split).  All
data is carried as complex128 arrays batched over leading axes; the split
family keeps exactly-zero imaginary parts through every operation here.

The exponential is a truncated Taylor series whose degree is chosen from the
argument's 1-norm so that the truncation error stays below 2**-53, with
scaling and squaring for norms above 1.143; exp(a) and exp(-a) come from one
set of shared powers.  Products of 2x2 matrices, the common case, are summed
from broadcast outer products rather than dispatched to matmul.
"""

from __future__ import annotations

import bisect
import enum
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


def signature_matrix(spec: AlgebraSpec) -> np.ndarray:
    """diag(I_k, -I_{n-k}), the signature of the block split."""
    d = np.full(spec.n, -1.0, dtype=np.complex128)
    d[: spec.k] = 1.0
    return np.diag(d)


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


def membership_residual(spec: AlgebraSpec, a: np.ndarray, tol: float | None = None) -> float:
    """Frobenius distance from the family's defining linear condition.

    compact ||a* + a||, noncompact ||a* J + J a||, split ||Im a||; the
    largest value over the batch is returned.  When tol is given the
    residual is checked against it and a ValueError raised on failure.
    """
    a = np.asarray(a, dtype=np.complex128)
    ah = np.conj(np.swapaxes(a, -1, -2))
    if spec.family is Family.COMPACT_UNITARY:
        d = ah + a
    elif spec.family is Family.NONCOMPACT_UNITARY:
        j = signature_matrix(spec)
        d = ah @ j + j @ a
    else:
        d = np.imag(a)
    res = frobenius(d)
    if tol is not None and res > tol:
        raise ValueError(f"membership residual {res:.3e} exceeds {tol:.3e}")
    return res


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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched a @ b.  2x2 products are summed from two broadcast outer
    products (column k of a times row k of b), which avoids matmul's
    per-matrix overhead on large batches; other sizes use matmul."""
    if a.shape[-2:] == b.shape[-2:] == (2, 2):
        return a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]
    return a @ b


def _exp_pair(a: np.ndarray, pair: bool = True) -> tuple:
    """exp(a), and exp(-a) when pair, from one set of shared powers of a.

    The Taylor degree is the smallest m with ||a||_1 <= _TAYLOR_THETA[m - 1];
    above the last threshold a is scaled by 2**-s and the results squared s
    times.  Each polynomial is evaluated by Paterson-Stockmeyer over the
    powers a, ..., a^q, q = ceil(sqrt(m)); the powers of -a are the same
    arrays up to sign.  No input check: non-finite input comes out
    non-finite, for the caller to detect.
    """
    top = float(np.max(np.sum(np.abs(a), axis=-2))) if a.size else 0.0
    if not math.isfinite(top):
        top = 0.0  # degree 1, which carries the non-finite entries through
    squarings = 0
    if top > _TAYLOR_THETA[-1]:
        squarings = math.ceil(math.log2(top / _TAYLOR_THETA[-1]))
        a = a * 2.0 ** -squarings
        top *= 2.0 ** -squarings
    m = min(bisect.bisect_left(_TAYLOR_THETA, top), len(_TAYLOR_THETA) - 1) + 1
    q = math.isqrt(m - 1) + 1
    powers = [np.eye(a.shape[-1], dtype=np.complex128), a]
    for _ in range(q - 1):
        powers.append(_matmul(powers[-1], a))

    def chunk(p, j, last):
        # sum over i = 0 .. last of p[i] / (jq + i)!, p[i] being the i-th power
        total = _TAYLOR_COEFFS[j * q] * p[0]
        for i in range(1, last + 1):
            coeff = _TAYLOR_COEFFS[j * q + i]
            total = total + (p[i] if coeff == 1.0 else coeff * p[i])
        return total

    # chunk j covers degrees jq .. jq + q - 1; the last one, r, runs on to m
    r = (m - 1) // q
    out = []
    for sign in (1.0, -1.0) if pair else (1.0,):
        p = [x if sign > 0 or i % 2 == 0 else -x for i, x in enumerate(powers)]
        acc = chunk(p, r, m - r * q)
        for j in range(r - 1, -1, -1):
            acc = _matmul(acc, p[q]) + chunk(p, j, q - 1)
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
