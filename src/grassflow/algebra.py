"""Matrix-algebra kernel for the three families behind the flow hierarchy.

A family is fixed by a signature condition on a two-block split of sizes k
and n - k: skew-Hermitian matrices (compact), J-skew-Hermitian matrices
with J = diag(I_k, -I_{n-k}) (noncompact), and real matrices (split).  All
data is carried as complex128 arrays batched over leading axes; the split
family keeps exactly-zero imaginary parts through every operation here.
"""

from __future__ import annotations

import enum
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


def signature_matrix(spec: AlgebraSpec) -> np.ndarray:
    """diag(I_k, -I_{n-k}), the signature of the block split."""
    d = np.full(spec.n, -1.0, dtype=np.complex128)
    d[: spec.k] = 1.0
    return np.diag(d)


def bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Commutator ab - ba, batched over leading axes."""
    return a @ b - b @ a


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab + ba, batched over leading axes."""
    return a @ b + b @ a


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


# Diagonal Pade coefficients for the degree-6 exponential kernel.
_PADE6 = (1.0, 1.0 / 2.0, 5.0 / 44.0, 1.0 / 66.0, 1.0 / 792.0, 1.0 / 15840.0, 1.0 / 665280.0)


def exp_map(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring over the Pade kernel.

    Batched over leading axes.  Accuracy is near machine precision for
    norms up to about ten; non-finite input raises.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.shape[-1] != a.shape[-2]:
        raise ValueError("exp_map needs square matrices")
    if not np.all(np.isfinite(a)):
        raise ValueError("exp_map: non-finite input")
    top = float(np.max(np.sum(np.abs(a), axis=-2))) if a.size else 0.0
    squarings = int(np.ceil(np.log2(top / 0.5))) if top > 0.5 else 0
    x = a / (2.0 ** squarings)
    b = _PADE6
    eye = np.eye(a.shape[-1], dtype=np.complex128)
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x2 @ x4
    odd = x @ (b[1] * eye + b[3] * x2 + b[5] * x4)
    even = b[0] * eye + b[2] * x2 + b[4] * x4 + b[6] * x6
    r = np.linalg.solve(even - odd, even + odd)
    for _ in range(squarings):
        r = r @ r
    return r
