"""Matrix-algebra kernel for the three families behind the flow hierarchy.

A family is fixed by a signature condition on a two-block split of sizes k
and n - k: skew-Hermitian matrices (compact), J-skew-Hermitian matrices
with J = diag(I_k, -I_{n-k}) (noncompact), and real matrices (split).  All
data is carried as complex128 arrays batched over leading axes; the split
family keeps exactly-zero imaginary parts through every operation here.

The exponential is a truncated Taylor series whose degree is chosen from the
argument's 1-norm so that the truncation error stays below 2**-53, with
scaling and squaring for norms above 1.143; exp(a) and exp(-a) are E + O and
E - O, from one split of the series into its even and odd parts.  For 2x2
matrices the same series is summed on the entries: with a = t I + b and
b^2 = d I, exp(+-a) = e^(+-t) (C(d) I +- S(d) b), C and S the even and odd
parts of the series as polynomials in d.

This module decides how batched small-matrix algebra is computed, and every
other module goes through its two kernels rather than calling `@` or
np.linalg.inv or solve on a field: _matmul (a left-to-right product of any
number of factors) and _inv.  The matrix shape picks the path.  A product
with an inner dimension of 1 is a broadcast multiply; a 2x2 or 3x3 product
is a sum of n gathered columns times gathered rows on the flat (..., n^2)
views, and larger products use matmul.  For n <= 4 an inverse is the
adjugate over the determinant, its cofactors built from 2x2 minors by
gather tables built once, on first use; n >= 5 goes to LAPACK.  A solve is an
inverse times the right-hand side, and the midpoint step's Cayley factor
C = (I + aW)^-1 (I - aW) is 2 (I + aW)^-1 - I, its inverse
2 (I - aW)^-1 - I.  For every n a singular matrix gives non-finite values
from _inv, never LinAlgError, for the caller's finiteness check to catch.
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


# Positions, in the row-major (..., 4) view of a 2x2 matrix, of the entries
# of the adjugate up to the signs _ADJ_SIGN: (a11, -a01, -a10, a00).
_ADJ = np.array([3, 1, 2, 0])
_ADJ_SIGN = np.array([1.0, -1.0, -1.0, 1.0])


@functools.cache
def _product_gathers(n: int) -> tuple:
    """Gathers for a @ b on the row-major (..., n * n) views: (a @ b)[i, j]
    is sum_t a[i, k] b[k, j] with k = (j + t) % n.  Term 0 is a's own
    entries times the diagonal entry of each column of b; returns the
    positions of that diagonal and, for each later term, the positions of
    its factors in a and in b.  Built on first use, so that an import pays
    nothing for them, as are the tables of _cofactor_gathers."""
    i, j = np.divmod(np.arange(n * n), n)
    k = (j + np.arange(n)[:, None]) % n
    ka, kb = i * n + k, k * n + j
    return kb[0], tuple(zip(ka[1:], kb[1:]))


@functools.cache
def _cofactor_gathers(n: int) -> tuple:
    """Gathers, on the row-major (..., n * n) view, for the adjugate of a
    3x3 or 4x4 matrix from 2x2 minors m = a[P] a[Q] - a[R] a[S], P, Q, R
    and S being the rows of the first table.

    n = 3: adj[j, i] is the minor of a without row i and column j, its
    columns ordered so that it carries the cofactor sign (-1)^(i + j); the
    minors are the adjugate in row-major order.
    n = 4: the minors are the six of rows (0, 1) and the six of rows
    (2, 3).  adj[j, i] is the 3x3 minor of a without row i and column j,
    expanded along the row r that shares i's pair: with c_t the columns
    other than j and m_t the minor of the other pair on the columns other
    than j and c_t, adj[j, i] = (-1)^(i + j) sum_t (-1)^t a[r, c_t] m_t.
    Row t of the second table holds the positions of a[r, c_t] and row t
    of the third those of m_t; the fourth is the signs (-1)^(i + j)."""
    if n == 3:
        gathers = []
        for j in range(3):
            for i in range(3):
                (r0, r1), (c0, c1) = ([x for x in range(3) if x != y] for y in (i, j))
                if (i + j) % 2:
                    c0, c1 = c1, c0
                gathers.append((r0 * 3 + c0, r1 * 3 + c1, r0 * 3 + c1, r1 * 3 + c0))
        return (np.array(gathers).T,)
    pairs = [(c0, c1) for c0 in range(4) for c1 in range(c0 + 1, 4)]
    minors = [(r0, r1, c0, c1) for r0, r1 in ((0, 1), (2, 3)) for c0, c1 in pairs]
    entries, terms = [], []
    for j in range(4):
        for i in range(4):
            r = i ^ 1  # the row paired with i
            others = (0, 1) if i >= 2 else (2, 3)
            cols = [c for c in range(4) if c != j]
            entries.append([r * 4 + c for c in cols])
            terms.append([minors.index(others + tuple(x for x in cols if x != c)) for c in cols])
    gathers = [(r0 * 4 + c0, r1 * 4 + c1, r0 * 4 + c1, r1 * 4 + c0) for r0, r1, c0, c1 in minors]
    signs = (-1.0) ** np.add.outer(np.arange(4), np.arange(4)).ravel()
    return np.array(gathers).T, np.array(entries).T, np.array(terms).T, signs


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched a @ b, broadcast over leading axes.  Two 2x2 or 3x3 operands
    are formed on the flat (..., n * n) views as
    sum_t a[i, (j + t) % n] b[(j + t) % n, j], each term a gathered column
    of a times a gathered row of b: 2n - 1 gathers and n contiguous
    products, without matmul's per-matrix overhead.  An inner dimension of
    1 is a broadcast multiply.  Every other shape uses matmul, 4x4 too:
    there the gathered fields of a large batch cost more than matmul's
    overhead (1.4 ms against 0.6 ms at 2048 points on a 2-vCPU Xeon)."""
    sa, sb = a.shape, b.shape
    n = sa[-1]
    if 2 <= n <= 3 and sa[-2] == n and sb[-2:] == (n, n):
        diag, terms = _product_gathers(n)
        a1, b1 = a.reshape(sa[:-2] + (n * n,)), b.reshape(sb[:-2] + (n * n,))
        acc = a1 * b1.take(diag, axis=-1)
        for ia, ib in terms:
            acc += a1.take(ia, axis=-1) * b1.take(ib, axis=-1)
        return acc.reshape(sa if sa == sb else acc.shape[:-1] + (n, n))
    if n == 1 == sb[-2]:
        return a * b
    return a @ b


def _matmul(*factors: np.ndarray) -> np.ndarray:
    """Batched product of the factors, multiplied left to right, so that
    _matmul(a, b, c) is (a @ b) @ c; each pair is formed by _product."""
    return functools.reduce(_product, factors)


def _adjugate(flat: np.ndarray, n: int) -> np.ndarray:
    """The adjugate of each 3x3 or 4x4 matrix on the row-major (..., n * n)
    view, by the tables of _cofactor_gathers.  Products are formed in place,
    gathers go into reused buffers (np.take writes straight into out= only
    with mode="clip"; every index is in range) and the minors' buffers are
    freed before the expansion allocates its own, because fresh memory for
    a large field's temporaries costs page faults: at 2048 points a 4x4
    inverse takes 1.0 ms this way, 1.5 ms with new arrays for every term,
    and 1.2 ms by LAPACK on a 2-vCPU Xeon."""
    gathers = _cofactor_gathers(n)
    p, q, r, s = gathers[0]
    minors, work = flat.take(p, axis=-1), flat.take(q, axis=-1)
    minors *= work
    term = flat.take(r, axis=-1)
    term *= np.take(flat, s, axis=-1, out=work, mode="clip")
    minors -= term
    if n == 3:
        return minors
    del term, work
    (e0, e1, e2), (m0, m1, m2), signs = gathers[1:]
    adj, work = flat.take(e0, axis=-1), minors.take(m0, axis=-1)
    adj *= work
    term = flat.take(e1, axis=-1)
    term *= np.take(minors, m1, axis=-1, out=work, mode="clip")
    adj -= term
    np.take(flat, e2, axis=-1, out=term, mode="clip")
    term *= np.take(minors, m2, axis=-1, out=work, mode="clip")
    adj += term
    adj *= signs
    return adj


def _inv(a: np.ndarray) -> np.ndarray:
    """Batched inverse.  For n <= 4 it is the adjugate over the
    determinant, non-finite where a is singular: for 2x2 the adjugate is
    gathered and signed, for 3x3 and 4x4 it is built by _adjugate and the
    determinant is the first row of a times the adjugate's first column.
    For n >= 5 it is np.linalg.inv, and all non-finite when a matrix of the
    batch is singular.  It never raises LinAlgError."""
    if a.shape[-2:] == (2, 2):
        a4 = a.reshape(a.shape[:-2] + (4,))
        det = a4[..., 0] * a4[..., 3] - a4[..., 1] * a4[..., 2]
        return (a4.take(_ADJ, axis=-1) * _ADJ_SIGN / det[..., None]).reshape(a.shape)
    n = a.shape[-1]
    if 3 <= n <= 4:
        flat = a.reshape(a.shape[:-2] + (n * n,))
        adj = _adjugate(flat, n)
        det = flat[..., 0] * adj[..., 0]
        for k in range(1, n):
            det += flat[..., k] * adj[..., k * n]
        adj *= (1.0 / det)[..., None]
        return adj.reshape(a.shape)
    if n == 1:
        return 1.0 / a
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:  # raised for the whole batch
        return np.full(a.shape, np.nan, dtype=np.result_type(a.dtype, np.float64))


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


def _taylor_plan(top: float) -> tuple:
    """(m, s): the Taylor degree m and the squarings s for an argument of
    1-norm top.  m is the smallest degree with top * 2**-s <=
    _TAYLOR_THETA[m - 1], where s = 0 up to the last threshold and the
    fewest halvings that bring top within it above.  A non-finite top gets
    degree 1, which carries the non-finite entries through."""
    if not math.isfinite(top):
        return 1, 0
    squarings = 0
    if top > _TAYLOR_THETA[-1]:
        squarings = math.ceil(math.log2(top / _TAYLOR_THETA[-1]))
        top *= 2.0 ** -squarings
    return min(bisect.bisect_left(_TAYLOR_THETA, top), len(_TAYLOR_THETA) - 1) + 1, squarings


def _horner(coeffs, x):
    """sum_j coeffs[j] x^j by Horner's rule; a lone coefficient stays a number."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = acc * x + c
    return acc


def _exp2_pair(a: np.ndarray, pair: bool) -> tuple:
    """exp(a), and exp(-a) when pair, for 2x2 matrices, on the entries.

    With t = tr(a) / 2 and b = a - t I, b^2 = d I where d = -det(b), so the
    degree-m Taylor polynomial of exp(b) is C(d) I + S(d) b with
    C = sum_{2j <= m} d^j / (2j)! and S = sum_{2j + 1 <= m} d^j / (2j + 1)!,
    and exp(+-a) = e^(+-t) (C I +- S b).  m and the squarings s are
    _taylor_plan's for ||b||_1, as the matrix series would take them; C
    and S are evaluated at d / 4^s by Horner's rule, and each squaring is
    C, S <- C^2 + d S^2, C S with d quadrupled.  exp(-a) is formed from
    -t and -b, the values exp_map(-a) forms, so the pair is bit for bit
    the two exponentials.
    """
    a4 = a.reshape(a.shape[:-2] + (4,))
    a00, a01, a10, a11 = (a4[..., k] for k in range(4))
    t = 0.5 * (a00 + a11)
    h = 0.5 * (a00 - a11)  # b = [[h, a01], [a10, -h]]
    top = float((np.maximum(np.abs(a01), np.abs(a10)) + np.abs(h)).max()) if a.size else 0.0
    m, squarings = _taylor_plan(top)
    d = h * h + a01 * a10
    if squarings:
        d = d * 4.0 ** -squarings
    c = _TAYLOR_COEFFS[: m + 1]
    cosh, sinhc = _horner(c[0::2], d), _horner(c[1::2], d)
    for _ in range(squarings):
        cosh, sinhc = cosh * cosh + d * (sinhc * sinhc), cosh * sinhc
        d = 4.0 * d
    out = []
    for sign in (1, -1)[: 2 if pair else 1]:
        e = np.exp(t if sign > 0 else -t)
        ec, es = e * cosh, e * sinhc
        if sign < 0:
            es = -es  # S times -b is -S times b, bit for bit
        g = np.empty(a4.shape, dtype=np.complex128)
        esh = es * h
        np.add(ec, esh, out=g[..., 0])
        np.multiply(es, a01, out=g[..., 1])
        np.multiply(es, a10, out=g[..., 2])
        np.subtract(ec, esh, out=g[..., 3])
        out.append(g.reshape(a.shape))
    return tuple(out)


def _exp_pair(a: np.ndarray, pair: bool = True) -> tuple:
    """exp(a), and exp(-a) when pair, as E + O and E - O from one even/odd
    split of the Taylor polynomial; 2x2 matrices take _exp2_pair.

    The Taylor degree and the squarings are _taylor_plan's for ||a||_1; a
    is scaled by 2**-s and the results squared s times.  The even part
    E = sum (a^2)^j / (2j)! and the odd part O = a sum (a^2)^j / (2j + 1)!
    are polynomials in B = a^2, evaluated by Paterson-Stockmeyer over the
    shared powers B, ..., B^q.  No input check: non-finite input comes out
    non-finite, for the caller to detect.
    """
    if a.shape[-2:] == (2, 2):
        return _exp2_pair(a, pair)
    # the 1-norm is the largest column sum; einsum sums the columns with far
    # less overhead than sum(axis=-2) on small matrices
    top = float(np.einsum("...ij->...j", np.abs(a)).max()) if a.size else 0.0
    m, squarings = _taylor_plan(top)
    if squarings:
        a = a * 2.0 ** -squarings
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
