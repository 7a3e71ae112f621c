from __future__ import annotations

import functools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from grassflow.algebra import (
    _TAYLOR_THETA,
    _exp_pair,
    _inv,
    _matmul,
    _solve,
    AlgebraSpec,
    Family,
    bracket,
    decompose,
    exp_map,
    frobenius,
    inner,
    membership_residual,
    sigma3,
    trace_product,
)


def test_spec_validation_rejects_bad_block_sizes():
    with pytest.raises(ValueError):
        AlgebraSpec(Family.COMPACT_UNITARY, 2, 0)
    with pytest.raises(ValueError):
        AlgebraSpec(Family.COMPACT_UNITARY, 2, 2)
    with pytest.raises(ValueError):
        AlgebraSpec(Family.COMPACT_UNITARY, 1, 1)


def test_base_point_compact(u2):
    expected = 0.5j * np.diag([1.0, -1.0])
    assert np.allclose(sigma3(u2), expected, atol=1e-15)


def test_base_point_split_family():
    spec = AlgebraSpec(Family.PARA_REAL, 3, 1)
    expected = 0.5 * np.diag([1.0, -1.0, -1.0])
    assert np.allclose(sigma3(spec), expected, atol=1e-15)


def test_base_point_squares_to_quarter_identity():
    for family, n, k in [
        (Family.COMPACT_UNITARY, 3, 2),
        (Family.NONCOMPACT_UNITARY, 4, 1),
        (Family.PARA_REAL, 2, 1),
    ]:
        spec = AlgebraSpec(family, n, k)
        sig = sigma3(spec)
        sign = -1.0 if family.is_unitary else 1.0
        assert np.allclose(sig @ sig, sign * 0.25 * np.eye(n), atol=1e-15)


def test_inner_product_of_base_point(u2, para2):
    # compact pairing flips the sign of the trace form
    assert inner(u2, sigma3(u2), sigma3(u2)) == pytest.approx(0.5, abs=1e-15)
    assert inner(para2, sigma3(para2), sigma3(para2)) == pytest.approx(0.5, abs=1e-15)


def test_inner_is_real_on_algebra_pairs(u2):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    a = 0.5 * (m - m.conj().T)
    b = bracket(sigma3(u2), a)
    assert trace_product(a, b).imag == pytest.approx(0.0, abs=1e-14)


def test_bracket_with_base_point_rotates_off_diagonal(u2):
    q = 0.7 - 0.2j
    m = np.array([[0.0, q], [-np.conj(q), 0.0]])
    expected = np.array([[0.0, 1j * q], [1j * np.conj(q), 0.0]])
    assert np.allclose(bracket(sigma3(u2), m), expected, atol=1e-15)


def test_membership_residual_frozen_values(u2):
    assert membership_residual(u2, 1j * np.eye(2)) == pytest.approx(0.0, abs=1e-15)
    # I fails skewness by exactly 2 I, so the distance is 2 sqrt(2)
    assert membership_residual(u2, np.eye(2)) == pytest.approx(2.0 * np.sqrt(2.0), rel=1e-14)


def test_membership_residual_split_family(para2):
    assert membership_residual(para2, np.array([[1.0, 2.0], [3.0, 4.0]])) == 0.0
    assert membership_residual(para2, 1j * np.eye(2)) == pytest.approx(np.sqrt(2.0), rel=1e-14)


def test_membership_residual_signature_family(u31):
    j = np.diag([1.0, -1.0, -1.0])  # diag(I_k, -I_{n-k}) for k = 1, n = 3
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = 0.5 * (m - j @ m.conj().T @ j)
    assert membership_residual(u31, a) < 1e-14


def test_decompose_reassembles_exactly(u31):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    k_part, m_part = decompose(u31, a)
    assert np.array_equal(k_part + m_part, a)
    assert np.all(k_part[:, 1:, :1] == 0.0)
    assert np.all(k_part[:, :1, 1:] == 0.0)
    assert np.all(m_part[:, :1, :1] == 0.0)
    assert np.all(m_part[:, 1:, 1:] == 0.0)


def test_exp_of_base_point_is_diagonal_phase(u2):
    expected = np.diag([np.exp(0.5j), np.exp(-0.5j)])
    assert np.allclose(exp_map(sigma3(u2)), expected, atol=1e-14)


def test_exp_of_nilpotent_is_affine():
    n = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(exp_map(n), np.eye(2) + n, atol=1e-15)


def _eig_exp(a: np.ndarray) -> np.ndarray:
    # reference for normal matrices only
    vals, vecs = np.linalg.eigh(1j * a)
    return (vecs * np.exp(-1j * vals)[..., None, :]) @ np.conj(np.swapaxes(vecs, -1, -2))


# 1-norms just below and just above every Taylor degree threshold, plus a
# sweep from far below the first to well into scaling and squaring
_EXP_NORMS = sorted(
    [f * t for t in _TAYLOR_THETA for f in (0.999, 1.001)]
    + [1e-8, 1e-6, 1e-4, 1e-2, 0.3, 2.0, 9.0]
)


def _skew_hermitian(rng, n: int, norm: float, batch: int = 3) -> np.ndarray:
    """Random skew-Hermitian batch whose largest 1-norm is exactly norm."""
    m = rng.standard_normal((batch, n, n)) + 1j * rng.standard_normal((batch, n, n))
    a = 0.5 * (m - np.conj(np.swapaxes(m, -1, -2)))
    return a * (norm / np.max(np.sum(np.abs(a), axis=-2)))


def test_exp_matches_spectral_reference_on_skew_hermitian():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        for norm in _EXP_NORMS:
            a = _skew_hermitian(rng, n, norm)
            gap = frobenius(exp_map(a) - _eig_exp(a))
            assert gap < 1e-13 * max(1.0, norm), f"n={n}, norm={norm:.4e}: {gap:.2e}"


def test_taylor_thresholds_meet_the_remainder_bound():
    # the literal table is the largest norm (to four digits, rounded down)
    # whose degree-m remainder bound stays within 2**-53
    unit = Fraction(1, 2 ** 53)

    def bound(x, m):
        x = Fraction(x)
        return x ** (m + 1) / math.factorial(m + 1) / (1 - x / (m + 2))

    for m, theta in enumerate(_TAYLOR_THETA, start=1):
        assert bound(theta, m) <= unit, m
        assert bound(theta * 1.001, m) > unit, m


def test_exp_handles_batches():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 2, 2)) + 1j * rng.standard_normal((6, 2, 2))
    a = 0.5 * (m - np.conj(np.swapaxes(m, -1, -2)))
    batched = exp_map(a)
    for j in range(6):
        assert np.allclose(batched[j], exp_map(a[j]), atol=1e-13)


def test_exp_rejects_non_finite_input():
    bad = np.array([[np.inf, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        exp_map(bad)


def test_exp_inverse_of_negative_argument():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    a = 0.5 * (m - m.conj().T)
    assert np.allclose(exp_map(a) @ exp_map(-a), np.eye(3), atol=1e-13)
    # the pair from shared powers is the same two exponentials
    for n in (2, 3, 4):
        for norm in _EXP_NORMS:
            a = _skew_hermitian(rng, n, norm)
            g, ginv = _exp_pair(a)
            np.testing.assert_array_equal(g, exp_map(a))
            np.testing.assert_array_equal(ginv, exp_map(-a))
            assert np.max(np.abs(g @ ginv - np.eye(n))) < 1e-13, (n, norm)


def test_two_by_two_product_matches_matmul():
    rng = np.random.default_rng(7)

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = [
        (draw(128, 2, 2), draw(128, 2, 2)),
        (draw(2, 2), draw(2, 2)),
        (draw(64, 2, 2), draw(2, 2)),
        (draw(2, 2), draw(64, 2, 2)),
        (draw(5, 3, 3), draw(5, 3, 3)),
        (draw(4, 4), draw(7, 4, 4)),
    ]
    for a, b in cases:
        got = _matmul(a, b)
        assert got.shape == (a @ b).shape
        np.testing.assert_allclose(got, a @ b, rtol=0, atol=1e-14)


def test_two_by_two_gather_product_is_bit_equal_to_outer_products():
    # the gathered form makes the same products as the sum of two
    # broadcast outer products and only adds them in another order
    rng = np.random.default_rng(8)
    for shape in [(2, 2), (17, 2, 2), (3, 5, 2, 2)]:
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        outer = a[..., :, :1] * b[..., :1, :] + a[..., :, 1:] * b[..., 1:, :]
        np.testing.assert_array_equal(_matmul(a, b), outer)


# Accepted error of a kernel against numpy, relative to the largest entry of
# numpy's result: products, solves and inverses of well-conditioned matrices
# take a handful of float64 operations per entry.
_KERNEL_RTOL = 2.0 ** 8 * np.finfo(float).eps


def _draw(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_matches(got, want, rtol):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=rtol * np.max(np.abs(want)))


@pytest.mark.parametrize(
    "shapes",
    [
        [(64, 2, 2)] * 4,  # left to right, 2x2 gathers
        [(64, 2, 2), (2, 2), (64, 2, 2)],  # a constant 2x2 broadcast
        [(3, 1, 2, 2), (5, 2, 2)],  # batch axes broadcast
        [(64, 1, 1)] * 3,  # inner dimension 1
        [(64, 2, 1), (64, 1, 2), (64, 2, 1)],
        [(8, 3, 3)] * 3,  # matmul
        [(8, 4, 4), (4, 4), (8, 4, 4)],
    ],
)
def test_matmul_matches_numpy(shapes):
    rng = np.random.default_rng(11)
    factors = [_draw(rng, *shape) for shape in shapes]
    _assert_matches(_matmul(*factors), functools.reduce(np.matmul, factors), _KERNEL_RTOL)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solve_and_inverse_match_numpy(n):
    rng = np.random.default_rng(12)
    # 4 I plus a perturbation of 2-norm about 1: condition number below 2
    a = 4.0 * np.eye(n) + _draw(rng, 64, n, n) / (2 * n)
    b = _draw(rng, 64, n, n)
    _assert_matches(_solve(a, b), np.linalg.solve(a, b), _KERNEL_RTOL)
    _assert_matches(_inv(a), np.linalg.inv(a), _KERNEL_RTOL)


def test_singular_two_by_two_is_non_finite_without_warning():
    # no LinAlgError: the caller's finiteness check reports it, and under
    # its errstate nothing warns
    a = np.array([[[1.0, 2.0], [2.0, 4.0]], [[0.0, 0.0], [0.0, 0.0]]], dtype=np.complex128)
    b = _draw(np.random.default_rng(14), 2, 2, 2)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        solved, inverse = _solve(a, b), _inv(a)
    assert not np.any(np.isfinite(solved))
    assert not np.any(np.isfinite(inverse))
    # larger matrices keep LAPACK's error
    with pytest.raises(np.linalg.LinAlgError):
        _solve(np.zeros((3, 3)), np.eye(3))
    with pytest.raises(np.linalg.LinAlgError):
        _inv(np.zeros((3, 3)))
