from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from grassflow.algebra import (
    _TAYLOR_THETA,
    _exp_pair,
    _matmul,
    AlgebraSpec,
    Family,
    bracket,
    decompose,
    exp_map,
    frobenius,
    inner,
    membership_residual,
    sigma3,
    signature_matrix,
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


def test_signature_matrix(u31):
    assert np.allclose(signature_matrix(u31), np.diag([1.0, -1.0, -1.0]))


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
    j = signature_matrix(u31)
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
