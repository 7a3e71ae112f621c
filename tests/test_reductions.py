from __future__ import annotations

import numpy as np
import pytest

import grassflow.reductions as reductions
from grassflow.algebra import AlgebraSpec, Family, inner, membership_residual
from grassflow.fields import Grid, periodic_diff
from grassflow.flows import FlowBlowupError, FlowKind, auto_dt, stability_bound
from grassflow.functionals import FlowParams
from grassflow.orbit import spectrum_deviation
from grassflow.reductions import (
    Geometry,
    SpinField,
    cross_check_matrix_vs_vector,
    geometry_cross,
    geometry_spec,
    matrix_and_vector_spins,
    phi_to_s,
    phi_to_s_values,
    quadric_defect,
    quadric_target,
    quadric_value,
    renormalize,
    s_to_phi,
    s_to_phi_values,
    spec_geometry,
    spin_rhs,
    spin_step,
)
from grassflow.suites import random_spin_field
from conftest import TWO_PI


def _quadric_field(geometry: Geometry, grid: Grid, seed: int = 0) -> SpinField:
    rng = np.random.default_rng(seed)
    x = grid.x
    a = 0.3 * np.cos(x + rng.uniform(0, TWO_PI)) + 0.2 * np.sin(2 * x)
    b = 0.25 * np.sin(x + rng.uniform(0, TWO_PI)) + 0.15 * np.cos(2 * x)
    if geometry is Geometry.SPHERE:
        raw = np.stack([a, b, 1.0 + 0.3 * np.cos(x)], axis=-1)
        s = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
    elif geometry is Geometry.HYPERBOLIC:
        s = np.stack([a, b, np.sqrt(1.0 + a * a + b * b)], axis=-1)
    else:
        s = np.stack([np.cosh(b) * np.cos(a), np.cosh(b) * np.sin(a), np.sinh(b)], axis=-1)
    return SpinField(geometry, grid, s)


def test_geometry_spec_roundtrip():
    for g in Geometry:
        spec = geometry_spec(g)
        assert spec.n == 2 and spec.k == 1
        assert spec_geometry(spec) is g
    with pytest.raises(ValueError):
        spec_geometry(AlgebraSpec(Family.COMPACT_UNITARY, 3, 1))


def test_quadric_values():
    assert quadric_value(Geometry.SPHERE, np.array([0.0, 0.0, 1.0])) == 1.0
    assert quadric_value(Geometry.HYPERBOLIC, np.array([0.0, 0.0, 1.0])) == -1.0
    assert quadric_value(Geometry.DE_SITTER, np.array([1.0, 0.0, 0.0])) == 1.0
    assert quadric_target(Geometry.HYPERBOLIC) == -1.0
    assert quadric_defect(Geometry.SPHERE, np.array([[0.0, 0.0, 2.0]])) == 3.0


def test_spin_field_validation(grid64):
    flat = np.zeros((64, 3))
    flat[:, 2] = 1.0
    SpinField(Geometry.SPHERE, grid64, flat)
    with pytest.raises(ValueError):
        SpinField(Geometry.SPHERE, grid64, 1.01 * flat)
    with pytest.raises(ValueError):
        SpinField(Geometry.HYPERBOLIC, grid64, -flat)
    with pytest.raises(ValueError):
        SpinField(Geometry.SPHERE, grid64, np.zeros((64, 2)))
    for g in Geometry:
        # NaN compares false against every quadric and sheet test
        with pytest.raises(ValueError):
            SpinField(g, grid64, np.full((64, 3), np.nan))
    sf = SpinField(Geometry.SPHERE, grid64, flat)
    with pytest.raises(ValueError):
        sf.s[0, 0] = 1.0


def test_dictionary_roundtrip(grid64):
    for g in Geometry:
        sf = _quadric_field(g, grid64, seed=4)
        os = s_to_phi(sf)
        assert spectrum_deviation(os) < 1e-12
        assert membership_residual(os.spec, os.phi.values) < 1e-12
        back = phi_to_s(os)
        assert back.geometry is g
        np.testing.assert_allclose(back.s, sf.s, atol=1e-14)


def test_bracket_matches_geometry_cross():
    # the dictionaries intertwine the matrix bracket with the signed
    # cross product exactly, with no extra constant
    rng = np.random.default_rng(11)
    for g in Geometry:
        for _ in range(5):
            a, b = rng.normal(size=3), rng.normal(size=3)
            pa, pb = s_to_phi_values(g, a), s_to_phi_values(g, b)
            want = s_to_phi_values(g, geometry_cross(g, a, b))
            np.testing.assert_allclose(pa @ pb - pb @ pa, want, atol=1e-14)


def test_dictionary_is_an_isometry(grid64):
    # derivatives map to derivatives, and the algebra pairing returns half
    # the signature form of the vector derivative
    for g in Geometry:
        sf = _quadric_field(g, grid64, seed=6)
        os = s_to_phi(sf)
        phix = periodic_diff(os.phi.values, 1, grid64.h)
        sx = periodic_diff(sf.s, 1, grid64.h)
        got = inner(os.spec, phix, phix)
        want = 0.5 * (
            np.sum(sx * sx, axis=-1)
            if g is Geometry.SPHERE
            else sx[:, 0] ** 2 + sx[:, 1] ** 2 - sx[:, 2] ** 2
        )
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_vector_rhs_equals_conjugated_matrix_rhs(grid64):
    from grassflow.algebra import bracket
    from grassflow.flows import third_order_generator

    p = FlowParams(1.0, 0.2, 0.03)
    for g in Geometry:
        sf = _quadric_field(g, grid64, seed=8)
        os = s_to_phi(sf)
        w = third_order_generator(os, p).values
        matrix_side = phi_to_s_values(g, bracket(os.phi.values, w))
        vector_side = spin_rhs(sf, p)
        gap = np.max(np.abs(matrix_side - vector_side))
        assert gap < 1e-10, f"{g}: {gap:.3e}"


def test_renormalize_projects_and_guards():
    grid = Grid(8, TWO_PI)
    s = np.zeros((8, 3))
    s[:, 2] = 1.0
    scaled = 1.3 * s
    back = renormalize(Geometry.SPHERE, scaled)
    np.testing.assert_allclose(back, s, atol=1e-14)
    with pytest.raises(ValueError):
        renormalize(Geometry.SPHERE, np.zeros((8, 3)))
    off_cone = np.zeros((8, 3))
    off_cone[:, 2] = 1.0
    with pytest.raises(ValueError):
        renormalize(Geometry.DE_SITTER, off_cone)


def test_spin_step_stays_on_quadric():
    grid = Grid(48, TWO_PI)
    p = FlowParams(1.0, 0.0, 0.0)
    dt = 0.25 * stability_bound(p, grid.h, FlowKind.LEADING_ORDER)
    for g in (Geometry.SPHERE, Geometry.HYPERBOLIC):
        sf = _quadric_field(g, grid, seed=9)
        for _ in range(4):
            sf = spin_step(sf, p, dt)
        assert quadric_defect(g, sf.s) < 1e-12
        if g is Geometry.HYPERBOLIC:
            assert np.all(sf.s[:, 2] > 0)


def test_cross_check_rejects_second_order_flow(grid64):
    sf = _quadric_field(Geometry.SPHERE, grid64, seed=1)
    with pytest.raises(ValueError, match="leading_order and third_order"):
        cross_check_matrix_vs_vector(sf, FlowParams(1, 0, 0), FlowKind.SECOND_ORDER, 1e-3, 1e-4)


def test_cross_check_integrates_one_equation_on_both_sides(grid64):
    # the leading-order flow ignores beta and gamma, and so must the vector side
    p = FlowParams(1.0, 0.1, -0.0125)
    sf = _quadric_field(Geometry.SPHERE, grid64, seed=2)
    gap = cross_check_matrix_vs_vector(sf, p, FlowKind.LEADING_ORDER, 2e-3, 2e-6)
    assert gap < 1e-10, f"{gap:.3e}"


def test_cross_check_small_run(grid64):
    p = FlowParams(1.0, 0.0, 0.0)
    dt = 0.5 * stability_bound(p, grid64.h, FlowKind.LEADING_ORDER)
    sf = _quadric_field(Geometry.SPHERE, grid64, seed=2)
    gap = cross_check_matrix_vs_vector(sf, p, FlowKind.LEADING_ORDER, 0.01, dt)
    assert gap < 1e-8, f"{gap:.3e}"


def test_vector_side_blowup_is_typed_and_indexed():
    # on the one-sheet hyperboloid at this p the vector march leaves its
    # quadric's cone a step or two before the matrix side stops being finite
    os = s_to_phi(random_spin_field(Geometry.DE_SITTER, Grid(64, TWO_PI), 3))
    p = FlowParams(1.0, 0.1, 0.05)
    dt = auto_dt(p, os.phi.grid.h, FlowKind.THIRD_ORDER)
    with np.errstate(all="ignore"):
        with pytest.raises(FlowBlowupError) as err:
            matrix_and_vector_spins(os, p, FlowKind.THIRD_ORDER, [0.0, 306 * dt], dt)
    index = err.value.step_index
    assert 1 <= index <= 306
    last = err.value.last_state
    assert isinstance(last, SpinField)
    assert np.all(np.isfinite(last.s))
    assert last.time == pytest.approx((index - 1) * dt)
    assert err.value.time == pytest.approx(index * dt)
    assert str(err.value) == (
        f"field left the cone of its quadric after step {index} (t={err.value.time:.6g})"
    )


def test_non_finite_vector_side_says_so(monkeypatch):
    os = s_to_phi(random_spin_field(Geometry.SPHERE, Grid(32, TWO_PI), 3))
    p = FlowParams(1.0, 0.0, 0.0)
    dt = auto_dt(p, os.phi.grid.h, FlowKind.LEADING_ORDER)
    monkeypatch.setattr(reductions, "spin_rhs", lambda sf, p: np.full_like(sf.s, np.nan))
    with pytest.raises(FlowBlowupError) as err:
        matrix_and_vector_spins(os, p, FlowKind.LEADING_ORDER, [0.0, 2 * dt], dt)
    assert err.value.step_index == 1
    assert str(err.value) == f"vector field has non-finite values after step 1 (t={dt:.6g})"
