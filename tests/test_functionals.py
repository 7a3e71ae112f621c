from __future__ import annotations

import numpy as np
import pytest

import grassflow.fields as fields
import grassflow.functionals as functionals
import grassflow.suites as suites
from grassflow.algebra import (
    AlgebraSpec,
    Family,
    _exp_pair,
    _matmul,
    _orbit_square,
    bracket,
    inner,
    sigma3,
)
from grassflow.fields import Grid, MatrixField, periodic_diff
from grassflow.functionals import (
    FUNCTIONAL_NAMES,
    FlowParams,
    EnergyReport,
    energy_report,
    fd_gradient_check,
    functional_gradients,
)
from grassflow.initial_data import (
    latitude_circle_state,
    random_orbit_state,
    random_tangent_field,
)
from grassflow.orbit import OrbitState
from conftest import TWO_PI, all_specs


def _constant_state(spec: AlgebraSpec, grid: Grid) -> OrbitState:
    vals = np.broadcast_to(sigma3(spec), (grid.num_points, spec.n, spec.n)).copy()
    return OrbitState(spec, MatrixField(grid, vals))


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(np.nan, 0.0, 0.0)
    p = FlowParams(1, 0, 0.5)
    assert isinstance(p.alpha, float)


def test_constant_state_has_zero_energies(grid64):
    for spec in all_specs():
        os = _constant_state(spec, grid64)
        rep = energy_report(os, FlowParams(0.0, 0.0, 0.0))
        assert rep.E == pytest.approx(0.0, abs=1e-14)
        for name in FUNCTIONAL_NAMES:
            assert getattr(rep, name) == pytest.approx(0.0, abs=1e-13)


def test_helix_energy_matches_closed_form(grid128):
    # rigidly precessing circle: the density is constant in x, so the
    # total is exactly the squared stencil symbol of the single mode
    mode, height = 5, 0.4
    os = latitude_circle_state(grid128, mode=mode, height=height)
    rho_sq = 1.0 - height * height
    h = grid128.h
    symbol = (8.0 * np.sin(mode * h) - np.sin(2.0 * mode * h)) / (6.0 * h)
    e = energy_report(os, FlowParams(0.0, 0.0, 0.0)).E
    assert e == pytest.approx(0.25 * rho_sq * symbol**2 * TWO_PI, rel=1e-12)
    assert e == pytest.approx(0.25 * rho_sq * mode**2 * TWO_PI, rel=1e-3)


def test_report_combines_functionals(u2, grid64):
    os = random_orbit_state(u2, grid64, seed=21)
    p = FlowParams(0.8, 0.3, -0.05)
    rep = energy_report(os, p)
    assert isinstance(rep, EnergyReport)
    assert rep.E == pytest.approx(energy_report(os, FlowParams(0.0, 0.0, 0.0)).E, rel=1e-14)
    assert rep.E2 == pytest.approx(rep.E21 - rep.E22 + rep.E23, rel=1e-12)
    assert rep.H == pytest.approx(
        p.alpha * rep.E + p.beta * rep.E2 + p.gamma * rep.Etilde, rel=1e-12
    )


def test_report_chain_is_bit_identical_to_the_three_factor_product(grid64):
    # energy_report forms phix phiinv phix as (phix phiinv) phix from the r it
    # also needs, which is the order _matmul multiplies three factors in
    spec = AlgebraSpec(Family.NONCOMPACT_UNITARY, 4, 2)
    os = random_orbit_state(spec, grid64, seed=29, amplitude=0.25)
    h = grid64.h
    phix = periodic_diff(os.phi.values, 1, h)
    phixx = periodic_diff(os.phi.values, 2, h)
    chain = _matmul(phix, os.phi.values / _orbit_square(spec), phix)
    rep = energy_report(os, FlowParams(0.8, 0.3, -0.05))
    assert rep.E22 == float(h * np.sum(inner(spec, phixx, chain)))
    assert rep.E23 == 0.5 * float(h * np.sum(inner(spec, chain, chain)))


def test_quartic_functional_is_twice_its_partner_on_orbit(grid64):
    for spec in all_specs():
        os = random_orbit_state(spec, grid64, seed=23, amplitude=0.25)
        rep = energy_report(os, FlowParams(0.0, 0.0, 0.0))
        assert abs(rep.Etilde - 2.0 * rep.E23) / max(1.0, abs(rep.Etilde)) < 1e-10


def _tension(os):
    """-(phi_xx - phi_x phi^-1 phi_x), formed apart from the other gradients."""
    h = os.phi.grid.h
    phi = os.phi.values
    phix, phixx = periodic_diff(phi, (1, 2), h)
    phiinv = phi / _orbit_square(os.spec)
    return -(phixx - _matmul(phix, phiinv, phix))


def _gradient_of(os, name):
    """The declared gradient of one functional by the formula for that name
    alone, each from its own differences of phi."""
    spec = os.spec
    h = os.phi.grid.h
    phi = os.phi.values
    if name == "E":
        return _tension(os)
    if name == "E21":
        return periodic_diff(phi, 4, h)
    phix = periodic_diff(phi, 1, h)
    c2 = _orbit_square(spec)
    phiinv = phi / c2
    if name == "Etilde" and spec.family is Family.COMPACT_UNITARY:
        r = _matmul(phix, phiinv)
        r3 = _matmul(r, r, r)
        return _matmul(phiinv, periodic_diff(r3, 1, h) + _matmul(r3, r))
    s22 = -4.0 * c2
    chain = _matmul(phiinv, phix, phiinv, phix, phiinv, phix, phiinv)
    scale = 0.5 * s22 if name == "E23" else s22
    return scale * periodic_diff(chain, 1, h)


def test_gradients_equal_the_formula_of_each_name_bit_for_bit(u2, para2, u31, grid64):
    for spec in (u2, para2, u31):
        os = random_orbit_state(spec, grid64, seed=25, amplitude=0.25)
        gradients = functional_gradients(os)
        assert tuple(gradients) == FUNCTIONAL_NAMES
        for name in FUNCTIONAL_NAMES:
            assert np.array_equal(gradients[name].values, _gradient_of(os, name)), (
                f"{spec.family} {name}"
            )


def test_tension_is_the_gradient_of_the_quadratic_energy(u2, grid64):
    os = random_orbit_state(u2, grid64, seed=25)
    assert np.array_equal(functional_gradients(os)["E"].values, _tension(os))


def test_gradients_match_finite_differences(u2, para2):
    grid = Grid(128, TWO_PI)
    for spec in (u2, para2):
        os = random_orbit_state(spec, grid, seed=26, amplitude=0.2)
        xi = random_tangent_field(spec, grid, seed=27, amplitude=0.3)
        checks = fd_gradient_check(os, MatrixField(grid, xi))
        assert tuple(checks) == FUNCTIONAL_NAMES
        for name, (analytic, numeric) in checks.items():
            scale = max(abs(analytic), abs(numeric), 1e-8)
            assert abs(analytic - numeric) / scale < 5e-4, f"{spec.family} {name}"


def _one_name_check(os, name, xi):
    """The check of one functional by itself: the declared gradient paired
    with [phi, xi], and the centred difference of the functional between
    the energy reports of the state conjugated by exp(+-eps xi)."""
    spec, grid, phi = os.spec, os.phi.grid, os.phi.values
    grad = _gradient_of(os, name)
    analytic = float(grid.h * np.sum(inner(spec, grad, bracket(phi, xi.values))))
    eps = functionals._FD_EPS
    g, ginv = _exp_pair(eps * xi.values)
    unweighted = FlowParams(0.0, 0.0, 0.0)
    sides = [
        getattr(energy_report(OrbitState(spec, MatrixField(grid, conjugated)), unweighted), name)
        for conjugated in (_matmul(ginv, phi, g), _matmul(g, phi, ginv))
    ]
    return analytic, (sides[0] - sides[1]) / (2.0 * eps)


def test_one_pass_check_equals_the_check_of_each_name_alone(u2, para2):
    grid = Grid(64, TWO_PI)
    for spec in (u2, para2):
        os = random_orbit_state(spec, grid, seed=26, amplitude=0.2)
        xi = MatrixField(grid, random_tangent_field(spec, grid, seed=27, amplitude=0.3))
        checks = fd_gradient_check(os, xi)
        for name in FUNCTIONAL_NAMES:
            assert checks[name] == _one_name_check(os, name, xi), f"{spec.family} {name}"


def _counted(monkeypatch, module, name, counts):
    real = getattr(module, name)

    def counting(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def test_gradient_draw_derives_one_conjugated_pair(monkeypatch, u2):
    # two reports of the conjugated pair and one of the drawn state; the one
    # exponential pair is the one the check forms (the draw's exp_map aside),
    # and one gradients pass serves all five names
    counts = {}
    for module in (functionals, suites):
        _counted(monkeypatch, module, "energy_report", counts)
    _counted(monkeypatch, functionals, "_exp_pair", counts)
    _counted(monkeypatch, functionals, "functional_gradients", counts)
    suites._gradient_draw((u2, 0, 0))
    assert counts == {"energy_report": 3, "_exp_pair": 1, "functional_gradients": 1}


def test_gradient_check_pads_phi_once(monkeypatch, u2, grid64):
    # once for the gradients; the energy reports pad the conjugated pair
    os = random_orbit_state(u2, grid64, seed=26, amplitude=0.2)
    xi = MatrixField(grid64, random_tangent_field(u2, grid64, seed=27, amplitude=0.3))
    padded = []
    real = fields._wrap_pad

    def counted(values, pad):
        padded.append(values)
        return real(values, pad)

    monkeypatch.setattr(fields, "_wrap_pad", counted)
    fd_gradient_check(os, xi)
    assert sum(values is os.phi.values for values in padded) == 1
