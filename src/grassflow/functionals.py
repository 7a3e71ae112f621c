"""Energy functionals on orbit fields, their gradients, and check tooling."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Family, _exp_pair, _matmul, _orbit_square, bracket, inner, trace_product
from .fields import MatrixField, periodic_diff
from .orbit import OrbitState


@dataclass(frozen=True)
class FlowParams:
    """Coefficients weighting the three levels of the hierarchy."""

    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, float(v))


@dataclass(frozen=True)
class EnergyReport:
    """All functional values for one state, plus the weighted total."""

    E: float
    E21: float
    E22: float
    E23: float
    E2: float
    Etilde: float
    H: float


FUNCTIONAL_NAMES = ("E", "E21", "E22", "E23", "Etilde")


def _total(h: float, dens: np.ndarray) -> float:
    return float(h * np.sum(dens))


def energy_report(os: OrbitState, p: FlowParams) -> EnergyReport:
    spec = os.spec
    h = os.phi.grid.h
    phi = os.phi.values
    phix, phixx = periodic_diff(phi, (1, 2), h)
    phiinv = phi / _orbit_square(spec)  # phi^2 = c^2 I on the orbit
    r = _matmul(phix, phiinv)
    chain = _matmul(r, phix)  # phix phiinv phix
    e = 0.5 * _total(h, inner(spec, phix, phix))
    e21 = 0.5 * _total(h, inner(spec, phixx, phixx))
    e22 = _total(h, inner(spec, phixx, chain))
    e23 = 0.5 * _total(h, inner(spec, chain, chain))
    e2 = e21 - e22 + e23
    r2 = _matmul(r, r)
    quart = np.real(trace_product(r2, r2))
    sign = -1.0 if spec.family is Family.NONCOMPACT_UNITARY else 1.0
    etilde = 0.25 * sign * _total(h, quart)
    ham = p.alpha * e + p.beta * e2 + p.gamma * etilde
    return EnergyReport(e, e21, e22, e23, e2, etilde, ham)


def functional_gradients(os: OrbitState) -> dict[str, MatrixField]:
    """Declared gradient field of every functional, up to directions that
    are invisible in the tangent pairing, from one padded copy of phi, one
    r = phi_x phi^-1, and one chain phi^-1 (phi_x phi^-1)^3 and its derivative."""
    spec = os.spec
    grid = os.phi.grid
    phi = os.phi.values
    phix, phixx, phixxxx = periodic_diff(phi, (1, 2, 4), grid.h)
    c2 = _orbit_square(spec)
    phiinv = phi / c2  # phi^2 = c^2 I on the orbit
    r = _matmul(phix, phiinv)
    chain_x = periodic_diff(_matmul(phiinv, phix, phiinv, phix, phiinv, phix, phiinv), 1, grid.h)
    # E22, and Etilde off the compact family, are s22 (chain)_x; E23 is half of it
    s22 = -4.0 * c2
    etilde = e22 = s22 * chain_x
    if spec.family is Family.COMPACT_UNITARY:
        r3 = _matmul(r, r, r)
        etilde = _matmul(phiinv, periodic_diff(r3, 1, grid.h) + _matmul(r3, r))
    # in FUNCTIONAL_NAMES order; E's is the tension -(phi_xx - phi_x phi^-1 phi_x)
    values = (-(phixx - _matmul(r, phix)), phixxxx, e22, (0.5 * s22) * chain_x, etilde)
    return {name: MatrixField(grid, v) for name, v in zip(FUNCTIONAL_NAMES, values)}


_FD_EPS = 1e-5


def fd_gradient_check(os: OrbitState, xi: MatrixField) -> dict[str, tuple[float, float]]:
    """Directional derivative of every functional two ways, as
    {name: (analytic, numeric)}: its declared gradient, from one
    functional_gradients pass, paired with the conjugation direction
    [phi, xi], and a centered finite difference of step _FD_EPS along the
    conjugated family, whose one pair of states and their two energy
    reports serve every name in FUNCTIONAL_NAMES."""
    spec = os.spec
    grid = os.phi.grid
    phi = os.phi.values
    delta = bracket(phi, xi.values)
    gradients = functional_gradients(os)
    g, ginv = _exp_pair(_FD_EPS * xi.values)
    unweighted = FlowParams(0.0, 0.0, 0.0)
    plus = energy_report(OrbitState(spec, MatrixField(grid, _matmul(ginv, phi, g))), unweighted)
    minus = energy_report(OrbitState(spec, MatrixField(grid, _matmul(g, phi, ginv))), unweighted)
    return {
        name: (
            float(grid.h * np.sum(inner(spec, gradients[name].values, delta))),
            (getattr(plus, name) - getattr(minus, name)) / (2.0 * _FD_EPS),
        )
        for name in FUNCTIONAL_NAMES
    }
