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


def tension(os: OrbitState) -> MatrixField:
    """Gradient of the base energy: -(phi_xx - phi_x phi^-1 phi_x)."""
    h = os.phi.grid.h
    phi = os.phi.values
    phix, phixx = periodic_diff(phi, (1, 2), h)
    phiinv = phi / _orbit_square(os.spec)  # phi^2 = c^2 I on the orbit
    return MatrixField(os.phi.grid, -(phixx - _matmul(phix, phiinv, phix)))


def functional_gradient(os: OrbitState, name: str) -> MatrixField:
    """Declared gradient field of one functional, up to directions that are
    invisible in the tangent pairing."""
    if name not in FUNCTIONAL_NAMES:
        raise ValueError(f"unknown functional {name!r}")
    spec = os.spec
    h = os.phi.grid.h
    phi = os.phi.values
    if name == "E":
        return tension(os)
    if name == "E21":
        return MatrixField(os.phi.grid, periodic_diff(phi, 4, h))
    phix = periodic_diff(phi, 1, h)
    c2 = _orbit_square(spec)
    phiinv = phi / c2  # phi^2 = c^2 I on the orbit
    if name == "Etilde" and spec.family is Family.COMPACT_UNITARY:
        r = _matmul(phix, phiinv)
        r3 = _matmul(r, r, r)
        return MatrixField(os.phi.grid, _matmul(phiinv, periodic_diff(r3, 1, h) + _matmul(r3, r)))
    # E22, and Etilde off the compact family, are s22 (chain)_x; E23 is half of it
    s22 = -4.0 * c2
    chain = _matmul(phiinv, phix, phiinv, phix, phiinv, phix, phiinv)
    scale = 0.5 * s22 if name == "E23" else s22
    return MatrixField(os.phi.grid, scale * periodic_diff(chain, 1, h))


_FD_EPS = 1e-5


def fd_gradient_check(os: OrbitState, xi: MatrixField) -> dict[str, tuple[float, float]]:
    """Directional derivative of every functional two ways, as
    {name: (analytic, numeric)}: its declared gradient paired with the
    conjugation direction [phi, xi], and a centered finite difference of
    step _FD_EPS along the conjugated family, whose one pair of states and
    their two energy reports serve every name in FUNCTIONAL_NAMES."""
    spec = os.spec
    grid = os.phi.grid
    phi = os.phi.values
    delta = bracket(phi, xi.values)
    g, ginv = _exp_pair(_FD_EPS * xi.values)
    unweighted = FlowParams(0.0, 0.0, 0.0)
    plus = energy_report(OrbitState(spec, MatrixField(grid, _matmul(ginv, phi, g))), unweighted)
    minus = energy_report(OrbitState(spec, MatrixField(grid, _matmul(g, phi, ginv))), unweighted)
    return {
        name: (
            float(grid.h * np.sum(inner(spec, functional_gradient(os, name).values, delta))),
            (getattr(plus, name) - getattr(minus, name)) / (2.0 * _FD_EPS),
        )
        for name in FUNCTIONAL_NAMES
    }
