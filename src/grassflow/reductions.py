"""Vector and scalar reductions of the 2x2 orbit flows.

For n = 2 each family's orbit field is a three-component vector field on a
quadric: the round sphere, the upper hyperboloid sheet, or the unit
one-sheet hyperboloid.  The dictionaries here conjugate the matrix flows
into vector form exactly at the discrete level, which is what the
matrix_and_vector_spins exploits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraSpec, Family
from .fields import Grid, MatrixField, _rk4, cumulative_trapezoid, periodic_diff
from .flows import FlowBlowupError, FlowKind, _check_stability, _flow, _flow_params, _march, evolve
from .functionals import FlowParams
from .orbit import OrbitState


class Geometry(str, enum.Enum):
    SPHERE = "sphere"
    HYPERBOLIC = "hyperbolic"
    DE_SITTER = "de_sitter"


_GEOMETRY_FAMILY = {
    Geometry.SPHERE: Family.COMPACT_UNITARY,
    Geometry.HYPERBOLIC: Family.NONCOMPACT_UNITARY,
    Geometry.DE_SITTER: Family.PARA_REAL,
}


def geometry_spec(geometry: Geometry) -> AlgebraSpec:
    return AlgebraSpec(_GEOMETRY_FAMILY[Geometry(geometry)], 2, 1)


def spec_geometry(spec: AlgebraSpec) -> Geometry:
    if (spec.n, spec.k) != (2, 1):
        raise ValueError("vector reductions need n = 2, k = 1")
    for geo, fam in _GEOMETRY_FAMILY.items():
        if fam is spec.family:
            return geo
    raise ValueError(f"no geometry for family {spec.family}")


def quadric_value(geometry: Geometry, s: np.ndarray) -> np.ndarray:
    """The quadratic form whose level set the vector lives on: |s|^2 = 1
    (sphere), s1^2 + s2^2 - s3^2 = -1 with s3 > 0 (hyperbolic), = +1
    (one-sheet).  Of a tangent vector it is the squared length in the
    geometry's signature."""
    g = Geometry(geometry)
    if g is Geometry.SPHERE:
        return np.sum(s * s, axis=-1)
    return s[..., 0] ** 2 + s[..., 1] ** 2 - s[..., 2] ** 2


def quadric_target(geometry: Geometry) -> float:
    return {Geometry.SPHERE: 1.0, Geometry.HYPERBOLIC: -1.0, Geometry.DE_SITTER: 1.0}[
        Geometry(geometry)
    ]


def quadric_defect(geometry: Geometry, s: np.ndarray) -> float:
    return float(np.max(np.abs(quadric_value(geometry, s) - quadric_target(geometry))))


@dataclass(frozen=True)
class SpinField:
    """Three-component real vector field on the geometry's quadric, at a
    time."""

    geometry: Geometry
    grid: Grid
    s: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "geometry", Geometry(self.geometry))
        v = np.array(self.s, dtype=np.float64, copy=True)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] != self.grid.num_points:
            raise ValueError("s must have shape (N, 3)")
        v.setflags(write=False)
        object.__setattr__(self, "s", v)
        if not np.all(np.isfinite(v)):
            raise ValueError("vector field has non-finite values")
        defect = quadric_defect(self.geometry, v)
        if defect > 1e-6:
            raise ValueError(f"vector field is off its quadric by {defect:.3e}")
        if self.geometry is Geometry.HYPERBOLIC and np.any(v[:, 2] <= 0):
            raise ValueError("hyperbolic vectors must stay on the upper sheet")


def s_to_phi_values(geometry: Geometry, s: np.ndarray) -> np.ndarray:
    """Dictionary from vectors to 2x2 orbit matrices."""
    g = Geometry(geometry)
    s1, s2, s3 = s[..., 0], s[..., 1], s[..., 2]
    out = np.empty(s.shape[:-1] + (2, 2), dtype=np.complex128)
    if g is Geometry.SPHERE:
        out[..., 0, 0] = 0.5j * s1
        out[..., 0, 1] = 0.5 * (s2 + 1j * s3)
        out[..., 1, 0] = 0.5 * (-s2 + 1j * s3)
        out[..., 1, 1] = -0.5j * s1
    elif g is Geometry.HYPERBOLIC:
        out[..., 0, 0] = 0.5j * s3
        out[..., 0, 1] = 0.5 * (s1 + 1j * s2)
        out[..., 1, 0] = 0.5 * (s1 - 1j * s2)
        out[..., 1, 1] = -0.5j * s3
    else:
        out[..., 0, 0] = 0.5 * s1
        out[..., 0, 1] = 0.5 * (s2 + s3)
        out[..., 1, 0] = 0.5 * (s2 - s3)
        out[..., 1, 1] = -0.5 * s1
    return out


def phi_to_s_values(geometry: Geometry, phi: np.ndarray) -> np.ndarray:
    g = Geometry(geometry)
    s = np.empty(phi.shape[:-2] + (3,), dtype=np.float64)
    if g is Geometry.SPHERE:
        s[..., 0] = 2.0 * phi[..., 0, 0].imag
        s[..., 1] = 2.0 * phi[..., 0, 1].real
        s[..., 2] = 2.0 * phi[..., 0, 1].imag
    elif g is Geometry.HYPERBOLIC:
        s[..., 0] = 2.0 * phi[..., 0, 1].real
        s[..., 1] = 2.0 * phi[..., 0, 1].imag
        s[..., 2] = 2.0 * phi[..., 0, 0].imag
    else:
        s[..., 0] = 2.0 * phi[..., 0, 0].real
        s[..., 1] = (phi[..., 0, 1] + phi[..., 1, 0]).real
        s[..., 2] = (phi[..., 0, 1] - phi[..., 1, 0]).real
    return s


def s_to_phi(sf: SpinField) -> OrbitState:
    spec = geometry_spec(sf.geometry)
    return OrbitState(spec, MatrixField(sf.grid, s_to_phi_values(sf.geometry, sf.s)), sf.time)


def phi_to_s(os: OrbitState) -> SpinField:
    geometry = spec_geometry(os.spec)
    return SpinField(geometry, os.phi.grid, phi_to_s_values(geometry, os.phi.values), os.time)


def geometry_cross(geometry: Geometry, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product matching the geometry's bracket: Euclidean for the
    sphere, the (+,+,-) variant for the hyperboloid, its negative for the
    one-sheet case."""
    g = Geometry(geometry)
    c = np.cross(a, b)
    if g is Geometry.SPHERE:
        return c
    flip = np.array([1.0, 1.0, -1.0]) if g is Geometry.HYPERBOLIC else np.array([-1.0, -1.0, 1.0])
    return c * flip


def spin_rhs(sf: SpinField, p: FlowParams) -> np.ndarray:
    """Vector form of the third-level flow for all three geometries."""
    return _spin_values(sf.geometry, sf.grid.h, sf.s, p)


def _spin_values(g: Geometry, h: float, s: np.ndarray, p: FlowParams) -> np.ndarray:
    """spin_rhs on the bare (N, 3) array s of geometry g and spacing h."""
    if p.beta == 0.0:
        sx, sxx = periodic_diff(s, (1, 2), h)
        core = -p.alpha * sxx
    else:
        sx, sxx, sxxxx = periodic_diff(s, (1, 2, 4), h)
        core = -p.alpha * sxx + p.beta * sxxxx
    coeff = 4.0 * p.gamma - 2.0 * p.beta
    if coeff != 0.0:
        nsq = quadric_value(g, sx)
        sgn = 1.0 if g is Geometry.HYPERBOLIC else -1.0
        core = core + (sgn * coeff) * periodic_diff(nsq[:, None] * sx, 1, h)
    return geometry_cross(g, s, core)


def renormalize(geometry: Geometry, s: np.ndarray) -> np.ndarray:
    """Pointwise projection back to the quadric along rays from the
    origin.  The hyperbolic sheet keeps its orientation because the scale
    factor is positive."""
    g = Geometry(geometry)
    val = quadric_value(g, s)
    target = quadric_target(g)
    scale = val / target
    if np.any(scale <= 0):
        raise ValueError("field left the cone of its quadric")
    return s / np.sqrt(scale)[:, None]


def spin_step(sf: SpinField, p: FlowParams, dt: float) -> SpinField:
    """One classical fourth-order step (_rk4) of the vector flow, each stage
    and the result renormalized onto the quadric.  Raises ValueError, with
    no warnings, when a stage leaves its cone or the result is not finite."""
    g, h = sf.geometry, sf.grid.h
    with np.errstate(all="ignore"):
        (out,) = _rk4(
            lambda c, s: (_spin_values(g, h, s, p),), (sf.s,), dt, lambda s: renormalize(g, s)
        )
        return SpinField(g, sf.grid, out, sf.time + dt)


def matrix_and_vector_spins(
    os: OrbitState, p: FlowParams, kind: FlowKind, times: list[float], dt: float
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Evolve os through the matrix flow of this kind and phi_to_s(os)
    through the vector flow of the same coefficients, and return the pair
    (matrix_s, vector_s) of (N, 3) arrays at each output time.  One march
    per side covers all of them.  Both sides are explicit integrators at the
    same dt, so a dt beyond the matrix flow's stability bound is refused.
    Either side raises FlowBlowupError when it stops being finite, or, on
    the vector side, leaves its quadric's cone."""
    physics = _flow_params(p, kind)
    _check_stability(_flow(os.spec, os.phi.grid, p, kind).bound, dt)
    T = max(times, default=os.time) - os.time
    matrix_side = evolve(os, p, kind, T, dt, output_times=times)

    def advance(sf, h):
        try:
            return spin_step(sf, physics, h)
        except ValueError as exc:
            raise FlowBlowupError(sf, 1, sf.time + h, str(exc)) from None

    vector_side = _march(phi_to_s(os), times, dt, advance)
    return [(phi_to_s(state).s, sf.s) for state, sf in zip(matrix_side, vector_side)]


def cross_check_matrix_vs_vector(
    initial: SpinField,
    p: FlowParams,
    kind,
    T: float,
    dt: float,
) -> float:
    """Evolve the same data through the matrix flow and through the vector
    flow, and return the largest componentwise gap at six evenly spaced
    times from 0 to T."""
    times = [i * T / 5 for i in range(6)] if T > 0 else [0.0]
    spins = matrix_and_vector_spins(s_to_phi(initial), p, kind, times, dt)
    return max(float(np.max(np.abs(vector_s - matrix_s))) for matrix_s, vector_s in spins)


def _scalar_block(q, r, h, alpha, beta, cnl):
    """Scalar transcription of the shared potential-equation block, kept
    term by term so it can disambiguate the matrix assembly."""
    qx, qxx, qxxxx = periodic_diff(q, (1, 2, 4), h)
    rx, rxx = periodic_diff(r, (1, 2), h)
    out = alpha * (-qxx + 2.0 * q * r * q)
    if beta != 0.0:
        out = out + beta * (
            qxxxx
            - 4.0 * qxx * r * q
            - 2.0 * q * rxx * q
            - 4.0 * q * r * qxx
            - 2.0 * qx * rx * q
            - 6.0 * qx * r * qx
            - 2.0 * q * rx * qx
            + 6.0 * q * r * q * r * q
        )
    if cnl != 0.0:
        qrq = q * r * q
        n1 = cumulative_trapezoid(q * periodic_diff(r * q, 1, h) * r, h)
        n2 = cumulative_trapezoid(r * periodic_diff(q * r, 1, h) * q, h)
        out = out - cnl * (-periodic_diff(qrq, 2, h) + 2.0 * qrq * r * q + q * n2 + n1 * q)
    return out


def _closed_scalar_complex(q, h, alpha, beta, cnl, focusing_sign):
    """Printed closed scalar equations of the complex families.  The sign
    argument is +1 for the compact case and -1 for the noncompact case."""
    qb = np.conj(q)
    a2 = (q * qb).real
    qx, qxx, qxxxx = periodic_diff(q, (1, 2, 4), h)
    s = -alpha * (qxx + focusing_sign * 2.0 * a2 * q)
    if beta != 0.0:
        a2xx = periodic_diff(a2, 2, h)
        s = s + beta * (
            qxxxx
            + focusing_sign * 6.0 * (a2 * qxx + qx * qx * qb)
            + (6.0 * a2 * a2 + focusing_sign * 2.0 * a2xx) * q
        )
    if cnl != 0.0:
        s = s - focusing_sign * cnl * (
            periodic_diff(a2 * q, 2, h) + focusing_sign * 3.0 * a2 * a2 * q
        )
    return 1j * s


def scalar_rhs(grid: Grid, q: np.ndarray, p: FlowParams, family: Family, r=None):
    """Scalar right-hand sides of the three potential equations (n = 2), in
    their printed closed form, written independently of the matrix assembly.

    For the complex families the return value is dq/dt; the split family
    needs an explicit real pair and returns (dq/dt, dr/dt).  The nonlocal
    terms take the exact primitive of their integrand, so the result differs
    from potential_rhs, whose running integrals are anchored at the first
    node, by a spatially constant multiple of the field.
    """
    family = Family(family)
    q = np.asarray(q, dtype=np.complex128)
    if q.shape != (grid.num_points,):
        raise ValueError("q must be a flat array over the grid")
    if family is Family.PARA_REAL and r is None:
        raise ValueError("the split family needs an explicit r")
    if family is not Family.PARA_REAL and r is not None:
        raise ValueError("the complex families slave r to q")
    h, cnl = grid.h, 2.0 * (8.0 * p.gamma + p.beta)
    if r is not None:
        r = np.asarray(r, dtype=np.complex128)
        dq = _closed_scalar_split_q(q, r, h, p.alpha, p.beta, cnl)
        return dq, -_closed_scalar_split_q(r, q, h, p.alpha, p.beta, cnl)
    focusing_sign = 1.0 if family is Family.COMPACT_UNITARY else -1.0
    return _closed_scalar_complex(q, h, p.alpha, p.beta, cnl, focusing_sign)


def _anchored_scalar_rhs(grid: Grid, q: np.ndarray, p: FlowParams, family: Family, r=None):
    """scalar_rhs with the nonlocal terms as running trapezoid integrals
    anchored at the first node: the transcription _scalar_block, which
    matches potential_rhs pointwise."""
    h, cnl = grid.h, 2.0 * (8.0 * p.gamma + p.beta)
    q = np.asarray(q, dtype=np.complex128)
    if r is not None:
        r = np.asarray(r, dtype=np.complex128)
        dq = -_scalar_block(q, r, h, p.alpha, p.beta, cnl)
        return dq, _scalar_block(r, q, h, p.alpha, p.beta, cnl)
    sign = -1.0 if Family(family) is Family.COMPACT_UNITARY else 1.0
    return 1j * _scalar_block(q, sign * np.conj(q), h, p.alpha, p.beta, cnl)


def _closed_scalar_split_q(q, r, h, alpha, beta, cnl):
    """Printed closed scalar q-equation of the split family; the r
    equation is the negative of the same expression with the arguments
    swapped."""
    qx, qxx, qxxxx = periodic_diff(q, (1, 2, 4), h)
    rx, rxx = periodic_diff(r, (1, 2), h)
    out = alpha * (qxx - 2.0 * q * q * r)
    if beta != 0.0:
        out = out + beta * (
            -qxxxx
            + 6.0 * qx * qx * r
            + 4.0 * q * qx * rx
            + 8.0 * q * r * qxx
            + 2.0 * q * q * rxx
            - 6.0 * q * q * q * r * r
        )
    if cnl != 0.0:
        q2r = q * q * r
        out = out - cnl * (periodic_diff(q2r, 2, h) - 3.0 * q * q2r * r)
    return out
