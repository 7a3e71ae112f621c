"""Structure-preserving flows on adjoint orbits of matrix Lie algebras.

The library implements a hierarchy of geometric evolution equations for
fields valued in rank-k adjoint orbits of u(n), u(k, n-k), and gl(n, R),
their frame and potential formulations related by gauge fixing, vector
and scalar reductions in the 2x2 case, and the verification machinery
tying all of these representations together.
"""

__version__ = "0.1.0"

from .algebra import (
    AlgebraSpec,
    Family,
    LieDecomposition,
    bracket,
    decompose,
    exp_map,
    frobenius,
    inner,
    membership_residual,
    sigma3,
    trace_product,
)
from .fields import (
    Grid,
    MatrixField,
    cumulative_trapezoid,
    periodic_diff,
    stencil_symbol,
)
from .flows import (
    FlowBlowupError,
    FlowKind,
    NewtonError,
    StabilityError,
    curve_flow_rhs,
    evolve,
    stability_bound,
    step,
    sym_pohlmeyer_curve,
    third_order_generator,
)
from .functionals import (
    FUNCTIONAL_NAMES,
    EnergyReport,
    FlowParams,
    energy_report,
    fd_gradient_check,
    functional_gradients,
)
from .gauge import (
    GaugeError,
    PotentialState,
    akns4_rhs,
    curvature_residual,
    evolve_potential,
    frame_potential_gaps,
    gauge_transform,
    matrix_kdv_rhs,
    potential_rhs,
    slaved_r,
)
from .initial_data import (
    GENERATOR_NAMES,
    gaussian_bump_potential,
    latitude_circle_state,
    make_initial_potential,
    make_initial_state,
    plane_wave_potential,
    random_frame_state,
    random_orbit_state,
    random_smooth_potential,
    random_tangent_field,
    state_from_potential,
    two_bump_potential,
)
from .orbit import (
    FramedState,
    OrbitState,
    frame_from_potential,
    gauge_fix_frame,
    orbit_from_frame,
    spectrum_deviation,
    verify_identities,
)
from .reductions import (
    Geometry,
    SpinField,
    cross_check_matrix_vs_vector,
    geometry_cross,
    geometry_spec,
    matrix_and_vector_spins,
    phi_to_s,
    quadric_defect,
    s_to_phi,
    scalar_rhs,
    spec_geometry,
    spin_rhs,
    spin_step,
)
from .suites import SUITES, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
