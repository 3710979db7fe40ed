"""Variational analysis of loop energies on spheres and ellipsoids.

Discretized Dirichlet energy of closed loops into embedded targets:
tension fields and general Euler-Lagrange operators, their
linearizations, Liapunov-Schmidt reduction onto the kernel, Lojasiewicz
exponent estimation, gradient-flow convergence rates, and a brute-force
verifier of the classical gradient and distance inequalities for
polynomials.
"""

from .bundles import (
    BundleSection,
    PullbackBundle,
    build_pullback_bundle,
    bundle_gradient,
    chart_decode,
    chart_encode,
    l2_inner,
    l2_norm,
    project_section,
    section,
    sobolev_norms,
    zero_section,
)
from .config import RunConfig, parse_config, parse_config_file, resolved_dict
from .flow import (
    FlowConfig,
    FlowTrace,
    finite_dim_flow,
    fit_convergence_rate,
    flow_step,
    run_flow,
)
from .lojasiewicz import (
    ExponentFit,
    SampleCloud,
    estimate_gradient_exponent,
    finite_dim_distance_exponent,
    finite_dim_gradient_exponent,
    integrability_probe,
    make_cloud,
    verify_inequality,
)
from .mesh import (
    DomainMesh,
    build_circle_mesh,
    differentiate,
    integrate,
    laplace_beltrami,
)
from .polynomials import Polynomial, from_term_list, polynomial
from .reduction import (
    ReductionWorkspace,
    apply_N,
    approximation_check,
    build_reduction_workspace,
    invert_N,
    kernel_combination,
    kernel_coordinates,
    project_onto_kernel,
    reduced_function,
    reduced_gradient,
    reduced_section,
    sandwich_check,
)
from .targets import TargetManifold, curvature_contraction
from .variational import (
    FunctionalSpec,
    MapState,
    ellipticity_check,
    energy,
    energy_functional_on_bundle,
    first_variation_check,
    frame_linearization,
    functional_value,
    general_euler_lagrange,
    make_functional_spec,
    map_state,
    quadratic_remainder_check,
    tangential_tension,
    tension_field,
    with_quartic_penalty,
)

__version__ = "0.1.0"
