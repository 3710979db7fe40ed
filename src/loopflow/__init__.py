"""Variational analysis of loop energies on spheres and ellipsoids.

Discretized Dirichlet energy of closed loops into embedded targets:
tension fields and general Euler-Lagrange operators, their
linearizations, Liapunov-Schmidt reduction onto the kernel, Lojasiewicz
exponent estimation, gradient-flow convergence rates, and a brute-force
verifier of the classical gradient and distance inequalities for
polynomials.
"""

import os
import sys

# OpenBLAS's default thread pool slows the package's small matrices: on
# a 2-core host one eigh of a 64 x 64 matrix took 38-56 ms with the pool
# and 0.4-0.6 ms on one thread, and the pool's idle threads spin, so a
# run's CPU time exceeded its wall time. A seed-7 reduce-run on one thread
# against a 2-thread pool (10 pairs, medians): n = 128 wall 0.70 -> 0.58 s,
# CPU 1.18 -> 0.58 s; n = 512, whose 1024 x 1024 solves do gain from the
# pool, wall 4.81 -> 5.00 s (4% slower), CPU 9.34 -> 5.00 s. So OpenBLAS
# runs on one thread unless numpy was imported first or the environment
# already sets a thread count; set OPENBLAS_NUM_THREADS to get threads
# back. The variable stays set in os.environ, so subprocesses inherit it.
if "numpy" not in sys.modules and not any(
    k in os.environ for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

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
    approximation_sweep,
    build_reduction_workspace,
    invert_N,
    kernel_combination,
    kernel_coordinates,
    lipschitz_probe,
    project_onto_kernel,
    reduced_function,
    reduced_gradient,
    reduced_section,
    sandwich_check,
    sandwich_sweep,
)
from .targets import TargetManifold
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
