"""Variational analysis of loop energies on spheres and ellipsoids.

Discretized Dirichlet energy of closed loops into embedded targets:
tension fields and general Euler-Lagrange operators, their
linearizations, Liapunov-Schmidt reduction onto the kernel, Lojasiewicz
exponent estimation, gradient-flow convergence rates, and a brute-force
verifier of the classical gradient and distance inequalities for
polynomials. The root re-exports the __all__ of every module but cli.
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

from .bundles import *
from .config import *
from .flow import *
from .lojasiewicz import *
from .mesh import *
from .polynomials import *
from .reduction import *
from .targets import *
from .variational import *

__version__ = VERSION
