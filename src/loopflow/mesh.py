"""Uniform periodic discretization of the unit circle.

Everything downstream lives on this grid: trapezoid quadrature (all
weights equal h on a uniform periodic mesh), centered finite differences
of order 2 or 4, and the one-sided forward difference. All stencils are
circulant, so they commute with cyclic shifts and the centered first
difference is exactly antisymmetric under the quadrature inner product.
A stencil reads a field's neighbours with one `take` along axis 0, whose
index rows i+1, i-1 (and i+2, i-2 at order 4), taken mod n, are built
once per node count; the first and second differences of one field share
that gather.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DomainMesh:
    """Uniform periodic grid with n_nodes nodes at angles 2*pi*i/n."""

    n_nodes: int
    diff_order: int
    node_angles: np.ndarray
    spacing: float
    quad_weights: np.ndarray


def build_circle_mesh(n_nodes, diff_order=2):
    if not isinstance(n_nodes, (int, np.integer)) or n_nodes < 8:
        raise ValueError(f"n_nodes must be an integer >= 8, got {n_nodes!r}")
    if diff_order not in (2, 4):
        raise ValueError(f"diff_order must be 2 or 4, got {diff_order!r}")
    h = TWO_PI / n_nodes
    angles = h * np.arange(n_nodes)
    weights = np.full(n_nodes, h)
    angles.setflags(write=False)
    weights.setflags(write=False)
    return DomainMesh(int(n_nodes), int(diff_order), angles, h, weights)


def _check_field(mesh, field):
    field = np.asarray(field, dtype=float)
    if field.shape[0] != mesh.n_nodes:
        raise ValueError(
            f"field has leading dimension {field.shape[0]}, mesh has {mesh.n_nodes} nodes"
        )
    return field


@lru_cache(maxsize=32)
def _neighbour_index(n_nodes, reach):
    """Rows i+1, i-1 (and i+2, i-2 when reach is 2) of every node i, mod n."""
    offsets = np.array((1, -1, 2, -2)[: 2 * reach])
    index = (np.arange(n_nodes) + offsets[:, None]) % n_nodes
    index.setflags(write=False)
    return index


def _neighbours(mesh, f):
    """f at i+1, i-1 (and i+2, i-2 at order 4), stacked along a new axis 0."""
    return f.take(_neighbour_index(mesh.n_nodes, mesh.diff_order // 2), axis=0)


def _first(mesh, nb):
    h = mesh.spacing
    if mesh.diff_order == 2:
        return (nb[0] - nb[1]) / (2.0 * h)
    fp, fm, fpp, fmm = nb
    return (-fpp + 8.0 * fp - 8.0 * fm + fmm) / (12.0 * h)


def _second(mesh, f, nb):
    h = mesh.spacing
    if mesh.diff_order == 2:
        return (nb[0] - 2.0 * f + nb[1]) / (h * h)
    fp, fm, fpp, fmm = nb
    return (-fpp + 16.0 * fp - 30.0 * f + 16.0 * fm - fmm) / (12.0 * h * h)


def differentiate(mesh, field):
    """Periodic centered first derivative along axis 0."""
    f = _check_field(mesh, field)
    return _first(mesh, _neighbours(mesh, f))


def laplace_beltrami(mesh, field):
    """Periodic second derivative (compact stencil of the mesh order)."""
    f = _check_field(mesh, field)
    return _second(mesh, f, _neighbours(mesh, f))


def _differences(mesh, field):
    """(differentiate, laplace_beltrami) of one field from one gather."""
    f = _check_field(mesh, field)
    nb = _neighbours(mesh, f)
    return _first(mesh, nb), _second(mesh, f, nb)


def forward_difference(mesh, field):
    """One-sided difference (f_{i+1} - f_i)/h."""
    f = _check_field(mesh, field)
    return (f.take(_neighbour_index(mesh.n_nodes, 1)[0], axis=0) - f) / mesh.spacing


def integrate(mesh, field):
    """Trapezoid quadrature of a nodal scalar field (exact weights h)."""
    f = _check_field(mesh, field)
    if f.ndim != 1:
        raise ValueError("integrate expects a scalar field, one value per node")
    return float(mesh.quad_weights @ f)
