"""Uniform periodic discretization of the unit circle.

Everything downstream lives on this grid: trapezoid quadrature (all
weights equal h on a uniform periodic mesh), centered finite differences
of order 2 or 4, and the one-sided forward difference. All stencils are
circulant, so they commute with cyclic shifts and the centered first
difference is exactly antisymmetric under the quadrature inner product.
A stencil reads a field's neighbours with one `take` along axis 0, whose
index rows i+1, i-1 (and i+2, i-2 at order 4), taken mod n, are built
once per node count; the first and second differences of one field share
that gather. Each mesh binds its gather, neighbour index and stencil
denominators (2h and h^2, or 12h and 12h^2 at order 4) once, on first
use, and every difference here and in the flow goes through them.
integrate is the one quadrature of map fields and sections: E(u),
||M_E(u)||, the flow's dist(u, u_inf) and the bundles' L2 and Sobolev
norms all go through _sq_norm, built on it.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

__all__ = [
    "DomainMesh", "build_circle_mesh", "differentiate", "laplace_beltrami", "forward_difference",
    "integrate",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class DomainMesh:
    """Uniform periodic grid with n_nodes nodes at angles 2*pi*i/n."""

    n_nodes: int
    diff_order: int
    node_angles: np.ndarray
    spacing: float
    quad_weights: np.ndarray

    @cached_property
    def _stencils(self):
        """(gather, first, second), bound to this mesh once: gather(field)
        checks the field and returns it with its neighbours, and first(nb)
        and second(f, nb) are the centered differences of that gather."""
        return _bind_stencils(self)


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


def _bind_stencils(mesh):
    index = _neighbour_index(mesh.n_nodes, mesh.diff_order // 2)
    h = mesh.spacing

    def gather(field):
        f = _check_field(mesh, field)
        return f, f.take(index, axis=0)

    if mesh.diff_order == 2:
        two_h, h2 = 2.0 * h, h * h

        def first(nb):
            return (nb[0] - nb[1]) / two_h

        def second(f, nb):
            return (nb[0] - 2.0 * f + nb[1]) / h2

    else:
        twelve_h, twelve_h2 = 12.0 * h, 12.0 * h * h

        def first(nb):
            fp, fm, fpp, fmm = nb
            return (-fpp + 8.0 * fp - 8.0 * fm + fmm) / twelve_h

        def second(f, nb):
            fp, fm, fpp, fmm = nb
            return (-fpp + 16.0 * fp - 30.0 * f + 16.0 * fm - fmm) / twelve_h2

    return gather, first, second


def differentiate(mesh, field):
    """Periodic centered first derivative along axis 0."""
    gather, first, _ = mesh._stencils
    return first(gather(field)[1])


def laplace_beltrami(mesh, field):
    """Periodic second derivative (compact stencil of the mesh order)."""
    gather, _, second = mesh._stencils
    return second(*gather(field))


def _differences(mesh, field):
    """(differentiate, laplace_beltrami) of one field from one gather."""
    gather, first, second = mesh._stencils
    f, nb = gather(field)
    return first(nb), second(f, nb)


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


def _sq_norm(mesh, field):
    """Squared L2 norm of an (n, p) field: integrate of its rows' |.|^2."""
    return integrate(mesh, np.add.reduce(field * field, 1))
