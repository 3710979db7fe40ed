"""Sections of the pullback tangent bundle over a base loop.

A bundle is the base map phi0 with the stacked tangent projectors of
the target and orthonormal fiber frames, one per node; a section
stores one fiber vector per node. The bundle gradient is the fiberwise
projected derivative of the section. Charts move between small sections
and nearby loops on the target through nearest-point projection.
The L2 pairing and the Sobolev norms are quadratures through
mesh.integrate, the one quadrature of map fields and sections alike.
"""

import math
from dataclasses import dataclass

import numpy as np

from .mesh import _differences, _sq_norm, differentiate, integrate

__all__ = [
    "PullbackBundle", "BundleSection", "build_pullback_bundle", "section", "project_section",
    "zero_section", "bundle_gradient", "l2_inner", "l2_norm", "sobolev_norms", "chart_encode",
    "chart_decode",
]

_FIBER_TOL = 1e-10
_CHART_DOT_MIN = 0.1


@dataclass(frozen=True)
class PullbackBundle:
    mesh: object
    target: object
    base_map: np.ndarray  # (n, p), points on the target
    projectors: np.ndarray  # (n, p, p), orthogonal projectors onto the fibers
    frames: np.ndarray  # (n, p, p-1), orthonormal bases of the fibers


@dataclass(frozen=True)
class BundleSection:
    bundle: PullbackBundle
    values: np.ndarray  # (n, p), values[i] in the fiber at node i


def build_pullback_bundle(mesh, target, base_map):
    base = np.asarray(base_map, dtype=float)
    if base.shape != (mesh.n_nodes, target.ambient_dim):
        raise ValueError(
            f"base map must have shape ({mesh.n_nodes}, {target.ambient_dim}), got {base.shape}"
        )
    target.require_on_manifold(base, tol=1e-10, what="base map")
    projectors = target.tangent_projector(base)
    frames = _fiber_frames(projectors)
    base = base.copy()
    for arr in (base, projectors, frames):
        arr.setflags(write=False)
    return PullbackBundle(mesh, target, base, projectors, frames)


def _fiber_frames(projectors):
    """Deterministic orthonormal bases of the fibers, shape (n, p, p-1).

    Greedy Gram-Schmidt on the projected coordinate axes, all nodes at
    once: column k is the longest remaining projected axis, normalized,
    then removed from the rest. Stable under small perturbations of the
    base map and reproducible across runs.
    """
    n, p, _ = projectors.shape
    nodes = np.arange(n)
    cols = projectors.copy()
    frames = np.empty((n, p, p - 1))
    for k in range(p - 1):
        norms = np.linalg.norm(cols, axis=1)
        j = np.argmax(norms, axis=1)
        best = norms[nodes, j]
        if np.any(best < 1e-12):
            raise ValueError(f"fiber at node {int(np.argmax(best < 1e-12))} has deficient rank")
        v = cols[nodes, :, j] / best[:, None]
        frames[:, :, k] = v
        cols = cols - v[:, :, None] * (v[:, None, :] @ cols)
    return frames


def section(bundle, values):
    """Wrap nodal values as a section, enforcing the fiber constraint."""
    vals = np.asarray(values, dtype=float)
    if vals.shape != bundle.base_map.shape:
        raise ValueError(f"section values must have shape {bundle.base_map.shape}")
    proj = np.einsum("nij,nj->ni", bundle.projectors, vals)
    worst = float(np.max(np.abs(proj - vals))) if vals.size else 0.0
    # Written so that non-finite values, whose gap is NaN, fail too.
    if not worst <= _FIBER_TOL:
        raise ValueError(
            f"values leave the fibers by {worst:.3e}; use project_section for raw fields"
        )
    vals = vals.copy()
    vals.setflags(write=False)
    return BundleSection(bundle, vals)


def project_section(bundle, raw_values):
    """Fiberwise projection of an arbitrary nodal vector field."""
    vals = np.asarray(raw_values, dtype=float)
    if vals.shape != bundle.base_map.shape:
        raise ValueError(f"raw values must have shape {bundle.base_map.shape}")
    if not np.isfinite(vals).all():
        raise ValueError("raw values must be finite")
    proj = np.einsum("nij,nj->ni", bundle.projectors, vals)
    proj.setflags(write=False)
    return BundleSection(bundle, proj)


def zero_section(bundle):
    return project_section(bundle, np.zeros_like(bundle.base_map))


def bundle_gradient(bundle, sec):
    """Fiber part of the covariant gradient: P_omega d(section)/dtheta."""
    _check_same_bundle(bundle, sec)
    dv = differentiate(bundle.mesh, sec.values)
    return np.einsum("nij,nj->ni", bundle.projectors, dv)


def _same_bundle(a, b):
    """Whether a and b are one bundle, or structurally identical ones
    (e.g. reconstructed) over the same target: identity is tested first,
    arrays only after."""
    ta, tb = a.target, b.target
    return a is b or (
        (a.mesh.diff_order, ta.kind, ta.tube_radius) == (b.mesh.diff_order, tb.kind, tb.tube_radius)
        and np.array_equal(ta.semi_axes, tb.semi_axes)
        and np.array_equal(a.base_map, b.base_map)
    )


def _check_same_bundle(bundle, sec):
    if not _same_bundle(bundle, sec.bundle):
        raise ValueError("section belongs to a different bundle")


def l2_inner(s1, s2):
    """Quadrature-weighted L2 pairing of two sections over the same bundle."""
    if s1.bundle is not s2.bundle:
        _check_same_bundle(s1.bundle, s2)
    return integrate(s1.bundle.mesh, np.add.reduce(s1.values * s2.values, 1))


def l2_norm(sec):
    return math.sqrt(_sq_norm(sec.bundle.mesh, sec.values))


def sobolev_norms(sec):
    """(L2, W^{1,2}, W^{2,2}) norms; derivatives taken componentwise."""
    mesh, v = sec.bundle.mesh, sec.values
    l2sq, d1sq, d2sq = (_sq_norm(mesh, f) for f in (v, *_differences(mesh, v)))
    return math.sqrt(l2sq), math.sqrt(l2sq + d1sq), math.sqrt(l2sq + d1sq + d2sq)


# -- charts ----------------------------------------------------------------


def chart_encode(bundle, points):
    """Tangent-chart coordinates of a nearby loop: solve Pi(phi0 + tau) = u.

    The points with Pi(x) = u form the normal line x = u + s nu_u, and
    tau = x - phi0 must be tangent at phi0, so s = <phi0 - u, nu_0> / <nu_u, nu_0>.
    """
    u = np.asarray(points, dtype=float)
    if u.shape != bundle.base_map.shape:
        raise ValueError(f"points must have shape {bundle.base_map.shape}")
    target = bundle.target
    target.require_on_manifold(u, tol=1e-8, what="loop to encode")
    base = bundle.base_map
    nu_u = target.unit_normal(u)
    nu0 = target.unit_normal(base)
    dots = np.sum(nu_u * nu0, axis=1)
    if np.any(dots <= _CHART_DOT_MIN):
        raise ValueError(
            f"loop leaves the chart: min alignment {dots.min():.3f} <= {_CHART_DOT_MIN}"
        )
    s = np.sum((base - u) * nu0, axis=1) / dots
    if np.any(np.abs(s) >= target.tube_radius):
        raise ValueError(
            f"loop leaves the chart tube: max normal offset {np.abs(s).max():.3f} "
            f">= {target.tube_radius}"
        )
    return project_section(bundle, u + s[:, None] * nu_u - base)


def chart_decode(bundle, sec):
    """Loop on the target corresponding to a small section: Pi(phi0 + v)."""
    _check_same_bundle(bundle, sec)
    v = sec.values
    norms = np.linalg.norm(v, axis=1)
    tube = bundle.target.tube_radius
    if np.any(norms >= tube):
        raise ValueError(
            f"section leaves the chart tube: max |v| = {norms.max():.3f} >= {tube}"
        )
    return bundle.target.project_nearest(bundle.base_map + v)
