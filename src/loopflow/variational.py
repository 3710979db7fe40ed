"""Dirichlet energy of loops, tension fields, and Euler-Lagrange assembly.

The energy of a loop uses the mesh's centered first difference, so the
energy of a degree-k great circle is exactly 2*pi*sin^2(kh)/h^2 on an
order-2 mesh. The tension field is the classical pointwise assembly
Delta u minus the curvature contraction; its fiberwise tangential part
is the constrained gradient of the discrete energy up to O(h^2).

A functional over a pullback bundle is an integrand F(theta, z, eta)
together with two routines on nodal section values: its value and its
Euler-Lagrange field. For a generic integrand, make_functional_spec
checks the partials in the z and eta slots against the differenced
integrand and builds the routines as a staggered (midpoint-flux)
quadrature of the integrand and the exact gradient of that quadrature,
which makes the discrete duality <M_F(u), v> = d/ds F(u + s v) exact up
to rounding. The energy functional of a chart builds them from the
energy itself: the value composes the chart with the energy, and the
gradient differentiates a compact-stencil energy through the chart, so
loops that are exact critical points of the discrete energy stay exact
critical points of the reduced machinery. with_quartic_penalty adds a
node-by-node quartic term to either kind. In every case the field at
node j reads only nodes j-1, j and j+1, which is what lets
frame_linearization probe the Jacobian as a band of radius 1.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundles import project_section, section, sobolev_norms
from .mesh import (
    build_circle_mesh,
    differentiate,
    forward_difference,
    integrate,
    laplace_beltrami,
)
from .targets import curvature_contraction

__all__ = [
    "MapState",
    "map_state",
    "energy",
    "tension_field",
    "tangential_tension",
    "first_variation_check",
    "FunctionalSpec",
    "make_functional_spec",
    "functional_value",
    "general_euler_lagrange",
    "energy_functional_on_bundle",
    "with_quartic_penalty",
    "frame_linearization",
    "quadratic_remainder_check",
    "ellipticity_check",
]


# -- maps into the target --------------------------------------------------


@dataclass(frozen=True)
class MapState:
    mesh: object
    target: object
    values: np.ndarray  # (n, p), points on the target


def map_state(mesh, target, values):
    vals = np.asarray(values, dtype=float)
    if vals.shape != (mesh.n_nodes, target.ambient_dim):
        raise ValueError(
            f"map values must have shape ({mesh.n_nodes}, {target.ambient_dim})"
        )
    target.require_on_manifold(vals, tol=1e-10, what="map")
    vals = vals.copy()
    vals.setflags(write=False)
    return MapState(mesh, target, vals)


def _ambient_energy(mesh, values):
    du = differentiate(mesh, values)
    return integrate(mesh, np.sum(du * du, axis=1))


def energy(state):
    """Dirichlet energy: quadrature of |du/dtheta|^2."""
    return _ambient_energy(state.mesh, state.values)


def tension_field(state):
    """Pointwise Delta u - A_u(Du, Du); tangent at u up to O(h^2).

    The raw field keeps its O(h^2) normal residue so that convergence
    studies can measure it; take tangential_tension for the constrained
    gradient direction that actually drives the flow.
    """
    mesh, target, u = state.mesh, state.target, state.values
    lap = laplace_beltrami(mesh, u)
    du = differentiate(mesh, u)
    du_t = target.tangent_part(u, du)
    A = curvature_contraction(target, u, du_t)
    return lap - A


def tangential_tension(state):
    return state.target.tangent_part(state.values, tension_field(state))


def first_variation_check(state, direction, step=1e-5):
    """Compare the differenced energy variation with -2 <M_E, xi>.

    The differenced side uses the conservative forward-difference
    quadrature: its exact discrete gradient is the three-point Laplacian
    that the tension assembly uses on second-order meshes, so both sides
    evaluate the same discrete object and the comparison is meaningful
    far below the O(h^2) gap between quadrature flavors. The pairing
    uses the tangential part of the tension field; the normal residue of
    the raw assembly is discretization error and pairs against nothing
    in the constrained variation. On fourth-order meshes the two sides
    use different second-difference stencils and the mismatch is O(h^2)
    rather than roundoff-level.
    """
    xi = np.asarray(direction, dtype=float)
    if xi.shape != state.values.shape:
        raise ValueError("direction must match the map's shape")
    if step <= 0.0:
        raise ValueError("step must be positive")
    target, mesh = state.target, state.mesh
    plus = target.project_nearest(state.values + step * xi)
    minus = target.project_nearest(state.values - step * xi)

    def staggered_energy(values):
        return integrate(mesh, np.sum(forward_difference(mesh, values) ** 2, axis=1))

    lhs = (staggered_energy(plus) - staggered_energy(minus)) / (2.0 * step)
    mt = tangential_tension(state)
    rhs = -2.0 * float(np.sum(mesh.quad_weights * np.sum(mt * xi, axis=1)))
    mismatch = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-9)
    return lhs, rhs, mismatch


# -- functionals on bundle sections ----------------------------------------


@dataclass(frozen=True)
class FunctionalSpec:
    """An integrand with the routines that evaluate and differentiate it.

    The integrand has signature (theta, z, eta) with z and eta ambient
    vectors; ellipticity_check reads it. value_fn(bundle, values) and
    euler_lagrange_fn(bundle, values) take the nodal values of a section:
    the first returns the functional's value, normalized so F(0) = 0, and
    the second its raw Euler-Lagrange field, which general_euler_lagrange
    projects into the fibers.
    """

    label: str
    integrand: Callable
    validity_radius: float
    value_fn: Callable
    euler_lagrange_fn: Callable


def make_functional_spec(label, integrand, partial_z, partial_eta, validity_radius=0.3, probe_dim=3):
    """FunctionalSpec for a generic integrand, after checking its partials
    against central differences of the integrand at 100 seeded probes.

    The value is the staggered (midpoint) quadrature of the integrand.
    The Euler-Lagrange field differentiates that quadrature: node j
    receives the averaged z-partial minus the difference of the
    fiber-projected eta-flux.
    """
    if validity_radius <= 0.0:
        raise ValueError("validity_radius must be positive")
    _validate_partials(label, integrand, partial_z, partial_eta, probe_dim)

    def value_fn(bundle, values):
        mid, vbar, _, eta = _staggered_data(bundle, values)
        h = bundle.mesh.spacing
        zero = np.zeros(bundle.target.ambient_dim)
        total = 0.0
        for i in range(bundle.mesh.n_nodes):
            total += integrand(mid[i], vbar[i], eta[i])
            total -= integrand(mid[i], zero, zero)
        return h * total

    def el_fn(bundle, values):
        n, p = values.shape
        mid, vbar, pbar, eta = _staggered_data(bundle, values)
        fz = np.empty((n, p))
        flux = np.empty((n, p))
        for i in range(n):
            fz[i] = np.asarray(partial_z(mid[i], vbar[i], eta[i]), dtype=float)
            fe = np.asarray(partial_eta(mid[i], vbar[i], eta[i]), dtype=float)
            flux[i] = pbar[i] @ fe
        fz_prev = np.roll(fz, 1, axis=0)
        flux_prev = np.roll(flux, 1, axis=0)
        return 0.5 * (fz + fz_prev) - (flux - flux_prev) / bundle.mesh.spacing

    return FunctionalSpec(label, integrand, float(validity_radius), value_fn, el_fn)


def _validate_partials(label, integrand, partial_z, partial_eta, dim, n_probes=100, tol=1e-6):
    rng = np.random.default_rng(1711)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=n_probes)
    fd = 1e-6
    for k in range(n_probes):
        th = float(thetas[k])
        z = 0.02 * rng.standard_normal(dim)
        eta = 0.02 * rng.standard_normal(dim)
        az = np.asarray(partial_z(th, z, eta), dtype=float)
        ae = np.asarray(partial_eta(th, z, eta), dtype=float)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = fd
            dz = (integrand(th, z + e, eta) - integrand(th, z - e, eta)) / (2 * fd)
            de = (integrand(th, z, eta + e) - integrand(th, z, eta - e)) / (2 * fd)
            if abs(dz - az[j]) > tol * (1.0 + abs(az[j])):
                raise ValueError(
                    f"functional '{label}': partial_z[{j}] disagrees with the "
                    f"differenced integrand by {abs(dz - az[j]):.3e}"
                )
            if abs(de - ae[j]) > tol * (1.0 + abs(ae[j])):
                raise ValueError(
                    f"functional '{label}': partial_eta[{j}] disagrees with the "
                    f"differenced integrand by {abs(de - ae[j]):.3e}"
                )


def _require_validity(functional, values):
    c0 = float(np.max(np.linalg.norm(values, axis=1)))
    if c0 >= functional.validity_radius:
        raise ValueError(
            f"section with sup norm {c0:.3f} leaves the validity radius "
            f"{functional.validity_radius:.3f} of functional '{functional.label}'"
        )


def _staggered_data(bundle, values):
    mesh = bundle.mesh
    h = mesh.spacing
    vbar = 0.5 * (values + np.roll(values, -1, axis=0))
    pbar = 0.5 * (bundle.projectors + np.roll(bundle.projectors, -1, axis=0))
    dplus = (np.roll(values, -1, axis=0) - values) / h
    eta = np.einsum("nij,nj->ni", pbar, dplus)
    mid_thetas = mesh.node_angles + 0.5 * h
    return mid_thetas, vbar, pbar, eta


def functional_value(bundle, functional, sec):
    """Value of the functional at a section, normalized so F(0) = 0."""
    _require_validity(functional, sec.values)
    return float(functional.value_fn(bundle, sec.values))


def general_euler_lagrange(bundle, functional, sec):
    """Euler-Lagrange field of the functional at a section, projected
    into the fibers."""
    _require_validity(functional, sec.values)
    return project_section(bundle, functional.euler_lagrange_fn(bundle, sec.values))


# -- the energy functional of a chart --------------------------------------


def energy_functional_on_bundle(bundle, harmonic_tol=0.05):
    """FunctionalSpec for v -> E(Pi(phi0 + v)) - E(phi0).

    The value routine composes the chart with the energy, so it inherits
    every exact symmetry of the discrete energy. The gradient routine
    differentiates the forward-difference energy through the chart; its
    second-order part is the compact three-point Laplacian regardless of
    the mesh's differentiation order, which keeps the spectrum of the
    linearization monotone in frequency and leaves loops that are exact
    discrete critical points exactly critical here as well.
    """
    mesh, target = bundle.mesh, bundle.target
    base = bundle.base_map
    compact = build_circle_mesh(mesh.n_nodes, diff_order=2)
    state = MapState(mesh, target, base)
    resid = float(np.sqrt(np.sum(mesh.quad_weights * np.sum(tangential_tension(state) ** 2, axis=1))))
    e0 = _ambient_energy(mesh, base)
    if resid > harmonic_tol * max(1.0, np.sqrt(e0)):
        raise ValueError(
            f"base map is not near-harmonic: tangential tension norm {resid:.3e}"
        )

    def value_fn(bnd, values):
        points = bnd.target.project_nearest(bnd.base_map + values)
        return _ambient_energy(bnd.mesh, points) - e0

    def el_fn(bnd, values):
        x = bnd.base_map + values
        points, t = bnd.target._nearest(x)
        # dPi is symmetric, so it is its own transpose; _nearest has just
        # checked that x lies in the tube and solved its multiplier.
        return bnd.target._differential(x, -2.0 * laplace_beltrami(compact, points), t)

    gbase = differentiate(mesh, base)
    kmats = differentiate(mesh, bundle.projectors)
    h = mesh.spacing
    n = mesh.n_nodes
    ref = np.sum(target.differential_of_projection(base, gbase) ** 2, axis=1)

    def _node_of(theta):
        idx = int(round(theta / h)) % n
        if abs(theta - mesh.node_angles[idx]) > 1e-9 and abs(theta - mesh.node_angles[idx] - 2 * np.pi) > 1e-9:
            raise ValueError("energy integrand is tabulated at mesh nodes only")
        return idx

    def integrand(theta, z, eta):
        i = _node_of(theta)
        x = base[i] + np.asarray(z, dtype=float)
        arg = gbase[i] + np.asarray(eta, dtype=float) + kmats[i] @ np.asarray(z, dtype=float)
        img = target.differential_of_projection(x, arg)
        return float(np.sum(img * img) - ref[i])

    return FunctionalSpec(
        label="chart energy",
        integrand=integrand,
        validity_radius=0.9 * target.tube_radius,
        value_fn=value_fn,
        euler_lagrange_fn=el_fn,
    )


def with_quartic_penalty(bundle, functional, weight):
    """Add a pointwise quartic |z|^4 term to a functional: value,
    gradient and integrand. The gradient term is node by node, so the
    field keeps its stencil radius of 1.

    The penalty's Hessian vanishes at the zero section, so the kernel of
    the linearization is untouched while the reduced function picks up a
    quartic well along the kernel directions.
    """
    if weight <= 0.0:
        raise ValueError("penalty weight must be positive")
    w = float(weight)
    base_value = functional.value_fn
    base_el = functional.euler_lagrange_fn

    def value_fn(bnd, values):
        q = np.sum(values * values, axis=1) ** 2
        return base_value(bnd, values) + w * float(np.sum(bnd.mesh.quad_weights * q))

    def el_fn(bnd, values):
        nsq = np.sum(values * values, axis=1, keepdims=True)
        return base_el(bnd, values) + 4.0 * w * nsq * values

    def integrand(theta, z, eta):
        zz = float(np.sum(np.asarray(z) ** 2))
        return functional.integrand(theta, z, eta) + w * zz * zz

    return FunctionalSpec(
        label=functional.label + " + quartic",
        integrand=integrand,
        validity_radius=functional.validity_radius,
        value_fn=value_fn,
        euler_lagrange_fn=el_fn,
    )


# -- linearization ---------------------------------------------------------


def _to_coords(bundle, values):
    """Frame coordinates of nodal vectors: F^T v, node-major, p-1 per node."""
    n, p, q = bundle.frames.shape
    return np.einsum("npa,np->na", bundle.frames, values).reshape(n * q)


def _from_coords(bundle, coords):
    """Nodal vectors F c of frame coordinates; they lie in the fibers."""
    n, p, q = bundle.frames.shape
    return np.einsum("npa,na->np", bundle.frames, coords.reshape(n, q))


def _arc_colouring(n, separation):
    """Colour classes of the nodes 0..n-1, members of a class pairwise at
    least `separation` apart around the circle.

    The circle is cut into g = n // separation nearly equal arcs, each at
    least `separation` long, and a node's colour is its offset inside its
    arc. That takes ceil(n / g) colours, the fewest any such colouring
    can use.
    """
    g = n // separation
    starts = (np.arange(g) * n) // g
    lengths = np.diff(starts, append=n)
    return [starts[lengths > c] + c for c in range(int(lengths.max()))]


def frame_linearization(bundle, functional, at_values=None):
    """Symmetrized matrix of the Euler-Lagrange linearization in the
    bundle's fiber frames.

    Columns are centered differences (step 1e-6) of the assembled field
    along the frame directions; the matrix acts on frame coordinates
    (node-major, p-1 per node) and is returned with its raw asymmetry.
    Every field assembled here has stencil radius 1: the staggered
    assembly reads nodes j-1, j and j+1 by construction, the chart
    energy's gradient uses the compact three-point Laplacian at either
    mesh order, and the quartic term is node by node. So nodes three or
    more apart answer in disjoint row windows, the nodes are coloured by
    their offset inside 3-long arcs of the circle, and one difference
    probe per colour and frame direction fills all of that colour's
    columns (Curtis, Powell and Reid).
    """
    n, p = bundle.base_map.shape
    q = p - 1
    if at_values is None:
        at_values = np.zeros((n, p))
    frames = bundle.frames
    m = n * q
    L = np.zeros((m, m))
    step = 1e-6
    window = np.arange(-1, 2)
    for group in _arc_colouring(n, 3):
        rows = (group[:, None] + window) % n
        row_index = rows[:, :, None] * q + np.arange(q)
        for a in range(q):
            d = np.zeros((n, p))
            d[group] = frames[group, :, a]
            vp = project_section(bundle, at_values + step * d)
            vm = project_section(bundle, at_values - step * d)
            col = (
                general_euler_lagrange(bundle, functional, vp).values
                - general_euler_lagrange(bundle, functional, vm).values
            ) / (2.0 * step)
            block = np.einsum("gwjb,gwj->gwb", frames[rows], col[rows])
            L[row_index, (group * q + a)[:, None, None]] = block
    asym = float(np.max(np.abs(L - L.T)))
    return 0.5 * (L + L.T), asym


def quadratic_remainder_check(bundle, functional, s1, s2, lin=None):
    """Remainder of the linearization between two sections.

    Returns (remainder, product) with remainder the L2 norm of
    M(u1) - M(u2) - L0 (u1 - u2) and product the C^2-type bound
    (|u1|_{C2} + |u2|_{C2}) * |u1 - u2|_{W 2,2}.
    """
    if lin is None:
        lin, _ = frame_linearization(bundle, functional)
    mesh = bundle.mesh
    d = s1.values - s2.values
    m1 = general_euler_lagrange(bundle, functional, s1).values
    m2 = general_euler_lagrange(bundle, functional, s2).values
    rem_field = m1 - m2 - _from_coords(bundle, lin @ _to_coords(bundle, d))
    w = mesh.quad_weights
    remainder = float(np.sqrt(np.sum(w * np.sum(rem_field**2, axis=1))))

    def c2_sup(values):
        a = np.linalg.norm(values, axis=1)
        b = np.linalg.norm(differentiate(mesh, values), axis=1)
        c = np.linalg.norm(laplace_beltrami(mesh, values), axis=1)
        return float(np.max(a + b + c))

    diff = section(bundle, d)
    _, _, w22 = sobolev_norms(diff)
    product = (c2_sup(s1.values) + c2_sup(s2.values)) * w22
    return remainder, product


def ellipticity_check(functional, probes, step=1e-4):
    """Positivity of the eta-Hessian quadratic form over the probe set.

    Probes with a zero frame or fiber component are vacuous for the
    positivity quantifier and are skipped.
    """
    for theta, z, eta, xi, lam in probes:
        lam = np.asarray(lam, dtype=float)
        xin = float(xi)
        ln = float(np.linalg.norm(lam))
        if xin == 0.0 or ln == 0.0:
            continue
        lhat = lam / ln
        z = np.asarray(z, dtype=float)
        eta = np.asarray(eta, dtype=float)
        fp = functional.integrand(theta, z, eta + step * lhat)
        f0 = functional.integrand(theta, z, eta)
        fm = functional.integrand(theta, z, eta - step * lhat)
        quad = (fp - 2.0 * f0 + fm) / (step * step)
        if quad * xin * xin <= 0.0:
            return False
    return True
