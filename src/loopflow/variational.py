"""Dirichlet energy of loops, tension fields, and Euler-Lagrange assembly.

The energy of a loop is mesh._sq_norm of its centered first difference
(every quadrature here goes through mesh.integrate), so the energy of a
degree-k great circle is exactly 2*pi*sin^2(kh)/h^2 on an order-2 mesh.
The tension field is the classical pointwise assembly
Delta u - A_u(Du, Du); its fiberwise tangential part is the constrained
gradient of the discrete energy up to O(h^2).
tension_field and every stage of the flow go through _bind_tension's one
function, which calls the mesh's stencil methods and the target's
curvature term.

A functional over a pullback bundle is three routines on nodal section
values: its value, its Euler-Lagrange field and the linearization of
that field in the bundle's fiber frames. For a generic integrand
F(theta, z, eta), make_functional_spec builds the routines as a
staggered (midpoint-flux) quadrature of the integrand, the exact
gradient of that quadrature (which makes the discrete duality
<M_F(u), v> = d/ds F(u + s v) exact up to rounding, and checks the z and
eta partials in each new ambient dimension), and its probed Jacobian.
The energy functional of a chart builds them from the energy itself:
the value composes the chart with the energy, the gradient
differentiates a compact-stencil energy through the chart, so loops
that are exact critical points of the discrete energy stay exact
critical points of the reduced machinery, and the linearization is the
closed-form derivative of that gradient. with_quartic_penalty adds a
node-by-node quartic term, with its closed-form Jacobian, to either
kind. So only a generic integrand is probed. In every case the field at
node j reads only nodes j-1, j and j+1: the linearization is
block-tridiagonal, it travels as node blocks, and only
frame_linearization lays it out as a dense matrix.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bundles import _check_same_bundle, _same_bundle, project_section, section, sobolev_norms
from .mesh import (
    _differences,
    _neighbour_index,
    _sq_norm,
    build_circle_mesh,
    differentiate,
    forward_difference,
    integrate,
    laplace_beltrami,
)

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
    return _sq_norm(mesh, differentiate(mesh, values))


def energy(state):
    """Dirichlet energy: quadrature of |du/dtheta|^2."""
    return _ambient_energy(state.mesh, state.values)


def tension_field(state):
    """Pointwise Delta u - A_u(Du, Du); tangent at u up to O(h^2).

    Du is the tangent part of the centered first difference, and the
    target's _tangent_curvature contracts the shape operator with it.
    One gather of u's neighbours feeds both stencils, and one unit normal
    per node serves both the tangent part and the curvature term.

    The raw field keeps its O(h^2) normal residue so that convergence
    studies can measure it; take tangential_tension for the constrained
    gradient direction that actually drives the flow.
    """
    return _bind_tension(state.mesh, state.target)(state.values)[0]


def _bind_tension(mesh, target):
    """values -> (tension_field, Du, the unit normal it used) of map
    values on this mesh and target."""

    def tension_parts(values):
        f, nb = mesh._gather(values)
        du = mesh._first(nb)
        c, normal = target._tangent_curvature(f, du)
        # the curvature term A_u(Du_t, Du_t) is -c n
        return mesh._second(f, nb) + c * normal, du, normal

    return tension_parts


def tangential_tension(state):
    return state.target.tangent_part(state.values, tension_field(state))


def first_variation_check(state, direction):
    """Compare the differenced energy variation (step 1e-5) with -2 <M_E, xi>.

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
    step = 1e-5
    target, mesh = state.target, state.mesh
    plus = target.project_nearest(state.values + step * xi)
    minus = target.project_nearest(state.values - step * xi)

    def staggered_energy(values):
        return _sq_norm(mesh, forward_difference(mesh, values))

    lhs = (staggered_energy(plus) - staggered_energy(minus)) / (2.0 * step)
    mt = tangential_tension(state)
    rhs = -2.0 * integrate(mesh, np.sum(mt * xi, axis=1))
    mismatch = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-9)
    return lhs, rhs, mismatch


# -- functionals on bundle sections ----------------------------------------


@dataclass(frozen=True)
class FunctionalSpec:
    """A functional on bundle sections, as the three routines that
    evaluate and differentiate it.

    value_fn(bundle, values), euler_lagrange_fn(bundle, values) and
    linearization_fn(bundle, values) take the nodal values of a section:
    the first returns the functional's value, normalized so F(0) = 0, the
    second its raw Euler-Lagrange field EL, which general_euler_lagrange
    projects into the fibers, and the third the raw Jacobian of EL in
    frame coordinates as three (n, p-1, p-1) stacks (diag, upper, lower)
    with diag[j] = dEL_j/du_j, upper[j] = dEL_j/du_j+1 and lower[j] =
    dEL_j+1/du_j, indices cyclic; frame_linearization symmetrizes them.
    The chart energy and its quartic penalty give the blocks in closed
    form; only a generic integrand's are probed by differences.
    """

    label: str
    validity_radius: float
    value_fn: Callable
    euler_lagrange_fn: Callable
    linearization_fn: Callable


def make_functional_spec(label, integrand, partial_z, partial_eta, validity_radius=0.3):
    """FunctionalSpec for a generic integrand F(theta, z, eta), z and eta
    ambient vectors.

    The value is the staggered (midpoint) quadrature of the integrand:
    integrate of F(mid, z, eta) - F(mid, 0, 0), node by node.
    The Euler-Lagrange field differentiates that quadrature: node j
    receives the averaged z-partial minus the difference of the
    fiber-projected eta-flux. On its first call in each ambient
    dimension it checks the partials to 1e-6 against central differences
    (step 1e-6) at 100 seeded probes of that dimension, and raises
    ValueError naming the first wrong one. Its linearization is probed
    by _probed_linearization.
    """
    if validity_radius <= 0.0:
        raise ValueError("validity_radius must be positive")
    checked_dims = set()

    def value_fn(bundle, values):
        mid, vbar, _, eta = _staggered_data(bundle, values)
        zero = np.zeros(bundle.target.ambient_dim)
        return integrate(bundle.mesh, np.array(
            [integrand(m, z, e) - integrand(m, zero, zero) for m, z, e in zip(mid, vbar, eta)]
        ))

    def el_fn(bundle, values):
        n, p = values.shape
        if p not in checked_dims:
            _validate_partials(label, integrand, partial_z, partial_eta, p)
            checked_dims.add(p)
        mid, vbar, pbar, eta = _staggered_data(bundle, values)
        fz = np.empty((n, p))
        flux = np.empty((n, p))
        for i in range(n):
            fz[i] = np.asarray(partial_z(mid[i], vbar[i], eta[i]), dtype=float)
            fe = np.asarray(partial_eta(mid[i], vbar[i], eta[i]), dtype=float)
            flux[i] = pbar[i] @ fe
        prev = _neighbour_index(n, 1)[1]
        fz_prev = fz.take(prev, axis=0)
        flux_prev = flux.take(prev, axis=0)
        return 0.5 * (fz + fz_prev) - (flux - flux_prev) / bundle.mesh.spacing

    def linearization_fn(bundle, values):
        return _probed_linearization(bundle, el_fn, values)

    return FunctionalSpec(label, float(validity_radius), value_fn, el_fn, linearization_fn)


def _validate_partials(label, integrand, partial_z, partial_eta, dim):
    rng = np.random.default_rng(1711)
    thetas = rng.uniform(0.0, 2.0 * np.pi, size=100)
    fd = 1e-6
    tol = 1e-6
    for k in range(100):
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
    nxt = _neighbour_index(mesh.n_nodes, 1)[0]
    vnext = values.take(nxt, axis=0)
    vbar = 0.5 * (values + vnext)
    pbar = 0.5 * (bundle.projectors + bundle.projectors.take(nxt, axis=0))
    dplus = (vnext - values) / h
    eta = np.einsum("nij,nj->ni", pbar, dplus)
    mid_thetas = mesh.node_angles + 0.5 * h
    return mid_thetas, vbar, pbar, eta


def functional_value(bundle, functional, sec):
    """Value of the functional at a section, normalized so F(0) = 0."""
    _check_same_bundle(bundle, sec)
    _require_validity(functional, sec.values)
    return float(functional.value_fn(bundle, sec.values))


def general_euler_lagrange(bundle, functional, sec):
    """Euler-Lagrange field of the functional at a section, projected
    into the fibers."""
    _check_same_bundle(bundle, sec)
    _require_validity(functional, sec.values)
    return project_section(bundle, functional.euler_lagrange_fn(bundle, sec.values))


# -- the energy functional of a chart --------------------------------------


def energy_functional_on_bundle(bundle):
    """FunctionalSpec for v -> E(Pi(phi0 + v)) - E(phi0).

    The value routine composes the chart with the energy, so it inherits
    every exact symmetry of the discrete energy. The gradient routine
    differentiates the forward-difference energy through the chart; its
    second-order part is the compact three-point Laplacian regardless of
    the mesh's differentiation order, which keeps the spectrum of the
    linearization monotone in frequency and leaves loops that are exact
    discrete critical points exactly critical here as well. The
    linearization is that gradient's closed-form derivative; its
    coefficient of -Delta_c at node j, 2 B_j^T B_j with B = dPi F, is
    positive definite, which is the chart energy's ellipticity. Every
    routine raises ValueError when called with a bundle other than this
    one, whose energy the value subtracts. A base map with tangential
    tension norm above 0.05 max(1, sqrt(E(phi0))) is not near-harmonic
    and raises.
    """
    mesh, target = bundle.mesh, bundle.target
    base = bundle.base_map
    compact = build_circle_mesh(mesh.n_nodes, diff_order=2)
    state = MapState(mesh, target, base)
    resid = float(np.sqrt(_sq_norm(mesh, tangential_tension(state))))
    e0 = _ambient_energy(mesh, base)
    if resid > 0.05 * max(1.0, np.sqrt(e0)):
        raise ValueError(
            f"base map is not near-harmonic: tangential tension norm {resid:.3e}"
        )

    def require_own(bnd):
        if not _same_bundle(bundle, bnd):
            raise ValueError("chart energy called with a bundle other than the one it was built on")

    def value_fn(bnd, values):
        require_own(bnd)
        points = bnd.target.project_nearest(bnd.base_map + values)
        return _ambient_energy(bnd.mesh, points) - e0

    def el_fn(bnd, values):
        require_own(bnd)
        x = bnd.base_map + values
        points, denom = bnd.target._nearest(x)
        # dPi is symmetric, so it is its own transpose; _nearest has just
        # checked that x lies in the tube and found its denominator d.
        return bnd.target._differential(x, -2.0 * laplace_beltrami(compact, points), denom)

    def linearization_fn(bnd, values):
        # el = dPi(x) g with g = -2 Delta_c Pi(x), so its Jacobian is
        # H(g) + dPi (-2 Delta_c) dPi: node blocks F^T H F + 4/h^2 B^T B and
        # neighbour couplings -2/h^2 B_j^T B_j+1, with B = dPi F.
        require_own(bnd)
        x = bnd.base_map + values
        points, denom = bnd.target._nearest(x)
        g = -2.0 * laplace_beltrami(compact, points)
        hess = bnd.target._differential_jet(x, g, denom)
        frames = bnd.frames
        # Row a of Bt is dPi applied to frame column a: Bt = (dPi F)^T.
        Bt = bnd.target._differential(x[:, None, :], frames.transpose(0, 2, 1), denom[:, None, :])
        h2 = bnd.mesh.spacing ** 2
        diag = np.einsum("nia,nij,njb->nab", frames, hess, frames)
        diag += (4.0 / h2) * (Bt @ Bt.transpose(0, 2, 1))
        nxt = _neighbour_index(len(values), 1)[0]
        upper = (-2.0 / h2) * (Bt @ Bt.take(nxt, axis=0).transpose(0, 2, 1))
        return diag, upper, upper.transpose(0, 2, 1)

    return FunctionalSpec(
        label="chart energy",
        validity_radius=0.9 * target.tube_radius,
        value_fn=value_fn,
        euler_lagrange_fn=el_fn,
        linearization_fn=linearization_fn,
    )


def with_quartic_penalty(functional, weight):
    """Add a pointwise quartic |z|^4 term to a functional: value,
    gradient and linearization. The gradient term is node by
    node, so the field keeps its stencil radius of 1, and its Jacobian
    4 w (|z|^2 I + 2 z z^T) adds to the diagonal blocks only.

    The penalty's Hessian vanishes at the zero section, so the kernel of
    the linearization is untouched while the reduced function picks up a
    quartic well along the kernel directions.
    """
    if weight <= 0.0:
        raise ValueError("penalty weight must be positive")
    w = float(weight)
    base_value = functional.value_fn
    base_el = functional.euler_lagrange_fn
    base_linearization = functional.linearization_fn

    def value_fn(bnd, values):
        q = np.sum(values * values, axis=1) ** 2
        return base_value(bnd, values) + w * integrate(bnd.mesh, q)

    def el_fn(bnd, values):
        nsq = np.sum(values * values, axis=1, keepdims=True)
        return base_el(bnd, values) + 4.0 * w * nsq * values

    def linearization_fn(bnd, values):
        # the Jacobian of 4 w |v|^2 v is 4 w (|v|^2 I + 2 v v^T), node by node
        diag, upper, lower = base_linearization(bnd, values)
        c = _to_coords(bnd, values).reshape(len(values), -1)
        nsq = np.sum(values * values, axis=1)[:, None, None]
        blocks = 4.0 * w * (nsq * np.eye(c.shape[1]) + 2.0 * c[:, :, None] * c[:, None, :])
        return diag + blocks, upper, lower

    return FunctionalSpec(
        label=functional.label + " + quartic",
        validity_radius=functional.validity_radius,
        value_fn=value_fn,
        euler_lagrange_fn=el_fn,
        linearization_fn=linearization_fn,
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
    bundle's fiber frames, at the section values at_values (default the
    zero section), with its raw asymmetry.

    The raw node blocks (diag, upper, lower) come from the functional's
    linearization_fn. The asymmetry is the larger of max|diag - diag^T|
    and max|upper - lower^T|; the symmetrized blocks are laid out here,
    and only here, as a dense matrix on frame coordinates (node-major,
    p-1 per node).
    """
    n, p = bundle.base_map.shape
    values = project_section(bundle, np.zeros((n, p)) if at_values is None else at_values).values
    _require_validity(functional, values)
    diag, upper, lower = functional.linearization_fn(bundle, values)
    diag_t, lower_t = diag.transpose(0, 2, 1), lower.transpose(0, 2, 1)
    asym = float(max(np.max(np.abs(diag - diag_t)), np.max(np.abs(upper - lower_t))))
    return _block_tridiagonal(0.5 * (diag + diag_t), 0.5 * (upper + lower_t)), asym


def _probed_linearization(bundle, euler_lagrange_fn, at_values):
    """Raw node blocks (diag, upper, lower) of the linearization of
    euler_lagrange_fn at at_values, in the layout of
    FunctionalSpec.linearization_fn, by centered differences (step 1e-6)
    along the frame directions: the linearization of a generic
    integrand, and the test oracle of the closed forms.

    Every field probed here has stencil radius 1: the staggered assembly
    reads nodes j-1, j and j+1 by construction, the chart energy's
    gradient uses the compact three-point Laplacian at either mesh order,
    and the quartic term is node by node. So nodes three or more apart
    answer in disjoint row windows, the nodes are coloured by their
    offset inside 3-long arcs of the circle, and one difference probe per
    colour and frame direction fills all of that colour's columns
    (Curtis, Powell and Reid): rows g-1, g and g+1 of a probe at node g
    along frame column a are column a of upper[g-1], diag[g] and
    lower[g]. The frames read only the fiber part of each difference.
    """
    frames = bundle.frames
    n, p, q = frames.shape
    diag, upper, lower = (np.empty((n, q, q)) for _ in range(3))
    step = 1e-6
    window = np.arange(-1, 2)
    for group in _arc_colouring(n, 3):
        rows = (group[:, None] + window) % n
        for a in range(q):
            d = np.zeros((n, p))
            d[group] = frames[group, :, a]
            vp = project_section(bundle, at_values + step * d).values
            vm = project_section(bundle, at_values - step * d).values
            col = (euler_lagrange_fn(bundle, vp) - euler_lagrange_fn(bundle, vm)) / (2.0 * step)
            block = np.einsum("gwjb,gwj->gwb", frames[rows], col[rows])
            upper[rows[:, 0], :, a] = block[:, 0]
            diag[group, :, a] = block[:, 1]
            lower[group, :, a] = block[:, 2]
    return diag, upper, lower


def _block_tridiagonal(diag, upper):
    """Dense (n q, n q) matrix with diag[j] as node j's (q, q) block,
    upper[j] coupling node j to node j+1 (cyclically) and its transpose
    coupling j+1 back to j."""
    n, q, _ = diag.shape
    L = np.zeros((n, q, n, q))
    j = np.arange(n)
    nxt = _neighbour_index(n, 1)[0]
    L[j, :, j, :] = diag
    L[j, :, nxt, :] = upper
    L[nxt, :, j, :] = upper.transpose(0, 2, 1)
    return L.reshape(n * q, n * q)


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
    remainder = float(np.sqrt(_sq_norm(mesh, rem_field)))

    def c2_sup(values):
        d1, d2 = _differences(mesh, values)
        a = np.linalg.norm(values, axis=1)
        b = np.linalg.norm(d1, axis=1)
        c = np.linalg.norm(d2, axis=1)
        return float(np.max(a + b + c))

    diff = section(bundle, d)
    _, _, w22 = sobolev_norms(diff)
    product = (c2_sup(s1.values) + c2_sup(s2.values)) * w22
    return remainder, product


def ellipticity_check(integrand, probes):
    """Positivity of the eta-Hessian form of an integrand F(theta, z, eta)
    (second differences, step 1e-4) over the probes (theta, z, eta, xi,
    lambda).

    Probes with a zero frame or fiber component are vacuous for the
    positivity quantifier and are skipped.
    """
    step = 1e-4
    for theta, z, eta, xi, lam in probes:
        lam = np.asarray(lam, dtype=float)
        xin = float(xi)
        ln = float(np.linalg.norm(lam))
        if xin == 0.0 or ln == 0.0:
            continue
        lhat = lam / ln
        z = np.asarray(z, dtype=float)
        eta = np.asarray(eta, dtype=float)
        fp = integrand(theta, z, eta + step * lhat)
        f0 = integrand(theta, z, eta)
        fm = integrand(theta, z, eta - step * lhat)
        quad = (fp - 2.0 * f0 + fm) / (step * step)
        if quad * xin * xin <= 0.0:
            return False
    return True
