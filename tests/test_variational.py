import dataclasses

import numpy as np
import pytest

from loopflow.bundles import (
    build_pullback_bundle,
    chart_decode,
    l2_norm,
    project_section,
    section,
    zero_section,
)
from loopflow.mesh import build_circle_mesh, differentiate, integrate
from loopflow.targets import TargetManifold
from loopflow.variational import (
    MapState,
    _arc_colouring,
    _probed_linearization,
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
from test_mesh import rolled_stencils


def great_circle(n, k=1, target=None):
    mesh = build_circle_mesh(n)
    t = target if target is not None else TargetManifold.sphere(3)
    th = mesh.node_angles
    pts = np.stack([np.cos(k * th), np.sin(k * th), np.zeros_like(th)], axis=1)
    if t.kind == "ellipsoid":
        pts = pts * t.semi_axes[None, :]
    return MapState(mesh, t, pts)


def equator_bundle(n):
    st = great_circle(n)
    return build_pullback_bundle(st.mesh, st.target, st.values)


def smooth_tangent_field(state, rng, modes=4):
    th = state.mesh.node_angles
    xi = np.zeros_like(state.values)
    for j in range(xi.shape[1]):
        for m in range(modes + 1):
            xi[:, j] += rng.uniform(-1, 1) * np.cos(m * th) + rng.uniform(-1, 1) * np.sin(m * th)
    # project into the tangent spaces so the variation is honest
    P = np.stack([state.target.tangent_projector(y) for y in state.values])
    return np.einsum("nij,nj->ni", P, xi)


# -- energy -----------------------------------------------------------------


def test_energy_closed_form_for_degree_k():
    for n in (64, 128):
        for k in (1, 2, 3):
            st = great_circle(n, k)
            h = st.mesh.spacing
            expected = 2.0 * np.pi * np.sin(k * h) ** 2 / h**2
            assert abs(energy(st) - expected) < 1e-10


def test_energy_constant_map_zero():
    mesh = build_circle_mesh(32)
    t = TargetManifold.sphere(3)
    pts = np.tile(np.array([0.0, 0.0, 1.0]), (32, 1))
    assert energy(MapState(mesh, t, pts)) == 0.0


def test_energy_shift_invariance():
    st = great_circle(48)
    shifted = MapState(st.mesh, st.target, np.roll(st.values, 7, axis=0))
    assert abs(energy(shifted) - energy(st)) < 1e-12


def test_energy_rotation_invariance():
    st = great_circle(48)
    rng = np.random.default_rng(21)
    A = rng.standard_normal((3, 3))
    Q, _ = np.linalg.qr(A)
    rotated = MapState(st.mesh, st.target, st.values @ Q.T)
    assert abs(energy(rotated) - energy(st)) < 1e-12


def test_map_state_validates_points():
    mesh = build_circle_mesh(16)
    with pytest.raises(ValueError):
        map_state(mesh, TargetManifold.sphere(3), 1.05 * np.tile([1.0, 0.0, 0.0], (16, 1)))


# -- tension field ----------------------------------------------------------


def test_tension_great_circle_closed_form():
    # on the degree-k circle the raw assembly reduces to (mu + s^2) phi0
    # with mu the compact-Laplacian symbol and s the centered-difference
    # symbol, which is -(k^4 h^2 / 4) phi0 to leading order
    st = great_circle(128, k=1)
    h = st.mesh.spacing
    M = tension_field(st)
    mu = (2.0 * np.cos(h) - 2.0) / h**2
    s2 = (np.sin(h) / h) ** 2
    np.testing.assert_allclose(M, (mu + s2) * st.values, atol=1e-12)
    assert abs((mu + s2) + h**2 / 4.0) < 1e-4


def test_tension_convergence_order():
    norms = {}
    for n in (64, 128, 256):
        st = great_circle(n)
        M = tension_field(st)
        norms[n] = np.sqrt(integrate(st.mesh, np.sum(M * M, axis=1)))
    assert norms[64] / norms[128] > 3.8
    assert norms[128] / norms[256] > 3.8
    assert norms[256] < 1e-3


def test_tension_constant_map_zero():
    mesh = build_circle_mesh(32)
    pts = np.tile(np.array([0.0, 1.0, 0.0]), (32, 1))
    M = tension_field(MapState(mesh, TargetManifold.sphere(3), pts))
    np.testing.assert_allclose(M, 0.0, atol=1e-12)


def test_tension_tangency_residue_second_order():
    norms = {}
    for n in (64, 128):
        st = great_circle(n)
        M = tension_field(st)
        Mt = tangential_tension(st)
        resid = M - Mt
        norms[n] = np.sqrt(integrate(st.mesh, np.sum(resid * resid, axis=1)))
    assert norms[64] / norms[128] > 3.5


def test_tension_on_ellipsoid_small_for_gentle_loop():
    # the equator of a z-stretched ellipsoid is still a geodesic, so the
    # tangential tension stays at discretization scale
    t = TargetManifold.ellipsoid((1.0, 1.0, 1.3))
    st = great_circle(96, target=t)
    Mt = tangential_tension(st)
    assert np.sqrt(integrate(st.mesh, np.sum(Mt * Mt, axis=1))) < 1e-2


def level_set_contraction(target, y, X):
    """A_y(X, X) = -<X, 2 X / a^2> / |grad G| grad G / |grad G|, from the
    level set G(y) = sum y^2 / a^2 - 1, written out term by term."""
    a2 = target.semi_axes**2
    grad = 2.0 * y / a2
    gn = np.sqrt((grad * grad).sum(-1, keepdims=True))
    nhat = grad / gn
    coeff = np.sum(X * (2.0 * X / a2), axis=-1, keepdims=True) / gn
    return -coeff * nhat


@pytest.mark.parametrize(
    "target, order",
    [
        (TargetManifold.sphere(3), 2),
        (TargetManifold.sphere(3), 4),
        (TargetManifold.sphere(4), 2),
        (TargetManifold.sphere(4), 4),
        (TargetManifold.ellipsoid((1.0, 1.0, 1.3)), 2),
        (TargetManifold.ellipsoid((1.0, 1.0, 1.3)), 4),
    ],
    ids=["s2-order2", "s2-order4", "s3-order2", "s3-order4", "ellipsoid-order2", "ellipsoid-order4"],
)
def test_tension_field_equals_the_two_pass_assembly(target, order):
    # one gather and one normal give the same bits as the stencils written
    # with np.roll, the tangent part and the level-set curvature in turn
    rng = np.random.default_rng(31 * order + target.ambient_dim)
    p = target.ambient_dim
    for n in (24, 33):
        mesh = build_circle_mesh(n, diff_order=order)
        y = rng.standard_normal((n, p))
        y = y / np.linalg.norm(y / target.semi_axes, axis=1, keepdims=True)
        offset = rng.standard_normal((n, p))
        offset *= rng.uniform(0.0, 0.9 * target.tube_radius, (n, 1)) / np.linalg.norm(
            offset, axis=1, keepdims=True
        )
        u = target.project_nearest(y + offset)
        du, lap, _ = rolled_stencils(mesh, u)
        want = lap - level_set_contraction(target, u, target.tangent_part(u, du))
        assert np.array_equal(tension_field(map_state(mesh, target, u)), want)


# -- first variation --------------------------------------------------------


def test_first_variation_duality_randomized():
    rng = np.random.default_rng(17)
    worst = 0.0
    for trial in range(10):
        base = great_circle(96)
        pert = 0.03 * smooth_tangent_field(base, rng, modes=3)
        pts = base.target.project_nearest(base.values + pert)
        st = MapState(base.mesh, base.target, pts)
        xi = smooth_tangent_field(st, rng, modes=4)
        lhs, rhs, mismatch = first_variation_check(st, xi)
        worst = max(worst, mismatch)
    assert worst < 1e-5


def test_first_variation_normal_direction_vanishes():
    st = great_circle(64)
    lhs, rhs, _ = first_variation_check(st, st.values.copy())
    assert abs(rhs) < 1e-14
    assert abs(lhs) < 1e-8


def test_first_variation_input_checks():
    st = great_circle(32)
    with pytest.raises(ValueError, match="shape"):
        first_variation_check(st, np.zeros((31, 3)))


# -- functional specs and the general assembly ------------------------------


def quadratic_eta_functional():
    """F = |eta|^2 with exact partials, on the ambient R^3 fibers."""
    return make_functional_spec(
        label="|eta|^2",
        integrand=lambda th, z, eta: float(np.dot(eta, eta)),
        partial_z=lambda th, z, eta: np.zeros(3),
        partial_eta=lambda th, z, eta: 2.0 * np.asarray(eta, dtype=float),
        validity_radius=10.0,
    )


def mixed_cubic_functional():
    """F = |eta|^2 + |z|^2 <z, eta> with exact partials, on R^3 fibers."""
    return make_functional_spec(
        label="mixed",
        integrand=lambda th, z, eta: float(np.dot(eta, eta) + np.dot(z, z) * np.dot(z, eta)),
        partial_z=lambda th, z, eta: 2.0 * np.dot(z, eta) * np.asarray(z) + np.dot(z, z) * np.asarray(eta),
        partial_eta=lambda th, z, eta: 2.0 * np.asarray(eta) + np.dot(z, z) * np.asarray(z),
        validity_radius=10.0,
    )


def test_make_functional_spec_validates_partials():
    # the partials are checked on first use, at the bundle's ambient dimension
    broken = make_functional_spec(
        label="broken",
        integrand=lambda th, z, eta: float(np.dot(eta, eta)),
        partial_z=lambda th, z, eta: np.zeros(3),
        partial_eta=lambda th, z, eta: 3.0 * np.asarray(eta, dtype=float),
        validity_radius=1.0,
    )
    b = equator_bundle(16)
    with pytest.raises(ValueError, match="partial_eta"):
        general_euler_lagrange(b, broken, zero_section(b))
    with pytest.raises(ValueError, match="validity_radius"):
        make_functional_spec(
            label="bad radius",
            integrand=lambda th, z, eta: 0.0,
            partial_z=lambda th, z, eta: np.zeros(3),
            partial_eta=lambda th, z, eta: np.zeros(3),
            validity_radius=0.0,
        )


def test_partials_are_checked_in_every_ambient_dimension():
    # F = |eta|^2 with a partial_eta wrong only in its fourth component:
    # probes in R^3 cannot see it, the first evaluation on S^3 must
    def scaled_eta(th, z, eta):
        out = 2.0 * np.asarray(eta, dtype=float)
        if out.size > 3:
            out[3] *= 1.5
        return out

    func = make_functional_spec(
        label="fourth partial",
        integrand=lambda th, z, eta: float(np.dot(eta, eta)),
        partial_z=lambda th, z, eta: np.zeros_like(z),
        partial_eta=scaled_eta,
        validity_radius=1.0,
    )
    s2 = equator_bundle(16)
    assert np.all(np.isfinite(general_euler_lagrange(s2, func, zero_section(s2)).values))
    mesh = build_circle_mesh(16)
    th = mesh.node_angles
    loop = np.stack([np.cos(th), np.sin(th), np.zeros_like(th), np.zeros_like(th)], axis=1)
    s3 = build_pullback_bundle(mesh, TargetManifold.sphere(4), loop)
    with pytest.raises(ValueError, match=r"partial_eta\[3\]"):
        general_euler_lagrange(s3, func, zero_section(s3))


def test_quadratic_functional_matches_hand_assembly():
    b = equator_bundle(48)
    func = quadratic_eta_functional()
    rng = np.random.default_rng(3)
    sec = project_section(b, 0.2 * rng.standard_normal((48, 3)))
    got = general_euler_lagrange(b, func, sec)

    # hand assembly: flux_i = Pbar_i (2 eta_i), node j receives
    # -(flux_j - flux_{j-1})/h, then fiber projection
    h = b.mesh.spacing
    v = sec.values
    pbar = 0.5 * (b.projectors + np.roll(b.projectors, -1, axis=0))
    eta = np.einsum("nij,nj->ni", pbar, (np.roll(v, -1, axis=0) - v) / h)
    flux = np.einsum("nij,nj->ni", pbar, 2.0 * eta)
    raw = -(flux - np.roll(flux, 1, axis=0)) / h
    expected = np.einsum("nij,nj->ni", b.projectors, raw)
    np.testing.assert_allclose(got.values, expected, atol=1e-10)


def test_quadratic_functional_vertical_spectrum():
    # on the vertical slot the assembly acts as -2 times the compact
    # Laplacian, so cos(m theta) e3 is an exact eigenvector
    n = 64
    b = equator_bundle(n)
    func = quadratic_eta_functional()
    th = b.mesh.node_angles
    h = b.mesh.spacing
    for m in (1, 2, 5):
        v = np.zeros((n, 3))
        v[:, 2] = np.cos(m * th)
        got = general_euler_lagrange(b, func, section(b, v))
        lam = 2.0 * (2.0 - 2.0 * np.cos(m * h)) / h**2
        np.testing.assert_allclose(got.values, lam * v, atol=1e-9)


def test_general_assembly_is_exact_gradient_of_staggered_value():
    # duality: <M_F(u), v> = d/ds F(u + s v), exact for the generic path
    # with or without the node-by-node quartic term
    b = equator_bundle(40)
    cubic = mixed_cubic_functional()
    for func in (cubic, with_quartic_penalty(cubic, 5.0)):
        rng = np.random.default_rng(9)
        u = project_section(b, 0.3 * rng.standard_normal((40, 3)))
        v = project_section(b, rng.standard_normal((40, 3)))
        M = general_euler_lagrange(b, func, u)
        pairing = float(np.sum(b.mesh.quad_weights * np.sum(M.values * v.values, axis=1)))
        s = 1e-6
        up = section(b, u.values + s * v.values)
        um = section(b, u.values - s * v.values)
        fd = (functional_value(b, func, up) - functional_value(b, func, um)) / (2 * s)
        assert abs(pairing - fd) <= 1e-5 * (1.0 + l2_norm(v)), func.label


def test_nonlinearity_witness_for_cubic_term():
    b = equator_bundle(32)
    func = mixed_cubic_functional()
    rng = np.random.default_rng(14)
    u = project_section(b, 0.2 * rng.standard_normal((32, 3)))
    double = section(b, 2.0 * u.values)
    M1 = general_euler_lagrange(b, func, u)
    M2 = general_euler_lagrange(b, func, double)
    assert np.max(np.abs(M2.values - 2.0 * M1.values)) > 1e-3


def test_functional_value_zero_at_zero_section():
    b = equator_bundle(32)
    func = quadratic_eta_functional()
    assert functional_value(b, func, zero_section(b)) == 0.0


def test_validity_radius_enforced():
    b = equator_bundle(32)
    func = make_functional_spec(
        label="tight",
        integrand=lambda th, z, eta: float(np.dot(eta, eta)),
        partial_z=lambda th, z, eta: np.zeros(3),
        partial_eta=lambda th, z, eta: 2.0 * np.asarray(eta, dtype=float),
        validity_radius=0.05,
    )
    th = b.mesh.node_angles
    big = np.zeros((32, 3))
    big[:, 2] = 0.2 * np.cos(th)
    with pytest.raises(ValueError, match="validity"):
        functional_value(b, func, section(b, big))


# -- the chart energy functional --------------------------------------------


def test_chart_energy_normalization_and_value():
    b = equator_bundle(64)
    func = energy_functional_on_bundle(b)
    assert functional_value(b, func, zero_section(b)) == 0.0
    rng = np.random.default_rng(30)
    sec = project_section(b, 0.05 * rng.standard_normal((64, 3)))
    val = functional_value(b, func, sec)
    st = great_circle(64)
    direct = energy(MapState(st.mesh, st.target, chart_decode(b, sec))) - energy(st)
    assert abs(val - direct) < 1e-12


def test_chart_energy_euler_lagrange_matches_tension():
    # at the zero section the assembled gradient is exactly -2 times the
    # tangential tension of the base loop
    b = equator_bundle(128)
    func = energy_functional_on_bundle(b)
    M0 = general_euler_lagrange(b, func, zero_section(b))
    st = great_circle(128)
    np.testing.assert_allclose(M0.values, -2.0 * tangential_tension(st), atol=1e-11)
    assert l2_norm(M0) < 5e-3  # O(h^2) at a discrete near-critical loop


def test_chart_energy_duality_at_small_amplitude():
    b = equator_bundle(128)
    func = energy_functional_on_bundle(b)
    th = b.mesh.node_angles
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(5):
        u = np.zeros((128, 3))
        v = np.zeros((128, 3))
        for m in (1, 2):
            for arr in (u, v):
                arr[:, 2] += rng.uniform(-1, 1) * np.cos(m * th) + rng.uniform(-1, 1) * np.sin(m * th)
        # the value route uses the centered quadrature while the assembled
        # gradient is the staggered one, so the identity is honest only
        # where their O(h^2) gap sits below the tolerance; small sections
        # keep the comparison inside that window
        u = 0.005 * u / max(1.0, np.max(np.abs(u)))
        v = 0.005 * v / max(1.0, np.max(np.abs(v)))
        su = project_section(b, u)
        sv = project_section(b, v)
        M = general_euler_lagrange(b, func, su)
        pairing = float(np.sum(b.mesh.quad_weights * np.sum(M.values * sv.values, axis=1)))
        s = 1e-5
        fd = (
            functional_value(b, func, section(b, su.values + s * sv.values))
            - functional_value(b, func, section(b, su.values - s * sv.values))
        ) / (2 * s)
        worst = max(worst, abs(pairing - fd) / (1.0 + l2_norm(sv)))
    assert worst < 1e-5


def test_chart_energy_rejects_far_from_harmonic_base():
    mesh = build_circle_mesh(48)
    t = TargetManifold.sphere(3)
    th = mesh.node_angles
    r, z0 = 0.8, 0.6
    latitude = np.stack([r * np.cos(th), r * np.sin(th), np.full_like(th, z0)], axis=1)
    b = build_pullback_bundle(mesh, t, latitude)
    with pytest.raises(ValueError, match="near-harmonic"):
        energy_functional_on_bundle(b)


def test_chart_energy_rejects_another_bundle():
    # the chart energy of the n = 32 equator subtracts the equator's energy;
    # evaluated on the latitude-0.6 circle's bundle it used to return
    # -2.233 at the zero section, where the normalization promises 0
    b = equator_bundle(32)
    func = energy_functional_on_bundle(b)
    th = b.mesh.node_angles
    latitude = np.stack([0.8 * np.cos(th), 0.8 * np.sin(th), np.full_like(th, 0.6)], axis=1)
    other = build_pullback_bundle(b.mesh, b.target, latitude)
    zero = zero_section(other)
    for spec in (func, with_quartic_penalty(func, 5.0)):
        with pytest.raises(ValueError, match="bundle other than the one it was built on"):
            functional_value(other, spec, zero)
        with pytest.raises(ValueError, match="bundle other than the one it was built on"):
            general_euler_lagrange(other, spec, zero)
        # a section of one bundle passed with another
        with pytest.raises(ValueError, match="different bundle"):
            functional_value(b, spec, zero)
        with pytest.raises(ValueError, match="different bundle"):
            general_euler_lagrange(b, spec, zero)
    # a rebuilt copy of the bundle it was built on is the same bundle
    again = build_pullback_bundle(b.mesh, b.target, b.base_map)
    assert functional_value(again, func, zero_section(again)) == 0.0


def test_chart_energy_rejects_the_same_loop_on_another_target():
    # the n = 32 equator lies on both S^2 and the (1, 1, 1.3) ellipsoid; the
    # sphere's chart energy evaluated with the ellipsoid's bundle at
    # 0.1 cos(theta) e_z used to return the ellipsoid's 0.012653 (its own
    # bundle gives 6.82e-5)
    b = equator_bundle(32)
    func = energy_functional_on_bundle(b)
    ellipsoid = build_pullback_bundle(
        b.mesh, TargetManifold.ellipsoid((1.0, 1.0, 1.3)), b.base_map
    )
    field = np.zeros_like(b.base_map)
    field[:, 2] = 0.1 * np.cos(b.mesh.node_angles)
    assert abs(functional_value(b, func, section(b, field)) - 6.82e-5) < 1e-7
    with pytest.raises(ValueError, match="bundle other than the one it was built on"):
        functional_value(ellipsoid, func, section(ellipsoid, field))
    # a sphere with another tube radius is another target too
    thin = build_pullback_bundle(b.mesh, TargetManifold.sphere(3, tube_radius=0.25), b.base_map)
    with pytest.raises(ValueError, match="bundle other than the one it was built on"):
        functional_value(thin, func, zero_section(thin))


def test_ellipsoid_euler_lagrange_solves_the_multiplier_once(monkeypatch):
    t = TargetManifold.ellipsoid((1.0, 1.0, 1.3))
    st = great_circle(32, target=t)
    b = build_pullback_bundle(st.mesh, t, st.values)
    func = energy_functional_on_bundle(b)
    calls = []
    solve = TargetManifold._multiplier

    def counted(self, *args):
        calls.append(args[0].shape)
        return solve(self, *args)

    monkeypatch.setattr(TargetManifold, "_multiplier", counted)
    general_euler_lagrange(b, func, zero_section(b))
    assert len(calls) == 1


def test_cross_check_against_tension_norms():
    # ||M_F(u)|| tracks 2 ||M_E(decode(u))|| within the (1 +- 10 delta) band
    b = equator_bundle(64)
    func = energy_functional_on_bundle(b)
    rng = np.random.default_rng(50)
    th = b.mesh.node_angles
    delta = 0.05
    for _ in range(5):
        raw = np.zeros((64, 3))
        for j in range(3):
            for m in (1, 2, 3):
                raw[:, j] += rng.uniform(-1, 1) * np.cos(m * th + rng.uniform(0, 7))
        sec = project_section(b, raw)
        sec = project_section(b, delta * sec.values / np.max(np.abs(sec.values)))
        mf = l2_norm(general_euler_lagrange(b, func, sec))
        st = MapState(b.mesh, b.target, chart_decode(b, sec))
        me = np.sqrt(integrate(b.mesh, np.sum(tangential_tension(st) ** 2, axis=1)))
        ratio = mf / (2.0 * me)
        assert 1.0 - 10 * delta < ratio < 1.0 + 10 * delta


# -- quartic penalty --------------------------------------------------------


def test_quartic_penalty_value_and_gradient():
    b = equator_bundle(48)
    func = energy_functional_on_bundle(b)
    quart = with_quartic_penalty(func, 5.0)
    rng = np.random.default_rng(4)
    sec = project_section(b, 0.05 * rng.standard_normal((48, 3)))
    extra = functional_value(b, quart, sec) - functional_value(b, func, sec)
    norms4 = np.sum(sec.values**2, axis=1) ** 2
    assert abs(extra - 5.0 * integrate(b.mesh, norms4)) < 1e-12
    g_extra = (
        general_euler_lagrange(b, quart, sec).values
        - general_euler_lagrange(b, func, sec).values
    )
    expected = 20.0 * np.sum(sec.values**2, axis=1, keepdims=True) * sec.values
    # the added term is already fiberwise tangent, projection leaves it alone
    np.testing.assert_allclose(g_extra, expected, atol=1e-9)


def test_quartic_penalty_validation():
    b = equator_bundle(32)
    func = energy_functional_on_bundle(b)
    with pytest.raises(ValueError, match="weight"):
        with_quartic_penalty(func, 0.0)


# -- linearization ----------------------------------------------------------


def test_arc_colouring_is_a_minimal_separated_partition():
    for r in (1, 2, 3):
        sep = 2 * r + 1
        for n in range(max(8, 2 * sep), 257):
            groups = _arc_colouring(n, sep)
            nodes = np.sort(np.concatenate(groups))
            np.testing.assert_array_equal(nodes, np.arange(n))
            assert len(groups) == -(-n // (n // sep))
            for g in groups:
                gaps = np.diff(np.append(g, g[0] + n))
                assert gaps.min() >= sep, (n, r, g)


def dense_frame_linearization(b, func, at_values, step=1e-6):
    """Column-by-column central differences of the assembled field, with
    every row kept: the oracle for the banded probing, which reads only
    the rows within one node of each probed node."""
    n, p = b.base_map.shape
    q = p - 1
    frames = b.frames
    L = np.zeros((n * q, n * q))
    for i in range(n):
        for a in range(q):
            d = np.zeros((n, p))
            d[i] = frames[i, :, a]
            plus = general_euler_lagrange(b, func, project_section(b, at_values + step * d))
            minus = general_euler_lagrange(b, func, project_section(b, at_values - step * d))
            col = (plus.values - minus.values) / (2.0 * step)
            L[:, i * q + a] = np.einsum("njb,nj->nb", frames, col).reshape(n * q)
    return 0.5 * (L + L.T), float(np.max(np.abs(L - L.T)))


def assert_banded_equals_dense(b, func=None, at_values=None):
    """The coloured probing of _probed_linearization against the dense oracle."""
    func = energy_functional_on_bundle(b) if func is None else func
    at_values = np.zeros_like(b.base_map) if at_values is None else at_values
    blocks = _probed_linearization(b, func.euler_lagrange_fn, at_values)
    probed = dataclasses.replace(func, linearization_fn=lambda bnd, v: blocks)
    L_band, asym_band = frame_linearization(b, probed, at_values)
    L_dense, asym_dense = dense_frame_linearization(b, func, at_values)
    np.testing.assert_allclose(L_band, L_dense, atol=1e-8)
    assert asym_band < 1e-4
    assert asym_dense < 1e-4


def test_frame_linearization_banded_equals_dense():
    assert_banded_equals_dense(equator_bundle(24))


@pytest.mark.parametrize(
    "n, order, axes",
    [(25, 2, None), (31, 2, None), (25, 4, None), (25, 2, (1.0, 1.0, 1.3))],
    ids=["n25", "n31", "order4", "ellipsoid"],
)
def test_frame_linearization_banded_equals_dense_across_the_wrap(n, order, axes):
    # n is not a multiple of the window 2r + 1 = 3, so the arcs have
    # unequal lengths and the last colour class is short.
    mesh = build_circle_mesh(n, order)
    t = TargetManifold.sphere(3) if axes is None else TargetManifold.ellipsoid(axes)
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1) * t.semi_axes
    assert_banded_equals_dense(build_pullback_bundle(mesh, t, base))


@pytest.mark.parametrize("kind", ["mixed_cubic", "quartic_order4"])
def test_frame_linearization_equals_dense_away_from_the_zero_section(kind):
    # Radius 1 holds for the staggered assembly of a generic integrand and
    # for the node-by-node quartic term on a fourth-order mesh; a nonzero
    # section makes the cubic and quartic terms enter the Jacobian.
    n = 25
    mesh = build_circle_mesh(n, 4 if kind == "quartic_order4" else 2)
    t = TargetManifold.sphere(3)
    th = mesh.node_angles
    b = build_pullback_bundle(mesh, t, np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1))
    rng = np.random.default_rng(12)
    if kind == "mixed_cubic":
        func, amplitude = mixed_cubic_functional(), 0.2
    else:
        func, amplitude = with_quartic_penalty(energy_functional_on_bundle(b), 5.0), 0.05
    at_values = project_section(b, amplitude * rng.standard_normal((n, 3))).values
    assert_banded_equals_dense(b, func, at_values)


def constant_speed_equator(mesh, target):
    """The target's section by the (x, y) plane, a closed geodesic, at
    constant speed: a near-harmonic loop on every target used here."""
    a, b = target.semi_axes[:2]
    phi = np.linspace(0.0, 2.0 * np.pi, 4097)
    speed = np.hypot(a * np.sin(phi), b * np.cos(phi))
    arc = np.concatenate([[0.0], np.cumsum(0.5 * (speed[1:] + speed[:-1]) * np.diff(phi))])
    ph = np.interp(mesh.node_angles * arc[-1] / (2.0 * np.pi), arc, phi)
    base = np.zeros((mesh.n_nodes, target.ambient_dim))
    base[:, 0], base[:, 1] = a * np.cos(ph), b * np.sin(ph)
    return base


@pytest.mark.parametrize("n", [25, 32])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize(
    "target",
    [
        TargetManifold.sphere(3),
        TargetManifold.sphere(4),
        TargetManifold.ellipsoid((1.0, 1.0, 1.3)),
        TargetManifold.ellipsoid((1.5, 1.0, 0.8)),
    ],
    ids=["s2", "s3", "ellipsoid_1_1_1.3", "ellipsoid_1.5_1_0.8"],
)
def test_chart_energy_linearization_matches_the_dense_oracle(target, order, n):
    # the closed form of the chart energy, and of its quartic penalty,
    # against column-by-column differences of the assembled field
    mesh = build_circle_mesh(n, order)
    b = build_pullback_bundle(mesh, target, constant_speed_equator(mesh, target))
    func = energy_functional_on_bundle(b)
    raw = 0.02 * np.random.default_rng(21).standard_normal(b.base_map.shape)
    for at_values in (np.zeros_like(b.base_map), project_section(b, raw).values):
        for f in (func, with_quartic_penalty(func, 5.0)):
            _, upper, lower = f.linearization_fn(b, at_values)
            np.testing.assert_array_equal(lower, upper.transpose(0, 2, 1))
            L, asym = frame_linearization(b, f, at_values=at_values)
            L_dense, _ = dense_frame_linearization(b, f, at_values)
            scale = np.max(np.abs(L))
            assert np.max(np.abs(L - L_dense)) <= 1e-8 * scale
            assert asym <= 1e-12 * scale


def test_linearization_kernel_contains_jacobi_fields():
    n = 64
    b = equator_bundle(n)
    func = energy_functional_on_bundle(b)
    L, _ = frame_linearization(b, func)
    th = b.mesh.node_angles
    scale = np.max(np.abs(L))
    fields = []
    tang = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=1)
    fields.append(tang)
    for g in (np.sin(th), np.cos(th)):
        f = np.zeros((n, 3))
        f[:, 2] = g
        fields.append(f)
    for f in fields:
        coords = np.einsum("npa,np->na", b.frames, f).reshape(-1)
        assert np.max(np.abs(L @ coords)) < 1e-5 * scale


def test_quadratic_remainder_scaling():
    b = equator_bundle(32)
    func = energy_functional_on_bundle(b)
    lin, _ = frame_linearization(b, func)
    rng = np.random.default_rng(2)
    v = project_section(b, rng.standard_normal((32, 3)))
    v = section(b, 0.04 * v.values / np.max(np.abs(v.values)))
    z = zero_section(b)
    r1, p1 = quadratic_remainder_check(b, func, v, z, lin=lin)
    half = section(b, 0.5 * v.values)
    r2, p2 = quadratic_remainder_check(b, func, half, z, lin=lin)
    assert r1 < p1  # fitted constant below one at this scale
    drop = r1 / r2
    assert 3.0 < drop < 5.0
    same, _ = quadratic_remainder_check(b, func, v, v, lin=lin)
    assert same < 1e-12


def test_quadratic_remainder_constant_stability():
    b = equator_bundle(32)
    func = energy_functional_on_bundle(b)
    lin, _ = frame_linearization(b, func)
    rng = np.random.default_rng(33)
    cs = []
    for _ in range(50):
        a = project_section(b, rng.standard_normal((32, 3)))
        a = section(b, 0.03 * a.values / np.max(np.abs(a.values)))
        bsec = project_section(b, rng.standard_normal((32, 3)))
        bsec = section(b, 0.03 * bsec.values / np.max(np.abs(bsec.values)))
        rem, prod = quadratic_remainder_check(b, func, a, bsec, lin=lin)
        if prod > 0:
            cs.append(rem / prod)
    assert max(cs) / min(cs) < 10.0


def test_ellipticity_check_positive_negative_vacuous():
    rng = np.random.default_rng(8)
    probes = [
        (rng.uniform(0.0, 2.0 * np.pi), 0.05 * rng.standard_normal(3), 0.1 * rng.standard_normal(3),
         rng.standard_normal(), rng.standard_normal(3))
        for _ in range(50)
    ]
    assert ellipticity_check(lambda th, z, eta: float(np.dot(eta, eta)), probes)
    assert ellipticity_check(
        lambda th, z, eta: float(np.dot(eta, eta) + np.dot(z, z) * np.dot(z, eta)), probes
    )

    def neg(th, z, eta):
        return -float(np.dot(eta, eta))

    assert not ellipticity_check(neg, probes)
    # zero-xi probes are vacuous and do not decide the verdict
    assert ellipticity_check(neg, [(0.0, np.zeros(3), np.zeros(3), 0.0, np.ones(3))])


@pytest.mark.parametrize(
    "target",
    [
        TargetManifold.sphere(3),
        TargetManifold.sphere(4),
        TargetManifold.ellipsoid((1.0, 1.0, 1.3)),
        TargetManifold.ellipsoid((1.5, 1.0, 0.8)),
    ],
    ids=["s2", "s3", "ellipsoid-1-1-1.3", "ellipsoid-1.5-1-0.8"],
)
@pytest.mark.parametrize("order", [2, 4])
def test_chart_energy_node_coefficient_is_positive_definite(target, order):
    # The chart energy's ellipticity: its linearization's coefficient of
    # -Delta_c at node j is 2 B_j^T B_j with B = dPi F, and it must be
    # positive definite at the zero section and near it.
    n, p = 24, target.ambient_dim
    mesh = build_circle_mesh(n, diff_order=order)
    th = mesh.node_angles
    loop = np.zeros((n, p))
    loop[:, 0] = target.semi_axes[0] * np.cos(th)
    loop[:, 1] = target.semi_axes[1] * np.sin(th)
    b = build_pullback_bundle(mesh, target, loop)

    def node_coefficient(values):
        x = b.base_map + values
        B = np.stack(
            [target.differential_of_projection(x, b.frames[:, :, a]) for a in range(p - 1)], axis=2
        )
        return 2.0 * B.transpose(0, 2, 1) @ B

    # on the target dPi is the tangent projector and F is orthonormal
    zero = node_coefficient(np.zeros((n, p)))
    np.testing.assert_allclose(zero, np.broadcast_to(2.0 * np.eye(p - 1), zero.shape), atol=1e-12)
    rng = np.random.default_rng(40 + 10 * p + order)
    sec = project_section(b, rng.standard_normal((n, p))).values
    near = node_coefficient(0.02 * sec / np.max(np.linalg.norm(sec, axis=1)))
    assert np.min(np.linalg.eigvalsh(near)) > 1.0
