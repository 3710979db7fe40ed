import dataclasses

import numpy as np
import pytest

from loopflow import reduction, variational
from loopflow.bundles import build_pullback_bundle, l2_inner, l2_norm, section
from loopflow.lojasiewicz import _ols
from loopflow.lojasiewicz import integrability_probe
from loopflow.mesh import build_circle_mesh
from loopflow.reduction import (
    _random_fiber_field,
    _random_smooth_section,
    _spectral_split,
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
from loopflow.targets import TargetManifold
from loopflow.variational import (
    _probed_linearization,
    energy_functional_on_bundle,
    frame_linearization,
    with_quartic_penalty,
)


def equator_bundle(n, target=None, diff_order=2):
    mesh = build_circle_mesh(n, diff_order)
    t = TargetManifold.sphere(3) if target is None else target
    th = mesh.node_angles
    base = np.zeros((n, t.ambient_dim))
    base[:, 0], base[:, 1] = np.cos(th), np.sin(th)
    return build_pullback_bundle(mesh, t, base)


@pytest.fixture(scope="module")
def energy_ws():
    b = equator_bundle(64)
    return build_reduction_workspace(b, energy_functional_on_bundle(b))


@pytest.fixture(scope="module")
def energy_L0(energy_ws):
    """The linearization L(0) that energy_ws was built from."""
    return frame_linearization(energy_ws.bundle, energy_ws.functional)[0]


@pytest.fixture(scope="module")
def quartic_ws():
    b = equator_bundle(64)
    func = energy_functional_on_bundle(b)
    return build_reduction_workspace(b, with_quartic_penalty(func, 5.0))


@pytest.fixture(scope="module")
def s3_ws():
    b = equator_bundle(32, TargetManifold.sphere(4))
    return build_reduction_workspace(b, energy_functional_on_bundle(b))


@pytest.fixture(scope="module")
def ellipsoid_ws():
    b = equator_bundle(32, TargetManifold.ellipsoid((1.0, 1.0, 1.3)), diff_order=4)
    return build_reduction_workspace(b, energy_functional_on_bundle(b))


# The S^2 equator (q = 2), the S^3 great circle (q = 3) and the order-4
# ellipsoid equator, whose kernels have dimensions 3, 5 and 1.
WORKSPACES = ["energy_ws", "s3_ws", "ellipsoid_ws"]


def test_workspace_kernel_layout(energy_ws):
    ws = energy_ws
    assert ws.kernel_dim == 3
    assert ws.gap_ratio > 10.0
    assert np.all(np.abs(ws.kernel_eigenvalues) < ws.threshold)
    assert ws.discarded_min > 10.0 * np.max(np.abs(ws.kernel_eigenvalues))
    # quadrature orthonormality of the kernel basis
    for i, pi in enumerate(ws.kernel_basis):
        for j, pj in enumerate(ws.kernel_basis):
            want = 1.0 if i == j else 0.0
            assert abs(l2_inner(pi, pj) - want) < 1e-10


def test_workspace_frame_matrix_symmetric(energy_L0):
    F = energy_L0
    assert float(np.max(np.abs(F - F.T))) < 1e-12  # symmetrized on return


def _split(ws, L, asymmetry=0.0):
    return _spectral_split(L, asymmetry, ws.bundle, ws.functional, 1e-6, 1e-10, 50)


def test_compute_kernel_basis_is_orthonormal(energy_ws, energy_L0):
    h = energy_ws.bundle.mesh.spacing
    split = _split(energy_ws, energy_L0)
    vecs = split.kernel
    np.testing.assert_array_equal(vecs, energy_ws.kernel)
    assert vecs.shape == (64 * 2, 3)
    assert split.kernel_eigenvalues.shape == (3,)
    # frame coordinates are orthonormal per node, so the L2 pairing is h x Euclidean
    np.testing.assert_allclose(h * vecs.T @ vecs, np.eye(3), atol=1e-10)


def test_compute_kernel_empty_for_shifted_operator(energy_ws, energy_L0):
    # adding the identity on frame coordinates pushes every eigenvalue up by
    # one, so nothing survives the relative threshold and the split says so
    L = energy_L0
    with pytest.raises(ValueError, match=r"^kernel_tol 1e-06 keeps no eigenvalue: .* threshold "):
        _split(energy_ws, L + np.eye(L.shape[0]))


def test_workspace_arrays_are_read_only(energy_ws):
    for name in ("chord_inverse", "kernel", "kernel_eigenvalues"):
        arr = getattr(energy_ws, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


def test_compute_kernel_rejects_asymmetry(energy_ws, energy_L0):
    L = energy_L0.copy()
    L[2, 5] += 1.0
    asymmetry = float(np.max(np.abs(L - L.T)))
    with pytest.raises(ValueError, match="asymmetry"):
        _split(energy_ws, L, asymmetry)


def test_asymmetric_linearization_is_rejected():
    # a field that reads node j-1 but not j+1 has a raw asymmetry of 1.0,
    # which symmetrizing would hide
    b = equator_bundle(32)
    func = energy_functional_on_bundle(b)
    el = func.euler_lagrange_fn

    def skewed_el(bnd, v):
        return el(bnd, v) + np.roll(v, 1, axis=0)

    skewed = dataclasses.replace(
        func,
        euler_lagrange_fn=skewed_el,
        linearization_fn=lambda bnd, v: _probed_linearization(bnd, skewed_el, v),
    )
    with pytest.raises(ValueError, match="asymmetry"):
        build_reduction_workspace(b, skewed)


def test_compute_kernel_rejects_missing_gap(energy_ws, energy_L0):
    # synthesize a spectrum whose first discarded eigenvalue sits within
    # 10x of the largest kept one
    m = energy_L0.shape[0]
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    d = np.full(m, 1.0)
    d[0] = 1e-7
    d[1] = 5e-7
    d[2] = 4e-6  # within 10x of 5e-7 but above threshold 1e-6
    with pytest.raises(ValueError, match="spectral gap"):
        _split(energy_ws, (Q * d) @ Q.T)


def test_kernel_tol_that_keeps_every_eigenvalue_is_rejected():
    # a threshold above the spectral radius would call the whole section
    # space the kernel, which no gap guard can see
    b = equator_bundle(16)
    with pytest.raises(ValueError, match="kernel_tol"):
        build_reduction_workspace(b, energy_functional_on_bundle(b), kernel_tol=1.5)


@pytest.mark.parametrize("name", WORKSPACES)
def test_chord_inverse_inverts_the_jacobian_at_zero(name, request):
    ws = request.getfixturevalue(name)
    jacobian = reduction._jacobian(ws, np.zeros_like(ws.bundle.base_map))
    m = jacobian.shape[0]
    np.testing.assert_allclose(ws.chord_inverse @ jacobian, np.eye(m), rtol=0.0, atol=1e-9)


def test_kernel_coordinates_round_trip(energy_ws):
    ws = energy_ws
    xi = np.array([0.7, -0.3, 0.2])
    sec = kernel_combination(ws, xi)
    np.testing.assert_allclose(kernel_coordinates(ws, sec), xi, atol=1e-12)
    # projection fixes kernel elements
    np.testing.assert_allclose(
        project_onto_kernel(ws, sec).values, sec.values, atol=1e-12
    )
    with pytest.raises(ValueError, match="length"):
        kernel_combination(ws, np.array([1.0, 2.0]))


@pytest.mark.parametrize("name", WORKSPACES)
def test_kernel_coordinates_are_l2_pairings(name, request):
    # the identity the coordinate path rests on: h K^T F^T u = <u, phi_j>
    ws = request.getfixturevalue(name)
    sec = _random_fiber_field(ws.bundle, np.random.default_rng(11))
    want = [l2_inner(sec, phi) for phi in ws.kernel_basis]
    np.testing.assert_allclose(kernel_coordinates(ws, sec), want, rtol=0.0, atol=1e-13)


def test_sections_of_another_bundle_are_rejected(energy_ws):
    other = equator_bundle(64)
    same = section(other, np.asarray(energy_ws.kernel_basis[0].values))
    np.testing.assert_allclose(kernel_coordinates(energy_ws, same), [1.0, 0.0, 0.0], atol=1e-12)
    tilted = build_pullback_bundle(
        other.mesh, other.target, other.base_map[:, [0, 2, 1]]
    )
    with pytest.raises(ValueError, match="different bundle"):
        apply_N(energy_ws, section(tilted, np.zeros_like(tilted.base_map)))


def test_apply_N_at_zero(energy_ws):
    ws = energy_ws
    z = section(ws.bundle, np.zeros_like(ws.bundle.base_map))
    out = apply_N(ws, z)
    # the base loop is only a discrete near-critical point, so N(0) is the
    # O(h^2) assembly residual rather than exact zero
    assert l2_norm(out) < 5e-3


@pytest.mark.parametrize("name", WORKSPACES)
def test_invert_N_is_right_inverse(name, request):
    ws = request.getfixturevalue(name)
    # A kernel combination alone can be solved already: on the ellipsoid
    # the rotation field gives N(f) = f to 5e-11, and Newton takes no step.
    # The seeded off-kernel part makes every case iterate.
    xi = np.array([0.02, -0.01, 0.015, 0.01, -0.005])[: ws.kernel_dim]
    kernel_part = kernel_combination(ws, xi)
    off_kernel = _random_smooth_section(ws.bundle, np.random.default_rng(3))
    f = section(ws.bundle, kernel_part.values + 0.01 * off_kernel.values)
    u, info = invert_N(ws, f, return_info=True)
    back = apply_N(ws, u)
    assert l2_norm(section(ws.bundle, back.values - f.values)) < 5e-9
    res = info["residuals"]
    assert res[-1] <= ws.newton_tol or res[-1] < res[0] * 1e-6
    # Newton contraction: the final drop is much faster than the first
    assert res[-1] < 1e-2 * res[0]


def test_invert_N_reuses_the_workspace_matrix_at_small_f(energy_ws, monkeypatch):
    # near 0 the workspace's own (P_K + L(0))^-1 is a good chord, so no
    # Jacobian is assembled and nothing is solved or factored
    calls = []
    assemble = reduction.frame_linearization

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble(*args, **kwargs)

    def no_factorization(*args, **kwargs):
        raise AssertionError("a chord step factored a matrix")

    monkeypatch.setattr(reduction, "frame_linearization", counted)
    monkeypatch.setattr(np.linalg, "solve", no_factorization)
    monkeypatch.setattr(np.linalg, "inv", no_factorization)
    f = kernel_combination(energy_ws, np.array([0.02, -0.01, 0.015]))
    u, info = invert_N(energy_ws, f, return_info=True)
    assert calls == []
    assert info["jacobian_assemblies"] == 0
    assert info["halvings"] == 0
    assert info["iterations"] == len(info["residuals"]) - 1
    assert info["residuals"][-1] <= energy_ws.newton_tol


def test_invert_N_refreshes_a_poor_chord_matrix(energy_ws):
    # twice the inverse is a chord whose steps no longer halve the
    # residual, so Newton assembles the Jacobian and still converges
    ws = dataclasses.replace(energy_ws, chord_inverse=2.0 * energy_ws.chord_inverse)
    f = kernel_combination(ws, np.array([0.02, -0.01, 0.015]))
    u, info = invert_N(ws, f, return_info=True)
    assert info["jacobian_assemblies"] >= 1
    # the assembled Jacobian replaces the poor chord matrix for later steps
    assert info["jacobian_assemblies"] < info["iterations"]
    assert info["residuals"][-1] <= ws.newton_tol
    back = apply_N(energy_ws, u)
    assert l2_norm(section(ws.bundle, back.values - f.values)) < 1e-9


@pytest.mark.parametrize(
    "n, degree, seed, min_halvings", [(48, 10, 0, 0), (128, 8, 1, 1)], ids=["n48-degree10", "n128-degree8"]
)
def test_invert_N_refreshes_and_halves_on_higher_degree_circles(n, degree, seed, min_halvings):
    # with the workspace's own chord: at L2 norm 0.0999, just inside the
    # basin, these right-hand sides reach the Jacobian refresh (2 and 3
    # assemblies) and, in the second case, one line-search halving
    mesh = build_circle_mesh(n)
    th = mesh.node_angles
    base = np.zeros((n, 3))
    base[:, 0], base[:, 1] = np.cos(degree * th), np.sin(degree * th)
    b = build_pullback_bundle(mesh, TargetManifold.sphere(3), base)
    ws = build_reduction_workspace(b, energy_functional_on_bundle(b))
    g = _random_smooth_section(b, np.random.default_rng(seed))
    f = section(b, g.values * (0.0999 / l2_norm(g)))
    u, info = invert_N(ws, f, return_info=True)
    assert info["jacobian_assemblies"] >= 1
    assert info["halvings"] >= min_halvings
    assert info["residuals"][-1] <= ws.newton_tol
    assert l2_norm(section(b, apply_N(ws, u).values - f.values)) <= ws.newton_tol


def test_invert_N_names_a_singular_refreshed_jacobian(energy_ws, monkeypatch):
    ws = dataclasses.replace(energy_ws, chord_inverse=2.0 * energy_ws.chord_inverse)
    m = ws.chord_inverse.shape[0]
    monkeypatch.setattr(reduction, "_jacobian", lambda *args: np.zeros((m, m)))
    f = kernel_combination(ws, np.array([0.02, -0.01, 0.015]))
    with pytest.raises(RuntimeError, match="singular Newton system at iteration 0"):
        invert_N(ws, f)


def test_invert_N_basin_guard(energy_ws):
    ws = energy_ws
    th = ws.bundle.mesh.node_angles
    big = np.zeros_like(ws.bundle.base_map)
    big[:, 2] = np.cos(th)
    with pytest.raises(ValueError, match="basin"):
        invert_N(ws, section(ws.bundle, big))


def test_reduced_section_radius_guard(energy_ws):
    with pytest.raises(ValueError, match="radius"):
        reduced_section(energy_ws, np.array([0.2, 0.0, 0.0]))


def test_reduced_chart_radius_is_0_05(energy_ws):
    direction = np.array([0.0, 1.0, 0.0])
    u = reduced_section(energy_ws, 0.049 * direction)
    assert np.all(np.isfinite(u.values))
    for r in (0.05, 0.06):
        with pytest.raises(ValueError, match="reduced-chart radius"):
            reduced_section(energy_ws, r * direction)


def test_reduced_function_vanishes_for_integrable_case(energy_ws):
    # the chart-energy functional is integrable: the kernel directions
    # move along the critical manifold of rotated great circles, so the
    # reduced function is numerically zero
    ws = energy_ws
    rng = np.random.default_rng(23)
    for _ in range(4):
        xi = rng.standard_normal(3)
        xi = 0.02 * xi / np.linalg.norm(xi)
        assert abs(reduced_function(ws, xi)) < 1e-9
    g = reduced_gradient(ws, np.array([0.01, 0.005, -0.01]))
    assert np.linalg.norm(g) < 1e-7


def central_difference_gradient(ws, xi, step=1e-5):
    """Oracle: central differences of reduced_function, 2l Newton solves."""
    grad = np.empty_like(xi)
    for j in range(xi.size):
        e = np.zeros_like(xi)
        e[j] = step
        grad[j] = (reduced_function(ws, xi + e) - reduced_function(ws, xi - e)) / (2.0 * step)
    return grad


@pytest.mark.parametrize("name", ["quartic_ws", "energy_ws"])
def test_reduced_gradient_matches_central_differences(name, request):
    ws = request.getfixturevalue(name)
    for xi in ([0.02, 0.01, -0.005], [0.01, 0.005, -0.01], [0.03, -0.02, 0.01]):
        xi = np.array(xi)
        exact = reduced_gradient(ws, xi)
        oracle = central_difference_gradient(ws, xi)
        # relative to |grad|, floored at 1e-5, the quartic gradient's size at
        # these radii: the integrable workspace's gradient vanishes, and there
        # both sides are rounding noise
        scale = max(np.linalg.norm(oracle), 1e-5)
        assert np.linalg.norm(exact - oracle) <= 1e-5 * scale


def test_reduced_function_quartic_well(quartic_ws):
    # the penalty shows up as an exact quartic along the kernel
    ws = quartic_ws
    xi = np.array([0.02, 0.0, 0.0])
    f1 = reduced_function(ws, xi)
    f2 = reduced_function(ws, 2.0 * xi)
    assert f1 > 1e-10
    assert abs(f2 / f1 - 16.0) < 0.5


def test_sandwich_check_statuses(energy_ws, quartic_ws):
    ratio, status = sandwich_check(quartic_ws, np.array([0.02, 0.01, -0.005]))
    assert status == "pass"
    assert 0.4 <= ratio <= 2.1
    ratio0, status0 = sandwich_check(energy_ws, np.array([0.01, 0.0, 0.005]))
    assert status0 == "indeterminate"
    assert np.isnan(ratio0)


def test_approximation_check_kernel_component_only(quartic_ws):
    # for u already in the kernel, Psi(P_K u) stays close to u and the
    # functional gap is controlled by the squared gradient norm
    ws = quartic_ws
    u = kernel_combination(ws, np.array([0.02, -0.015, 0.01]))
    lhs, rhs = approximation_check(ws, u)
    assert lhs >= 0.0
    assert rhs > 0.0
    assert lhs < 10.0 * rhs


def test_lipschitz_probe_spread(energy_ws):
    rep = lipschitz_probe(energy_ws, n_pairs=12, seed=5)
    assert rep["n_pairs"] == 12
    assert rep["ratio_min"] > 0.0
    assert rep["ratio_spread"] < 10.0


def test_sandwich_sweep_report_shape(quartic_ws):
    rep = sandwich_sweep(quartic_ws, radii=(0.01, 0.02), samples_per_radius=3, seed=2)
    assert len(rep["records"]) == 6
    assert rep["n_pass"] + rep["n_fail"] + rep["n_indeterminate"] + rep["n_newton_failure"] == 6
    assert rep["determinate_pass_rate"] == 1.0


@pytest.mark.parametrize("radius", [0.05, -0.01, float("nan")])
def test_sandwich_sweep_rejects_a_radius_outside_the_chart(energy_ws, radius):
    with pytest.raises(ValueError, match="outside the reduced-chart radius 0.05"):
        sandwich_sweep(energy_ws, radii=(0.01, radius), samples_per_radius=1)


@pytest.mark.parametrize("name", ["energy_ws", "quartic_ws"])
def test_sandwich_sweep_records_the_reduced_function(name, request):
    ws = request.getfixturevalue(name)
    radii, spr, seed = (0.005, 0.02), 4, 3
    rep = sandwich_sweep(ws, radii=radii, samples_per_radius=spr, seed=seed)
    rng = np.random.default_rng(seed)
    for i, r in enumerate(radii):
        for rec in rep["records"][i * spr : (i + 1) * spr]:
            d = rng.standard_normal(ws.kernel_dim)
            xi = r * (d / np.linalg.norm(d))
            assert rec["abs_f"] == abs(reduced_function(ws, xi))


def test_integrability_probe_skips_newton_failures(quartic_ws, monkeypatch):
    radii, spr = (0.01, 0.02, 0.04), 4
    clean = sandwich_sweep(quartic_ws, radii=radii, samples_per_radius=spr, seed=1)
    # fail the Newton solve of the largest |f| at the middle radius; each
    # record makes exactly one invert_N call, in record order
    middle = [rec["abs_f"] for rec in clean["records"][spr : 2 * spr]]
    failing = spr + int(np.argmax(middle))
    calls = []
    solve = reduction.invert_N

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) - 1 == failing:
            raise RuntimeError("Newton iteration did not converge")
        return solve(*args, **kwargs)

    monkeypatch.setattr(reduction, "invert_N", flaky)
    sweep = sandwich_sweep(quartic_ws, radii=radii, samples_per_radius=spr, seed=1)
    assert len(calls) == len(radii) * spr
    assert sweep["records"][failing]["status"] == "newton_failure"
    assert sweep["records"][failing]["abs_f"] is None
    assert sweep["n_newton_failure"] == 1
    before = integrability_probe(clean)["per_radius"]
    after = integrability_probe(sweep)["per_radius"]
    assert [rec["newton_failures"] for rec in after] == [0, 1, 0]
    assert after[1]["max_abs_f"] == sorted(middle)[-2] < before[1]["max_abs_f"]
    assert after[0] == before[0] and after[2] == before[2]


def test_ellipsoid_of_revolution_kernel_is_the_rotation_field():
    # the equator of a z-stretched ellipsoid is critical, and its only
    # degenerate direction is the rotation about the symmetry axis
    mesh = build_circle_mesh(64)
    t = TargetManifold.ellipsoid((1.0, 1.0, 1.3))
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    b = build_pullback_bundle(mesh, t, base)
    ws = build_reduction_workspace(b, energy_functional_on_bundle(b))
    assert ws.kernel_dim == 1
    assert ws.gap_ratio >= 10.0
    rot = section(b, np.stack([-base[:, 1], base[:, 0], np.zeros_like(th)], axis=1))
    phi = ws.kernel_basis[0]
    assert abs(l2_inner(phi, rot)) / (l2_norm(phi) * l2_norm(rot)) >= 1.0 - 1e-8
    report = sandwich_sweep(ws, radii=(0.005, 0.02), samples_per_radius=3)
    assert report["n_newton_failure"] == 0
    assert abs(reduced_function(ws, np.array([0.02]))) < 1e-9


def test_common_slope_fits_one_slope_with_an_intercept_per_group():
    x = np.array([0.0, 1.0, 2.0, 5.0, 6.0, 9.0])
    groups = np.array([4, 4, 4, 1, 1, 7])
    y = 2.0 * x + np.array([0.0, 0.0, 0.0, -30.0, -30.0, 3.0])
    assert abs(_ols(x, y, groups)[0] - 2.0) < 1e-12
    with pytest.raises(ValueError, match="undetermined"):
        _ols(x[[0, 3, 5]], y[[0, 3, 5]], groups[[0, 3, 5]])


@pytest.mark.parametrize("seed", [3, 22])
def test_approximation_slope_is_quadratic(seed):
    # Each direction has its own constant, so one line fitted through all
    # of them mixes the constants into the slope: 1.826 at seed 3 and
    # 1.847 at seed 22, for a remainder that is quadratic.
    b = equator_bundle(32)
    ws = build_reduction_workspace(b, energy_functional_on_bundle(b))
    report = approximation_sweep(ws, seed=seed)
    assert 1.99 <= report["slope"] <= 2.01
    assert len(report["direction_slopes"]) == 5
    assert all(abs(s - 2.0) < 0.01 for s in report["direction_slopes"])


@pytest.mark.parametrize("p", [4, 5])
def test_great_circle_kernel_in_higher_spheres_is_spanned_by_rotations(p):
    # The degree-1 great circle in S^{p-1} is moved by 2p - 3 rotations
    # E_ab of so(p): the one in its own plane and, for each of the p - 2
    # other axes, the two that tilt the plane towards it. The stabiliser
    # SO(p - 2) fixes it, so these fields span the kernel.
    n = 32
    mesh = build_circle_mesh(n)
    th = mesh.node_angles
    base = np.zeros((n, p))
    base[:, 0], base[:, 1] = np.cos(th), np.sin(th)
    b = build_pullback_bundle(mesh, TargetManifold.sphere(p), base)
    ws = build_reduction_workspace(b, energy_functional_on_bundle(b))
    assert ws.kernel_dim == 2 * p - 3
    assert ws.gap_ratio >= 10.0
    fields = []
    for a in range(p):
        for c in range(a + 1, p):
            E = np.zeros((p, p))
            E[a, c], E[c, a] = -1.0, 1.0
            field = base @ E.T
            if np.any(field != 0.0):
                fields.append(section(b, field))
    assert len(fields) == 2 * p - 3
    for field in fields:
        assert l2_norm(project_onto_kernel(ws, field)) >= (1.0 - 1e-8) * l2_norm(field)


def test_chart_energy_workspaces_never_probe(monkeypatch):
    # the chart energy and its quartic penalty linearize in closed form:
    # building, differentiating and checking their reductions differences
    # no field
    def no_probing(*args, **kwargs):
        raise AssertionError("a chart-energy linearization was probed")

    monkeypatch.setattr(variational, "_probed_linearization", no_probing)
    sphere = equator_bundle(32)
    ellipsoid = equator_bundle(32, TargetManifold.ellipsoid((1.0, 1.0, 1.3)), diff_order=4)
    for b, weight in ((sphere, None), (ellipsoid, None), (sphere, 5.0)):
        func = energy_functional_on_bundle(b)
        if weight is not None:
            func = with_quartic_penalty(func, weight)
        ws = build_reduction_workspace(b, func)
        xi = np.full(ws.kernel_dim, 0.01)
        assert np.all(np.isfinite(reduced_gradient(ws, xi)))
        assert sandwich_check(ws, xi)[1] in ("pass", "fail", "indeterminate")


def test_sandwich_solves_the_gradient_only_for_determinate_samples(energy_ws, quartic_ws, monkeypatch):
    # M_F is at round-off on the integrable great circle, which settles
    # every status, so no Jacobian is assembled; the quartic's M_F clears
    # the floor, and each of its samples assembles one
    calls = []
    assemble = reduction.frame_linearization

    def counted(*args, **kwargs):
        calls.append(None)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(reduction, "frame_linearization", counted)
    sweep = sandwich_sweep(energy_ws, radii=(0.005, 0.02), samples_per_radius=4, seed=3)
    assert sweep["n_indeterminate"] == 8
    assert calls == []
    sweep = sandwich_sweep(quartic_ws, radii=(0.005, 0.02), samples_per_radius=4, seed=3)
    assert sweep["n_pass"] == 8
    assert len(calls) == 8


def test_kernel_tol_that_keeps_no_eigenvalue_is_rejected():
    b = equator_bundle(16)
    with pytest.raises(ValueError, match=r"^kernel_tol 1e-300 keeps no eigenvalue: .* threshold "):
        build_reduction_workspace(b, energy_functional_on_bundle(b), kernel_tol=1e-300)
