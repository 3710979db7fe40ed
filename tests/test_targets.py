import numpy as np
import pytest

from loopflow.targets import TargetManifold


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def test_sphere_constructor():
    s = TargetManifold.sphere(3)
    assert s.kind == "sphere"
    assert s.ambient_dim == 3
    np.testing.assert_allclose(s.semi_axes, np.ones(3))
    assert s.tube_radius == 0.5
    with pytest.raises(ValueError):
        TargetManifold.sphere(1)
    with pytest.raises(ValueError):
        TargetManifold.sphere(3, tube_radius=1.5)


def test_ellipsoid_constructor():
    e = TargetManifold.ellipsoid((2.0, 1.0, 1.0))
    assert e.kind == "ellipsoid"
    assert e.tube_radius == 0.25  # quarter of the smallest semi-axis
    with pytest.raises(ValueError):
        TargetManifold.ellipsoid((1.0,))
    with pytest.raises(ValueError):
        TargetManifold.ellipsoid((1.0, -2.0))


def test_ellipsoid_tube_stays_inside_the_reach():
    # reach a_min^2 / a_max = 0.2; a quarter of a_min would pass it
    e = TargetManifold.ellipsoid((1.0, 1.0, 5.0))
    assert e.tube_radius == pytest.approx(0.1)
    with pytest.raises(ValueError, match="reach"):
        TargetManifold.ellipsoid((1.0, 1.0, 5.0), tube_radius=0.25)
    with pytest.raises(ValueError, match="reach"):
        TargetManifold.ellipsoid((1.0, 1.0, 5.0), tube_radius=0.2)
    # near the pole, where the curvature radius is the reach, nearby inputs
    # project to nearby points, and points past the tube fail by name
    a = e.project_nearest(np.array([0.02, 0.0, 4.95]))
    b = e.project_nearest(np.array([-0.02, 0.0, 4.95]))
    assert np.linalg.norm(a - b) < 0.1
    with pytest.raises(ValueError, match="tube"):
        e.project_nearest(np.array([0.0, 0.0, 4.78]))
    # targets with a_max <= 2 a_min keep a quarter of a_min
    assert TargetManifold.ellipsoid((1.0, 1.0, 2.0)).tube_radius == 0.25


def test_defining_residual_and_guard():
    s = TargetManifold.sphere(3)
    assert float(s.defining_residual(np.array([0.0, 1.0, 0.0]))) < 1e-15
    assert float(s.defining_residual(np.array([0.0, 1.1, 0.0]))) > 0.2
    s.require_on_manifold(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="off the target"):
        s.require_on_manifold(np.array([1.05, 0.0, 0.0]))


def test_sphere_projection_closed_form():
    s = TargetManifold.sphere(3)
    x = np.array([0.3, -0.8, 0.6])
    np.testing.assert_allclose(s.project_nearest(x), unit(x), atol=1e-15)
    # stacks project row by row
    rng = np.random.default_rng(0)
    pts = rng.standard_normal((10, 3))
    pts = pts / np.linalg.norm(pts, axis=1, keepdims=True) * rng.uniform(0.7, 1.3, (10, 1))
    proj = s.project_nearest(pts)
    np.testing.assert_allclose(np.linalg.norm(proj, axis=1), 1.0, atol=1e-14)


def test_projection_outside_tube_rejected():
    s = TargetManifold.sphere(3)
    with pytest.raises(ValueError, match="tube"):
        s.project_nearest(np.array([2.0, 0.0, 0.0]))
    with pytest.raises(ValueError, match="dimension"):
        s.project_nearest(np.array([1.0, 0.0]))


def test_ellipsoid_projection_properties():
    e = TargetManifold.ellipsoid((1.5, 1.0, 0.8))
    rng = np.random.default_rng(3)
    for _ in range(20):
        y0 = unit(rng.standard_normal(3)) * e.semi_axes
        x = y0 + 0.05 * rng.standard_normal(3)
        y = e.project_nearest(x)
        assert float(e.defining_residual(y)) < 1e-10
        # optimality: the residual x - y must be parallel to the normal at y
        n = unit(y / e.semi_axes**2)
        r = x - y
        tang = r - np.dot(r, n) * n
        assert np.linalg.norm(tang) < 1e-8 * max(1.0, np.linalg.norm(r))
        # idempotent
        np.testing.assert_allclose(e.project_nearest(y), y, atol=1e-9)


def test_differential_of_projection_sphere():
    s = TargetManifold.sphere(3)
    x = np.array([0.0, 0.0, 1.2])
    v = np.array([1.0, -2.0, 0.5])
    d = s.differential_of_projection(x, v)
    np.testing.assert_allclose(d, np.array([1.0, -2.0, 0.0]) / 1.2, atol=1e-14)
    # matches a finite difference of the projection itself
    eps = 1e-6
    fd = (s.project_nearest(x + eps * v) - s.project_nearest(x - eps * v)) / (2 * eps)
    np.testing.assert_allclose(d, fd, atol=1e-8)


def test_differential_of_projection_on_manifold_is_projector():
    for t in (TargetManifold.sphere(3), TargetManifold.ellipsoid((1.2, 1.0, 0.9))):
        rng = np.random.default_rng(8)
        y = t.project_nearest(unit(rng.standard_normal(3)) * t.semi_axes * 1.0)
        P = t.tangent_projector(y)
        for _ in range(5):
            v = rng.standard_normal(3)
            np.testing.assert_allclose(
                t.differential_of_projection(y, v), P @ v, atol=1e-6
            )


@pytest.mark.parametrize(
    "target", [TargetManifold.sphere(3), TargetManifold.ellipsoid((1.5, 1.0, 0.8))]
)
def test_differential_of_projection_matches_central_difference(target):
    # oracle: central difference of project_nearest, off the manifold, for
    # single points and for stacked rows
    rng = np.random.default_rng(21)
    y = rng.standard_normal((12, 3))
    y = y / np.linalg.norm(y / target.semi_axes, axis=1, keepdims=True)
    x = y + 0.1 * target.tube_radius * rng.standard_normal((12, 3))
    v = rng.standard_normal((12, 3))
    eps = 1e-6
    fd = (target.project_nearest(x + eps * v) - target.project_nearest(x - eps * v)) / (2 * eps)
    np.testing.assert_allclose(target.differential_of_projection(x, v), fd, atol=1e-8)
    for i in range(3):
        np.testing.assert_allclose(target.differential_of_projection(x[i], v[i]), fd[i], atol=1e-8)
    with pytest.raises(ValueError, match="tube"):
        target.differential_of_projection(2.0 * x, v)


def scalar_projection(t, x):
    """Reference: per-row bracketed bisection on the Lagrange multiplier."""
    a2 = t.semi_axes**2

    def g(m):
        return float(np.sum(a2 * x**2 / (a2 + m) ** 2) - 1.0)

    lo, hi = -float(a2.min()), 1.0
    while g(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return a2 * x / (a2 + 0.5 * (lo + hi))


@pytest.mark.parametrize("axes", [(1.0, 1.0, 1.3), (1.5, 1.0, 0.8), (1.2, 0.9, 1.0, 1.1)])
def test_vectorized_projection_matches_scalar_reference(axes):
    e = TargetManifold.ellipsoid(axes)
    p = len(axes)
    rng = np.random.default_rng(31)
    y = rng.standard_normal((40, p))
    y = y / np.linalg.norm(y / e.semi_axes, axis=1, keepdims=True)
    x = y + rng.uniform(-0.9, 0.9, (40, 1)) * e.tube_radius * e.unit_normal(y)
    proj = e.project_nearest(x)
    ref = np.stack([scalar_projection(e, row) for row in x])
    # both solve the multiplier to rounding; 1e-12 leaves room for its conditioning
    np.testing.assert_allclose(proj, ref, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(e.project_nearest(x[7]), proj[7], rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("axes", [(1.0, 1.0, 1.3), (1.5, 1.0, 0.8), (1.0, 2.0), (1.0, 1.2, 0.9, 1.4)])
def test_ellipsoid_multiplier_stays_in_the_tube_bracket(axes):
    # rows 0.999 tube radii off the target, outside and inside: the
    # multiplier's root lies near the edge e of the tube check's bracket
    e = TargetManifold.ellipsoid(axes)
    rng = np.random.default_rng(28)
    y = rng.standard_normal((40, len(axes)))
    y = y / np.linalg.norm(y / e.semi_axes, axis=1, keepdims=True)
    a2 = e.semi_axes**2
    edge = e.tube_radius * e.semi_axes.max()
    for sign in (1.0, -1.0):
        x = y + sign * 0.999 * e.tube_radius * e.unit_normal(y)
        ax2 = a2 * x * x
        if axes == (1.0, 1.0, 1.3) and sign < 0.0:
            # every inner row's first Newton step from t = 0 overshoots -e,
            # so the solve below has to clip
            g0 = np.sum(ax2 / (a2 * a2), axis=-1) - 1.0
            assert np.all(g0 / (2.0 * np.sum(ax2 / a2**3, axis=-1)) < -edge)
        t = e._multiplier(ax2, edge)
        assert np.all((-edge <= t) & (t <= edge))
        s = a2 + t
        assert np.abs(np.sum(ax2 / (s * s), axis=-1) - 1.0).max() <= 1e-13
        # the solve stops once |g| <= 1e-13, which leaves t up to about
        # 1e-13 / |g'(t)| from the bisected root: 3.4e-14 in Pi at worst here
        ref = np.stack([scalar_projection(e, row) for row in x])
        np.testing.assert_allclose(e.project_nearest(x), ref, rtol=0.0, atol=1e-13)


def test_tangent_projector_algebra():
    e = TargetManifold.ellipsoid((1.5, 1.0, 0.8))
    y = e.project_nearest(np.array([1.2, 0.5, 0.3]))
    P = e.tangent_projector(y)
    np.testing.assert_allclose(P, P.T, atol=1e-14)
    np.testing.assert_allclose(P @ P, P, atol=1e-14)
    n = y / e.semi_axes**2
    np.testing.assert_allclose(P @ n, 0.0, atol=1e-14)
    assert abs(np.trace(P) - 2.0) < 1e-12


def tangent_curvature(t, y, X):
    """A_y(X_t, X_t) = -c n from the target's one curvature term."""
    c, n = t._tangent_curvature(np.asarray(y, dtype=float), np.asarray(X, dtype=float))
    return -c * n


def test_tangent_curvature_sphere():
    s = TargetManifold.sphere(3)
    y = unit(np.array([1.0, 1.0, 0.2]))
    P = s.tangent_projector(y)
    rng = np.random.default_rng(5)
    X = P @ rng.standard_normal(3)
    A = tangent_curvature(s, y, X)
    np.testing.assert_allclose(A, -np.dot(X, X) * y, atol=1e-14)
    # only the tangent part of X enters: a normal component changes nothing
    np.testing.assert_allclose(tangent_curvature(s, y, X + 0.7 * y), A, atol=1e-14)


def fd_second_fundamental_form(t, y, X, Y, eps=1e-6):
    """Oracle: normal part of the tangent projector field differenced along X."""
    eps = eps / np.linalg.norm(X)
    dP = (
        t.tangent_projector(t.project_nearest(y + eps * X))
        - t.tangent_projector(t.project_nearest(y - eps * X))
    ) / (2.0 * eps)
    return (np.eye(t.ambient_dim) - t.tangent_projector(y)) @ (dP @ Y)


def test_tangent_curvature_matches_differenced_projector_on_ellipsoid():
    # two routes: differencing the projector field vs the level-set formula;
    # polarization recovers the bilinear form A(X, Y) from the contraction
    e = TargetManifold.ellipsoid((1.4, 1.0, 0.7))
    rng = np.random.default_rng(12)
    for _ in range(10):
        y = e.project_nearest(unit(rng.standard_normal(3)) * e.semi_axes)
        P = e.tangent_projector(y)
        X = P @ rng.standard_normal(3)
        Y = P @ rng.standard_normal(3)
        tol = 2e-5 * max(1.0, np.dot(X, X), np.dot(Y, Y))
        np.testing.assert_allclose(
            tangent_curvature(e, y, X), fd_second_fundamental_form(e, y, X, X), atol=tol
        )
        polar = 0.25 * (tangent_curvature(e, y, X + Y) - tangent_curvature(e, y, X - Y))
        np.testing.assert_allclose(polar, fd_second_fundamental_form(e, y, X, Y), atol=tol)


def test_tangent_curvature_vectorized_and_normal():
    s = TargetManifold.sphere(3)
    rng = np.random.default_rng(7)
    y = rng.standard_normal((15, 3))
    y = y / np.linalg.norm(y, axis=1, keepdims=True)
    X = rng.standard_normal((15, 3))
    X = X - np.sum(X * y, axis=1, keepdims=True) * y
    c, n = s._tangent_curvature(y, X)
    assert np.array_equal(n, s.unit_normal(y))
    A = -c * n
    np.testing.assert_allclose(A, -np.sum(X * X, axis=1, keepdims=True) * y, atol=1e-13)
    # result is purely normal: projecting it to the tangent space kills it
    tang = A - np.sum(A * y, axis=1, keepdims=True) * y
    np.testing.assert_allclose(tang, 0.0, atol=1e-12)


def test_sphere_higher_ambient_dimension():
    s = TargetManifold.sphere(4)
    x = np.array([0.5, 0.5, 0.5, 0.8])
    y = s.project_nearest(x)
    assert abs(np.linalg.norm(y) - 1.0) < 1e-14
    P = s.tangent_projector(y)
    assert abs(np.trace(P) - 3.0) < 1e-12


def test_in_tube_sphere_and_ellipsoid():
    s = TargetManifold.sphere(3)
    assert s.in_tube(np.array([1.2, 0.0, 0.0]))
    assert not s.in_tube(np.array([1.6, 0.0, 0.0]))
    e = TargetManifold.ellipsoid((2.0, 1.0, 1.0))
    assert e.in_tube(np.array([2.1, 0.0, 0.0]))
    assert not e.in_tube(np.array([0.0, 0.0, 0.0]))


def test_ellipsoid_tube_check_is_the_exact_distance():
    # off along the normal, the distance to the target is the offset itself
    e = TargetManifold.ellipsoid((1.5, 1.0, 0.8))
    rng = np.random.default_rng(4)
    y = rng.standard_normal((40, 3))
    y = y / np.linalg.norm(y / e.semi_axes, axis=1, keepdims=True)
    normal = e.unit_normal(y)
    for sign in (1.0, -1.0):
        inside = y + sign * 0.9 * e.tube_radius * normal
        assert e.in_tube(inside)
        np.testing.assert_allclose(e.project_nearest(inside), y, atol=1e-12)
        for row in y + sign * 1.1 * e.tube_radius * normal:
            assert not e.in_tube(row)
            with pytest.raises(ValueError, match="tube"):
                e.project_nearest(row)
    # the centre, points on its axes far inside, and NaN fail by name
    for x in ([0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.3], [np.nan, 1.0, 0.0]):
        assert not e.in_tube(np.array(x))
        with pytest.raises(ValueError, match="tube"):
            e.project_nearest(np.array(x))


@pytest.mark.parametrize("dim", [3, 4])
def test_sphere_projection_divides_by_the_checked_radius(dim):
    # the radius of the tube check is the divisor: the same bits as dividing
    # by a freshly computed norm, for stacks and single points alike
    s = TargetManifold.sphere(dim)
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((50, dim))
    x = x / np.linalg.norm(x, axis=1, keepdims=True) * rng.uniform(0.55, 1.45, (50, 1))
    want = x / np.linalg.norm(x, axis=-1, keepdims=True)
    assert np.array_equal(s.project_nearest(x), want)
    assert np.array_equal(s.project_nearest(x[3]), want[3])
    v = rng.standard_normal((50, dim))
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    dpi = (v - np.sum(v * want, axis=-1, keepdims=True) * want) / r
    assert np.array_equal(s.differential_of_projection(x, v), dpi)
    # the centre, NaN and points outside the tube still fail by name
    e0 = np.eye(dim)[0]
    for bad in (0.0 * e0, np.full(dim, np.nan), 1.6 * e0, 0.4 * e0):
        assert not s.in_tube(bad)
        with pytest.raises(ValueError, match="tube"):
            s.project_nearest(bad)
        with pytest.raises(ValueError, match="tube"):
            s.project_nearest(np.vstack([x[:4], bad]))


@pytest.mark.parametrize("dim, tube_radius", [(3, 0.5), (4, 0.25)])
def test_sphere_tube_edge_and_nonfinite_rows(dim, tube_radius):
    # ||x| - 1| < tube_radius decides: rows just inside the edge project,
    # rows just outside it, the centre, NaN and +-inf fail by name, whether
    # alone or inside a stack of good rows
    s = TargetManifold.sphere(dim, tube_radius=tube_radius)
    rng = np.random.default_rng(11 * dim)
    d = rng.standard_normal((6, dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    inside = np.vstack([(1.0 + sign * 0.999 * tube_radius) * d for sign in (1.0, -1.0)])
    want = inside / np.linalg.norm(inside, axis=1, keepdims=True)
    assert s.in_tube(inside)
    assert np.array_equal(s.project_nearest(inside), want)
    for row, y in zip(inside, want):
        assert np.array_equal(s.project_nearest(row), y)
    bad = [(1.0 + sign * 1.001 * tube_radius) * d[0] for sign in (1.0, -1.0)]
    bad += [np.zeros(dim), np.full(dim, np.nan)]
    bad += [np.r_[inf, np.zeros(dim - 1)] for inf in (np.inf, -np.inf)]
    for row in bad:
        assert not s.in_tube(row)
        assert not s.in_tube(np.vstack([inside, row]))
        with pytest.raises(ValueError, match="tube"):
            s.project_nearest(row)
        with pytest.raises(ValueError, match="tube"):
            s.project_nearest(np.vstack([inside[:3], row, inside[3:]]))
