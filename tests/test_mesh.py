import numpy as np
import pytest

from loopflow.bundles import build_pullback_bundle, l2_inner, l2_norm, project_section, sobolev_norms
from loopflow.mesh import (
    _sq_norm,
    build_circle_mesh,
    differentiate,
    forward_difference,
    integrate,
    laplace_beltrami,
)
from loopflow.targets import TargetManifold


def backward_difference(mesh, f):
    """(f_i - f_{i-1}) / h, the forward difference shifted by one node."""
    return np.roll(forward_difference(mesh, f), 1, axis=0)


def test_build_circle_mesh_layout():
    mesh = build_circle_mesh(16)
    assert mesh.n_nodes == 16
    assert mesh.diff_order == 2
    h = 2.0 * np.pi / 16
    assert abs(mesh.spacing - h) < 1e-15
    np.testing.assert_allclose(mesh.node_angles, h * np.arange(16))
    np.testing.assert_allclose(mesh.quad_weights, np.full(16, h))


def test_build_circle_mesh_rejects_bad_input():
    with pytest.raises(ValueError, match="n_nodes"):
        build_circle_mesh(7)
    with pytest.raises(ValueError, match="diff_order"):
        build_circle_mesh(32, diff_order=3)
    with pytest.raises(ValueError, match="n_nodes"):
        build_circle_mesh(12.5)


def test_differentiate_symbol_exact():
    # the centered stencil maps cos(k theta) to -k_eff sin(k theta) with
    # k_eff = sin(kh)/h, which is the exact discrete symbol
    mesh = build_circle_mesh(64)
    th = mesh.node_angles
    k = 3
    d = differentiate(mesh, np.cos(k * th))
    k_eff = np.sin(k * mesh.spacing) / mesh.spacing
    np.testing.assert_allclose(d, -k_eff * np.sin(k * th), atol=1e-12)


def test_differentiate_convergence_order():
    k = 2
    errs = {}
    for order in (2, 4):
        for n in (32, 64):
            mesh = build_circle_mesh(n, diff_order=order)
            th = mesh.node_angles
            d = differentiate(mesh, np.sin(k * th))
            errs[(order, n)] = np.max(np.abs(d - k * np.cos(k * th)))
        rate = np.log2(errs[(order, 32)] / errs[(order, 64)])
        assert rate > order - 0.1


def test_laplacian_symbol_order2():
    mesh = build_circle_mesh(48)
    th = mesh.node_angles
    k = 4
    f = np.cos(k * th)
    lap = laplace_beltrami(mesh, f)
    h = mesh.spacing
    mu = (2.0 * np.cos(k * h) - 2.0) / h**2
    np.testing.assert_allclose(lap, mu * f, atol=1e-11)


def test_laplacian_order4_more_accurate():
    k = 3
    mesh2 = build_circle_mesh(64, diff_order=2)
    mesh4 = build_circle_mesh(64, diff_order=4)
    th = mesh2.node_angles
    f = np.sin(k * th)
    err2 = np.max(np.abs(laplace_beltrami(mesh2, f) + k * k * f))
    err4 = np.max(np.abs(laplace_beltrami(mesh4, f) + k * k * f))
    assert err4 < err2 / 50.0


def test_central_difference_antisymmetric():
    # sum_i w_i (Df)_i g_i = -sum_i w_i f_i (Dg)_i on a periodic mesh
    mesh = build_circle_mesh(32)
    rng = np.random.default_rng(4)
    f = rng.standard_normal(32)
    g = rng.standard_normal(32)
    lhs = integrate(mesh, differentiate(mesh, f) * g)
    rhs = -integrate(mesh, f * differentiate(mesh, g))
    assert abs(lhs - rhs) < 1e-12


def test_forward_backward_adjoint():
    mesh = build_circle_mesh(40)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(40)
    g = rng.standard_normal(40)
    lhs = integrate(mesh, forward_difference(mesh, f) * g)
    rhs = -integrate(mesh, f * backward_difference(mesh, g))
    assert abs(lhs - rhs) < 1e-12


def test_backward_of_forward_is_compact_laplacian():
    mesh = build_circle_mesh(24)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(24)
    np.testing.assert_allclose(
        backward_difference(mesh, forward_difference(mesh, f)),
        laplace_beltrami(mesh, f),
        atol=1e-11,
    )


def test_integrate_constants_and_waves():
    mesh = build_circle_mesh(30)
    assert abs(integrate(mesh, np.ones(30)) - 2.0 * np.pi) < 1e-13
    # pure waves integrate to zero exactly on the periodic grid
    th = mesh.node_angles
    assert abs(integrate(mesh, np.cos(3 * th))) < 1e-13


def test_sq_norm_integrates_the_rows_squared_lengths():
    mesh = build_circle_mesh(24)
    f = np.random.default_rng(3).standard_normal((24, 3))
    assert _sq_norm(mesh, f) == integrate(mesh, np.sum(f * f, axis=1))
    # a unit-speed great circle: |u|^2 = 1 at every node, so 2 pi
    th = mesh.node_angles
    assert abs(_sq_norm(mesh, np.stack([np.cos(th), np.sin(th), 0 * th], axis=1)) - 2.0 * np.pi) < 1e-13
    with pytest.raises(ValueError, match="leading dimension 23"):
        _sq_norm(mesh, f[:-1])
    # sections' norms are the same quadrature, bit for bit
    targets = (TargetManifold.sphere(3), TargetManifold.sphere(4), TargetManifold.ellipsoid((1.0, 1.0, 1.3)))
    for target in targets:
        base = np.zeros((24, target.ambient_dim))
        base[:, 0], base[:, 1] = target.semi_axes[0] * np.cos(th), target.semi_axes[1] * np.sin(th)
        bundle = build_pullback_bundle(mesh, target, base)
        sec = project_section(bundle, np.random.default_rng(4).standard_normal(base.shape))
        assert l2_inner(sec, sec) == _sq_norm(mesh, sec.values)
        assert sobolev_norms(sec)[0] == l2_norm(sec)


def test_differentiate_vector_fields_componentwise():
    mesh = build_circle_mesh(36)
    th = mesh.node_angles
    field = np.stack([np.cos(th), np.sin(2 * th), th * 0 + 1.0], axis=1)
    d = differentiate(mesh, field)
    assert d.shape == (36, 3)
    np.testing.assert_allclose(d[:, 2], 0.0, atol=1e-13)


def test_field_shape_mismatch_rejected():
    mesh = build_circle_mesh(16)
    with pytest.raises(ValueError, match="leading dimension"):
        differentiate(mesh, np.zeros(17))
    with pytest.raises(ValueError, match="scalar"):
        integrate(mesh, np.zeros((16, 2)))


def test_stencils_commute_with_rotation():
    mesh = build_circle_mesh(32)
    rng = np.random.default_rng(9)
    f = rng.standard_normal(32)
    for op in (differentiate, laplace_beltrami, forward_difference):
        np.testing.assert_allclose(
            op(mesh, np.roll(f, 5)), np.roll(op(mesh, f), 5), atol=1e-12
        )


def rolled_stencils(mesh, f):
    """differentiate, laplace_beltrami and forward_difference written with
    np.roll, term for term as the circulant stencils were first written."""
    h = mesh.spacing
    fp = np.roll(f, -1, axis=0)
    fm = np.roll(f, 1, axis=0)
    forward = (fp - f) / h
    if mesh.diff_order == 2:
        return (fp - fm) / (2.0 * h), (fp - 2.0 * f + fm) / (h * h), forward
    fpp = np.roll(f, -2, axis=0)
    fmm = np.roll(f, 2, axis=0)
    first = (-fpp + 8.0 * fp - 8.0 * fm + fmm) / (12.0 * h)
    second = (-fpp + 16.0 * fp - 30.0 * f + 16.0 * fm - fmm) / (12.0 * h * h)
    return first, second, forward


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [8, 9, 24, 33])
def test_gathered_stencils_equal_rolled_stencils(order, n):
    mesh = build_circle_mesh(n, diff_order=order)
    rng = np.random.default_rng(100 * n + order)
    # scalars, map values and the (n, 3, 3) shape of bundle projectors
    for shape in ((n,), (n, 3), (n, 3, 3)):
        f = rng.standard_normal(shape)
        first, second, forward = rolled_stencils(mesh, f)
        assert np.array_equal(differentiate(mesh, f), first)
        assert np.array_equal(laplace_beltrami(mesh, f), second)
        assert np.array_equal(forward_difference(mesh, f), forward)
