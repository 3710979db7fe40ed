import numpy as np
import pytest

from loopflow.bundles import (
    build_pullback_bundle,
    bundle_gradient,
    chart_decode,
    chart_encode,
    l2_inner,
    l2_norm,
    project_section,
    section,
    sobolev_norms,
    zero_section,
)
from loopflow.lojasiewicz import make_cloud
from loopflow.mesh import build_circle_mesh
from loopflow.targets import TargetManifold
from loopflow.variational import map_state


def great_circle_bundle(n=32, target=None):
    mesh = build_circle_mesh(n)
    t = target if target is not None else TargetManifold.sphere(3)
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    if t.kind == "ellipsoid":
        base = base * t.semi_axes[None, :]
    return build_pullback_bundle(mesh, t, base)


def test_build_bundle_shapes_and_projectors():
    b = great_circle_bundle(24)
    assert b.base_map.shape == (24, 3)
    assert b.projectors.shape == (24, 3, 3)
    # each projector kills the base point and keeps rank 2
    for i in range(0, 24, 7):
        np.testing.assert_allclose(b.projectors[i] @ b.base_map[i], 0.0, atol=1e-13)
        assert abs(np.trace(b.projectors[i]) - 2.0) < 1e-12


@pytest.mark.parametrize(
    "target",
    [TargetManifold.sphere(3), TargetManifold.ellipsoid((1.0, 1.0, 1.3)), TargetManifold.sphere(4)],
    ids=["s2", "ellipsoid", "s3"],
)
def test_fiber_frames_orthonormal_and_vertical_first(target):
    mesh = build_circle_mesh(32)
    p = target.ambient_dim
    th = mesh.node_angles
    base = np.zeros((32, p))
    base[:, 0] = target.semi_axes[0] * np.cos(th)
    base[:, 1] = target.semi_axes[1] * np.sin(th)
    b = build_pullback_bundle(mesh, target, base)
    frames = b.frames
    assert frames.shape == (32, p, p - 1)
    assert not frames.flags.writeable
    for F, P in zip(frames, b.projectors):
        np.testing.assert_allclose(F.T @ F, np.eye(p - 1), atol=1e-12)
        # columns reproduce the fiber projector, so they span the fiber
        np.testing.assert_allclose(F @ F.T, P, atol=1e-12)
    # away from the two axis nodes e3 has the largest projected norm (tied
    # with e4 on S^3, where argmax takes the first), so the greedy sweep
    # takes it first there
    np.testing.assert_allclose(np.abs(frames[5][:, 0]), np.eye(p)[2], atol=1e-12)


def test_build_bundle_rejects_off_manifold_base():
    mesh = build_circle_mesh(16)
    base = np.ones((16, 3))
    with pytest.raises(ValueError, match="base map"):
        build_pullback_bundle(mesh, TargetManifold.sphere(3), base)


def test_section_fiber_constraint():
    b = great_circle_bundle(16)
    th = b.mesh.node_angles
    tangent = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=1)
    s = section(b, 0.3 * tangent)
    np.testing.assert_allclose(s.values, 0.3 * tangent)
    with pytest.raises(ValueError, match="leave the fibers"):
        section(b, b.base_map)  # radial field is normal, not tangent


def test_project_section_is_fiberwise_projection():
    b = great_circle_bundle(16)
    rng = np.random.default_rng(6)
    raw = rng.standard_normal((16, 3))
    s = project_section(b, raw)
    expected = np.einsum("nij,nj->ni", b.projectors, raw)
    np.testing.assert_allclose(s.values, expected)
    # projecting twice changes nothing
    np.testing.assert_allclose(project_section(b, s.values).values, s.values)


def test_zero_section_and_l2():
    b = great_circle_bundle(20)
    z = zero_section(b)
    assert l2_norm(z) == 0.0
    th = b.mesh.node_angles
    tangent = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=1)
    s = section(b, tangent)
    # |tangent| = 1 at every node, so the L2 norm squared is 2 pi
    assert abs(l2_norm(s) ** 2 - 2.0 * np.pi) < 1e-12
    e3 = np.zeros_like(tangent)
    e3[:, 2] = np.sin(th)
    s2 = section(b, e3)
    assert abs(l2_inner(s, s2)) < 1e-12


def test_bundle_gradient_of_vertical_wave():
    # v = sin(m theta) e3 has covariant derivative m cos(m theta) e3 up to
    # the discrete symbol, since e3 is parallel along the equator
    b = great_circle_bundle(64)
    th = b.mesh.node_angles
    m = 2
    v = np.zeros((64, 3))
    v[:, 2] = np.sin(m * th)
    g = bundle_gradient(b, section(b, v))
    m_eff = np.sin(m * b.mesh.spacing) / b.mesh.spacing
    expected = np.zeros_like(v)
    expected[:, 2] = m_eff * np.cos(m * th)
    np.testing.assert_allclose(g, expected, atol=1e-12)


def test_sobolev_norm_ordering_and_values():
    b = great_circle_bundle(48)
    th = b.mesh.node_angles
    v = np.zeros((48, 3))
    v[:, 2] = np.cos(3 * th)
    l2, w12, w22 = sobolev_norms(section(b, v))
    assert l2 <= w12 <= w22
    # the wave is an exact eigenvector of both stencils, so the discrete
    # symbols give the norms in closed form
    h = b.mesh.spacing
    s = np.sin(3 * h) / h
    mu = (2.0 * np.cos(3 * h) - 2.0) / h**2
    assert abs(l2 - np.sqrt(np.pi)) < 1e-12
    assert abs(w12 - np.sqrt(np.pi * (1 + s**2))) < 1e-12
    assert abs(w22 - np.sqrt(np.pi * (1 + s**2 + mu**2))) < 1e-12
    # and the continuum limit pi (1 + 9 + 81) is approached from below
    assert w22 < np.sqrt(91 * np.pi)
    assert abs(w22 - np.sqrt(91 * np.pi)) < 0.5


def test_chart_round_trip_sphere():
    b = great_circle_bundle(32)
    rng = np.random.default_rng(44)
    raw = 0.1 * rng.standard_normal((32, 3))
    s = project_section(b, raw)
    loop = chart_decode(b, s)
    b.target.require_on_manifold(loop)
    back = chart_encode(b, loop)
    np.testing.assert_allclose(back.values, s.values, atol=1e-9)


def test_chart_round_trip_ellipsoid():
    t = TargetManifold.ellipsoid((1.3, 1.0, 0.8))
    b = great_circle_bundle(24, target=t)
    rng = np.random.default_rng(15)
    s = project_section(b, 0.05 * rng.standard_normal((24, 3)))
    loop = chart_decode(b, s)
    t.require_on_manifold(loop, tol=1e-8)
    back = chart_encode(b, loop)
    np.testing.assert_allclose(back.values, s.values, atol=1e-8)


def test_chart_decode_rejects_large_sections():
    b = great_circle_bundle(16)
    th = b.mesh.node_angles
    big = np.stack([-np.sin(th), np.cos(th), np.zeros_like(th)], axis=1)
    with pytest.raises(ValueError, match="chart tube"):
        chart_decode(b, section(b, 0.6 * big))


def test_chart_encode_rejects_far_loops():
    b = great_circle_bundle(16)
    # antipodal loop has alignment -1 with the base
    with pytest.raises(ValueError, match="chart"):
        chart_encode(b, -b.base_map)


def test_chart_decode_zero_is_base():
    b = great_circle_bundle(16)
    np.testing.assert_allclose(chart_decode(b, zero_section(b)), b.base_map)


def test_section_shape_mismatch():
    b = great_circle_bundle(16)
    with pytest.raises(ValueError, match="shape"):
        section(b, np.zeros((17, 3)))
    with pytest.raises(ValueError, match="shape"):
        project_section(b, np.zeros((16, 2)))


def _nan_map_state(b):
    vals = b.base_map.copy()
    vals[3, 0] = np.nan
    map_state(b.mesh, b.target, vals)


def _nan_bundle(b):
    base = b.base_map.copy()
    base[5, 2] = np.nan
    build_pullback_bundle(b.mesh, b.target, base)


def _nan_values(b):
    vals = np.zeros_like(b.base_map)
    vals[2, 2] = np.nan
    return vals


@pytest.mark.parametrize(
    "entry",
    [
        _nan_map_state,
        _nan_bundle,
        lambda b: section(b, _nan_values(b)),
        lambda b: project_section(b, _nan_values(b)),
        lambda b: make_cloud([1e-3, np.nan], [1e-2, 1e-1], "nan gap"),
        lambda b: make_cloud([1e-3, 1e-2], [np.inf, 1e-1], "inf gradient"),
    ],
    ids=["map_state", "build_pullback_bundle", "section", "project_section", "make_cloud_nan", "make_cloud_inf"],
)
def test_non_finite_input_is_rejected(entry):
    with pytest.raises(ValueError):
        entry(great_circle_bundle(16))
