"""Property tests of the target geometry on spheres and ellipsoids."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from loopflow.bundles import build_pullback_bundle, chart_decode, chart_encode, project_section
from loopflow.mesh import build_circle_mesh
from loopflow.targets import TargetManifold

given = hypothesis.given
settings = hypothesis.settings(max_examples=60, deadline=None)

# Semi-axes within a factor 1.5 of each other keep the default tube
# (a quarter of the smallest axis) inside the reach a_min^2 / a_max.
targets = st.one_of(
    st.just(TargetManifold.sphere(3)),
    st.lists(st.floats(0.9, 1.35), min_size=3, max_size=3).map(TargetManifold.ellipsoid),
)
vectors = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).map(np.array)
directions = vectors.filter(lambda v: np.linalg.norm(v) > 1e-3)


def on_target(t, d):
    """The point of the target on the ray through d."""
    return d / np.linalg.norm(d / t.semi_axes)


def near_target(t, d, offset):
    """A point at most half the tube radius off the target."""
    y = on_target(t, d)
    return y + 0.5 * t.tube_radius * offset / max(1.0, np.linalg.norm(offset))


@settings
@given(targets, directions, vectors)
def test_projection_is_idempotent(t, d, offset):
    y = t.project_nearest(near_target(t, d, offset))
    assert t.defining_residual(y) < 1e-12
    np.testing.assert_allclose(t.project_nearest(y), y, atol=1e-13)


@settings
@given(targets, directions, vectors, vectors, vectors)
def test_differential_is_symmetric(t, d, offset, u, v):
    x = near_target(t, d, offset)
    lhs = np.dot(t.differential_of_projection(x, u), v)
    rhs = np.dot(u, t.differential_of_projection(x, v))
    assert abs(lhs - rhs) < 1e-12


@settings
@given(targets, directions, vectors)
def test_differential_on_manifold_is_tangent_projector(t, d, v):
    y = on_target(t, d)
    np.testing.assert_allclose(
        t.differential_of_projection(y, v), t.tangent_projector(y) @ v, atol=1e-12
    )


@settings
@given(targets, st.integers(0, 2**32 - 1), st.floats(0.001, 0.05))
def test_chart_round_trip(t, seed, amplitude):
    mesh = build_circle_mesh(16)
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1) * t.semi_axes
    bundle = build_pullback_bundle(mesh, t, base)
    raw = np.random.default_rng(seed).uniform(-1.0, 1.0, (16, 3))
    sec = project_section(bundle, amplitude * raw)
    back = chart_encode(bundle, chart_decode(bundle, sec))
    np.testing.assert_allclose(back.values, sec.values, atol=1e-10)
