"""Property tests: the target geometry on spheres and ellipsoids, the
exact discrete symmetries of the energy and the tension field, the
Newton inverse of the reduction map, and the config's named errors."""

import json
from dataclasses import fields

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from loopflow.bundles import (
    build_pullback_bundle,
    chart_decode,
    chart_encode,
    l2_norm,
    project_section,
    section,
)
from loopflow.config import RunConfig, _PolynomialEntry, parse_config
from loopflow.mesh import build_circle_mesh
from loopflow.reduction import _random_fiber_field, apply_N, build_reduction_workspace, invert_N
from loopflow.targets import TargetManifold
from loopflow.variational import (
    MapState,
    energy,
    energy_functional_on_bundle,
    tension_field,
)

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


# -- symmetries of the discrete energy on S^2 ---------------------------------

loops = st.tuples(st.integers(8, 40), st.integers(0, 2**32 - 1), st.floats(0.0, 0.4))
quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda v: np.linalg.norm(v) > 0.1
)


def sphere_loop(spec):
    """A smooth loop on S^2: a great circle plus a few seeded modes."""
    n, seed, amplitude = spec
    mesh = build_circle_mesh(n)
    th = mesh.node_angles
    rng = np.random.default_rng(seed)
    x = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    for m in range(1, 4):
        coef = rng.uniform(-1.0, 1.0, size=(2, 3))
        x += amplitude * (np.outer(np.cos(m * th), coef[0]) + np.outer(np.sin(m * th), coef[1]))
    return MapState(mesh, TargetManifold.sphere(3), x / np.linalg.norm(x, axis=1, keepdims=True))


def rotation(quaternion):
    w, x, y, z = np.asarray(quaternion) / np.linalg.norm(quaternion)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def assert_symmetric_image(state, moved_values, act):
    """Energy unchanged and tension equivariant when the loop moves by act."""
    moved = MapState(state.mesh, state.target, moved_values)
    e = energy(state)
    assert abs(energy(moved) - e) <= 1e-12 * max(1.0, e)
    tension = tension_field(state)
    scale = max(1.0, float(np.max(np.abs(tension))))
    np.testing.assert_allclose(tension_field(moved), act(tension), rtol=0.0, atol=1e-12 * scale)


@settings
@given(loops, quaternions)
def test_energy_and_tension_are_rotation_invariant(spec, quaternion):
    state = sphere_loop(spec)
    R = rotation(quaternion)
    assert_symmetric_image(state, state.values @ R.T, lambda f: f @ R.T)


@settings
@given(loops, st.integers(0, 1000))
def test_energy_and_tension_commute_with_cyclic_shift(spec, shift):
    state = sphere_loop(spec)
    k = shift % state.mesh.n_nodes
    assert_symmetric_image(state, np.roll(state.values, k, axis=0), lambda f: np.roll(f, k, axis=0))


@settings
@given(loops)
def test_energy_and_tension_commute_with_reflection(spec):
    state = sphere_loop(spec)
    flip = (-np.arange(state.mesh.n_nodes)) % state.mesh.n_nodes
    assert_symmetric_image(state, state.values[flip], lambda f: f[flip])


# -- the reduction map ------------------------------------------------------

@pytest.fixture(scope="module")
def small_workspace():
    mesh = build_circle_mesh(16)
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    bundle = build_pullback_bundle(mesh, TargetManifold.sphere(3), base)
    return build_reduction_workspace(bundle, energy_functional_on_bundle(bundle))


@hypothesis.settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.001, 0.05))
def test_N_of_invert_N_is_identity(small_workspace, seed, amplitude):
    ws = small_workspace
    field = _random_fiber_field(ws.bundle, np.random.default_rng(seed))
    f = section(ws.bundle, amplitude * field.values / l2_norm(field))
    back = apply_N(ws, invert_N(ws, f))
    assert l2_norm(section(ws.bundle, back.values - f.values)) < 1e-9


# -- config keys ------------------------------------------------------------

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
config_settings = hypothesis.settings(max_examples=25, deadline=None)


def parses_or_names(doc, path):
    """parse_config accepts doc or raises a ValueError that names path."""
    try:
        parse_config(json.dumps(doc))
    except ValueError as exc:
        assert path in str(exc), str(exc)


@pytest.mark.parametrize(
    "section, key", [(s.name, k.name) for s in fields(RunConfig) for k in fields(s.type)]
)
@config_settings
@given(value=json_values)
def test_any_section_value_parses_or_fails_naming_its_section(section, key, value):
    parses_or_names({section: {key: value}}, f"{section}.")


@pytest.mark.parametrize("key", [k.name for k in fields(_PolynomialEntry)])
@config_settings
@given(value=json_values)
def test_any_polynomial_entry_value_parses_or_fails_naming_its_entry(key, value):
    entry = {"label": "x^2", "terms": [[[2], 1.0]], "check": "gradient", "radii": [0.1], key: value}
    parses_or_names({"finite_verify": {"polynomials": [entry]}}, "finite_verify.polynomials[0]")
