import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from loopflow import flow as flow_module
from loopflow.cli import make_initial_map
from loopflow.config import parse_config
from loopflow.flow import (
    FlowConfig,
    FlowTrace,
    finite_dim_flow,
    fit_convergence_rate,
    flow_step,
    run_flow,
)
from loopflow.mesh import build_circle_mesh, differentiate, integrate
from loopflow.polynomials import polynomial
from loopflow.targets import TargetManifold, _tangent_part
from loopflow.variational import MapState, energy, map_state, tangential_tension, tension_field


INTEGRATOR_MESSAGE = "integrator must be one of ('projected_euler', 'projected_rk4')"


def perturbed_equator(n, amplitude=0.05):
    mesh = build_circle_mesh(n)
    target = TargetManifold.sphere(3)
    th = mesh.node_angles
    base = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    bump = amplitude * (np.cos(th) + 0.3 * np.cos(2.0 * th))
    values = base + np.stack([np.zeros_like(th), np.zeros_like(th), bump], axis=1)
    return MapState(mesh, target, target.project_nearest(values))


@pytest.fixture(scope="module")
def settled_flow():
    config = FlowConfig(dt_factor=0.2, t_max=40.0, stop_grad_tol=1e-8)
    return run_flow(perturbed_equator(32), config)


def test_config_validation():
    with pytest.raises(ValueError):
        FlowConfig(dt_factor=0.0)
    with pytest.raises(ValueError):
        FlowConfig(dt_factor=0.6)
    with pytest.raises(ValueError):
        FlowConfig(t_max=-1.0)
    for t_max in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            FlowConfig(t_max=t_max)
    for tol in (float("nan"), float("inf"), -1e-8):
        with pytest.raises(ValueError, match="stop_grad_tol must be finite and nonnegative"):
            FlowConfig(stop_grad_tol=tol)
    FlowConfig(stop_grad_tol=0.0)
    with pytest.raises(ValueError, match=re.escape(INTEGRATOR_MESSAGE)):
        FlowConfig(integrator="leapfrog")


def test_step_respects_stability_bound():
    state = perturbed_equator(32)
    h = state.mesh.spacing
    with pytest.raises(ValueError, match="stability"):
        flow_step(state, 0.6 * h * h)
    with pytest.raises(ValueError, match=re.escape(INTEGRATOR_MESSAGE)):
        flow_step(state, 0.1 * h * h, integrator="leapfrog")


def test_step_rejects_a_dt_that_is_not_positive_and_finite():
    # a negative dt used to run a backward step that raised the energy,
    # zero to return a re-projected copy, and NaN to fail on the tube check
    state = make_initial_map(parse_config('{"domain": {"n_nodes": 16}}'), 7)
    h = state.mesh.spacing
    for dt in (-0.2 * h * h, 0.0, float("nan")):
        for integrator in ("projected_euler", "projected_rk4"):
            with pytest.raises(ValueError, match="dt must be positive and finite"):
                flow_step(state, dt, integrator)


def test_order_four_euler_stability_bound():
    # the order-4 Laplacian reaches 16/(3 h^2), so forward Euler needs
    # dt <= 0.375 h^2; RK4's longer interval keeps the 0.5 h^2 cap
    state = perturbed_equator(32)
    mesh = build_circle_mesh(32, diff_order=4)
    state = MapState(mesh, state.target, state.values)
    h = mesh.spacing
    with pytest.raises(ValueError, match="stability"):
        flow_step(state, 0.45 * h * h, integrator="projected_euler")
    with pytest.raises(ValueError, match="stability"):
        run_flow(state, FlowConfig(dt_factor=0.45, t_max=0.1, integrator="projected_euler"))
    flow_step(state, 0.37 * h * h, integrator="projected_euler")
    flow_step(state, 0.45 * h * h, integrator="projected_rk4")


def test_a_step_that_raises_the_energy_fails_by_name(monkeypatch):
    # order-4 forward Euler at dt_factor 0.45 is past its bound 0.375 h^2.
    # With that check off the energy climbs on 37 steps, the first at step
    # 95 and by up to 0.94 E(0), yet the run used to stop on tolerance and
    # report a rate for a trajectory that is not a gradient flow
    monkeypatch.setattr(flow_module, "_check_stable", lambda mesh, dt, integrator: None)
    state = make_initial_map(parse_config('{"domain": {"n_nodes": 64, "diff_order": 4}}'), 7)
    config = FlowConfig(dt_factor=0.45, integrator="projected_euler")
    message = r"energy rose on step 95 of projected_euler at dt = 4\.337e-03, from 6\.283557688590632 to 6\.28355871"
    with pytest.raises(RuntimeError, match=message):
        run_flow(state, config)


def test_step_decreases_energy_both_integrators():
    state = perturbed_equator(32)
    h = state.mesh.spacing
    e0 = energy(state)
    for integrator in ("projected_euler", "projected_rk4"):
        stepped = flow_step(state, 0.2 * h * h, integrator=integrator)
        assert energy(stepped) < e0
        # stages project back, so the new map sits on the sphere
        assert np.max(np.abs(np.linalg.norm(stepped.values, axis=1) - 1.0)) < 1e-12


def test_flow_dissipates_and_stops_on_tolerance(settled_flow):
    trace = settled_flow
    assert trace.config_echo["stopped_on_tolerance"]
    assert trace.grad_norms[-1] < 1e-8
    assert np.all(np.diff(trace.energies) <= 1e-12)
    assert len(trace.times) == trace.config_echo["n_steps"] + 1
    assert trace.times[-1] < 40.0


def test_flow_collapses_saddle_to_point(settled_flow):
    # The perturbed great circle is unstable; the flow escapes to a
    # constant map, so the terminal energy is near zero and the limit is
    # a single point on the sphere.
    trace = settled_flow
    assert trace.energies[0] > 6.0
    assert trace.energies[-1] < 1e-8
    assert trace.dist_to_limit[0] > 1.0
    assert trace.dist_to_limit[-1] == 0.0
    drops = np.diff(trace.dist_to_limit[trace.dist_to_limit > 0.0])
    assert np.mean(drops <= 0.0) > 0.95


def test_flow_tail_is_exponential(settled_flow):
    report = fit_convergence_rate(settled_flow)
    assert report["preferred"] == "exponential"
    assert abs(report["exponential"]["rate"] - 2.0) < 0.05
    assert report["exponential"]["r_squared"] > 0.999


def test_flow_replay_is_deterministic():
    config = FlowConfig(dt_factor=0.25, t_max=0.5)
    a = run_flow(perturbed_equator(16), config)
    b = run_flow(perturbed_equator(16), config)
    assert np.array_equal(a.energies, b.energies)
    assert np.array_equal(a.grad_norms, b.grad_norms)
    assert np.array_equal(a.dist_to_limit, b.dist_to_limit)


def test_flow_without_distance_fill():
    config = FlowConfig(dt_factor=0.25, t_max=0.5)
    trace = run_flow(perturbed_equator(16), config, distance_stride=None)
    assert not trace.config_echo["stopped_on_tolerance"]
    assert np.all(np.isnan(trace.dist_to_limit))


def test_flow_echo_is_the_whole_config_and_the_run():
    config = FlowConfig(dt_factor=0.25, t_max=0.5, stop_grad_tol=1e-3, integrator="projected_euler")
    initial = perturbed_equator(16)
    trace = run_flow(initial, config)
    given = {f.name: getattr(config, f.name) for f in dataclasses.fields(FlowConfig)}
    h = initial.mesh.spacing
    run = {"dt": 0.25 * h * h, "n_steps": len(trace.times) - 1, "stopped_on_tolerance": False}
    assert trace.config_echo == {**given, **run}


def perturbed_ellipsoid(n):
    config = parse_config(
        '{"domain": {"n_nodes": %d}, "target": {"kind": "ellipsoid", '
        '"ambient_dim": 3, "semi_axes": [1.0, 1.0, 1.3]}}' % n
    )
    return make_initial_map(config, seed=7)


def replayed_trace(initial, config, n_steps):
    """Records of n_steps public flow_step calls, distances to the last."""
    mesh = initial.mesh
    dt = config.dt_factor * mesh.spacing**2
    states = [initial]
    for _ in range(n_steps):
        states.append(flow_step(states[-1], dt, config.integrator))
    final = states[-1].values

    def norm(field):
        return float(np.sqrt(integrate(mesh, np.sum(field * field, axis=1))))

    energies = np.array([energy(s) for s in states])
    grads = np.array([norm(tangential_tension(s)) for s in states])
    dists = np.array([norm(s.values - final) for s in states])
    return energies, grads, dists


ONE_PASS_CASES = [
    (perturbed_equator, 16, "projected_rk4"),
    (perturbed_equator, 16, "projected_euler"),
    (perturbed_ellipsoid, 8, "projected_rk4"),
]


@pytest.mark.parametrize("make_map, n, integrator", ONE_PASS_CASES)
def test_one_pass_flow_matches_replayed_steps(make_map, n, integrator):
    initial = make_map(n)
    config = FlowConfig(dt_factor=0.2, t_max=2.0, integrator=integrator)
    trace = run_flow(initial, config)
    n_steps = trace.config_echo["n_steps"]
    assert n_steps >= 16
    energies, grads, dists = replayed_trace(initial, config, n_steps)
    assert np.array_equal(trace.energies, energies)
    assert np.array_equal(trace.grad_norms, grads)
    assert np.array_equal(trace.dist_to_limit, dists)

    strided = run_flow(initial, config, distance_stride=7)
    recorded = np.zeros(n_steps + 1, dtype=bool)
    recorded[::7] = True
    recorded[-1] = True
    assert np.array_equal(strided.dist_to_limit[recorded], dists[recorded])
    assert np.all(np.isnan(strided.dist_to_limit[~recorded]))


@pytest.mark.parametrize("integrator, per_step", [("projected_rk4", 4), ("projected_euler", 1)])
def test_flow_evaluates_tension_once_per_stage(monkeypatch, integrator, per_step):
    # the recorded step and every later stage evaluate the tension through
    # the one function the run binds, and each stage projects once
    tensions, projections = [], []
    bind = flow_module._bind_tension

    def counted_bind(mesh, target):
        tension = bind(mesh, target)

        def counted(values):
            tensions.append(1)
            return tension(values)

        return counted

    initial = perturbed_equator(16)
    nearest = initial.target._nearest

    def counted_nearest(x):
        projections.append(1)
        return nearest(x)

    monkeypatch.setattr(flow_module, "_bind_tension", counted_bind)
    monkeypatch.setitem(vars(initial.target), "_nearest", counted_nearest)
    config = FlowConfig(dt_factor=0.2, t_max=0.5, integrator=integrator)
    trace = run_flow(initial, config)
    n_steps = trace.config_echo["n_steps"]
    assert n_steps > 0
    assert len(tensions) == per_step * n_steps + 1
    assert len(projections) == per_step * n_steps


def reference_step(state, dt, integrator):
    """One step written with the public project_nearest and tension_field."""
    target = state.target

    def velocity(values):
        return tension_field(MapState(state.mesh, target, values))

    u, k1 = state.values, velocity(state.values)
    if integrator == "projected_euler":
        return target.project_nearest(u + dt * k1)
    k2 = velocity(target.project_nearest(u + 0.5 * dt * k1))
    k3 = velocity(target.project_nearest(u + 0.5 * dt * k2))
    k4 = velocity(target.project_nearest(u + dt * k3))
    return target.project_nearest(u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))


@pytest.mark.parametrize(
    "target, order",
    [
        (TargetManifold.sphere(3), 2),
        (TargetManifold.sphere(3), 4),
        (TargetManifold.sphere(4), 2),
        (TargetManifold.ellipsoid((1.0, 1.0, 1.3)), 2),
        (TargetManifold.ellipsoid((1.0, 1.0, 1.3)), 4),
    ],
    ids=["s2-order2", "s2-order4", "s3-order2", "ellipsoid-order2", "ellipsoid-order4"],
)
def test_flow_stage_equals_projection_and_tension_field(target, order):
    # the functions a run binds give the public functions' bits: projection
    # of seeded points in the tube, and on a seeded loop near the equator
    # the tension with its Du and unit normal and whole steps of both
    # integrators
    rng = np.random.default_rng(17 * order + target.ambient_dim)
    p = target.ambient_dim
    for n in (24, 33):
        mesh = build_circle_mesh(n, diff_order=order)
        y = rng.standard_normal((n, p))
        y = y / np.linalg.norm(y / target.semi_axes, axis=1, keepdims=True)
        offset = rng.standard_normal((n, p))
        offset *= rng.uniform(0.0, 0.9 * target.tube_radius, (n, 1)) / np.linalg.norm(
            offset, axis=1, keepdims=True
        )
        x = y + offset
        dt = 0.2 * mesh.spacing**2
        euler, _ = flow_module._bind_step(mesh, target, dt, "projected_euler")
        assert np.array_equal(euler(x, np.zeros_like(x)), target.project_nearest(x))
        th = mesh.node_angles
        loop = np.zeros((n, p))
        loop[:, 0], loop[:, 1] = np.cos(th), np.sin(th)
        for m in (1, 2, 3):
            wave = np.cos(m * th + rng.uniform(0.0, 6.3))
            loop += 0.05 * np.outer(wave, rng.uniform(-1.0, 1.0, p))
        u = target.project_nearest(loop)
        state = map_state(mesh, target, u)
        for integrator in ("projected_euler", "projected_rk4"):
            step, tension = flow_module._bind_step(mesh, target, dt, integrator)
            k, du, normal = tension(u)
            assert np.array_equal(k, tension_field(state))
            assert np.array_equal(du, differentiate(mesh, u))
            assert np.array_equal(normal, target.unit_normal(u))
            assert np.array_equal(step(u, k), reference_step(state, dt, integrator))
            assert np.array_equal(flow_step(state, dt, integrator).values, step(u, k))


def test_kept_maps_follow_the_steps_taken_not_t_max():
    # a horizon of ~3e13 steps that the tolerance ends after about a
    # thousand: one buffer sized for every allowed step could not be
    # allocated, and the run crosses a block of kept maps
    initial = perturbed_equator(16)
    config = FlowConfig(dt_factor=0.2, t_max=1e12, stop_grad_tol=1e-8)
    trace = run_flow(initial, config)
    assert trace.config_echo["stopped_on_tolerance"]
    n_steps = trace.config_echo["n_steps"]
    assert n_steps > flow_module._KEPT_BLOCK_ROWS
    _, _, dists = replayed_trace(initial, config, n_steps)
    assert np.array_equal(trace.dist_to_limit, dists)


def test_kept_maps_raise_by_name_before_a_block_passes_the_limit(monkeypatch):
    # a limit of one block: the run keeps its first 1024 maps and raises
    # at the step that would start the second block
    initial = perturbed_equator(16)
    config = FlowConfig(dt_factor=0.2, t_max=1e12, stop_grad_tol=1e-8)
    monkeypatch.setattr(flow_module, "_KEPT_LIMIT_BYTES", flow_module._KEPT_BLOCK_ROWS * initial.values.nbytes)
    with pytest.raises(ValueError, match=r"maps kept by step 1024 would take 786432 bytes.*output\.stride"):
        run_flow(initial, config)
    # the same run at stride 2 needs one block, and without kept maps none
    assert run_flow(initial, config, distance_stride=2).config_echo["stopped_on_tolerance"]
    assert run_flow(initial, config, distance_stride=None).config_echo["stopped_on_tolerance"]


def test_finite_dim_flow_names_dt_and_t_max_at_the_kept_state_limit(monkeypatch):
    # a limit of one block of one-variable states: finite_dim_flow keeps
    # every state and has no stride, so the error names its own inputs
    # before a step; 1001 states fit in the block
    monkeypatch.setattr(flow_module, "_KEPT_LIMIT_BYTES", flow_module._KEPT_BLOCK_ROWS * 8)
    f = polynomial({(2,): 1.0})
    with pytest.raises(ValueError, match=r"^dt = 0\.01 and t_max = 100\.0 take 10000 steps.*raise dt or lower t_max"):
        finite_dim_flow(f, [1.0], dt=0.01, t_max=100.0)
    assert finite_dim_flow(f, [1.0], dt=0.01, t_max=10.0).times.size == 1001


@pytest.mark.parametrize("stride", [2.0, 2.5, True, 0, -1])
def test_run_flow_rejects_a_stride_that_is_not_a_positive_integer_before_a_step(monkeypatch, stride):
    # 2.0 and 2.5 used to fail at step 0 with an unnamed TypeError, and True
    # ran as 1
    def no_step(*args):
        raise AssertionError("a step was bound")

    monkeypatch.setattr(flow_module, "_bind_step", no_step)
    config = FlowConfig(dt_factor=0.25, t_max=0.5)
    with pytest.raises(ValueError, match="distance_stride must be an integer of at least 1 or None"):
        run_flow(perturbed_equator(16), config, distance_stride=stride)


def test_run_flow_accepts_a_numpy_integer_stride():
    config = FlowConfig(dt_factor=0.25, t_max=0.5)
    trace = run_flow(perturbed_equator(16), config, distance_stride=np.int64(3))
    expected = run_flow(perturbed_equator(16), config, distance_stride=3)
    assert np.array_equal(trace.dist_to_limit, expected.dist_to_limit, equal_nan=True)
    assert np.isnan(trace.dist_to_limit[1]) and trace.dist_to_limit[3] > 0.0


def list_run_flow(initial, config, distance_stride):
    """run_flow's former loop, which appended three Python floats a step to
    three lists and kept every distance_stride-th map in a list."""
    mesh, target = initial.mesh, initial.target
    h = mesh.spacing
    dt = config.dt_factor * h * h
    n_max = int(np.ceil(config.t_max / dt))
    step, tension = flow_module._bind_step(mesh, target, dt, config.integrator)
    times, energies, grads, kept = [], [], [], []
    values = initial.values
    t = 0.0
    for k in range(n_max + 1):
        k1, du, normal = tension(values)
        mt = _tangent_part(k1, normal)
        times.append(t)
        energies.append(integrate(mesh, np.add.reduce(du * du, 1)))
        grads.append(float(np.sqrt(integrate(mesh, np.add.reduce(mt * mt, 1)))))
        if distance_stride is not None and k % distance_stride == 0:
            kept.append(values)
        if grads[-1] < config.stop_grad_tol or k == n_max:
            break
        values = step(values, k1)
        t += dt
    dist = np.full(len(times), np.nan)
    if distance_stride is not None:
        for row, k in enumerate(range(0, len(times), distance_stride)):
            diff = kept[row] - values
            dist[k] = float(np.sqrt(integrate(mesh, np.sum(diff * diff, axis=1))))
        dist[-1] = 0.0
    echo = {
        "dt": dt,
        "dt_factor": config.dt_factor,
        "t_max": config.t_max,
        "stop_grad_tol": config.stop_grad_tol,
        "integrator": config.integrator,
        "n_steps": len(times) - 1,
        "stopped_on_tolerance": bool(grads[-1] < config.stop_grad_tol),
    }
    return FlowTrace(np.array(times), np.array(energies), np.array(grads), dist, echo)


def seeded_map(payload):
    return make_initial_map(parse_config(payload), seed=7)


SPHERE_24 = '{"domain": {"n_nodes": 24}}'
ELLIPSOID_8 = (
    '{"domain": {"n_nodes": 8}, "target": {"kind": "ellipsoid", '
    '"ambient_dim": 3, "semi_axes": [1.0, 1.0, 1.3]}}'
)
S3_ORDER4_16 = '{"domain": {"n_nodes": 16, "diff_order": 4}, "target": {"kind": "sphere", "ambient_dim": 4}}'


# the seed-7 n = 24 sphere run takes 2,208 steps, so its record spans three blocks
@pytest.mark.parametrize(
    "payload, config, stride",
    [
        (SPHERE_24, FlowConfig(), 1),
        (SPHERE_24, FlowConfig(), 7),
        (SPHERE_24, FlowConfig(), None),
        (ELLIPSOID_8, FlowConfig(t_max=100.0), 1),
        (S3_ORDER4_16, FlowConfig(t_max=20.0, integrator="projected_euler"), 1),
    ],
    ids=["s2-n24-stride1", "s2-n24-stride7", "s2-n24-no-distances", "ellipsoid-n8", "s3-order4-euler-n16"],
)
def test_flow_record_matches_the_former_list_loop(payload, config, stride):
    initial = seeded_map(payload)
    trace = run_flow(initial, config, distance_stride=stride)
    expected = list_run_flow(initial, config, stride)
    assert np.array_equal(trace.times, expected.times)
    assert np.array_equal(trace.energies, expected.energies)
    assert np.array_equal(trace.grad_norms, expected.grad_norms)
    assert np.array_equal(trace.dist_to_limit, expected.dist_to_limit, equal_nan=True)
    assert trace.config_echo == expected.config_echo


@pytest.mark.parametrize("stride", [None, 1])
def test_flow_record_costs_no_python_object_per_step(stride):
    # tracemalloc counts bytes allocated, so unlike RSS it repeats run to
    # run. Less the kept maps' blocks, the run's peak must stay within 64
    # bytes a row plus 64 KiB: the former lists of Python floats took about
    # 130 bytes a row (289,152 bytes for this run's 2,209 rows at stride None)
    initial = seeded_map(SPHERE_24)
    tracemalloc.start()
    try:
        trace = run_flow(initial, FlowConfig(), distance_stride=stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = trace.times.size
    kept_rows = 0 if stride is None else -(-rows // stride)
    blocks = -(-kept_rows // flow_module._KEPT_BLOCK_ROWS)
    kept_bytes = blocks * flow_module._KEPT_BLOCK_ROWS * initial.values.nbytes
    assert peak - kept_bytes <= 64 * rows + 64 * 1024


def synthetic_trace(times, energies):
    times = np.asarray(times, dtype=float)
    energies = np.asarray(energies, dtype=float)
    zeros = np.zeros_like(times)
    return FlowTrace(
        times=times, energies=energies, grad_norms=zeros, dist_to_limit=zeros
    )


def test_fit_recovers_exact_exponential():
    # The terminal record stands in for the limit energy, so pin it to
    # the true limit; otherwise its own residual tail biases the gap.
    t = np.linspace(0.0, 10.0, 200)
    e = 3.0 + np.exp(-2.0 * t)
    e[-1] = 3.0
    report = fit_convergence_rate(synthetic_trace(t, e))
    assert report["preferred"] == "exponential"
    assert abs(report["exponential"]["rate"] - 2.0) < 1e-6
    assert report["exponential"]["r_squared"] > 1.0 - 1e-10


def test_fit_prefers_power_law_when_limit_is_exact():
    # A pure power-law tail is only visible when the terminal record
    # equals the true limit; the final entry plays that role here. The
    # long horizon buys the two decades of gap the fit insists on.
    t = np.linspace(0.0, 1.0e4, 600)
    e = (1.0 + 8.0 * t) ** -0.5
    e[-1] = 0.0
    report = fit_convergence_rate(synthetic_trace(t, e))
    assert report["preferred"] == "power_law"
    assert abs(report["power_law"]["exponent"] - 0.5) < 0.02


def test_fit_demands_records_and_decades():
    t = np.linspace(0.0, 1.0, 10)
    with pytest.raises(ValueError, match="usable records"):
        fit_convergence_rate(synthetic_trace(t, 1.0 + np.exp(-t)))
    t = np.linspace(0.0, 0.1, 50)
    with pytest.raises(ValueError, match="decades"):
        fit_convergence_rate(synthetic_trace(t, 1.0 + np.exp(-t)))


def test_finite_dim_quadratic_rate():
    f = polynomial({(2,): 1.0})
    trace = finite_dim_flow(f, [1.0], dt=1e-3, t_max=6.0)
    report = fit_convergence_rate(trace)
    assert report["preferred"] == "exponential"
    assert abs(report["exponential"]["rate"] - 4.0) < 0.05


def test_finite_dim_quartic_follows_power_law():
    # dx/dt = -4 x^3 from x = 1 has the closed form x(t) = (1 + 8t)^(-1/2);
    # recover x from the recorded values of f and compare directly.
    f = polynomial({(4,): 1.0})
    trace = finite_dim_flow(f, [1.0], dt=1e-2, t_max=20.0)
    x = trace.energies**0.25
    window = trace.times >= 5.0
    product = x[window] * np.sqrt(1.0 + 8.0 * trace.times[window])
    assert np.max(np.abs(product - 1.0)) < 0.01


def test_finite_dim_flow_is_fourth_order():
    # dx/dt = -2 x from x = 1 gives x(1) = e^-2; RK4 cuts the error ~16x
    # each time dt halves
    f = polynomial({(2,): 1.0})
    errors = []
    for dt in (0.1, 0.05, 0.025):
        trace = finite_dim_flow(f, [1.0], dt=dt, t_max=1.0)
        assert trace.times[-1] == pytest.approx(1.0)
        errors.append(abs(np.sqrt(trace.energies[-1]) - np.exp(-2.0)))
    assert errors[0] / errors[1] >= 12.0
    assert errors[1] / errors[2] >= 12.0


def rk4_oracle_trace(f, x0, dt, n_steps):
    """The finite-dimensional RK4 loop as it stood before the flows shared
    one stepper: (times, values, gradient norms, distances to the last)."""
    x = np.asarray(x0, dtype=float).copy()
    times, values, grads, states = [], [], [], []

    def rhs(y):
        return -f.gradient(y)

    t = 0.0
    for k in range(n_steps + 1):
        times.append(t)
        values.append(f.value(x))
        grads.append(float(np.linalg.norm(f.gradient(x))))
        states.append(x)
        if k == n_steps:
            break
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    states = np.array(states)
    return times, values, grads, np.linalg.norm(states - states[-1], axis=1)


@pytest.mark.parametrize(
    "terms, x0, dt, n_steps",
    [
        ({(4,): 1.0}, [1.0], 0.01, 200),
        ({(2, 0): 1.0, (1, 1): 0.6, (0, 2): 2.0}, [1.0, -0.7], 0.01, 150),
        # 2,501 rows: the record and the kept states cross two block boundaries
        ({(2, 0): 1.0, (1, 1): 0.6, (0, 2): 2.0}, [1.0, -0.7], 0.001, 2500),
    ],
    ids=["quartic", "quadratic-cross-term", "quadratic-cross-term-three-blocks"],
)
def test_finite_dim_flow_matches_its_former_rk4_bit_for_bit(terms, x0, dt, n_steps):
    f = polynomial(terms)
    trace = finite_dim_flow(f, x0, dt=dt, t_max=n_steps * dt)
    times, values, grads, dists = rk4_oracle_trace(f, x0, dt, n_steps)
    assert np.array_equal(trace.times, times)
    assert np.array_equal(trace.energies, values)
    assert np.array_equal(trace.grad_norms, grads)
    assert np.array_equal(trace.dist_to_limit, dists)


def test_finite_dim_flow_guards():
    f = polynomial({(2,): 1.0})
    with pytest.raises(ValueError):
        finite_dim_flow(f, [1.0], dt=0.0)
    with pytest.raises(ValueError):
        finite_dim_flow(f, [1.0], t_max=-1.0)
    for dt in (np.nan, np.inf):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            finite_dim_flow(f, [1.0], dt=dt)
    for t_max in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t_max must be positive and finite"):
            finite_dim_flow(f, [1.0], t_max=t_max)
    # a step that does not divide the horizon used to be rounded away:
    # one record for dt = 1000, and a trace stopping at t = 0.9 for dt = 0.3
    for dt, t_max in ((1000.0, 100.0), (0.3, 1.0)):
        with pytest.raises(ValueError, match="dt must divide t_max"):
            finite_dim_flow(f, [1.0], dt=dt, t_max=t_max)
    hill = polynomial({(2,): -1.0})
    with pytest.raises(RuntimeError, match="diverged"):
        finite_dim_flow(hill, [1.0], dt=1e-2, t_max=10.0)
    # x0 is f.n_vars finite numbers: NaN and inf used to return all-NaN
    # traces, a second entry ran silently and [] raised an IndexError
    for x0 in ([np.nan], [np.inf], [1.0, 2.0], [], [[1.0]], 1.0):
        with pytest.raises(ValueError, match="x0 must be a finite 1-D array of length 1"):
            finite_dim_flow(f, x0, dt=1e-2, t_max=1.0)
    # a state that overflows to NaN diverges: it used to run on as NaN
    with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="diverged at t = 0.000"):
        finite_dim_flow(polynomial({(4,): 1.0, (6,): -1.0}), [1e110], dt=1e-2, t_max=1.0)


def test_finite_dim_flow_fails_by_name_when_f_rises():
    # RK4 at dt = 1 overshoots x^4 from x = 1 to f = 4.4e23: the trace used
    # to hold [1.0, 4.448e23] and raise nothing
    with pytest.raises(RuntimeError, match=r"energy rose on step 0 of rk4 at dt = 1\.000e\+00, from 1\.0 to 4\.448"):
        finite_dim_flow(polynomial({(4,): 1.0}), [1.0], dt=1.0, t_max=1.0)


def test_finite_dim_trace_layout():
    f = polynomial({(2, 0): 1.0, (0, 2): 2.0})
    trace = finite_dim_flow(f, [1.0, -1.0], dt=1e-2, t_max=1.0)
    assert trace.times.shape == (101,)
    assert trace.config_echo["kind"] == "finite_dim"
    assert trace.energies[0] == pytest.approx(3.0)
    assert trace.grad_norms[0] == pytest.approx(np.hypot(2.0, 4.0))
    assert trace.dist_to_limit[-1] == 0.0
    assert np.all(np.diff(trace.dist_to_limit) < 0.0)
