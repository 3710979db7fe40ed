"""Tests of the benchmark harness itself.

    python3 -m pytest -q bench/tests

They check that tracing changes no output, that the per-layer
arithmetic is right, that every metric the benchmark promises is
computed, and that the correctness gates reject wrong numbers.
"""

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import run_bench  # noqa: E402
import tracer  # noqa: E402
from workloads import (  # noqa: E402
    FLOW_SPHERE,
    LOOPFLOW_SEEDS,
    Workload,
    _energy_reference,
    _gate_flow_sphere,
    discrete_rate,
    loopflow_seed,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_calls(tmp_path):
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def advance(dt):
        clock.now += dt

    leaf = t.wrap("mesh.leaf", advance)

    def middle_body():
        advance(1.0)
        leaf(2.0)
        advance(0.5)
        leaf(3.0)

    middle = t.wrap("variational.middle", middle_body)

    def outer_body():  # a variational function calling another one
        advance(0.25)
        middle()

    outer = t.wrap("variational.outer", outer_body)

    def top_body():
        outer()
        advance(4.0)
        leaf(1.0)

    t.wrap("cli.top", top_body)()
    t.count("reduction.newton_iters", 3)
    t.save(tmp_path / "spans.npz")

    totals = tracer.layer_totals(tracer.load_spans(tmp_path / "spans.npz"))
    layers = totals["layers"]
    # cli.top spans 11.75; its wrapped children take 6.75 (outer) + 1.0 (leaf).
    assert layers["cli"] == {"calls": 1, "busy_s": 11.75, "self_s": 4.0}
    # outer holds middle, so the layer is busy for outer's 6.75 only;
    # self = (6.75 - 6.5) + (6.5 - 5.0).
    assert layers["variational"] == {"calls": 2, "busy_s": 6.75, "self_s": 1.75}
    assert layers["mesh"] == {"calls": 3, "busy_s": 6.0, "self_s": 6.0}
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(11.75)
    assert layers["flow"] == {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    assert totals["functions"]["mesh.leaf"] == {"calls": 3, "total_s": 6.0}
    assert totals["counters"] == {"reduction.newton_iters": 3}

    merged = tracer.merge_totals([totals, totals])
    assert merged["layers"]["variational"] == {"calls": 4, "busy_s": 13.5, "self_s": 3.5}
    assert merged["counters"] == {"reduction.newton_iters": 6}


def test_wrapper_preserves_results_and_exceptions():
    t = tracer.Tracer()

    def boom():
        raise RuntimeError("no")

    assert t.wrap("mesh.double", lambda x: 2 * x)(21) == 42
    with pytest.raises(RuntimeError):
        t.wrap("mesh.boom", boom)()
    assert len(t.end) == 2 and all(e > 0.0 for e in t.end)
    assert t._stack == [-1]


_FLOW_SHORT = {"dt_factor": 0.2, "t_max": 2.0, "stop_grad_tol": 1e-8, "integrator": "projected_rk4"}
SMALL_WORKLOADS = [
    Workload("small-flow", {"domain": {"n_nodes": 16}, "flow": _FLOW_SHORT}, ("energy-eval", "flow-run"), "flow", None),
    Workload(
        "small-reduce",
        {"domain": {"n_nodes": 32}, "lojasiewicz": {"samples_per_radius": 2}},
        ("reduce-run", "finite-verify"),
        "reduce",
        None,
    ),
    Workload(
        "small-ellipsoid",
        {
            "domain": {"n_nodes": 8},
            "target": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0, 1.3]},
            "flow": dict(_FLOW_SHORT, t_max=1.0),
        },
        ("energy-eval", "flow-run"),
        "flow",
        None,
    ),
]


def _artifacts(rundir):
    out = rundir / "out"
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", SMALL_WORKLOADS, ids=lambda w: w.name)
def test_traced_artifacts_are_byte_identical(workload, tmp_path):
    deadline = time.monotonic() + 170.0
    artifacts, records = {}, {}
    for traced in (False, True):
        rundir = tmp_path / ("traced" if traced else "plain")
        rundir.mkdir()
        records[traced] = run_bench.run_commands(workload, 7, str(rundir), traced, deadline)
        assert records[traced]["problems"] == []
        artifacts[traced] = _artifacts(rundir)
    assert len(artifacts[False]) >= 3
    assert artifacts[True] == artifacts[False]
    totals = records[True]["totals"]
    assert totals["layers"]["cli"]["calls"] >= len(workload.commands)
    if "reduce-run" in workload.commands:
        assert totals["functions"]["reduction.invert_N"]["calls"] > 0
        assert totals["counters"]["reduction.newton_iters"] > 0
        assert totals["counters"]["reduction.workspace_bytes"] > 0
    else:
        assert totals["counters"]["targets.project_nearest.rows"] > 0


# Every metric the benchmark's design (README.md) names, end to end and per layer.
DESIGN_METRICS = (
    ["wall_s", "setup_s", "cpu_s", "peak_rss_mb", "failed_frac"]
    + [f"{layer}.{key}" for layer in tracer.LAYERS for key in ("calls", "busy_s", "self_s")]
    + [
        "flow.steps",
        "flow.tension_calls_per_step",
        "mesh.self_s",
        "targets.project_nearest.us_per_row",
        "variational.frame_linearization.calls",
        "variational.frame_linearization.ms_per_call",
        "variational.general_euler_lagrange.calls",
        "reduction.invert_N.calls",
        "reduction.newton_iters_per_solve",
        "reduction.newton_failures",
        "reduction.reduced_gradient.busy_s",
        "reduction.sandwich.determinate_frac",
        "reduction.workspace_mb",
        "cli.artifact_mb",
        "trace.overhead_frac",
    ]
)


def test_every_design_metric_is_reported_or_dropped():
    spec = run_bench.load_spec()
    declared = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    missing = [n for n in DESIGN_METRICS if n not in declared and n not in run_bench.DROPPED]
    assert missing == []


def test_metric_code_emits_exactly_the_declared_names():
    spec = run_bench.load_spec()
    plain = {"wall_s": 2.0, "cpu_s": 2.5, "rss_mib": 40.0}
    e2e = run_bench.with_units(run_bench.end_to_end_metrics([plain], [0.3]), spec["end_to_end"])
    assert e2e["wall_s"] == {"value": 2.0, "unit": "s"}
    traced = {
        "wall_s": 2.2,
        "artifact_bytes": 2**20,
        "totals": tracer.merge_totals([]),
        "counts": run_bench.artifact_counts({}),
    }
    layer = run_bench.with_units(run_bench.per_layer_metrics(traced, plain), spec["per_layer"])
    assert layer["trace.overhead_frac"]["value"] == pytest.approx(0.1)
    assert layer["cli.artifact_mb"] == {"value": 1.0, "unit": "MiB"}
    with pytest.raises(run_bench.BenchError):
        run_bench.with_units({"wall_s": 1.0}, spec["end_to_end"])


def test_flow_sphere_gate_rejects_a_wrong_rate(tmp_path):
    assert discrete_rate(64) == pytest.approx(1.9984, abs=1e-4)
    rate = discrete_rate(FLOW_SPHERE.config["domain"]["n_nodes"])

    def gate_with(rate_value):
        fit = {
            "flow": {"stopped_on_tolerance": True},
            "preferred": "exponential",
            "exponential": {"rate": rate_value, "r_squared": 0.9999},
        }
        (tmp_path / "rate_fit.json").write_text(json.dumps(fit))
        return _gate_flow_sphere({"flow-run": str(tmp_path)}, 7)

    assert gate_with(rate * 1.005) == []
    assert len(gate_with(rate * 1.02)) == 1


def test_every_benchmark_seed_runs_a_checked_loopflow_seed():
    # The acceptance fixture's seed runs as given; any other seed, however
    # large, lands on a seed that has a recorded ellipsoid energy.
    assert loopflow_seed(7) == 7
    assert sorted(_energy_reference()) == sorted(str(s) for s in LOOPFLOW_SEEDS)
    picked = {loopflow_seed(seed) for seed in range(-3, 100)}
    assert picked == set(LOOPFLOW_SEEDS)
    for seed in (623596600, 2**63 - 1):
        assert loopflow_seed(seed) in LOOPFLOW_SEEDS
