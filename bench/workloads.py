"""The benchmark's workloads and their correctness gates.

Each workload is a fixed loopflow config plus the subcommands that run
on it, one fresh `python -m loopflow.cli` process each, in order. Each
gate reads the artifacts a run wrote and returns the list of problems
found; an empty list means the run is correct. The thresholds are the
package's physics and its acceptance thresholds, not new ones.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

_HERE = os.path.dirname(os.path.abspath(__file__))

# Flow settings shared by both flow workloads (the package defaults, spelled out).
_FLOW = {"dt_factor": 0.2, "t_max": 50.0, "stop_grad_tol": 1e-8, "integrator": "projected_rk4"}

# The loopflow seeds the benchmark runs. Every gate passes on each of
# seeds 0-31; of those, these are the ones whose step counts on
# both flows lie within 2.5% of the median over 0-31 (flow-sphere
# 2088-2512 steps, ellipsoid-flow 309-399), so that a run's work hardly
# depends on which of them it gets. The ellipsoid energy reference holds
# exactly these seeds.
LOOPFLOW_SEEDS = (0, 5, 7, 10, 16, 17, 21, 23, 24, 25)

# finite-verify with the default polynomial table: label -> classical exponent.
_CLASSICAL_EXPONENTS = {
    "x^2": 0.5,
    "x^4": 0.75,
    "x^2+y^4": 0.75,
    "x^2 zero set": 2.0,
    "x^2 y^2 zero set": 4.0,
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    commands: tuple  # loopflow subcommands, run in this order
    setup: str  # which fixed objects setup_probe.py builds: "flow" or "reduce"
    gate: Callable  # gate(outdirs: {command: dir}, seed) -> [problem, ...]


def loopflow_seed(seed):
    """The loopflow seed a benchmark seed runs: a seed in LOOPFLOW_SEEDS
    runs as given, any other seed picks one of them, so every benchmark
    seed runs an input whose gates are known to hold."""
    return seed if seed in LOOPFLOW_SEEDS else LOOPFLOW_SEEDS[seed % len(LOOPFLOW_SEEDS)]


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _trace_energies(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return [float(row["energy"]) for row in csv.DictReader(fh)]


def _check(problems, ok, message):
    if not ok:
        problems.append(message)


def discrete_rate(n_nodes):
    """Exponential rate of the sphere flow's slowest mode, 2 (2 sin(h/2)/h)^2."""
    h = 2.0 * math.pi / n_nodes
    return 2.0 * (2.0 * math.sin(h / 2.0) / h) ** 2


def _gate_flow_sphere(outdirs, seed):
    problems = []
    fit = read_json(os.path.join(outdirs["flow-run"], "rate_fit.json"))
    _check(problems, fit["flow"]["stopped_on_tolerance"], "flow did not stop on tolerance")
    _check(problems, fit.get("preferred") == "exponential", f"preferred fit {fit.get('preferred')}")
    exp = fit.get("exponential", {})
    r2 = exp.get("r_squared", 0.0)
    _check(problems, r2 >= 0.99, f"exponential R^2 {r2} < 0.99")
    expected = discrete_rate(FLOW_SPHERE.config["domain"]["n_nodes"])
    rate = exp.get("rate", float("nan"))
    _check(
        problems,
        abs(rate - expected) <= 0.01 * expected,
        f"rate {rate} not within 1% of the discrete value {expected}",
    )
    return problems


def direction_slopes(approximation):
    """Log-log slope of remainder against ||M_F(u)|| within each sampled direction.

    The report's own `slope` is one fit through every direction at once;
    the directions have different constants, so that pooled slope
    scatters with the seed (1.83 to 2.00 over seeds 0-40 at n = 64)
    while each direction's slope stays within 0.003 of 2. The report
    lists its samples direction by direction, one per amplitude; [] when
    some were dropped and the samples cannot be grouped.
    """
    k = len(approximation["amplitudes"])
    lhs, m_norm = approximation["lhs"], approximation["m_norm"]
    if approximation["n_samples"] != len(lhs) or not lhs or len(lhs) % k:
        return []
    slopes = []
    for start in range(0, len(lhs), k):
        x = [math.log(v) for v in m_norm[start : start + k]]
        y = [math.log(v) for v in lhs[start : start + k]]
        mx, my = sum(x) / k, sum(y) / k
        sxx = sum((a - mx) ** 2 for a in x)
        slopes.append(sum((a - mx) * (b - my) for a, b in zip(x, y)) / sxx)
    return slopes


def _gate_reduce_sphere(outdirs, seed):
    problems = []
    rep = read_json(os.path.join(outdirs["reduce-run"], "reduction_report.json"))
    _check(problems, rep["kernel_dimension"] == 3, f"kernel dimension {rep['kernel_dimension']}")
    _check(problems, rep["gap_ratio"] >= 10.0, f"gap ratio {rep['gap_ratio']} < 10")
    _check(problems, rep["integrability"]["integrable"], "reduced function not integrable")
    slopes = direction_slopes(rep["approximation"])
    _check(problems, bool(slopes), "approximation samples cannot be grouped by direction")
    _check(problems, all(s >= 1.9 for s in slopes), f"approximation slopes {slopes}, need >= 1.9")
    spread = rep["lipschitz"]["ratio_spread"]
    _check(problems, spread < 10.0, f"Lipschitz spread {spread} >= 10")
    failures = rep["sandwich"]["n_newton_failure"] + sum(
        r["newton_failures"] for r in rep["integrability"]["per_radius"]
    )
    _check(problems, failures == 0, f"{failures} Newton failures")
    table = read_json(os.path.join(outdirs["finite-verify"], "exponent_table.json"))["table"]
    found = {row["label"]: row["exponent"] for row in table}
    for label, exponent in _CLASSICAL_EXPONENTS.items():
        got = found.get(label, float("nan"))
        _check(problems, abs(got - exponent) <= 0.05, f"{label}: exponent {got}, expected {exponent}")
    return problems


def _energy_reference():
    with open(os.path.join(_HERE, "ellipsoid_energy_reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["energies"]


def _gate_ellipsoid_flow(outdirs, seed):
    problems = []
    energy = read_json(os.path.join(outdirs["energy-eval"], "energy_report.json"))["energy"]
    reference = _energy_reference().get(str(seed))
    if reference is None:
        problems.append(f"no recorded energy for loopflow seed {seed} (make_energy_reference.py)")
    else:
        _check(
            problems,
            abs(energy - reference) <= 1e-9 * abs(reference),
            f"energy {energy!r} differs from the reference {reference!r}",
        )
    fit = read_json(os.path.join(outdirs["flow-run"], "rate_fit.json"))
    _check(problems, fit["flow"]["stopped_on_tolerance"], "flow did not stop on tolerance")
    final = _trace_energies(os.path.join(outdirs["flow-run"], "trace.csv"))[-1]
    _check(problems, final < 1e-12, f"final energy {final} >= 1e-12")
    return problems


FLOW_SPHERE = Workload(
    name="flow-sphere",
    config={"domain": {"n_nodes": 24, "diff_order": 2}, "flow": _FLOW},
    commands=("flow-run",),
    setup="flow",
    gate=_gate_flow_sphere,
)

REDUCE_SPHERE = Workload(
    name="reduce-sphere",
    config={"domain": {"n_nodes": 32, "diff_order": 2}},
    commands=("reduce-run", "finite-verify"),
    setup="reduce",
    gate=_gate_reduce_sphere,
)

ELLIPSOID_FLOW = Workload(
    name="ellipsoid-flow",
    config={
        "domain": {"n_nodes": 8, "diff_order": 2},
        "target": {"kind": "ellipsoid", "ambient_dim": 3, "semi_axes": [1.0, 1.0, 1.3]},
        # Some loops converge slowly here: seed 14 reaches the tolerance at
        # t = 49.2, and at n = 10 it missed it by t = 50. The longer horizon
        # keeps slow seeds from failing the stop-on-tolerance gate.
        "flow": dict(_FLOW, t_max=100.0),
    },
    commands=("energy-eval", "flow-run"),
    setup="flow",
    gate=_gate_ellipsoid_flow,
)

WORKLOADS = {w.name: w for w in (FLOW_SPHERE, REDUCE_SPHERE, ELLIPSOID_FLOW)}
