"""loopflow benchmark: time whole CLI runs, check their outputs, trace layers.

    python3 bench/run_bench.py [--workload NAME|all] [--seed N] [--seconds S]
                               [--trace 0|1] [--report PATH]

Run from the repository root. Each workload (see workloads.py) is a list
of loopflow subcommands, each run in a fresh `python -m loopflow.cli`
process against the sources in src/. This is a closed loop with one
client: loopflow is a batch CLI, so a user runs one command and waits.

--seed picks one of ten loopflow seeds on which every gate was checked
(workloads.loopflow_seed; 7, the default, runs as given).
With --trace 0 the benchmark repeats the workload at that seed for about
--seconds; before each repetition, fresh processes build the workload's
fixed objects (set-up time, taken as CPU time). It reports the medians
of the end-to-end metrics named in BENCHMARK.json. With --trace 1 it
runs the workload once untraced and once with every public loopflow
function wrapped (traced_cli.py), and reports the per-layer metrics
plus the tracing overhead. Every run's artifacts pass the workload's
correctness gate or the run counts as failed. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

from tracer import LAYERS, layer_totals, load_spans, merge_totals
from workloads import WORKLOADS, loopflow_seed, read_json

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".bench_run")

# Set-up probes before each repetition, so that they spread over the
# whole run instead of its first seconds.
PROBES_PER_REPETITION = 2
# Every run must end well inside the 180 s a benchmark invocation may take.
DEADLINE_S = 170.0
MIB = float(2**20)

# Metrics of the benchmark's design (README.md) that the result line does
# not carry, and why.
DROPPED = {
    "failed_frac": "it is 0 on a healthy run, and an end-to-end metric must never be 0; "
    "the result line's attempted and failed counts carry it, and the "
    "human-readable summary prints it",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, broken interpreter)."""


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


# -- processes ---------------------------------------------------------------


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_process(argv, cwd, deadline, log_name):
    """Run argv to completion and return its exit code and resource use.

    Resource use is read per child with wait4, so peak RSS is this
    process's own and not the running maximum over all children. The
    child is killed at the deadline (time.monotonic()).
    """
    with open(os.path.join(cwd, log_name), "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mib": usage.ru_maxrss / 1024.0,
    }


def _tail(path, lines=5):
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return " | ".join(fh.read().strip().splitlines()[-lines:])
    except OSError:
        return ""


def warm_up(workdir, deadline):
    """Import loopflow once (writes its bytecode cache) and fail if it cannot."""
    res = run_process([sys.executable, "-c", "import loopflow.cli"], workdir, deadline, "warmup.log")
    if res["code"] != 0:
        raise BenchError("cannot import loopflow from src/: " + _tail(os.path.join(workdir, "warmup.log")))


def time_setup(workload, seed, workdir, deadline):
    """CPU time (user + system) of one fresh set-up process.

    Not its wall time: on a 2-core host, a 0.3 s set-up process takes
    nearly twice as long whenever another tenant holds the second core,
    because OpenBLAS's start-up and its helper thread wait for that core.
    Its CPU time moves by about a fifth.
    """
    config = _write_config(workload, workdir)
    argv = [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), workload.setup, config, str(seed)]
    res = run_process(argv, workdir, deadline, "setup.log")
    if res["code"] != 0:
        raise BenchError("set-up probe failed: " + _tail(os.path.join(workdir, "setup.log")))
    return res["cpu_s"]


# -- one run of a workload ---------------------------------------------------


def _write_config(workload, rundir):
    path = os.path.join(rundir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(workload.config, fh)
    return path


def artifact_counts(outdirs):
    """Counts the per-layer table reads from a run's artifacts."""
    counts = {"steps": 0, "sandwich_determinate": 0, "sandwich_attempts": 0}
    if "flow-run" in outdirs:
        counts["steps"] = read_json(os.path.join(outdirs["flow-run"], "rate_fit.json"))["flow"]["n_steps"]
    if "reduce-run" in outdirs:
        sw = read_json(os.path.join(outdirs["reduce-run"], "reduction_report.json"))["sandwich"]
        counts["sandwich_determinate"] = sw["n_pass"] + sw["n_fail"]
        counts["sandwich_attempts"] = len(sw["records"])
    return counts


def _tree_bytes(path):
    return sum(
        os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files
    )


def run_commands(workload, seed, rundir, traced, deadline):
    """Run the workload's subcommands in rundir, in order; artifacts stay there.

    Every subcommand gets `--config config.json --out out/<subcommand>`
    relative to rundir, so a traced and an untraced run write the same
    bytes. Returns the run's wall and CPU time (sums over its processes),
    its peak RSS (largest process), the output directories, the layer
    totals when traced, and the problems found.
    """
    _write_config(workload, rundir)
    record = {"wall_s": 0.0, "cpu_s": 0.0, "rss_mib": 0.0, "problems": [], "outdirs": {}}
    parts = []
    for command in workload.commands:
        out = os.path.join("out", command)
        cli_args = [command, "--config", "config.json", "--out", out, "--seed", str(seed)]
        if traced:
            spans = os.path.join(rundir, f"spans-{command}.npz")
            argv = [sys.executable, os.path.join(BENCH_DIR, "traced_cli.py"), spans, *cli_args]
        else:
            argv = [sys.executable, "-m", "loopflow.cli", *cli_args]
        res = run_process(argv, rundir, deadline, f"{command}.log")
        record["wall_s"] += res["wall_s"]
        record["cpu_s"] += res["cpu_s"]
        record["rss_mib"] = max(record["rss_mib"], res["rss_mib"])
        record["outdirs"][command] = os.path.join(rundir, out)
        if traced and os.path.exists(spans):
            parts.append(layer_totals(load_spans(spans)))
        if res["code"] != 0:
            log = _tail(os.path.join(rundir, f"{command}.log"))
            record["problems"].append(f"{command} exited with {res['code']}: {log}")
            break
    if traced:
        record["totals"] = merge_totals(parts)
    return record


def run_once(workload, seed, workdir, traced, deadline):
    """One gated run in a fresh directory, removed afterwards."""
    rundir = tempfile.mkdtemp(prefix="traced-" if traced else "plain-", dir=workdir)
    try:
        record = run_commands(workload, seed, rundir, traced, deadline)
        record["seed"] = seed
        if not record["problems"]:
            try:
                record["problems"] = workload.gate(record["outdirs"], seed)
                record["counts"] = artifact_counts(record["outdirs"])
            except (OSError, KeyError, ValueError, TypeError) as exc:
                record["problems"] = [f"unreadable artifacts: {type(exc).__name__}: {exc}"]
        record["artifact_bytes"] = _tree_bytes(os.path.join(rundir, "out"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    del record["outdirs"]
    record["ok"] = not record["problems"]
    return record


# -- metrics ----------------------------------------------------------------


def end_to_end_metrics(runs, setup_samples):
    return {
        "wall_s": statistics.median(r["wall_s"] for r in runs),
        "setup_s": statistics.median(setup_samples),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["rss_mib"] for r in runs),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(traced, plain):
    """The per-layer metrics of one traced run; plain is its untraced twin."""
    totals = traced["totals"]
    functions, counters = totals["functions"], totals["counters"]
    counts = traced.get("counts", artifact_counts({}))
    none = {"calls": 0, "total_s": 0.0}

    def fn(name):
        return functions.get(name, none)

    metrics = {}
    for layer in LAYERS:
        for key in ("calls", "busy_s", "self_s"):
            metrics[f"{layer}.{key}"] = totals["layers"][layer][key]
    steps = counts["steps"]
    metrics["flow.steps"] = steps
    metrics["flow.tension_calls_per_step"] = _ratio(fn("variational.tension_field")["calls"], steps)
    metrics["targets.project_nearest.us_per_row"] = 1e6 * _ratio(
        fn("targets.TargetManifold.project_nearest")["total_s"],
        counters.get("targets.project_nearest.rows", 0),
    )
    frame = fn("variational.frame_linearization")
    metrics["variational.frame_linearization.calls"] = frame["calls"]
    metrics["variational.frame_linearization.ms_per_call"] = 1e3 * _ratio(frame["total_s"], frame["calls"])
    metrics["variational.general_euler_lagrange.calls"] = fn("variational.general_euler_lagrange")["calls"]
    solves = fn("reduction.invert_N")["calls"]
    failures = counters.get("reduction.newton_failures", 0)
    metrics["reduction.invert_N.calls"] = solves
    metrics["reduction.newton_iters_per_solve"] = _ratio(counters.get("reduction.newton_iters", 0), solves - failures)
    metrics["reduction.newton_failures"] = failures
    metrics["reduction.reduced_gradient.busy_s"] = fn("reduction.reduced_gradient")["total_s"]
    metrics["reduction.sandwich.determinate_frac"] = _ratio(
        counts["sandwich_determinate"], counts["sandwich_attempts"]
    )
    metrics["reduction.workspace_mb"] = counters.get("reduction.workspace_bytes", 0) / MIB
    metrics["cli.artifact_mb"] = traced["artifact_bytes"] / MIB
    metrics["trace.overhead_frac"] = _ratio(traced["wall_s"], plain["wall_s"]) - 1.0
    return metrics


def with_units(values, declared):
    """Attach BENCHMARK.json's units; the computed and declared names must match."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        missing, extra = sorted(set(units) - set(values)), sorted(set(values) - set(units))
        raise BenchError(f"metric names disagree with BENCHMARK.json: missing {missing}, extra {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


# -- a whole benchmark run -----------------------------------------------------


def run_workload(spec, workload, bench_seed, seconds, trace, deadline):
    seed = loopflow_seed(bench_seed)
    os.makedirs(RUN_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=RUN_DIR)
    try:
        warm_up(workdir, deadline)
        if trace:
            plain = run_once(workload, seed, workdir, False, deadline)
            traced = run_once(workload, seed, workdir, True, deadline)
            runs, setups = [plain, traced], []
            metrics = with_units(per_layer_metrics(traced, plain), spec["per_layer"])
        else:
            runs, setups = [], []
            start = time.monotonic()
            while True:
                setups += [time_setup(workload, seed, workdir, deadline) for _ in range(PROBES_PER_REPETITION)]
                runs.append(run_once(workload, seed, workdir, False, deadline))
                elapsed = time.monotonic() - start
                per_repetition = elapsed / len(runs)
                if elapsed + per_repetition > seconds or time.monotonic() + per_repetition > deadline:
                    break
            metrics = with_units(end_to_end_metrics(runs, setups), spec["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(not r["ok"] for r in runs)
    return {
        "workload": workload.name,
        "seed": bench_seed,
        "loopflow_seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "metrics": metrics,
        "runs": runs,
        "setup_samples_s": setups,
    }


def machine_block():
    """What the numbers depend on: cores, CPU, Python, numpy, BLAS, source."""
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "loopflow", "*.py"))):
        with open(path, "rb") as fh:
            digest.update(os.path.basename(path).encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _print_result(result):
    print(
        f"== {result['workload']}  seed {result['seed']} (loopflow seed {result['loopflow_seed']})"
        f"  trace {result['trace']}"
    )
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']}")
    print(
        f"  failed_frac {result['failed']}/{result['attempted']} = {result['failed_frac']:.3g}"
        f"  correct {result['correct']}"
    )
    for i, run in enumerate(result["runs"]):
        for problem in run["problems"]:
            print(f"  run {i}: {problem}")


def _append_report(path, machine, results):
    report = {"machine": machine, "runs": []}
    if os.path.exists(path):
        report["runs"] = read_json(path)["runs"]
    report["runs"].extend(results)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


def build_parser(spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (7: the acceptance fixture's; see workloads.loopflow_seed)"
    )
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", default=None, help="append the full results to this JSON file")
    return parser


def main(argv=None):
    try:
        spec = load_spec()
        args = build_parser(spec).parse_args(argv)
        if not os.path.isfile(os.path.join(SRC, "loopflow", "__init__.py")):
            raise BenchError(f"no loopflow sources under {SRC}")
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        machine = machine_block()
        results = []
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results.append(run_workload(spec, WORKLOADS[name], args.seed, args.seconds, args.trace, deadline))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine, sort_keys=True))
    for result in results:
        _print_result(result)
    if args.report:
        _append_report(args.report, machine, results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
