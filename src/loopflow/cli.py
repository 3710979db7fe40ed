"""Command line front end.

Five subcommands share one invocation shape:

    loopflow <subcommand> --config <path> [--out <dir>] [--seed <n>]

Output directory precedence is --out, then the LOOPFLOW_OUT environment
variable, then the config's output.directory. Every run writes
config_echo.json with the fully resolved configuration; every JSON
artifact carries the package version and the RNG family, and floats are
serialized through repr so repeated runs are byte-identical.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from itertools import chain, repeat

import numpy as np

from .bundles import (
    build_pullback_bundle,
    chart_decode,
    l2_norm,
    project_section,
    section,
)
from .config import RNG_NAME, VERSION, parse_config_file, resolved_dict
from .flow import _gaps_to_limit, fit_convergence_rate, run_flow
from .lojasiewicz import (
    estimate_gradient_exponent,
    finite_dim_distance_exponent,
    finite_dim_gradient_exponent,
    integrability_probe,
    make_cloud,
    verify_inequality,
)
from .mesh import _sq_norm, build_circle_mesh
from .polynomials import from_term_list
from .reduction import (
    _random_fiber_field,
    approximation_sweep,
    build_reduction_workspace,
    lipschitz_probe,
    project_onto_kernel,
    sandwich_sweep,
)
from .targets import TargetManifold
from .variational import (
    energy,
    energy_functional_on_bundle,
    functional_value,
    general_euler_lagrange,
    map_state,
    tension_field,
)

__all__ = ["main", "make_initial_map", "build_parser"]


# -- initial data ----------------------------------------------------------


def _base_loop(config):
    """(mesh, target, base) of a run: base is the loop in base_map.file,
    or else the degree-k circle in the target's first two axes."""
    mesh = build_circle_mesh(**asdict(config.domain))
    t, path = config.target, config.base_map.file
    try:
        target = TargetManifold.sphere(t.ambient_dim) if t.kind == "sphere" else TargetManifold.ellipsoid(t.semi_axes)
    except ValueError as exc:  # semi-axes so uneven that the reach rounds to 0
        raise ValueError(f"target.semi_axes {t.semi_axes}: {exc}") from exc
    shape = (mesh.n_nodes, target.ambient_dim)
    if path is None:
        k, theta = config.base_map.degree, mesh.node_angles
        base = np.zeros(shape)
        base[:, 0] = target.semi_axes[0] * np.cos(k * theta)
        base[:, 1] = target.semi_axes[1] * np.sin(k * theta)
        return mesh, target, base
    try:
        loaded = np.load(path) if path.endswith(".npy") else np.loadtxt(path, delimiter=",", ndmin=2)
        if loaded.dtype.kind not in "fiu":
            raise ValueError(f"holds {loaded.dtype} values, not real numbers")
        base = np.asarray(loaded, dtype=float)
    except (OSError, ValueError) as exc:
        raise ValueError(f"base_map.file {path}: {exc}") from exc
    if base.shape != shape:
        raise ValueError(f"base_map.file {path} has shape {base.shape}, expected {shape}")
    target.require_on_manifold(base, what=f"base_map.file {path}")
    return mesh, target, base


def make_initial_map(config, seed=None):
    """Base loop plus a seeded trigonometric perturbation, on the target.

    The perturbation is amplitude * sum over modes m of
    (a_m cos m theta + b_m sin m theta) d_m with a_m, b_m uniform on
    (-1/2, 1/2) and d_m a random ambient unit vector, so its sup norm is
    at most amplitude * mode_count. The field is projected into the
    fibers and pushed back to the target through the chart. Amplitude 0
    returns the base loop bit for bit.
    """
    mesh, target, base = _base_loop(config)
    pert = config.perturbation
    if pert.amplitude == 0.0:
        return map_state(mesh, target, base)
    if pert.amplitude >= target.tube_radius:
        raise ValueError(
            f"perturbation.amplitude {pert.amplitude} must stay below the target's "
            f"tube radius {target.tube_radius}"
        )
    rng = np.random.default_rng(pert.seed if seed is None else seed)
    theta = mesh.node_angles
    field = np.zeros_like(base)
    for m in range(1, pert.mode_count + 1):
        a = rng.uniform(-0.5, 0.5)
        b = rng.uniform(-0.5, 0.5)
        d = rng.standard_normal(target.ambient_dim)
        d = d / np.linalg.norm(d)
        field += np.outer(a * np.cos(m * theta) + b * np.sin(m * theta), d)
    field *= pert.amplitude
    bundle = build_pullback_bundle(mesh, target, base)
    try:
        pts = chart_decode(bundle, project_section(bundle, field))
    except ValueError as exc:  # the modes' sum, up to amplitude * mode_count, left the chart
        raise ValueError(
            f"perturbation.amplitude {pert.amplitude} with perturbation.mode_count {pert.mode_count}: {exc}"
        ) from exc
    return map_state(mesh, target, pts)


# -- serialization ---------------------------------------------------------


def _numpy_to_json(obj):
    """json.dump's hook for what it cannot write: numpy arrays and scalars."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(outdir, name, payload):
    payload = dict(payload)
    payload.setdefault("version", VERSION)
    payload.setdefault("rng", RNG_NAME)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=_numpy_to_json)
        fh.write("\n")
    return path


def _write_csv(outdir, name, header, rows):
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\n")
    return path


# -- subcommands -----------------------------------------------------------


def _run_energy_eval(config, outdir, seed):
    state = make_initial_map(config, seed)
    e = energy(state)
    m_raw = tension_field(state)
    m_tan = state.target.tangent_part(state.values, m_raw)
    report = {
        "energy": e,
        "tension_l2": float(np.sqrt(_sq_norm(state.mesh, m_raw))),
        "tangential_tension_l2": float(np.sqrt(_sq_norm(state.mesh, m_tan))),
        "n_nodes": state.mesh.n_nodes,
        "diff_order": state.mesh.diff_order,
        "target_kind": state.target.kind,
        "ambient_dim": state.target.ambient_dim,
    }
    _write_json(outdir, "energy_report.json", report)
    print(
        f"energy {e!r}  tension L2 {report['tension_l2']!r}  "
        f"tangential L2 {report['tangential_tension_l2']!r}"
    )


def _run_flow(config, outdir, seed):
    state = make_initial_map(config, seed)
    trace = run_flow(state, config.flow, distance_stride=config.output.stride)
    # the rows whose map run_flow kept (every stride-th step and the last), streamed
    kept = np.flatnonzero(~np.isnan(trace.dist_to_limit))
    columns = (trace.times, trace.energies, trace.grad_norms, trace.dist_to_limit)
    rows = zip(*(column[kept].tolist() for column in columns))
    _write_csv(outdir, "trace.csv", ("t", "energy", "grad_norm", "dist_to_limit"), rows)
    try:
        fit = fit_convergence_rate(trace)
    except ValueError as exc:
        fit = {"error": str(exc)}
    fit["flow"] = {**trace.config_echo, "seed": seed}
    _write_json(outdir, "rate_fit.json", fit)
    summary = trace.config_echo
    print(
        f"steps {summary['n_steps']}  final energy {float(trace.energies[-1])!r}  "
        f"final grad {float(trace.grad_norms[-1])!r}  "
        f"stopped_on_tolerance {summary['stopped_on_tolerance']}"
    )


def _reduction_workspace(config):
    """Reduction workspace of the chart energy at the configured base loop."""
    bundle = build_pullback_bundle(*_base_loop(config))
    try:
        functional = energy_functional_on_bundle(bundle)
    except ValueError as exc:  # a base loop that is not near-harmonic
        path = config.base_map.file
        key = f"base_map.degree {config.base_map.degree}" if path is None else f"base_map.file {path}"
        raise ValueError(f"{key}: {exc}") from exc
    return build_reduction_workspace(bundle, functional, **asdict(config.reduction))


def _perturbation_pairs(config, seed):
    """Energy gap against Euler-Lagrange norm for kernel-orthogonal sections."""
    workspace = _reduction_workspace(config)
    bundle, functional = workspace.bundle, workspace.functional
    rng = np.random.default_rng(seed)
    gaps, grads = [], []
    for amp in (0.04, 0.02, 0.01, 0.005):
        sec = _random_fiber_field(bundle, rng)
        ortho = section(bundle, sec.values - project_onto_kernel(workspace, sec).values)
        norm = l2_norm(ortho)
        if norm < 1e-12:
            continue
        u = section(bundle, (amp / norm) * ortho.values)
        gap = abs(functional_value(bundle, functional, u))
        grad = l2_norm(general_euler_lagrange(bundle, functional, u))
        gaps.append(gap)
        grads.append(grad)
    return gaps, grads


def trajectory_pairs(trace):
    """Asymptotic (gap, gradient) pairs from a flow trace.

    The gap is measured to the final energy over the records before the
    limit (flow._gaps_to_limit), and records above half the initial gap
    are dropped: the exponent is local to the limiting critical point,
    and early records can sit near a different (saddle) level where the
    gap stalls while the gradient varies.
    """
    _, _, gaps, grads = _gaps_to_limit(trace)
    gaps = np.abs(gaps)
    keep = gaps <= 0.5 * gaps[0]
    return gaps[keep], grads[keep]


def _run_loj_estimate(config, outdir, seed):
    # The perturbation pairs build and check the reduction workspace, which
    # is quick; doing it first reports a bad workspace before the long flow.
    # The two draw from independent generators, so the order is free.
    pert_gaps, pert_grads = _perturbation_pairs(config, seed)
    state = make_initial_map(config, seed)
    trace = run_flow(state, config.flow, distance_stride=None)
    e_inf = float(trace.energies[-1])
    traj_gaps, traj_grads = trajectory_pairs(trace)
    rows = chain(
        zip(traj_gaps.tolist(), traj_grads.tolist(), repeat("flow")),
        zip(pert_gaps, pert_grads, repeat("perturbation")),
    )
    _write_csv(outdir, "cloud.csv", ("value_gap", "grad_norm", "source"), rows)
    cloud = make_cloud(
        np.concatenate([traj_gaps, pert_gaps]),
        np.concatenate([traj_grads, pert_grads]),
        provenance="flow trajectory + kernel-orthogonal perturbations",
    )
    fit = estimate_gradient_exponent(cloud)
    report = {
        "fit": asdict(fit),
        "verification_at_half": verify_inequality(cloud, 0.5),
        "n_flow_pairs": int(traj_gaps.size),
        "n_perturbation_pairs": len(pert_gaps),
        "e_infinity": e_inf,
    }
    _write_json(outdir, "exponent_fit.json", report)
    print(
        f"theta {fit.theta!r}  constant {fit.constant!r}  "
        f"r_squared {fit.r_squared!r}  samples {fit.sample_count}"
    )


def _run_reduce(config, outdir, seed):
    workspace = _reduction_workspace(config)
    sweep = sandwich_sweep(workspace, **asdict(config.lojasiewicz), seed=seed)
    report = {
        "kernel_dimension": workspace.kernel_dim,
        "kernel_eigenvalues": workspace.kernel_eigenvalues,
        "spectral_radius": workspace.spectral_radius,
        "threshold": workspace.threshold,
        "discarded_min": workspace.discarded_min,
        "gap_ratio": workspace.gap_ratio,
        "sandwich": sweep,
        "approximation": approximation_sweep(workspace, seed=seed),
        "lipschitz": lipschitz_probe(workspace, seed=seed),
        "integrability": integrability_probe(sweep),
    }
    _write_json(outdir, "reduction_report.json", report)
    print(
        f"kernel dimension {workspace.kernel_dim}  gap ratio {workspace.gap_ratio!r}  "
        f"integrable {report['integrability']['integrable']}"
    )


def _verify_entry(entry, seed):
    """exponent_table.json's row for one finite_verify.polynomials entry."""
    label = entry.get("label", "?")
    f = from_term_list(entry["terms"])
    if entry["check"] == "gradient":
        fit = finite_dim_gradient_exponent(f, np.zeros(f.n_vars), entry["radii"], seed=seed)
        return {
            "label": label,
            "check": "gradient",
            "exponent": fit.theta,
            "constant": fit.constant,
            "r_squared": fit.r_squared,
            "sample_count": fit.sample_count,
        }
    alpha, c = finite_dim_distance_exponent(f, entry["box"], entry["grid_n"])
    return {"label": label, "check": "distance", "exponent": alpha, "constant": c}


def _run_finite_verify(config, outdir, seed):
    rows = []
    for i, entry in enumerate(config.finite_verify.polynomials):
        try:
            rows.append(_verify_entry(entry, seed))
        except ValueError as exc:
            raise ValueError(f"finite_verify.polynomials[{i}]: {exc}") from exc
    _write_json(outdir, "exponent_table.json", {"table": rows})
    for row in rows:
        print(f"{row['label']}: {row['check']} exponent {row['exponent']!r}")


_DISPATCH = {
    "energy-eval": _run_energy_eval,
    "flow-run": _run_flow,
    "loj-estimate": _run_loj_estimate,
    "reduce-run": _run_reduce,
    "finite-verify": _run_finite_verify,
}


# -- entry point -----------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="loopflow",
        description="Variational analysis of loop energies on spheres and ellipsoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _DISPATCH:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    return parser


def _resolve_outdir(args, config):
    if args.out:
        return args.out
    env = os.environ.get("LOOPFLOW_OUT")
    if env:
        return env
    return config.output.directory


def main(argv=None):
    args = build_parser().parse_args(argv)
    outdir = None
    try:
        if args.seed is not None and args.seed < 0:
            raise ValueError("--seed must be nonnegative")
        config = parse_config_file(args.config)
        outdir = _resolve_outdir(args, config)
        os.makedirs(outdir, exist_ok=True)
        echo = resolved_dict(config)
        echo["runtime"] = {
            "subcommand": args.command,
            "out_dir": outdir,
            "seed_override": args.seed,
        }
        _write_json(outdir, "config_echo.json", echo)
        seed = config.perturbation.seed if args.seed is None else args.seed
        _DISPATCH[args.command](config, outdir, seed)
    except Exception as exc:
        record = {
            "error": str(exc),
            "error_type": type(exc).__name__,
            "subcommand": args.command,
            "version": VERSION,
        }
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        if outdir is not None and os.path.isdir(outdir):
            try:
                _write_json(outdir, "error.json", record)
            except OSError:
                pass
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
