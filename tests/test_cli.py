import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import loopflow
from loopflow import cli, flow
from loopflow.cli import main, make_initial_map
from loopflow.config import parse_config
from loopflow.variational import energy

SMALL_ENERGY = {
    "domain": {"n_nodes": 32},
    "perturbation": {"seed": 5, "amplitude": 0.03},
}

SMALL_FLOW = {
    "domain": {"n_nodes": 16},
    "perturbation": {"seed": 5, "amplitude": 0.03},
    "flow": {"t_max": 5.0},
    "output": {"stride": 7},
}


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_json(outdir, name):
    with open(os.path.join(outdir, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_energy_eval_artifacts(tmp_path):
    config_path = write_config(tmp_path, SMALL_ENERGY)
    out = str(tmp_path / "out")
    assert main(["energy-eval", "--config", config_path, "--out", out]) == 0
    echo = read_json(out, "config_echo.json")
    assert echo["version"] == "0.1.0"
    assert echo["rng"] == "numpy-pcg64"
    assert echo["domain"]["n_nodes"] == 32
    assert echo["runtime"]["subcommand"] == "energy-eval"
    report = read_json(out, "energy_report.json")
    state = make_initial_map(parse_config(json.dumps(SMALL_ENERGY)))
    assert report["energy"] == pytest.approx(energy(state), rel=1e-12)
    assert report["tangential_tension_l2"] <= report["tension_l2"]
    assert report["target_kind"] == "sphere"


def test_seed_override_changes_initial_map(tmp_path):
    config_path = write_config(tmp_path, SMALL_ENERGY)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["energy-eval", "--config", config_path, "--out", out_a]) == 0
    assert main(["energy-eval", "--config", config_path, "--out", out_b, "--seed", "11"]) == 0
    e_a = read_json(out_a, "energy_report.json")["energy"]
    e_b = read_json(out_b, "energy_report.json")["energy"]
    assert e_a != e_b
    assert read_json(out_b, "config_echo.json")["runtime"]["seed_override"] == 11


def test_out_dir_precedence(tmp_path, monkeypatch):
    config = dict(SMALL_ENERGY)
    config["output"] = {"directory": str(tmp_path / "from_config")}
    config_path = write_config(tmp_path, config)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("LOOPFLOW_OUT", str(env_dir))
    flag_dir = tmp_path / "from_flag"
    assert main(["energy-eval", "--config", config_path, "--out", str(flag_dir)]) == 0
    assert (flag_dir / "energy_report.json").exists()
    assert not env_dir.exists()
    assert main(["energy-eval", "--config", config_path]) == 0
    assert (env_dir / "energy_report.json").exists()
    monkeypatch.delenv("LOOPFLOW_OUT")
    assert main(["energy-eval", "--config", config_path]) == 0
    assert (tmp_path / "from_config" / "energy_report.json").exists()


def test_bad_config_exits_one_before_outdir(tmp_path, capsys):
    config_path = write_config(tmp_path, {"domain": {"mesh_size": 64}})
    out = str(tmp_path / "out")
    assert main(["energy-eval", "--config", config_path, "--out", out]) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error_type"] == "ValueError"
    assert "domain.mesh_size" in record["error"]
    assert not os.path.isdir(out)


def test_runtime_error_writes_error_record(tmp_path, capsys):
    # shape mismatch is only detected after the output directory exists,
    # so the record lands both on stderr and in error.json
    bad = tmp_path / "loop.csv"
    np.savetxt(bad, np.zeros((7, 3)), delimiter=",")
    config = dict(SMALL_ENERGY)
    config["base_map"] = {"file": str(bad)}
    config_path = write_config(tmp_path, config)
    out = str(tmp_path / "out")
    assert main(["energy-eval", "--config", config_path, "--out", out]) == 1
    record = read_json(out, "error.json")
    assert record["error_type"] == "ValueError"
    assert "expected (32, 3)" in record["error"]
    assert json.loads(capsys.readouterr().err)["error"] == record["error"]


def test_map_file_csv_and_npy_round_trip(tmp_path):
    config = parse_config(json.dumps(SMALL_ENERGY))
    state = make_initial_map(config)
    csv_path = tmp_path / "loop.csv"
    np.savetxt(csv_path, state.values, delimiter=",")
    npy_path = tmp_path / "loop.npy"
    np.save(npy_path, state.values)
    for path, atol in ((csv_path, 1e-12), (npy_path, 0.0)):
        payload = {
            "domain": {"n_nodes": 32},
            "base_map": {"file": str(path)},
            "perturbation": {"amplitude": 0.0},
        }
        loaded = make_initial_map(parse_config(json.dumps(payload)))
        assert np.allclose(loaded.values, state.values, atol=atol)


def test_initial_map_determinism_and_guards():
    config = parse_config(json.dumps(SMALL_ENERGY))
    a = make_initial_map(config)
    b = make_initial_map(config)
    assert np.array_equal(a.values, b.values)
    flat = parse_config('{"domain": {"n_nodes": 32}, "perturbation": {"amplitude": 0.0}}')
    base = make_initial_map(flat)
    th = base.mesh.node_angles
    expected = np.stack([np.cos(th), np.sin(th), np.zeros_like(th)], axis=1)
    assert np.array_equal(base.values, expected)
    with pytest.raises(ValueError, match="tube radius"):
        make_initial_map(
            parse_config('{"domain": {"n_nodes": 32}, "perturbation": {"amplitude": 0.7}}')
        )


def test_flow_run_trace_and_fit(tmp_path):
    config_path = write_config(tmp_path, SMALL_FLOW)
    out = str(tmp_path / "out")
    assert main(["flow-run", "--config", config_path, "--out", out]) == 0
    with open(os.path.join(out, "trace.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "t,energy,grad_norm,dist_to_limit"
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert rows[0, 0] == 0.0
    # stride 7 between interior records, final record always present
    dt = rows[1, 0] - rows[0, 0]
    mesh_dt = 0.2 * (2.0 * np.pi / 16.0) ** 2
    assert dt == pytest.approx(7.0 * mesh_dt, rel=1e-12)
    assert np.all(np.diff(rows[:, 1]) <= 1e-12)
    fit = read_json(out, "rate_fit.json")
    assert fit["flow"]["integrator"] == "projected_rk4"
    assert fit["flow"]["n_steps"] >= 100


def test_flow_run_exits_zero_when_its_rate_fit_refuses(tmp_path):
    # the unperturbed great circle is critical, so the flow stops at step 0:
    # trace.csv is complete and rate_fit.json carries the fit's refusal
    payload = {"domain": {"n_nodes": 8}, "perturbation": {"amplitude": 0.0}, "flow": {"t_max": 1.0}}
    config_path = write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    assert main(["flow-run", "--config", config_path, "--out", out]) == 0
    with open(os.path.join(out, "trace.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 2
    fit = read_json(out, "rate_fit.json")
    assert fit["error"] == "only 0 usable records after exclusions, need 20"
    assert fit["flow"]["n_steps"] == 0


def test_flow_run_echoes_the_resolved_seed(tmp_path):
    config_path = write_config(tmp_path, SMALL_FLOW)
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["flow-run", "--config", config_path, "--out", out_a]) == 0
    assert main(["flow-run", "--config", config_path, "--out", out_b, "--seed", "11"]) == 0
    assert read_json(out_a, "rate_fit.json")["flow"]["seed"] == 5
    assert read_json(out_b, "rate_fit.json")["flow"]["seed"] == 11


def test_flow_run_reruns_bit_identical(tmp_path):
    config_path = write_config(tmp_path, SMALL_FLOW)
    out = str(tmp_path / "out")
    names = ("trace.csv", "rate_fit.json", "config_echo.json")
    assert main(["flow-run", "--config", config_path, "--out", out]) == 0
    first = {}
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            first[name] = fh.read()
    assert main(["flow-run", "--config", config_path, "--out", out]) == 0
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == first[name], name


def test_flow_run_fails_by_name_when_its_kept_maps_pass_the_limit(tmp_path, capsys, monkeypatch):
    # a limit below one block of n = 16 maps stands in for the 4 GiB that
    # an n = 512 run at stride 1 reaches after about 350,000 steps
    monkeypatch.setattr(flow, "_KEPT_LIMIT_BYTES", 1000)
    config_path = write_config(tmp_path, {"domain": {"n_nodes": 16}})
    out = str(tmp_path / "out")
    assert main(["flow-run", "--config", config_path, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    record = json.loads(err)
    assert record["error_type"] == "ValueError"
    assert "output.stride" in record["error"] and "limit of 1000 bytes" in record["error"]
    assert not os.path.exists(os.path.join(out, "trace.csv"))


def test_flow_run_admits_a_long_horizon_that_the_tolerance_cuts_short(tmp_path):
    # t_max = 1e6 allows ~3e7 steps (12 GB of maps at stride 1); the
    # tolerance ends the run after about a thousand
    config_path = write_config(tmp_path, {"domain": {"n_nodes": 16}, "flow": {"t_max": 1e6}})
    out = str(tmp_path / "out")
    assert main(["flow-run", "--config", config_path, "--out", out]) == 0
    assert read_json(out, "rate_fit.json")["flow"]["stopped_on_tolerance"]


def test_no_production_path_calls_lstsq(tmp_path, monkeypatch):
    def lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq reached")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    t = np.linspace(0.0, 10.0, 200)
    trace = flow.FlowTrace(t, 1.0 + np.exp(-2.0 * t), 2.0 * np.exp(-t), np.full(t.size, np.nan))
    assert abs(flow.fit_convergence_rate(trace)["exponential"]["rate"] - 2.0) < 0.05
    out = str(tmp_path / "verify")
    assert main(["finite-verify", "--config", write_config(tmp_path, {}), "--out", out]) == 0
    config_path = write_config(tmp_path, {"domain": {"n_nodes": 16}}, name="reduce.json")
    assert main(["reduce-run", "--config", config_path, "--out", str(tmp_path / "reduce")]) == 0


def test_loj_estimate_artifacts(tmp_path):
    payload = {
        "domain": {"n_nodes": 32},
        "perturbation": {"seed": 5, "amplitude": 0.03},
        "flow": {"t_max": 20.0},
    }
    config_path = write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    assert main(["loj-estimate", "--config", config_path, "--out", out]) == 0
    report = read_json(out, "exponent_fit.json")
    assert 0.4 < report["fit"]["theta"] < 0.6
    assert report["n_flow_pairs"] > 100
    assert report["n_perturbation_pairs"] >= 3
    assert report["verification_at_half"]["usable_samples"] > 100
    with open(os.path.join(out, "cloud.csv"), "r", encoding="utf-8") as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "value_gap,grad_norm,source"
    sources = {line.split(",")[2] for line in lines[1:]}
    assert sources == {"flow", "perturbation"}


def tuple_row_csv(header, rows):
    """The bytes of the former CSV writers: a list of one tuple of numpy
    scalars a row, each float written through repr."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(x)) if isinstance(x, (float, np.floating)) else str(x) for x in row))
    return "\n".join(lines) + "\n"


def n16_run(tmp_path, subcommand, stride=1):
    """(config, outdir) of a seed-7 n = 16 run of subcommand."""
    payload = {"domain": {"n_nodes": 16}, "output": {"stride": stride}}
    out = str(tmp_path / "out")
    assert main([subcommand, "--config", write_config(tmp_path, payload), "--out", out, "--seed", "7"]) == 0
    return parse_config(json.dumps(payload)), out


@pytest.mark.parametrize("stride", [1, 7])
def test_trace_csv_matches_the_former_tuple_rows(tmp_path, stride):
    config, out = n16_run(tmp_path, "flow-run", stride)
    trace = flow.run_flow(make_initial_map(config, 7), config.flow, distance_stride=stride)
    rows = [
        (trace.times[i], trace.energies[i], trace.grad_norms[i], trace.dist_to_limit[i])
        for i in np.flatnonzero(~np.isnan(trace.dist_to_limit))
    ]
    with open(os.path.join(out, "trace.csv"), "r", encoding="utf-8") as fh:
        assert fh.read() == tuple_row_csv(("t", "energy", "grad_norm", "dist_to_limit"), rows)


def test_cloud_csv_matches_the_former_tuple_rows(tmp_path):
    config, out = n16_run(tmp_path, "loj-estimate")
    pert_gaps, pert_grads = cli._perturbation_pairs(config, 7)
    trace = flow.run_flow(make_initial_map(config, 7), config.flow, distance_stride=None)
    traj_gaps, traj_grads = cli.trajectory_pairs(trace)
    rows = [(g, d, "flow") for g, d in zip(traj_gaps, traj_grads)]
    rows += [(g, d, "perturbation") for g, d in zip(pert_gaps, pert_grads)]
    with open(os.path.join(out, "cloud.csv"), "r", encoding="utf-8") as fh:
        assert fh.read() == tuple_row_csv(("value_gap", "grad_norm", "source"), rows)


def test_loj_estimate_fails_on_the_workspace_before_the_flow(tmp_path, monkeypatch):
    def bad_workspace(*args, **kwargs):
        raise ValueError("no spectral gap")

    flows = []
    monkeypatch.setattr(cli, "build_reduction_workspace", bad_workspace)
    monkeypatch.setattr(cli, "run_flow", lambda *args, **kwargs: flows.append(args))
    config_path = write_config(tmp_path, SMALL_FLOW)
    out = str(tmp_path / "out")
    assert main(["loj-estimate", "--config", config_path, "--out", out]) == 1
    assert read_json(out, "error.json")["error"] == "no spectral gap"
    assert flows == []


def test_reduce_run_rejects_a_kernel_tol_that_keeps_every_eigenvalue(tmp_path):
    payload = {"domain": {"n_nodes": 16}, "reduction": {"kernel_tol": 1.5}}
    config_path = write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    assert main(["reduce-run", "--config", config_path, "--out", out, "--seed", "7"]) == 1
    record = read_json(out, "error.json")
    assert record["error_type"] == "ValueError"
    assert "kernel_tol" in record["error"]
    assert not os.path.exists(os.path.join(out, "reduction_report.json"))


def test_reduce_run_artifacts(tmp_path):
    payload = {
        "domain": {"n_nodes": 48},
        "lojasiewicz": {"radii": [0.01, 0.02], "samples_per_radius": 4},
    }
    config_path = write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    assert main(["reduce-run", "--config", config_path, "--out", out]) == 0
    report = read_json(out, "reduction_report.json")
    assert report["kernel_dimension"] == 3
    assert report["gap_ratio"] > 10.0
    assert report["integrability"]["integrable"] is True
    assert report["sandwich"]["n_newton_failure"] == 0
    assert report["approximation"]["n_samples"] >= 3
    assert report["approximation"]["slope"] > 1.5
    assert report["lipschitz"]["ratio_spread"] < 10.0


def test_reduce_run_accepts_a_radius_one_ulp_below_the_chart_radius(tmp_path):
    # a unit direction's rounding lifts some |r * direction| onto 0.05 itself,
    # which reduced_section alone would reject
    radius = np.nextafter(0.05, 0.0)
    payload = {"domain": {"n_nodes": 16}, "lojasiewicz": {"radii": [radius], "samples_per_radius": 40}}
    config_path = write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    assert main(["reduce-run", "--config", config_path, "--out", out]) == 0
    report = read_json(out, "reduction_report.json")
    assert report["kernel_dimension"] == 3
    assert report["sandwich"]["radii"] == [radius]


ELLIPSOID = {
    "domain": {"n_nodes": 16},
    "target": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0, 1.3]},
    "perturbation": {"seed": 5},
    "lojasiewicz": {"radii": [0.01, 0.02], "samples_per_radius": 4},
}


def test_ellipsoid_reduce_run_and_loj_estimate(tmp_path):
    config_path = write_config(tmp_path, ELLIPSOID)
    out = str(tmp_path / "reduce")
    assert main(["reduce-run", "--config", config_path, "--out", out]) == 0
    report = read_json(out, "reduction_report.json")
    assert report["kernel_dimension"] == 1
    assert report["gap_ratio"] > 10.0
    assert report["sandwich"]["n_newton_failure"] == 0
    assert report["approximation"]["slope"] > 1.5
    out = str(tmp_path / "loj")
    assert main(["loj-estimate", "--config", config_path, "--out", out]) == 0
    assert 0.4 < read_json(out, "exponent_fit.json")["fit"]["theta"] < 0.6


def test_finite_verify_artifacts(tmp_path):
    payload = {
        "finite_verify": {
            "polynomials": [
                {
                    "label": "bowl",
                    "terms": [[[2, 0], 1.0], [[0, 2], 1.0]],
                    "check": "gradient",
                    "radii": [0.001, 0.00316, 0.01, 0.0316, 0.1],
                },
                {
                    "label": "line zeros",
                    "terms": [[[2], 1.0]],
                    "check": "distance",
                    "box": [[-1.0, 1.0]],
                    "grid_n": 41,
                },
            ]
        }
    }
    config_path = write_config(tmp_path, payload)
    out = str(tmp_path / "out")
    assert main(["finite-verify", "--config", config_path, "--out", out]) == 0
    table = read_json(out, "exponent_table.json")["table"]
    assert len(table) == 2
    assert abs(table[0]["exponent"] - 0.5) < 0.05
    assert table[0]["check"] == "gradient"
    assert abs(table[1]["exponent"] - 2.0) < 0.05


def test_finite_verify_names_the_entry_whose_run_fails(tmp_path, capsys):
    # the config is valid, but at grid_n 2 the circle's distance envelope
    # is one point, and the line through it is undetermined
    circle = {"terms": [[[2, 0], 1.0], [[0, 2], 1.0], [[0, 0], -0.25]], "check": "distance",
              "box": [[-1.0, 1.0], [-1.0, 1.0]], "grid_n": 2}
    config_path = write_config(tmp_path, {"finite_verify": {"polynomials": [circle]}})
    assert main(["finite-verify", "--config", config_path, "--out", str(tmp_path / "out")]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error.startswith("finite_verify.polynomials[0]: line fit is undetermined")


def test_unknown_subcommand_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        main(["render", "--config", "missing.json"])


OVERFLOW_ENTRY = {
    "label": "x^2", "terms": [[[2], 1.0]], "check": "gradient", "radii": [1e300, 1e301, 1e302, 1e303, 1e304],
}


@pytest.mark.parametrize(
    "command, payload, flags, named",
    [
        ("energy-eval", {"base_map": {"file": 5}}, [], "base_map.file must be a string"),
        ("energy-eval", {"output": {"directory": 5}}, [], "output.directory must be a string"),
        ("energy-eval", {"output": {"directory": ""}}, [], "output.directory must be nonempty"),
        ("finite-verify", {"finite_verify": {"polynomials": 5}}, [], "finite_verify.polynomials must be a list"),
        (
            "finite-verify",
            {"finite_verify": {"polynomials": [{**OVERFLOW_ENTRY, "label": 5}]}},
            [],
            "finite_verify.polynomials[0].label must be a string",
        ),
        ("energy-eval", {"perturbation": {"seed": -1}}, [], "perturbation.seed must be nonnegative"),
        ("energy-eval", {}, ["--seed", "-1"], "--seed must be nonnegative"),
        (
            "energy-eval",
            {"target": {"kind": "ellipsoid", "semi_axes": [1, 1, float("inf")]}},
            [],
            "target.semi_axes must be a list of positive finite lengths",
        ),
        (
            "reduce-run",
            {"domain": {"n_nodes": 16}, "reduction": {"kernel_tol": 1e-300}},
            [],
            "kernel_tol 1e-300 keeps no eigenvalue",
        ),
        (
            "finite-verify",
            {"finite_verify": {"polynomials": [OVERFLOW_ENTRY]}},
            [],
            "finite_verify.polynomials[0]: f or its gradient is not finite at radius 1e+300",
        ),
        ("reduce-run", {"domain": {"n_nodes": 16}, "lojasiewicz": {"radii": [1.0]}}, [], "lojasiewicz.radii"),
        ("reduce-run", {"domain": {"n_nodes": 16}, "lojasiewicz": {"radii": [1e308]}}, [], "lojasiewicz.radii"),
        ("energy-eval", {"domain": {"n_nodes": 16}, "base_map": {"degree": 8}}, [], "base_map.degree"),
    ],
    ids=[
        "file_not_string", "directory_not_string", "directory_empty", "polynomials_not_list",
        "label_not_string", "negative_seed_key", "negative_seed_flag", "infinite_semi_axis",
        "kernel_tol_keeps_none", "overflowing_radii", "radius_outside_chart", "radius_overflows",
        "aliased_degree",
    ],
)
def test_bad_input_exits_one_with_one_error_line_naming_it(
    command, payload, flags, named, tmp_path, monkeypatch, capfd
):
    # no --out, so that output.directory is what the run would use
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LOOPFLOW_OUT", raising=False)
    assert main([command, "--config", write_config(tmp_path, payload), *flags]) == 1
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(named)


def great_circle_16():
    theta = 2.0 * np.pi * np.arange(16) / 16
    return np.stack([np.cos(theta), np.sin(theta), np.zeros(16)], axis=1)


@pytest.mark.parametrize(
    "name, write",
    [
        ("loop.csv", lambda path: path.write_text("1;2;3\n")),
        ("loop.npy", lambda path: np.save(path, np.array([{}, None], dtype=object))),
        ("missing.npy", lambda path: None),
        # numpy casts these to float with at most a ComplexWarning: the real
        # part of a complex loop, and a bool loop as rows of ones and zeros
        ("complex.npy", lambda path: np.save(path, great_circle_16() + 1j)),
        ("bool.npy", lambda path: np.save(path, np.tile([True, False, False], (16, 1)))),
    ],
    ids=["csv_not_comma_separated", "npy_of_objects", "missing", "complex", "bool"],
)
def test_unreadable_base_map_file_fails_naming_the_key(name, write, tmp_path, capfd):
    path = tmp_path / name
    write(path)
    config_path = write_config(tmp_path, {"domain": {"n_nodes": 16}, "base_map": {"file": str(path)}})
    assert main(["energy-eval", "--config", config_path, "--out", str(tmp_path / "out")]) == 1
    lines = capfd.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"].startswith(f"base_map.file {path}: ")


@pytest.mark.parametrize(
    "payload",
    [
        {"domain": {"n_nodes": 24, "diff_order": 2}, "flow": {"t_max": 50.0}},
        {
            "domain": {"n_nodes": 8, "diff_order": 2},
            "target": {"kind": "ellipsoid", "ambient_dim": 3, "semi_axes": [1.0, 1.0, 1.3]},
            "flow": {"t_max": 100.0},
        },
        {
            "domain": {"n_nodes": 16, "diff_order": 4},
            "target": {"kind": "sphere", "ambient_dim": 4},
            "flow": {"t_max": 20.0, "integrator": "projected_euler"},
        },
    ],
    ids=["flow-sphere", "ellipsoid-flow", "s3-euler-order4"],
)
def test_energy_eval_and_flow_run_agree_at_t0(payload, tmp_path):
    # E(u) and ||M_E(u)||: one quadrature, so the report and the trace's
    # first row hold the same floats
    config_path = write_config(tmp_path, payload)
    for command in ("energy-eval", "flow-run"):
        assert main([command, "--config", config_path, "--out", str(tmp_path / command), "--seed", "7"]) == 0
    report = read_json(str(tmp_path / "energy-eval"), "energy_report.json")
    with open(tmp_path / "flow-run" / "trace.csv", encoding="utf-8") as fh:
        t, e, grad, _ = map(float, fh.readlines()[1].split(","))
    assert (t, e, grad) == (0.0, report["energy"], report["tangential_tension_l2"])


def test_overflowing_radii_leave_one_stderr_line(tmp_path):
    # a fresh interpreter, whose numpy warnings and LAPACK messages reach
    # stderr as they would for a user, not pytest's warning filter
    src = os.path.dirname(os.path.dirname(loopflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    config_path = write_config(tmp_path, {"finite_verify": {"polynomials": [OVERFLOW_ENTRY]}})
    argv = [sys.executable, "-m", "loopflow.cli", "finite-verify", "--config", config_path, "--out", str(tmp_path)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert len(run.stderr.splitlines()) == 1
    assert json.loads(run.stderr)["error"].startswith("finite_verify.polynomials[0]: ")


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.mark.parametrize(
    "preset, imports, expected",
    [
        ({}, "loopflow", "1"),
        ({"OMP_NUM_THREADS": "2"}, "loopflow", "unset"),
        ({"OPENBLAS_NUM_THREADS": "3"}, "loopflow", "3"),
        ({}, "numpy, loopflow", "unset"),
    ],
    ids=["clean", "omp_set", "openblas_set", "numpy_first"],
)
def test_import_defaults_openblas_to_one_thread(preset, imports, expected):
    # a fresh interpreter, so that numpy is not loaded before loopflow
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = os.path.dirname(os.path.dirname(loopflow.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(preset)
    code = f"import os, {imports}; print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert out.stdout.strip() == expected


@pytest.mark.parametrize(
    "module",
    ["bundles", "config", "flow", "lojasiewicz", "mesh", "polynomials", "reduction", "targets", "variational"],
)
def test_public_names_are_exported_at_the_package_root(module):
    # every module but cli states its public names once, and the root
    # star-imports them
    module = importlib.import_module(f"loopflow.{module}")
    assert "__all__" in vars(module)
    assert [name for name in module.__all__ if getattr(loopflow, name, None) is not getattr(module, name)] == []
