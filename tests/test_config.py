import dataclasses
import json
import re

import pytest

from loopflow.config import (
    RNG_NAME,
    VERSION,
    RunConfig,
    parse_config,
    parse_config_file,
    resolved_dict,
)
from loopflow.flow import FlowConfig


def test_empty_documents_give_defaults():
    a = parse_config("")
    b = parse_config("{}")
    assert a == b
    assert a.domain.n_nodes == 128
    assert a.domain.diff_order == 2
    assert a.target.kind == "sphere"
    assert a.base_map.degree == 1
    assert a.flow.integrator == "projected_rk4"
    assert a.lojasiewicz.radii == [0.005, 0.01, 0.02]
    assert len(a.finite_verify.polynomials) == 5


def test_section_override_leaves_rest_alone():
    config = parse_config('{"domain": {"n_nodes": 64}, "perturbation": {"seed": 7}}')
    assert config.domain.n_nodes == 64
    assert config.domain.diff_order == 2
    assert config.perturbation.seed == 7
    assert config.perturbation.amplitude == 0.05


def test_unknown_keys_rejected_by_path():
    with pytest.raises(ValueError, match="unknown key 'domains'"):
        parse_config('{"domains": {}}')
    with pytest.raises(ValueError, match="unknown key 'domain.mesh_size'"):
        parse_config('{"domain": {"mesh_size": 64}}')
    with pytest.raises(ValueError, match="unknown key 'flow.dt'"):
        parse_config('{"flow": {"dt": 0.1}}')


def test_parse_errors_carry_line_numbers():
    text = '{\n  "domain": {"n_nodes": 64},\n  "flow": oops\n}'
    with pytest.raises(ValueError, match="line 3"):
        parse_config(text)


def test_document_and_section_shape_checks():
    with pytest.raises(ValueError, match="JSON object"):
        parse_config("[1, 2]")
    with pytest.raises(ValueError, match="section 'domain' must be an object"):
        parse_config('{"domain": 5}')


@pytest.mark.parametrize(
    "doc, message",
    [
        ('{"domain": {"n_nodes": 4}}', "at least 8"),
        ('{"domain": {"diff_order": 3}}', "2 or 4"),
        ('{"target": {"kind": "torus"}}', "sphere or ellipsoid"),
        ('{"target": {"ambient_dim": 1}}', "at least 2"),
        ('{"target": {"kind": "ellipsoid"}}', "semi_axes"),
        ('{"target": {"kind": "ellipsoid", "semi_axes": [1.0, 2.0]}}', "semi_axes"),
        ('{"target": {"kind": "sphere", "semi_axes": [1.0, 1.0, 1.3]}}', "target.semi_axes"),
        ('{"perturbation": {"amplitude": -0.1}}', "nonnegative"),
        ('{"perturbation": {"mode_count": 0}}', "at least 1"),
        ('{"flow": {"dt_factor": 0.9}}', "dt_factor"),
        ('{"flow": {"t_max": 0.0}}', "t_max"),
        ('{"flow": {"t_max": NaN}}', "flow.t_max must be positive and finite"),
        ('{"flow": {"t_max": Infinity}}', "flow.t_max must be positive and finite"),
        ('{"flow": {"stop_grad_tol": NaN}}', "flow.stop_grad_tol must be finite and nonnegative"),
        ('{"flow": {"stop_grad_tol": -1e-8}}', "flow.stop_grad_tol must be finite and nonnegative"),
        ('{"flow": {"integrator": "leapfrog"}}', "integrator"),
        ('{"reduction": {"kernel_tol": 0.0}}', "kernel_tol"),
        ('{"reduction": {"newton_tol": Infinity}}', r"^reduction\.newton_tol must be positive and finite$"),
        ('{"reduction": {"newton_tol": NaN}}', r"^reduction\.newton_tol must be positive and finite$"),
        ('{"lojasiewicz": {"radii": []}}', "nonempty"),
        (
            '{"lojasiewicz": {"radii": [0.01, 0.05]}}',
            r"^lojasiewicz\.radii must be a nonempty list of nonnegative numbers below the reduced-chart radius 0\.05$",
        ),
        ('{"lojasiewicz": {"samples_per_radius": 0}}', "at least 1"),
        ('{"output": {"stride": 0}}', "at least 1"),
        ('{"perturbation": {"amplitude": "x"}}', r"^perturbation\.amplitude must be a number$"),
        ('{"flow": {"dt_factor": "x"}}', r"^flow\.dt_factor must be a number$"),
        ('{"flow": {"t_max": true}}', r"^flow\.t_max must be a number$"),
        ('{"reduction": {"kernel_tol": [1]}}', r"^reduction\.kernel_tol must be a number$"),
        ('{"lojasiewicz": {"radii": ["a"]}}', r"^lojasiewicz\.radii\[0\] must be a number$"),
        ('{"lojasiewicz": {"radii": 0.01}}', r"^lojasiewicz\.radii must be a list of numbers$"),
        (
            '{"target": {"kind": "ellipsoid", "semi_axes": ["a", 1, 1]}}',
            r"^target\.semi_axes\[0\] must be a number$",
        ),
    ],
)
def test_field_validation_messages(doc, message):
    with pytest.raises(ValueError, match=message):
        parse_config(doc)


INTEGER_KEYS = [
    "domain.n_nodes",
    "domain.diff_order",
    "target.ambient_dim",
    "base_map.degree",
    "perturbation.seed",
    "perturbation.mode_count",
    "reduction.newton_max_iter",
    "lojasiewicz.samples_per_radius",
    "output.stride",
]


def test_integer_keys_are_the_int_annotated_fields():
    # the integer check reads each field's annotation; string annotations
    # (from __future__ import annotations) would switch it off
    annotated = [
        f"{section.name}.{key.name}"
        for section in dataclasses.fields(RunConfig)
        for key in dataclasses.fields(section.type)
        if key.type is int
    ]
    assert annotated == INTEGER_KEYS


@pytest.mark.parametrize("path", INTEGER_KEYS)
@pytest.mark.parametrize("bad", [2.5, 4.0, True], ids=["fraction", "integral_float", "bool"])
def test_integer_keys_reject_floats_and_bools(path, bad):
    name, key = path.split(".")
    with pytest.raises(ValueError, match=rf"^{re.escape(path)} must be an integer$"):
        parse_config(json.dumps({name: {key: bad}}))


def test_ellipsoid_with_matching_axes_passes():
    config = parse_config(
        '{"target": {"kind": "ellipsoid", "semi_axes": [1.0, 1.0, 0.8]}}'
    )
    assert config.target.semi_axes == [1.0, 1.0, 0.8]


def test_finite_verify_entry_validation():
    def doc(entry):
        return json.dumps({"finite_verify": {"polynomials": [entry]}})

    with pytest.raises(ValueError, match="needs a 'terms'"):
        parse_config(doc({"check": "gradient", "radii": [0.1]}))
    with pytest.raises(ValueError, match="'gradient' or 'distance'"):
        parse_config(doc({"terms": [[[2], 1.0]], "check": "hessian"}))
    with pytest.raises(ValueError, match="nonempty 'radii'"):
        parse_config(doc({"terms": [[[2], 1.0]], "check": "gradient"}))
    with pytest.raises(ValueError, match="'box' and 'grid_n'"):
        parse_config(doc({"terms": [[[2], 1.0]], "check": "distance"}))
    with pytest.raises(ValueError, match=r"polynomials\[0\].color"):
        parse_config(
            doc({"terms": [[[2], 1.0]], "check": "gradient", "radii": [0.1], "color": "red"})
        )
    with pytest.raises(ValueError, match=r"^finite_verify\.polynomials\[0\]\.terms: non-integer exponent"):
        parse_config(doc({"label": "x^2.7", "terms": [[[2.7], 1.0]], "check": "gradient", "radii": [0.1]}))
    with pytest.raises(ValueError, match=r"^finite_verify\.polynomials\[0\]\.terms: "):
        parse_config(doc({"terms": [[2, 1.0]], "check": "gradient", "radii": [0.1]}))
    for radii in (["a"], [0.1, True], [0.1, float("inf")], 0.1):
        with pytest.raises(ValueError, match=r"^finite_verify\.polynomials\[0\]\.radii must be "):
            parse_config(doc({"terms": [[[2], 1.0]], "check": "gradient", "radii": radii}))
    x2y2 = [[[2, 2], 1.0]]
    for box in ([[-1.0, 1.0]], [[-1.0, 1.0], [1.0, -1.0]], [[-1.0, 1.0], [-1.0, "1"]],
                [[-1.0, 1.0], [-1.0, float("nan")]], [[-1.0, 1.0], [-1.0]], [-1.0, 1.0]):
        with pytest.raises(ValueError, match=r"^finite_verify\.polynomials\[0\]\.box must "):
            parse_config(doc({"terms": x2y2, "check": "distance", "box": box, "grid_n": 21}))
    for grid_n in (21.0, True, -3):
        with pytest.raises(ValueError, match=r"^finite_verify\.polynomials\[0\]\.grid_n must be a positive integer$"):
            parse_config(doc({"terms": [[[2], 1.0]], "check": "distance", "box": [[-1.0, 1.0]], "grid_n": grid_n}))


def test_resolved_dict_echo():
    config = parse_config('{"domain": {"n_nodes": 48}}')
    echo = resolved_dict(config)
    assert echo["version"] == VERSION
    assert echo["rng"] == RNG_NAME
    assert echo["domain"]["n_nodes"] == 48
    assert echo["flow"]["t_max"] == 50.0
    # the echo is a plain JSON-serializable tree
    json.dumps(echo)


def test_flow_section_is_the_flow_config():
    assert parse_config('{"flow": {"t_max": 5}}').flow == FlowConfig(t_max=5)
    with pytest.raises(ValueError, match="unknown key 'flow.seed'"):
        parse_config('{"flow": {"seed": 1}}')
    with pytest.raises(ValueError, match=r"^flow\.t_max must be positive and finite$"):
        parse_config('{"flow": {"t_max": 0}}')
    echo = resolved_dict(parse_config("{}"))
    assert set(echo["flow"]) == {"dt_factor", "t_max", "stop_grad_tol", "integrator"}


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"perturbation": {"seed": 3, "amplitude": 0.02}}')
    config = parse_config_file(path)
    assert config.perturbation.seed == 3
    assert config.perturbation.amplitude == 0.02
