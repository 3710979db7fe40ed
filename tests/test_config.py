import json

import pytest

from loopflow.config import (
    RNG_NAME,
    VERSION,
    parse_config,
    parse_config_file,
    resolved_dict,
)


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
        ('{"flow": {"integrator": "leapfrog"}}', "integrator"),
        ('{"reduction": {"kernel_tol": 0.0}}', "kernel_tol"),
        ('{"lojasiewicz": {"radii": []}}', "nonempty"),
        ('{"lojasiewicz": {"samples_per_radius": 0}}', "at least 1"),
        ('{"output": {"stride": 0}}', "at least 1"),
    ],
)
def test_field_validation_messages(doc, message):
    with pytest.raises(ValueError, match=message):
        parse_config(doc)


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


def test_resolved_dict_echo():
    config = parse_config('{"domain": {"n_nodes": 48}}')
    echo = resolved_dict(config)
    assert echo["version"] == VERSION
    assert echo["rng"] == RNG_NAME
    assert echo["domain"]["n_nodes"] == 48
    assert echo["flow"]["t_max"] == 50.0
    # the echo is a plain JSON-serializable tree
    json.dumps(echo)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text('{"perturbation": {"seed": 3, "amplitude": 0.02}}')
    config = parse_config_file(path)
    assert config.perturbation.seed == 3
    assert config.perturbation.amplitude == 0.02
