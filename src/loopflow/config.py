"""Run configuration: JSON parsing, strict validation, defaults, echo.

Configs are plain JSON with one section per concern. Unknown keys are
rejected by full path ("domain.mesh_size") so typos cannot silently fall
back to defaults. The flow section is flow.FlowConfig itself, which
checks its own values. The resolved configuration is echoed next to
every output so a run can be reproduced from its artifacts alone.
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Optional

from .flow import FlowConfig
from .polynomials import from_term_list

__all__ = ["RunConfig", "parse_config", "parse_config_file", "resolved_dict", "VERSION", "RNG_NAME"]

VERSION = "0.1.0"
RNG_NAME = "numpy-pcg64"


@dataclass(frozen=True)
class DomainSection:
    n_nodes: int = 128
    diff_order: int = 2


@dataclass(frozen=True)
class TargetSection:
    kind: str = "sphere"
    ambient_dim: int = 3
    semi_axes: Optional[list[float]] = None


@dataclass(frozen=True)
class BaseMapSection:
    degree: int = 1
    file: Optional[str] = None


@dataclass(frozen=True)
class PerturbationSection:
    seed: int = 0
    amplitude: float = 0.05
    mode_count: int = 3


@dataclass(frozen=True)
class ReductionSection:
    kernel_tol: float = 1e-6
    newton_tol: float = 1e-10
    newton_max_iter: int = 50


@dataclass(frozen=True)
class LojasiewiczSection:
    radii: list[float] = field(default_factory=lambda: [0.005, 0.01, 0.02])
    samples_per_radius: int = 20


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    stride: int = 1


def _default_polynomials():
    return [
        {"label": "x^2", "terms": [[[2], 1.0]], "check": "gradient",
         "radii": [0.001, 0.00316, 0.01, 0.0316, 0.1]},
        {"label": "x^4", "terms": [[[4], 1.0]], "check": "gradient",
         "radii": [0.001, 0.00316, 0.01, 0.0316, 0.1]},
        {"label": "x^2+y^4", "terms": [[[2, 0], 1.0], [[0, 4], 1.0]], "check": "gradient",
         "radii": [0.001, 0.00316, 0.01, 0.0316, 0.1]},
        {"label": "x^2 zero set", "terms": [[[2], 1.0]], "check": "distance",
         "box": [[-1.0, 1.0]], "grid_n": 21},
        {"label": "x^2 y^2 zero set", "terms": [[[2, 2], 1.0]], "check": "distance",
         "box": [[-1.0, 1.0], [-1.0, 1.0]], "grid_n": 21},
    ]


@dataclass(frozen=True)
class FiniteVerifySection:
    polynomials: list = field(default_factory=_default_polynomials)


@dataclass(frozen=True)
class RunConfig:
    domain: DomainSection = field(default_factory=DomainSection)
    target: TargetSection = field(default_factory=TargetSection)
    base_map: BaseMapSection = field(default_factory=BaseMapSection)
    perturbation: PerturbationSection = field(default_factory=PerturbationSection)
    flow: FlowConfig = field(default_factory=FlowConfig)
    reduction: ReductionSection = field(default_factory=ReductionSection)
    lojasiewicz: LojasiewiczSection = field(default_factory=LojasiewiczSection)
    output: OutputSection = field(default_factory=OutputSection)
    finite_verify: FiniteVerifySection = field(default_factory=FiniteVerifySection)


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(value):
    return _is_number(value) and math.isfinite(value)


def _is_interval(pair):
    ok = isinstance(pair, list) and len(pair) == 2 and all(map(_is_finite, pair))
    return ok and pair[0] < pair[1]


def _build_section(name, cls, data):
    if not isinstance(data, dict):
        raise ValueError(f"section '{name}' must be an object")
    allowed = cls.__dataclass_fields__
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown key '{name}.{key}'")
    # Each given value is checked against its field's annotation before
    # the section is built. A field annotated int counts or indexes
    # something, and JSON writes an integer without a point, so a float
    # there (even 2.0) or a bool is rejected by name: a degree of 1.5 would
    # build an open loop, and an iteration cap of 2.5 would act as 2. A
    # float field, and each entry of a list[float] field, takes any number
    # but a bool, and a list[float] field (unless Optional) must be a list.
    for key in fields(cls):
        if key.name not in data:
            continue
        value, path = data[key.name], f"{name}.{key.name}"
        if key.type is int and (isinstance(value, bool) or not isinstance(value, int)):
            raise ValueError(f"{path} must be an integer")
        if key.type is float and not _is_number(value):
            raise ValueError(f"{path} must be a number")
        if key.type == list[float] and not isinstance(value, list):
            raise ValueError(f"{path} must be a list of numbers")
        if key.type in (list[float], Optional[list[float]]) and isinstance(value, list):
            for i, entry in enumerate(value):
                if not _is_number(entry):
                    raise ValueError(f"{path}[{i}] must be a number")
    try:
        return cls(**data)
    except ValueError as exc:  # FlowConfig checks its own fields
        raise ValueError(f"{name}.{exc}") from exc


def _validate(config):
    checks = [
        (config.domain.n_nodes >= 8, "domain.n_nodes must be at least 8"),
        (config.domain.diff_order in (2, 4), "domain.diff_order must be 2 or 4"),
        (config.target.kind in ("sphere", "ellipsoid"), "target.kind must be sphere or ellipsoid"),
        (config.target.ambient_dim >= 2, "target.ambient_dim must be at least 2"),
        (config.base_map.degree >= 1 or config.base_map.file is not None,
         "base_map.degree must be a positive integer"),
        (config.perturbation.amplitude >= 0.0, "perturbation.amplitude must be nonnegative"),
        (config.perturbation.mode_count >= 1, "perturbation.mode_count must be at least 1"),
        (config.reduction.kernel_tol > 0.0, "reduction.kernel_tol must be positive"),
        (0.0 < config.reduction.newton_tol < math.inf,
         "reduction.newton_tol must be positive and finite"),
        (config.reduction.newton_max_iter >= 1, "reduction.newton_max_iter must be at least 1"),
        (len(config.lojasiewicz.radii) > 0, "lojasiewicz.radii must be nonempty"),
        (all(r >= 0.0 for r in config.lojasiewicz.radii),
         "lojasiewicz.radii must be nonnegative"),
        (config.lojasiewicz.samples_per_radius >= 1,
         "lojasiewicz.samples_per_radius must be at least 1"),
        (config.output.stride >= 1, "output.stride must be at least 1"),
    ]
    if config.target.kind == "ellipsoid":
        axes = config.target.semi_axes
        checks.append(
            (isinstance(axes, list) and len(axes) == config.target.ambient_dim
             and all(a > 0 for a in axes),
             "target.semi_axes must list one positive length per ambient dimension"),
        )
    else:
        checks.append(
            (config.target.semi_axes is None,
             "target.semi_axes applies to an ellipsoid only; leave it out for a sphere"),
        )
    for ok, message in checks:
        if not ok:
            raise ValueError(message)
    for i, entry in enumerate(config.finite_verify.polynomials):
        where = f"finite_verify.polynomials[{i}]"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object")
        for key in entry:
            if key not in ("label", "terms", "check", "radii", "box", "grid_n"):
                raise ValueError(f"unknown key '{where}.{key}'")
        if "terms" not in entry:
            raise ValueError(f"{where} needs a 'terms' list")
        try:
            n_vars = from_term_list(entry["terms"]).n_vars
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}.terms: {exc}") from exc
        check = entry.get("check")
        if check not in ("gradient", "distance"):
            raise ValueError(f"{where}.check must be 'gradient' or 'distance'")
        if check == "gradient":
            radii = entry.get("radii")
            if not radii:
                raise ValueError(f"{where} needs nonempty 'radii' for a gradient check")
            if not isinstance(radii, list) or not all(_is_finite(r) for r in radii):
                raise ValueError(f"{where}.radii must be a list of finite numbers")
        if check == "distance":
            if not entry.get("box") or not entry.get("grid_n"):
                raise ValueError(f"{where} needs 'box' and 'grid_n' for a distance check")
            box = entry["box"]
            if not (isinstance(box, list) and len(box) == n_vars and all(map(_is_interval, box))):
                raise ValueError(
                    f"{where}.box must hold one [lo, hi] pair of finite numbers, lo < hi, "
                    f"per variable of the polynomial ({n_vars})"
                )
            grid_n = entry["grid_n"]
            if isinstance(grid_n, bool) or not isinstance(grid_n, int) or grid_n < 1:
                raise ValueError(f"{where}.grid_n must be a positive integer")


def parse_config(text):
    """RunConfig from a JSON document; unknown keys rejected by path."""
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    sections = {section.name: section.type for section in fields(RunConfig)}
    for key in data:
        if key not in sections:
            raise ValueError(f"unknown key '{key}'")
    config = RunConfig(
        **{name: _build_section(name, cls, data.get(name, {})) for name, cls in sections.items()}
    )
    _validate(config)
    return config


def parse_config_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def resolved_dict(config):
    """Fully resolved configuration plus version and RNG provenance."""
    out = asdict(config)
    out["version"] = VERSION
    out["rng"] = RNG_NAME
    return out
