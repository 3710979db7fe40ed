"""Run configuration: JSON parsing, strict validation, defaults, echo.

Configs are plain JSON with one section per concern. Unknown keys are
rejected by full path ("domain.mesh_size") so typos cannot silently fall
back to defaults. The resolved configuration is echoed next to every
output so a run can be reproduced from its artifacts alone.
"""

import json
from dataclasses import asdict, dataclass, field
from typing import Optional

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
    semi_axes: Optional[list] = None


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
class FlowSection:
    dt_factor: float = 0.2
    t_max: float = 50.0
    stop_grad_tol: float = 1e-8
    integrator: str = "projected_rk4"


@dataclass(frozen=True)
class ReductionSection:
    kernel_tol: float = 1e-6
    newton_tol: float = 1e-10
    newton_max_iter: int = 50


@dataclass(frozen=True)
class LojasiewiczSection:
    radii: list = field(default_factory=lambda: [0.005, 0.01, 0.02])
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
    flow: FlowSection = field(default_factory=FlowSection)
    reduction: ReductionSection = field(default_factory=ReductionSection)
    lojasiewicz: LojasiewiczSection = field(default_factory=LojasiewiczSection)
    output: OutputSection = field(default_factory=OutputSection)
    finite_verify: FiniteVerifySection = field(default_factory=FiniteVerifySection)


_SECTIONS = {
    "domain": DomainSection,
    "target": TargetSection,
    "base_map": BaseMapSection,
    "perturbation": PerturbationSection,
    "flow": FlowSection,
    "reduction": ReductionSection,
    "lojasiewicz": LojasiewiczSection,
    "output": OutputSection,
    "finite_verify": FiniteVerifySection,
}


def _build_section(name, cls, data):
    if not isinstance(data, dict):
        raise ValueError(f"section '{name}' must be an object")
    allowed = cls.__dataclass_fields__
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown key '{name}.{key}'")
    return cls(**data)


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
        (0.0 < config.flow.dt_factor <= 0.5, "flow.dt_factor must lie in (0, 0.5]"),
        (config.flow.t_max > 0.0, "flow.t_max must be positive"),
        (config.flow.integrator in ("projected_euler", "projected_rk4"),
         "flow.integrator must be projected_euler or projected_rk4"),
        (config.reduction.kernel_tol > 0.0, "reduction.kernel_tol must be positive"),
        (config.reduction.newton_tol > 0.0, "reduction.newton_tol must be positive"),
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
        check = entry.get("check")
        if check not in ("gradient", "distance"):
            raise ValueError(f"{where}.check must be 'gradient' or 'distance'")
        if check == "gradient" and not entry.get("radii"):
            raise ValueError(f"{where} needs nonempty 'radii' for a gradient check")
        if check == "distance" and (not entry.get("box") or not entry.get("grid_n")):
            raise ValueError(f"{where} needs 'box' and 'grid_n' for a distance check")


def parse_config(text):
    """RunConfig from a JSON document; unknown keys rejected by path."""
    try:
        data = json.loads(text) if text.strip() else {}
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    for key in data:
        if key not in _SECTIONS:
            raise ValueError(f"unknown key '{key}'")
    sections = {
        name: _build_section(name, cls, data.get(name, {}))
        for name, cls in _SECTIONS.items()
    }
    config = RunConfig(**sections)
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
