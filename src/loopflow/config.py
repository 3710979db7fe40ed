"""Run configuration: JSON parsing, strict validation, defaults, echo.

Configs are plain JSON with one section per concern. Unknown keys are
rejected by full path ("domain.mesh_size") so typos cannot silently fall
back to defaults. Each key is declared once, on its section's field:
the annotation gives its type and _key its default and its rule, and
_build_section checks every given value against both, naming the key's
path when one fails. _validate holds only the rules that join keys. A
finite_verify.polynomials entry is checked the same way, against
_PolynomialEntry, and kept as given. The flow section is flow.FlowConfig
itself, which also checks its own values. The resolved configuration is
echoed next to every output so a run can be reproduced from its
artifacts alone.
"""

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import Optional, Union, get_args, get_origin

from .flow import FlowConfig
from .polynomials import from_term_list
from .reduction import _XI_RADIUS

__all__ = ["RunConfig", "parse_config", "parse_config_file", "resolved_dict", "VERSION", "RNG_NAME"]

VERSION = "0.1.0"
RNG_NAME = "numpy-pcg64"


def _is_number(value):
    """A float, or an integer (not a bool) that a float can hold."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _is_finite(value):
    return _is_number(value) and math.isfinite(value)


def _is_interval(pair):
    ok = isinstance(pair, list) and len(pair) == 2 and all(map(_is_finite, pair))
    return ok and pair[0] < pair[1]


# Each annotation's test of a given value, and its noun in the error; an
# Optional field also takes null. An int key counts or indexes something,
# so a float (even 2.0: a degree of 1.5 would build an open loop) or a bool
# fails. Each entry of a list[float] value is then checked on its own.
_TYPES = {
    int: (lambda v: type(v) is int, "an integer"),
    float: (_is_number, "a number"),
    str: (lambda v: isinstance(v, str), "a string"),
    list: (lambda v: isinstance(v, list), "a list"),
    list[float]: (lambda v: isinstance(v, list), "a list of numbers"),
}


def _key(default=MISSING, rule=None, says=None, noun=None):
    """A field's default and its rule: a given value that breaks the rule
    fails as "<path> must be <says>". A noun states type and rule at once,
    in place of the annotation's noun and of says. A list default is
    copied for each config; a key with no default must be given."""
    meta = {"rule": rule, "says": says or noun, "noun": noun}
    if isinstance(default, list):
        return field(default_factory=lambda: list(default), metadata=meta)
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class DomainSection:
    n_nodes: int = _key(128, lambda v: v >= 8, "at least 8")
    diff_order: int = _key(2, lambda v: v in (2, 4), "2 or 4")


@dataclass(frozen=True)
class TargetSection:
    kind: str = _key("sphere", lambda v: v in ("sphere", "ellipsoid"), "sphere or ellipsoid")
    ambient_dim: int = _key(3, lambda v: v >= 2, "at least 2")
    semi_axes: Optional[list[float]] = _key(None, lambda v: all(0.0 < a < math.inf for a in v),
                                            "a list of positive finite lengths")


@dataclass(frozen=True)
class BaseMapSection:
    degree: int = 1
    file: Optional[str] = _key(None, bool, "a nonempty path")


@dataclass(frozen=True)
class PerturbationSection:
    seed: int = _key(0, lambda v: v >= 0, "nonnegative")
    amplitude: float = _key(0.05, lambda v: v >= 0.0, "nonnegative")
    mode_count: int = _key(3, lambda v: v >= 1, "at least 1")


@dataclass(frozen=True)
class ReductionSection:
    kernel_tol: float = _key(1e-6, lambda v: v > 0.0, "positive")
    newton_tol: float = _key(1e-10, lambda v: 0.0 < v < math.inf, "positive and finite")
    newton_max_iter: int = _key(50, lambda v: v >= 1, "at least 1")


@dataclass(frozen=True)
class LojasiewiczSection:
    radii: list[float] = _key(
        [0.005, 0.01, 0.02], lambda v: v and all(0.0 <= r < _XI_RADIUS for r in v),
        f"a nonempty list of nonnegative numbers below the reduced-chart radius {_XI_RADIUS}",
    )
    samples_per_radius: int = _key(20, lambda v: v >= 1, "at least 1")


@dataclass(frozen=True)
class OutputSection:
    directory: str = _key("out", bool, "nonempty")
    stride: int = _key(1, lambda v: v >= 1, "at least 1")


def _default_polynomials():
    radii = [0.001, 0.00316, 0.01, 0.0316, 0.1]
    return [
        {"label": "x^2", "terms": [[[2], 1.0]], "check": "gradient", "radii": radii},
        {"label": "x^4", "terms": [[[4], 1.0]], "check": "gradient", "radii": radii},
        {"label": "x^2+y^4", "terms": [[[2, 0], 1.0], [[0, 4], 1.0]], "check": "gradient",
         "radii": radii},
        {"label": "x^2 zero set", "terms": [[[2], 1.0]], "check": "distance",
         "box": [[-1.0, 1.0]], "grid_n": 21},
        {"label": "x^2 y^2 zero set", "terms": [[[2, 2], 1.0]], "check": "distance",
         "box": [[-1.0, 1.0], [-1.0, 1.0]], "grid_n": 21},
    ]


@dataclass(frozen=True)
class FiniteVerifySection:
    polynomials: list = field(default_factory=_default_polynomials)


@dataclass(frozen=True)
class _PolynomialEntry:
    """The keys of a finite_verify.polynomials entry, for checking only:
    the config keeps each entry as the object it was given."""

    terms: list = _key()
    check: str = _key(rule=lambda v: v in ("gradient", "distance"), says="'gradient' or 'distance'")
    label: str = "?"
    radii: Optional[list] = _key(None, lambda v: all(map(_is_finite, v)), noun="a list of finite numbers")
    box: Optional[list] = _key(None, lambda v: all(map(_is_interval, v)),
                               noun="a list of [lo, hi] pairs of finite numbers, lo < hi")
    grid_n: Optional[int] = _key(None, lambda v: v >= 1, noun="a positive integer")


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


def _build_section(name, cls, data):
    """cls(**data), once each given value has its field's type and meets
    its field's rule; each failure names the key's path."""
    if not isinstance(data, dict):
        raise ValueError(f"section '{name}' must be an object")
    allowed = cls.__dataclass_fields__
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown key '{name}.{key}'")
    for key in fields(cls):
        path, kind, meta = f"{name}.{key.name}", key.type, key.metadata
        if key.name not in data:
            if key.default is MISSING and key.default_factory is MISSING:
                raise ValueError(f"{name} needs a '{key.name}' key")
            continue
        value = data[key.name]
        if get_origin(kind) is Union:  # Optional[...]
            if value is None:
                continue
            kind = get_args(kind)[0]
        is_kind, noun = _TYPES[kind]
        if not is_kind(value):
            raise ValueError(f"{path} must be {meta.get('noun') or noun}")
        for i, entry in enumerate(value if kind == list[float] else ()):
            if not _is_number(entry):
                raise ValueError(f"{path}[{i}] must be a number")
        if meta.get("rule") and not meta["rule"](value):
            raise ValueError(f"{path} must be {meta['says']}")
    try:
        return cls(**data)
    except ValueError as exc:  # FlowConfig checks its own fields
        raise ValueError(f"{name}.{exc}") from exc


def _validate(config):
    """The rules that join keys; each key's own rule sits on its field."""
    base, target = config.base_map, config.target
    n = config.domain.n_nodes
    if base.file is None and not 2 <= 2 * base.degree < n:  # at 2 degree >= n the nodes alias the loop
        raise ValueError(f"base_map.degree must be at least 1 and below half of domain.n_nodes ({n})")
    if target.kind == "sphere" and target.semi_axes is not None:
        raise ValueError("target.semi_axes applies to an ellipsoid only; leave it out for a sphere")
    if target.kind == "ellipsoid" and len(target.semi_axes or ()) != target.ambient_dim:
        raise ValueError("target.semi_axes must list one positive length per ambient dimension")
    for i, given in enumerate(config.finite_verify.polynomials):
        where = f"finite_verify.polynomials[{i}]"
        entry = _build_section(where, _PolynomialEntry, given)
        try:
            n_vars = from_term_list(entry.terms).n_vars
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where}.terms: {exc}") from exc
        if entry.check == "gradient" and not entry.radii:
            raise ValueError(f"{where} needs nonempty 'radii' for a gradient check")
        if entry.check == "distance" and (entry.box is None or entry.grid_n is None):
            raise ValueError(f"{where} needs 'box' and 'grid_n' for a distance check")
        if entry.check == "distance" and len(entry.box) != n_vars:
            raise ValueError(f"{where}.box must hold one pair per variable of its terms ({n_vars})")


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
