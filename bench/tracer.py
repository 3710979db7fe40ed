"""Span tracer for the traced benchmark run, and the per-layer arithmetic.

`install` wraps every public function of the loopflow modules, plus the
public methods of `TargetManifold` and `Polynomial`, and rebinds each
wrapper in every loopflow namespace that holds the original: `flow.py`
imports `tension_field` by name, so patching `loopflow.variational`
alone would miss its calls. Each call records one span (function id,
start, end, parent span). Spans stay in memory in flat arrays and are
saved once, when the run ends.

A layer is one loopflow module. `layer_totals` turns saved spans into
per-layer call counts, busy time (the union of the layer's spans) and
self time (busy time minus the time spent in nested wrapped calls).
"""

import functools
import importlib
import inspect
import json
import time
from array import array

import numpy as np

LAYERS = (
    "mesh",
    "targets",
    "bundles",
    "variational",
    "reduction",
    "lojasiewicz",
    "flow",
    "polynomials",
    "config",
    "cli",
)
_TRACED_CLASSES = {"targets": ("TargetManifold",), "polynomials": ("Polynomial",)}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.counters = {}
        self.func = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def count(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, hook=None):
        """Return fn wrapped so that every call records a span under name.

        A hook, if given, is called as hook(tracer, fn, args, kwargs) in
        place of fn, to count work the span alone does not show.
        """
        fid = len(self.names)
        self.names.append(name)
        func, parent, start, end = self.func, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(func)
            func.append(fid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(self, fn, args, kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def save(self, path):
        np.savez(
            path,
            func=np.asarray(self.func, dtype=np.int32),
            parent=np.asarray(self.parent, dtype=np.int32),
            start=np.asarray(self.start, dtype=float),
            end=np.asarray(self.end, dtype=float),
            names=np.asarray(json.dumps(self.names)),
            counters=np.asarray(json.dumps(self.counters)),
        )


# -- counting hooks --------------------------------------------------------


def _count_rows(tracer, fn, args, kwargs):
    """TargetManifold.project_nearest(self, x): count the projected rows."""
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    tracer.count("targets.project_nearest.rows", x.size // max(x.shape[-1], 1))
    return fn(*args, **kwargs)


def _count_newton(tracer, fn, args, kwargs):
    """invert_N: run with return_info=True, count iterations and failures,
    then return exactly what the caller asked for."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    wanted = bound.arguments.pop("return_info", False)
    try:
        result, info = fn(*bound.args, **bound.kwargs, return_info=True)
    except RuntimeError:
        tracer.count("reduction.newton_failures")
        raise
    tracer.count("reduction.newton_iters", info["iterations"])
    return (result, info) if wanted else result


def _workspace_nbytes(workspace):
    """Bytes held by a ReductionWorkspace's arrays and kernel basis."""
    total = 0
    for value in vars(workspace).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sum(getattr(item, "values", item).nbytes for item in value)
    return total


def _count_workspace(tracer, fn, args, kwargs):
    workspace = fn(*args, **kwargs)
    tracer.count("reduction.workspace_bytes", _workspace_nbytes(workspace))
    return workspace


_HOOKS = {
    "targets.TargetManifold.project_nearest": _count_rows,
    "reduction.invert_N": _count_newton,
    "reduction.build_reduction_workspace": _count_workspace,
}


# -- installation ------------------------------------------------------------


def install(tracer, package="loopflow"):
    """Wrap every public loopflow function and rebind it wherever it is bound."""
    root = importlib.import_module(package)
    modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in modules.items():
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            full = f"{layer}.{name}"
            wrappers[id(obj)] = (obj, tracer.wrap(full, obj, _HOOKS.get(full)))
        for cls_name in _TRACED_CLASSES.get(layer, ()):
            cls = getattr(module, cls_name)
            for name, raw in list(vars(cls).items()):
                if name.startswith("_"):
                    continue
                full = f"{layer}.{cls_name}.{name}"
                if isinstance(raw, staticmethod):
                    setattr(cls, name, staticmethod(tracer.wrap(full, raw.__func__)))
                elif inspect.isfunction(raw):
                    setattr(cls, name, tracer.wrap(full, raw, _HOOKS.get(full)))
    for namespace in (root, *modules.values()):
        for name, obj in list(vars(namespace).items()):
            entry = wrappers.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(namespace, name, entry[1])


# -- aggregation -------------------------------------------------------------


def load_spans(path):
    with np.load(path) as data:
        return {
            "func": data["func"],
            "parent": data["parent"],
            "start": data["start"],
            "end": data["end"],
            "names": json.loads(str(data["names"])),
            "counters": json.loads(str(data["counters"])),
        }


def self_times(parent, duration):
    """Each span's duration minus the durations of its direct children."""
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=float)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    return duration - children


def outermost_in_layer(parent, layer_of_span):
    """True for spans with no ancestor in their own layer.

    Spans are stored in call order, so a parent always precedes its
    children and one forward pass carries each span's set of enclosing
    layers as a bit mask.
    """
    parents = np.asarray(parent).tolist()
    layers = np.asarray(layer_of_span).tolist()
    masks = [0] * len(parents)
    outer = np.zeros(len(parents), dtype=bool)
    for i, (p, layer) in enumerate(zip(parents, layers)):
        inherited = masks[p] if p >= 0 else 0
        bit = 1 << layer
        outer[i] = not inherited & bit
        masks[i] = inherited | bit
    return outer


def layer_totals(spans):
    """Per-layer and per-function totals of one saved span set.

    Returns {"layers": {layer: {"calls", "busy_s", "self_s"}},
    "functions": {name: {"calls", "total_s"}}, "counters": {...}}.
    A function's total_s sums its spans; none of the functions the
    benchmark reports by name calls itself, so that is its busy time.
    """
    names = spans["names"]
    func = np.asarray(spans["func"], dtype=np.int64)
    duration = np.asarray(spans["end"], dtype=float) - np.asarray(spans["start"], dtype=float)
    layer_index = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names], dtype=np.int64)
    span_layer = layer_index[func] if func.size else func
    own = self_times(spans["parent"], duration)
    outer = outermost_in_layer(spans["parent"], span_layer)
    layers = {}
    for k, layer in enumerate(LAYERS):
        mine = span_layer == k
        layers[layer] = {
            "calls": int(np.count_nonzero(mine)),
            "busy_s": float(np.sum(duration[mine & outer])),
            "self_s": float(np.sum(own[mine])),
        }
    calls = np.bincount(func, minlength=len(names))
    totals = np.bincount(func, weights=duration, minlength=len(names))
    functions = {
        name: {"calls": int(calls[i]), "total_s": float(totals[i])}
        for i, name in enumerate(names)
        if calls[i]
    }
    return {"layers": layers, "functions": functions, "counters": dict(spans["counters"])}


def merge_totals(parts):
    """Sum the layer_totals of several processes (one per subcommand)."""
    merged = {"layers": {}, "functions": {}, "counters": {}}
    for part in parts:
        for section in ("layers", "functions"):
            for name, fields in part[section].items():
                into = merged[section].setdefault(name, {})
                for key, value in fields.items():
                    into[key] = into.get(key, 0) + value
        for name, value in part["counters"].items():
            merged["counters"][name] = merged["counters"].get(name, 0) + value
    for layer in LAYERS:
        merged["layers"].setdefault(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    return merged
