"""Compare two JSON run reports field by field.

    python scripts/compare_reports.py BASE.json HEAD.json

Both files must have the same structure: the same keys and list lengths,
and equal non-float values (strings, integers, booleans, null), which
include every verdict. Floats must agree within 1e-9 relative, except
the fields named in ROUNDING_NOISE, which must agree within 1e-12
absolute: they are round-off of quantities that are zero in exact
arithmetic, so a relative bound means nothing for them. Each mismatch is
printed with its path; the exit status is 1 if there is any, else 0.
"""

import json
import math
import sys

REL_TOL = 1e-9
ABS_TOL = 1e-12
# |F(Psi(xi.phi))| on an integrable kernel: 0 up to a few ulps of the energy.
ROUNDING_NOISE = ("abs_f", "max_abs_f")


def _floats_agree(a, b, key):
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    if key in ROUNDING_NOISE:
        return abs(a - b) <= ABS_TOL
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def compare(base, head, path="", key=None):
    """Paths and values of every field where head differs from base."""
    if isinstance(base, float) and isinstance(head, float):
        return [] if _floats_agree(base, head, key) else [(path, base, head)]
    if type(base) is not type(head):
        return [(path, base, head)]
    if isinstance(base, dict):
        if base.keys() != head.keys():
            return [(path, sorted(base), sorted(head))]
        return [d for k in base for d in compare(base[k], head[k], f"{path}.{k}", k)]
    if isinstance(base, list):
        if len(base) != len(head):
            return [(path, f"{len(base)} items", f"{len(head)} items")]
        return [d for i, (b, h) in enumerate(zip(base, head)) for d in compare(b, h, f"{path}[{i}]", key)]
    return [] if base == head else [(path, base, head)]


def main(argv):
    if len(argv) != 2:
        print("usage: compare_reports.py BASE.json HEAD.json", file=sys.stderr)
        return 2
    reports = []
    for name in argv:
        with open(name, "r", encoding="utf-8") as fh:
            reports.append(json.load(fh))
    diffs = compare(*reports)
    for path, base, head in diffs:
        print(f"{path or '<root>'}: {base!r} != {head!r}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
