import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

BASE = {
    "kernel_dimension": 3,
    "gap_ratio": float("inf"),
    "slope": 2.0005744442671,
    "records": [{"status": "pass", "ratio": 1.1, "abs_f": 0.0}],
    "per_radius": [{"integrable": True, "max_abs_f": 1.8e-15}],
}


def changed(path, value):
    report = json.loads(json.dumps(BASE))
    *parents, last = path
    target = report
    for key in parents:
        target = target[key]
    target[last] = value
    return report


def test_equal_reports_and_rounding_pass():
    assert compare_reports.compare(BASE, json.loads(json.dumps(BASE))) == []
    assert compare_reports.compare(BASE, changed(["slope"], 2.0005744442671 * (1 + 1e-12))) == []
    assert compare_reports.compare(BASE, changed(["records", 0, "abs_f"], 9e-16)) == []
    assert compare_reports.compare(BASE, changed(["per_radius", 0, "max_abs_f"], 9e-13)) == []


def test_moved_floats_verdicts_and_types_fail():
    failing = [
        (["slope"], 2.0005744442671 * (1 + 1e-8)),
        (["records", 0, "abs_f"], 2e-12),
        (["records", 0, "status"], "fail"),
        (["records", 0, "ratio"], None),
        (["per_radius", 0, "integrable"], False),
        (["kernel_dimension"], 3.0),
        (["gap_ratio"], 1e10),
    ]
    for path, value in failing:
        diffs = compare_reports.compare(BASE, changed(path, value))
        assert len(diffs) == 1, (path, value)
    assert compare_reports.compare(BASE, {**BASE, "extra": 1}) != []
    assert compare_reports.compare(BASE, {**BASE, "records": []}) != []


def test_main_exit_status(tmp_path):
    base, head = tmp_path / "base.json", tmp_path / "head.json"
    base.write_text(json.dumps(BASE))
    head.write_text(json.dumps(BASE))
    assert compare_reports.main([str(base), str(head)]) == 0
    head.write_text(json.dumps(changed(["records", 0, "status"], "fail")))
    assert compare_reports.main([str(base), str(head)]) == 1
