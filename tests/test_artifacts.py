"""The behaviour gate of tools/artifacts.py: compare() on small dump trees."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "artifacts", Path(__file__).parents[1] / "tools" / "artifacts.py")
artifacts = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifacts)

BOUND = 1.5  # every float within ULP_BOUND ulps of it shares its ulp


def _trace(reason):
    return {"reason": reason,
            "records": {"step": ["r", "s"], "delta": [1.0, 0.5],
                        "f_worst": [2.0, 1.0], "f_best": [1.0, 0.5]}}


def _audit(status):
    return {"passed": status == "pass",
            "checks": [{"name": "descent", "status": "pass"},
                       {"name": "shrink_count", "status": status}]}


def _tree(root: Path, bound=BOUND, reason="epsilon-reached", status="pass"):
    """A dump of one certify report, one trace and its audit, and one CLI
    run, as tools/artifacts.py lays them out."""
    files = {
        "certify/seed1.txt": json.dumps({"kind": "reflection",
                                         "bound": bound}) + "\n",
        "trace/run.json": json.dumps(_trace(reason)),
        "audit/run.json": json.dumps(_audit(status)),
        "cli/help.stdout": "usage: rssm\n",
        "cli/help.code": "0\n",
    }
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def _compare(tmp_path, **change):
    return artifacts.compare(_tree(tmp_path / "a"),
                             _tree(tmp_path / "b", **change))


def test_identical_trees_compare_equal(tmp_path, capsys):
    assert _compare(tmp_path) == 0
    assert "0 problems" in capsys.readouterr().out


@pytest.mark.parametrize("ulps", [1, artifacts.ULP_BOUND])
def test_a_tolerant_float_within_the_bound_passes(tmp_path, capsys, ulps):
    assert _compare(tmp_path, bound=BOUND + ulps * math.ulp(BOUND)) == 0


@pytest.mark.parametrize("ulps", [artifacts.ULP_BOUND + 1,
                                  10 * artifacts.ULP_BOUND])
def test_a_tolerant_float_beyond_the_bound_fails(tmp_path, capsys, ulps):
    assert _compare(tmp_path, bound=BOUND + ulps * math.ulp(BOUND)) == 1
    assert "certify/seed1.txt:1.bound" in capsys.readouterr().out


def test_a_changed_trace_reason_fails(tmp_path, capsys):
    assert _compare(tmp_path, reason="budget") == 1
    assert ("trace/run.json: reason 'epsilon-reached' vs 'budget'"
            in capsys.readouterr().out)


def test_a_changed_check_status_fails(tmp_path, capsys):
    assert _compare(tmp_path, status="fail") == 1
    out = capsys.readouterr().out
    assert "audit/run.json: statuses differ" in out
    assert "shrink_count 'pass' vs 'fail'" in out


@pytest.mark.parametrize("reason", ["epsilon-reached", "budget"])
def test_traces_of_the_same_steps_name_each_value_that_moved(tmp_path, capsys,
                                                             reason):
    def trace(norm, summary):
        t = _trace(reason)
        t["records"]["simplex_gradient_norm"] = [norm, 0.25]
        t["summary"] = summary
        return t

    for side, norm, summary in (
            ("a", 0.5, {"final_gradient_norm": 0.25, "objective_calls": 7}),
            ("b", 0.5 * (1 + 2 ** -50),
             {"final_gradient_norm": 0.25, "objective_calls": 7})):
        path = tmp_path / side / "trace" / "run.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(trace(norm, summary)))
    assert artifacts.compare(tmp_path / "a", tmp_path / "b") == 0
    out = capsys.readouterr().out
    assert ("trace/run.json: " + reason + ", 2 vs 2 records; the same steps; "
            "records.simplex_gradient_norm moved by 8.9e-16") in out
    kind = "epsilon-reached" if reason == "epsilon-reached" else "other"
    assert (f"values moved in the same steps of the {kind} traces, each by "
            f"its largest relative difference: records.simplex_gradient_norm "
            f"8.9e-16 (trace/run.json)") in out
