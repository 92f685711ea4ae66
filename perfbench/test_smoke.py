"""Smoke run of every workload at n=2: output schema and correctness gate.

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.load_library()
import workloads  # noqa: E402  (needs the library on sys.path)
from rssm import interpolation, solver  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def smoke(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace), "--smoke"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_schema_and_gate_pass(capsys, workload, trace):
    out = smoke(capsys, workload, trace)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: m["unit"] for k, m in out["metrics"].items()}
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_run_restores_the_library(capsys):
    originals = (solver.run, solver.simplex_gradient, interpolation.g_matrix,
                 solver.Trace.to_json, solver.Trace.from_json)
    out = smoke(capsys, "sweep-audit", 1)
    assert out["metrics"]["solver.trace.bytes_per_record"]["value"] > 0
    assert originals == (solver.run, solver.simplex_gradient, interpolation.g_matrix,
                         solver.Trace.to_json, solver.Trace.from_json)


@pytest.mark.parametrize("workload, field", [("solve-highdim", "steps"),
                                             ("sweep-audit", "audit")])
def test_gate_fails_on_a_changed_reference(capsys, monkeypatch, workload, field):
    ref = workloads.load_reference()
    for entry in ref[workload].values():
        entry[field] = "changed"
    monkeypatch.setattr(workloads, "load_reference", lambda: ref)
    out = smoke(capsys, workload, 0)
    assert out["correct"] is False and out["failed"] == out["attempted"]


def test_gate_fails_on_a_wrong_bound(capsys, monkeypatch):
    closed = interpolation.error_bound
    monkeypatch.setattr(interpolation, "error_bound",
                        lambda *a, **k: closed(*a, **k) * (1 + 1e-6))
    out = smoke(capsys, "certify", 0)
    assert out["correct"] is False and out["failed"] == out["attempted"]


def test_tail_keeps_ten_tasks_beyond():
    assert run.tail(list(range(1, 21))) == (10, 50.0)
    assert run.tail([3.0, 1.0]) == (3.0, 100.0)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
