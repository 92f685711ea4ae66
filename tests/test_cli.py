"""Command-line interface, exercised in-process through main(argv)."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rssm.interpolation
from rssm.cli import build_parser, main
from rssm.complexity import CASES
from rssm.experiments import ExperimentPlan
from rssm.interpolation import (
    CLASSES,
    QUERY_KINDS,
    SIGNS,
    bound_report,
    g_matrix,
    query_point,
)
from rssm.objectives import Objective, builtin_names
from rssm.simplex import make_regular_simplex
from rssm.solver import (
    MODES,
    STOPPING_RULES,
    SolverConfig,
    Trace,
    run,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the solve whose --trace-out the README audits
README_TRACE_SOLVE = ("solve", "--objective", "sin-quad", "--n", "2", "--mode",
                      "theoretical", "--beta", "1", "--L", "8", "--stopping",
                      "true_gradient", "--epsilon", "1e-3", "--start", "1.7")


# ---------------------------------------------------------------------------
# solve


def test_solve_list_prints_registry(capsys):
    code, out, _ = run_cli(capsys, "solve", "--objective", "list")
    assert code == 0
    assert tuple(out.split()) == builtin_names()


def test_solve_human_readable_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--objective", "quad-iso",
                           "--n", "2", "--epsilon", "1e-4", "--start", "1.5")
    assert code == 0
    assert "reason: epsilon-reached" in out
    assert "iterations:" in out and "best value:" in out
    assert "value gap:" in out


def test_solve_summary_line(capsys):
    code, out, _ = run_cli(capsys, "solve", "--objective", "quad-iso",
                           "--n", "2", "--epsilon", "1e-4", "--start", "1.5",
                           "--summary")
    assert code == 0
    fields = out.strip().split(",")
    assert fields[0] == "quad-iso" and fields[1] == "2"
    assert float(fields[2]) == 1e-4
    assert fields[-1] == "epsilon-reached"
    assert float(fields[6]) >= 0.0  # final gap column


def test_solve_writes_trace_json(tmp_path, capsys):
    path = tmp_path / "trace.json"
    code, _, _ = run_cli(capsys, "solve", "--objective", "sin-quad",
                         "--n", "2", "--epsilon", "1e-3",
                         "--stopping", "true_gradient", "--start", "1.0",
                         "--trace-out", str(path))
    assert code == 0
    trace = Trace.from_json(path.read_text())
    assert trace.reason == "epsilon-reached"
    assert trace.config["n"] == 2
    assert trace.N_eps == len(trace.records) > 0


# one shrink by gamma 1e-17 rounds every vertex onto the best one
COLLAPSE = ["solve", "--objective", "quad-iso", "--n", "2", "--start", "1",
            "--param", "x_star=1", "--gamma", "1e-17", "--stopping", "none",
            "--max-iter", "50"]


def test_solve_with_a_radius_whose_square_overflows(capsys):
    # delta0^2 overflows: the required decrease is -inf, so every step shrinks
    code, out, err = run_cli(capsys, "solve", "--objective", "logsumexp",
                             "--n", "2", "--delta0", "1e200")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "reason: regularity-failure"
    assert lines[1] == "iterations: 35 (reflections 0, shrinks 35)"


def test_solve_trace_out_of_an_overflowing_run_keeps_the_trace(tmp_path,
                                                              capsys):
    # each vertex value is near 0.7e308, so their sum S overflows to inf
    path = tmp_path / "t.json"
    argv = ["solve", "--objective", "quad-iso", "--n", "2", "--start",
            "8.3e153", "--delta0", "1e151", "--stopping", "none",
            "--max-iter", "3"]
    code, out, err = run_cli(capsys, *argv, "--trace-out", str(path))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "reason: overflow"
    # the detail stands in place of the gradient norm, and there is no gap
    assert lines[5:] == ["overflow: the vertex-value sum S is inf"]
    trace = Trace.from_json(path.read_text())
    assert trace.reason == "overflow" and trace.records == []
    assert "final_S" not in trace.summary
    assert "final_gradient_norm" not in trace.summary
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--L", "2")
    assert (code, err) == (0, "") and json.loads(out)["passed"]
    code, out, err = run_cli(capsys, *argv, "--summary")
    assert (code, out, err) == (0, "quad-iso,2,1e-06,0,0,3,,overflow\n", "")


def test_audit_of_a_run_stopped_by_an_overflowing_gap(tmp_path, capsys):
    # vertex values tie near -0.8e308 and every shrink is taken, until the
    # candidate of iteration 3 returns 1.7e308: v_r leaves the doubles
    calls = [0]

    def f(x):
        calls[0] += 1
        return -0.8e308 if calls[0] <= 8 else 1.7e308

    trace = run(Objective("switch", 1, f),
                SolverConfig(n=1, stopping="none", max_iterations=50))
    assert trace.reason == "overflow"
    assert trace.summary["overflow"] == "the record field v_r is inf"
    # the records before the stop are kept, and the trace is written
    assert [r.step for r in trace.records] == ["shrink"] * 3
    path = tmp_path / "t.json"
    path.write_text(trace.to_json())
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--L", "1")
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["passed"]
    # the candidate the run evaluated and did not record is counted
    identity = [c for c in report["checks"] if c["name"] == "eval_identity"]
    assert identity[0]["status"] == "pass"
    assert identity[0]["detail"] == "objective_calls=9, expected=9"


def test_solve_collapse_ends_in_regularity_failure(capsys):
    code, out, err = run_cli(capsys, *COLLAPSE)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "reason: regularity-failure"
    # the norm is read with the drift that ended the run beside it
    assert ("simplex gradient norm: 0.000000e+00 "
            "(radius dev 1.000e+00, edge dev 1.000e+00)") in lines


def test_solve_unknown_objective_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "solve", "--objective", "powell")
    assert code == 2
    assert "error:" in err and "unknown objective" in err


def test_solve_far_start_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--objective", "quad-iso",
                             "--n", "3", "--start", "1e8")
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "radius 1 " in lines[0] and "centre scale 1e+08" in lines[0]


def test_solve_start_vector(capsys):
    code, out, _ = run_cli(capsys, "solve", "--objective", "quad-iso",
                           "--n", "2", "--start", "1,2", "--summary")
    assert code == 0
    assert out.startswith("quad-iso,2,") and out.endswith(",epsilon-reached\n")


def test_solve_start_of_wrong_length_names_the_count(capsys):
    code, out, err = run_cli(capsys, "solve", "--objective", "quad-iso",
                             "--n", "2", "--start", "1,2,3")
    assert (code, out) == (2, "")
    assert err == ("error: --start must be a finite scalar or length-2 "
                   "vector, got [1.0, 2.0, 3.0]\n")


def test_solve_gap_stopping_without_f_star_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "solve", "--objective", "damped-sine",
                             "--n", "2", "--stopping", "gap")
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert lines == ["error: gap stopping needs an objective with known f*"]


def test_solve_objective_params_pass_through(capsys):
    code, out, _ = run_cli(capsys, "solve", "--objective", "quad-iso",
                           "--n", "2", "--param", "L=2", "--param", "x-star=1",
                           "--epsilon", "1e-4", "--summary")
    assert code == 0
    assert out.startswith("quad-iso,2,")


def test_solve_deterministic_trace_bytes(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(capsys, "solve", "--objective", "quad-spectrum",
                             "--n", "3", "--seed", "5", "--epsilon", "1e-4",
                             "--start", "1.2", "--trace-out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# verify-bounds


def test_verify_bounds_reports_all_ok(capsys):
    code, out, _ = run_cli(capsys, "verify-bounds", "--n", "2", "--L", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_ok"] is True
    assert payload["n"] == 2 and payload["L"] == 1.0
    by_key = {(r["kind"], r["class"]): r for r in payload["reports"]}
    assert len(by_key) == 6
    assert by_key[("reflection", "nonconvex")]["bound"] == pytest.approx(3.0)
    assert by_key[("reflection", "convex")]["bound"] == pytest.approx(2.25)
    assert by_key[("centroid", "nonconvex")]["bound"] == pytest.approx(0.5)
    for rep in payload["reports"]:
        assert rep["checks"]["attained"] is True
        assert rep["checks"]["mu_nonnegative"] is True


def test_verify_bounds_certifies_a_tiny_simplex(capsys):
    # the certificate tests the shape of Y_- P_-, not its size
    code, out, _ = run_cli(capsys, "verify-bounds", "--n", "2", "--radius",
                           "1e-20")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert [r["checks"]["mu_nonnegative"] for r in reports] == [True] * 6


def test_verify_bounds_accepts_simplex_file(tmp_path, capsys):
    s = make_regular_simplex(np.array([1.0, -2.0, 0.5]), 0.7, 3)
    path = tmp_path / "simplex.json"
    path.write_text(s.to_json())
    code, out, _ = run_cli(capsys, "verify-bounds", "--simplex-json", str(path),
                           "--L", "2.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["radius"] == pytest.approx(0.7)
    assert payload["all_ok"] is True


def test_verify_bounds_far_simplex_file(tmp_path, capsys):
    # vertex values ~ 4e6 against bounds ~ 0.3: the achieved errors must not
    # be lost to cancellation
    path = tmp_path / "far.json"
    path.write_text(make_regular_simplex(1e3, 1.0, 8).to_json())
    code, out, _ = run_cli(capsys, "verify-bounds", "--simplex-json", str(path))
    assert code == 0
    assert json.loads(out)["all_ok"] is True


def test_verify_bounds_fails_on_an_irregular_simplex(tmp_path, capsys):
    # the reflection point of this simplex has a negative mu certificate
    path = tmp_path / "irregular.json"
    path.write_text(json.dumps({"dim": 3, "radius": 1.0, "vertices": [
        [-1.144, -1.716, -0.279], [0.281, 1.282, 0.282],
        [0.806, -1.226, -0.023], [0.124, 0.862, 0.116]]}))
    code, out, err = run_cli(capsys, "verify-bounds", "--simplex-json",
                             str(path))
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["all_ok"] is False
    mu_ok = {(r["kind"], r["class"]): r["checks"]["mu_nonnegative"]
             for r in payload["reports"]}
    assert mu_ok[("reflection", "nonconvex")] is False
    assert mu_ok[("reflection", "convex")] is False


def test_verify_bounds_assembles_each_query_g_once(monkeypatch, capsys):
    # 3 query kinds x 2 classes: the two classes of a query share its G
    calls = []
    assemble = rssm.interpolation.g_matrix
    monkeypatch.setattr(rssm.interpolation, "g_matrix",
                        lambda s, x: (calls.append(x), assemble(s, x))[1])
    code, out, _ = run_cli(capsys, "verify-bounds", "--n", "4")
    assert code == 0 and len(json.loads(out)["reports"]) == 6
    assert len(calls) == 3


def test_verify_bounds_bad_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "verify-bounds", "--simplex-json", str(path))
    assert code == 2 and "error:" in err


# ---------------------------------------------------------------------------
# worst-case


def test_worst_case_reflection_payload(capsys):
    code, out, _ = run_cli(capsys, "worst-case", "--n", "2", "--kind",
                           "reflection", "--cls", "nonconvex")
    assert code == 0
    payload = json.loads(out)
    assert payload["attained"] is True
    assert payload["bound"] == pytest.approx(3.0)
    assert payload["quadratic"]["spectral_norm"] == pytest.approx(1.0)
    np.testing.assert_allclose(payload["g_eigenvalues"], [1.5, -4.5], rtol=1e-9)
    assert len(payload["query"]) == 2


def test_worst_case_convex_is_convex(capsys):
    code, out, _ = run_cli(capsys, "worst-case", "--n", "3", "--cls", "convex",
                           "--kind", "shrink", "--gamma", "0.3")
    assert code == 0
    payload = json.loads(out)
    assert payload["quadratic"]["convex"] is True
    H = np.array(payload["quadratic"]["H"])
    assert np.linalg.eigvalsh(H).min() >= -1e-9


@pytest.mark.parametrize("L", ["1e-13", "1", "1e13"])
def test_worst_case_nonconvex_reflection_is_not_convex_at_any_scale(capsys, L):
    # H = L (I - 2uu') has the eigenvalue -L
    code, out, _ = run_cli(capsys, "worst-case", "--n", "2", "--kind",
                           "reflection", "--cls", "nonconvex", "--L", L)
    assert code == 0
    assert json.loads(out)["quadratic"]["convex"] is False


@pytest.mark.parametrize("kind,cls", [("reflection", "convex"),
                                      ("centroid", "nonconvex"),
                                      ("shrink", "convex")])
def test_worst_case_json_matches_separate_g_matrix(capsys, kind, cls):
    # the payload as built from a second query_point/g_matrix pass
    s = make_regular_simplex(np.zeros(5), 0.7, 5)
    gamma = 0.3 if kind == "shrink" else None
    rep = bound_report(s, kind, cls, 1.3, gamma=gamma)
    x = query_point(s, kind, gamma=gamma)
    payload = rep.to_dict()
    payload["query"] = x.tolist()
    payload["quadratic"] = {
        "H": rep.quadratic.H.tolist(),
        "spectral_norm": rep.quadratic.spectral_norm(),
        "convex": rep.quadratic.is_convex(),
    }
    payload["g_eigenvalues"] = g_matrix(s, x).eigenvalues.tolist()
    code, out, _ = run_cli(capsys, "worst-case", "--n", "5", "--radius", "0.7",
                           "--L", "1.3", "--kind", kind, "--cls", cls,
                           "--gamma", "0.3")
    assert code == 0
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_worst_case_rejects_bad_kind(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["worst-case", "--kind", "expansion"])
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# audit


@pytest.fixture()
def saved_trace(tmp_path, capsys):
    path = tmp_path / "run.json"
    code, _, _ = run_cli(capsys, "solve", "--objective", "damped-sine",
                         "--n", "2", "--mode", "theoretical", "--beta", "1",
                         "--stopping", "true_gradient", "--epsilon", "1e-3",
                         "--start", "1.7", "--trace-out", str(path))
    assert code == 0
    return path


def test_audit_passes_on_genuine_trace(saved_trace, capsys):
    code, out, _ = run_cli(capsys, "audit", "--trace-in", str(saved_trace),
                           "--L", "1.2", "--case", "nonconvex")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["radius_law"] == "pass"
    assert statuses["radius_floor"] == "pass"


def test_audit_detects_corrupted_trace(saved_trace, tmp_path, capsys):
    data = json.loads(saved_trace.read_text())
    data["records"]["delta"][1] = data["records"]["delta"][1] * 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "audit", "--trace-in", str(bad),
                           "--L", "1.2")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["radius_law"] == "fail"


# one field of the README sin-quad trace (part None: a top-level field), set
# to a value of the wrong type (part "records": see _edit)
TRACE_FAULTS = [
    pytest.param("records", "delta", "x", id="record-delta-str"),
    pytest.param("records", "S", None, id="record-S-null"),
    pytest.param("records", "step", "x", id="record-step-unknown"),
    # the fields records carried before the step and the index were stored once
    pytest.param("records", "accepted", True, id="record-accepted-pre-change"),
    pytest.param("records", "k", 1, id="record-k-pre-change"),
    pytest.param("records", "v", True, id="record-v-bool"),
    pytest.param("config", "n", "x", id="config-n-str"),
    pytest.param("config", "mode", "bogus", id="config-mode-unknown"),
    pytest.param("config", "extra", 1, id="config-extra-field"),
    pytest.param("config", "center", [1, 2, 3], id="config-center-length"),
    pytest.param("config", "center", "abc", id="config-center-str"),
    pytest.param(None, "reason", 5, id="reason-int"),
    pytest.param(None, "summary", [1], id="summary-list"),
    pytest.param("summary", "final_S", "x", id="summary-final-S-str"),
]


@pytest.fixture()
def sin_quad_trace(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _, _ = run_cli(capsys, *README_TRACE_SOLVE, "--trace-out", str(path))
    assert code == 0
    return json.loads(path.read_text())


def _edit(trace, part, key, value):
    """Set one field of the trace dict: in `part`, or at the top level for
    part None.  For part "records" the field is record 1's: its letter of
    the step string, its entry of a float column, or, for a key that is no
    column, an entry of a new column that holds value for every record."""
    target = trace[part] if part else trace
    if part != "records":
        target[key] = value
    elif key == "step":
        target[key] = target[key][:1] + value + target[key][2:]
    elif key in target:
        target[key][1] = value
    else:
        target[key] = [value] * len(target["step"])


@pytest.mark.parametrize("part, key, value", TRACE_FAULTS)
def test_audit_mistyped_trace_field_is_usage_error(sin_quad_trace, tmp_path,
                                                   capsys, part, key, value):
    _edit(sin_quad_trace, part, key, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sin_quad_trace))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--case", "pl", "--L", "8", "--fstar", "0")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed trace: ")
    with pytest.raises(ValueError, match="malformed trace"):
        Trace.from_dict(sin_quad_trace)


def _audit_edited(trace, tmp_path, capsys, part, key, value):
    """run_cli's (code, out, err) for `rssm audit` of the trace with one
    field set to value by _edit."""
    _edit(trace, part, key, value)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(trace))
    return run_cli(capsys, "audit", "--trace-in", str(path),
                   "--case", "pl", "--L", "8", "--fstar", "0")


def _strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


# one field of the README sin-quad trace set to a well-typed value that run
# never writes (records[1] is an accepted reflection), with the part of
# the one error line that names the fault
TRACE_VALUE_FAULTS = [
    pytest.param("config", "n", 2.0, "n must be a positive integer no larger "
                 "than the largest double, got 2.0",
                 id="config-n-float"),
    pytest.param("config", "n", True, "n must be a positive integer no larger "
                 "than the largest double, got True",
                 id="config-n-bool"),
    pytest.param("records", "v", float("nan"), "record 1 is not one run writes",
                 id="record-v-nan"),
    pytest.param("records", "S", float("nan"), "record 1 is not one run writes",
                 id="record-S-nan"),
    pytest.param("records", "delta", float("inf"),
                 "record 1 is not one run writes", id="record-delta-inf"),
    pytest.param("records", "delta", 0.0, "record 1 is not one run writes",
                 id="record-delta-zero"),
    pytest.param("records", "f_best", 10 ** 400,
                 "record 1 is not one run writes", id="record-f-best-huge-int"),
    pytest.param("records", "k", 1, "'k': 'list'", id="record-k-pre-change"),
    pytest.param("records", "accepted", True, "'accepted': 'list'",
                 id="record-accepted-pre-change"),
    pytest.param("summary", "final_S", float("inf"),
                 "non-finite summary field final_S=inf",
                 id="summary-final-S-inf"),
    # a config the audit would read beyond the double range, and a bare centre
    pytest.param("config", "beta", 10 ** 400, "beta must be positive and finite",
                 id="config-beta-huge-int"),
    pytest.param("config", "epsilon", float("inf"),
                 "epsilon must be positive and finite", id="config-epsilon-inf"),
    pytest.param("config", "center", 1.7,
                 "center must be the length-2 list run writes",
                 id="config-center-scalar"),
    pytest.param("config", "max_iterations", True,
                 "max_iterations must be a positive integer no larger than the "
                 "largest double, got True",
                 id="config-max-iterations-bool"),
    pytest.param("config", "max_evaluations", 2.5,
                 "max_evaluations must be a positive integer no larger than the "
                 "largest double, got 2.5",
                 id="config-max-evaluations-float"),
]


@pytest.mark.parametrize("part, key, value, message", TRACE_VALUE_FAULTS)
def test_audit_rejects_a_value_run_never_writes(sin_quad_trace, tmp_path, capsys,
                                                part, key, value, message):
    code, out, err = _audit_edited(sin_quad_trace, tmp_path, capsys,
                                   part, key, value)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed trace: ")
    assert message in lines[0]


def test_audit_rejects_a_trace_written_before_the_step_was_stored_once(
        sin_quad_trace, tmp_path, capsys):
    # such a trace also wrote each record's step as `accepted` and the
    # summary's N_r, N_s, N_eps, eval_count and iterations
    columns = sin_quad_trace["records"]
    columns["accepted"] = [step == "r" for step in columns["step"]]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(sin_quad_trace))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--case", "pl", "--L", "8", "--fstar", "0")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed trace: ")
    assert "'accepted'" in lines[0]


def test_audit_rejects_a_trace_written_with_record_indices(
        sin_quad_trace, tmp_path, capsys):
    # such a trace also wrote each record's list position as `k`
    columns = sin_quad_trace["records"]
    columns["k"] = list(range(len(columns["step"])))
    path = tmp_path / "old.json"
    path.write_text(json.dumps(sin_quad_trace))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--case", "pl", "--L", "8", "--fstar", "0")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed trace: ")
    assert "'k'" in lines[0]


def test_audit_rejects_a_trace_in_the_row_layout(sin_quad_trace, tmp_path,
                                                 capsys):
    # the layout before the records were stored as columns: one object per
    # record, with the step's name
    columns = sin_quad_trace["records"]
    names = {"r": "reflection", "s": "shrink"}
    sin_quad_trace["records"] = [
        {key: names[step] if key == "step" else columns[key][i]
         for key in columns} for i, step in enumerate(columns["step"])]
    path = tmp_path / "rows.json"
    path.write_text(json.dumps(sin_quad_trace))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--case", "pl", "--L", "8", "--fstar", "0")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: malformed trace: 'records' must be the column layout: step a "
        "string of r and s, and delta, S, f_best, f_worst, v, v_r, "
        "simplex_gradient_norm each a list; not list"]


def test_audit_rejects_a_trace_with_the_algorithm_field(sin_quad_trace,
                                                        tmp_path, capsys):
    # every trace written while SolverConfig had an algorithm field holds it
    sin_quad_trace["config"]["algorithm"] = "rssm"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(sin_quad_trace))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--case", "pl", "--L", "8", "--fstar", "0")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "error: malformed trace: config has unknown field algorithm"]


@pytest.fixture()
def quad_iso_gap_trace(tmp_path, capsys):
    path = tmp_path / "g.json"
    code, _, _ = run_cli(capsys, "solve", "--objective", "quad-iso", "--n", "2",
                         "--mode", "theoretical", "--beta", "1", "--L", "1",
                         "--stopping", "gap", "--epsilon", "1e-3",
                         "--start", "1.7", "--trace-out", str(path))
    assert code == 0
    return json.loads(path.read_text())


# the least subnormal epsilon, which the loader accepts, underflows delta_bar
# (gradient stopping) or delta_cvx (gap stopping) to 0: (trace, audit options,
# the shrink-count check that reads the radius, the radius)
UNDERFLOW_AUDITS = [
    pytest.param("sin_quad_trace", ["--case", "pl", "--L", "8", "--fstar", "0"],
                 "shrink_count_bound", "delta_bar", id="pl-delta-bar"),
    pytest.param("quad_iso_gap_trace", ["--case", "convex", "--L", "1", "--R",
                                        "3", "--fstar", "0"],
                 "convex_shrink_count_bound", "delta_cvx", id="convex-delta-cvx"),
    pytest.param("quad_iso_gap_trace", ["--case", "strongly_convex", "--L", "1",
                                        "--R", "3", "--mu", "1", "--fstar", "0"],
                 "convex_shrink_count_bound", "delta_cvx",
                 id="strongly-convex-delta-cvx"),
]


@pytest.mark.parametrize("fixture, options, check, radius", UNDERFLOW_AUDITS)
def test_audit_skips_a_shrink_count_bound_whose_radius_underflows(
        request, tmp_path, capsys, fixture, options, check, radius):
    trace = request.getfixturevalue(fixture)
    trace["config"]["epsilon"] = 5e-324
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(trace))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path), *options)
    assert code in (0, 1) and err == ""
    payload = _strict_json(out)
    got = {c["name"]: c for c in payload["checks"]}[check]
    named = f"{radius}=0 underflows against delta0=1"
    assert got["status"] == "skipped" and named in got["detail"]
    assert named in payload["predicted"]["unavailable"]


def test_audit_names_a_predicted_bound_beyond_the_double_range(
        sin_quad_trace, tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(sin_quad_trace))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--case", "pl", "--L", "1e300", "--fstar", "0")
    assert code == 1 and err == ""
    assert _strict_json(out)["predicted"]["unavailable"] == (
        "the predicted bound leaves the double range (got inf)")


def test_audit_fails_radius_law_when_the_expected_radius_underflows(
        sin_quad_trace, tmp_path, capsys):
    # delta0 * gamma^shrinks underflows to 0 after the first shrink
    code, out, err = _audit_edited(sin_quad_trace, tmp_path, capsys,
                                   "config", "delta0", 5e-324)
    checks = {c["name"]: c for c in _strict_json(out)["checks"]}
    assert (code, err) == (1, "")
    assert checks["radius_law"]["status"] == "fail"
    assert checks["radius_law"]["detail"].endswith(
        "non-finite slack inf at k=0")


def test_audit_fails_a_radius_whose_square_overflows(sin_quad_trace, tmp_path,
                                                     capsys):
    # Python's float power raises where the square leaves the double range
    code, out, err = _audit_edited(sin_quad_trace, tmp_path, capsys,
                                   "records", "delta", 1e200)
    checks = {c["name"]: c for c in _strict_json(out)["checks"]}
    assert (code, err) == (1, "")
    assert checks["reflection_decrease"]["status"] == "fail"
    assert checks["reflection_decrease"]["detail"] == \
        "non-finite slack inf at k=1"


def test_audit_reports_a_predicted_bound_that_underflows(sin_quad_trace,
                                                         tmp_path, capsys):
    # epsilon^2 underflows to 0 in the denominator of the bound
    code, out, err = _audit_edited(sin_quad_trace, tmp_path, capsys,
                                   "config", "epsilon", 1e-200)
    assert (code, err) == (0, "")
    assert _strict_json(out)["predicted"] == {
        "unavailable": "the predicted bound leaves the double range "
                       "(float division by zero)"}


def test_audit_requires_R_for_convex(capsys):
    code, _, err = run_cli(capsys, "audit", "--trace-in", "whatever.json",
                           "--L", "1.0", "--case", "convex")
    assert code == 2 and "--R" in err


def test_audit_requires_mu_for_strongly_convex(capsys):
    code, _, err = run_cli(capsys, "audit", "--trace-in", "whatever.json",
                           "--L", "1.0", "--case", "strongly_convex",
                           "--R", "2.0")
    assert code == 2 and "--mu" in err


def test_audit_invalid_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "audit", "--trace-in", str(path),
                           "--L", "1.0")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("payload", [
    {"records": 5},
    {"config": {"n": 2}, "records": {"step": "s", "bogus": [1]},
     "reason": "budget"},
    {"config": {"n": 2}, "records": {"step": "", "delta": [], "S": [],
                                     "f_best": [], "f_worst": [], "v": [],
                                     "v_r": [], "simplex_gradient_norm": []},
     "reason": "budget"},
])
def test_audit_malformed_trace_is_usage_error(tmp_path, capsys, payload):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--L", "1.0")
    assert code == 2 and out == ""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed trace")


# ---------------------------------------------------------------------------
# scaling


def test_scaling_csv_to_stdout(capsys):
    code, out, err = run_cli(capsys, "scaling", "--objective", "quad-iso",
                             "--dims", "2", "--epsilons", "1e-1,1e-2,1e-3,1e-4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("objective,n,epsilon,seed,")
    assert len(lines) == 5
    assert "fit: n=2" in err
    assert "semilog slope=" in err


def test_scaling_csv_to_file_fits_to_stdout(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, _ = run_cli(capsys, "scaling", "--objective", "quad-iso",
                           "--dims", "2", "--epsilons", "1e-1,1e-2,1e-3,1e-4",
                           "--csv-out", str(path))
    assert code == 0
    assert out.startswith("fit: n=2")
    text = path.read_text()
    assert text.splitlines()[0] == ("objective,n,epsilon,seed,N_r,N_s,N_eps,"
                                    "evals,final_gap,reason,wall_ms")
    assert len(text.splitlines()) == 5


def test_scaling_notes_a_fit_with_too_few_points(capsys):
    code, out, err = run_cli(capsys, "scaling", "--objective", "quad-iso",
                             "--dims", "2", "--epsilons", "1e-1,1e-2")
    assert code == 0 and len(out.splitlines()) == 3  # the header and 2 rows
    assert err == "fit: n=2  fits need at least 4 points, got 2\n"


def test_scaling_rejects_increasing_epsilons(capsys):
    code, _, err = run_cli(capsys, "scaling", "--objective", "quad-iso",
                           "--epsilons", "1e-3,1e-2")
    assert code == 2 and "decreasing" in err


# ---------------------------------------------------------------------------
# parser plumbing


def _options(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def test_solve_options_are_the_solver_config_defaults_and_choices():
    opts = _options("solve")
    for dest, name in (("delta0", "delta0"), ("gamma", "gamma"),
                       ("beta", "beta"), ("eta", "eta"),
                       ("epsilon", "epsilon"), ("mode", "mode"),
                       ("stopping", "stopping"), ("max_iter", "max_iterations"),
                       ("max_evals", "max_evaluations")):
        assert opts[dest].default == getattr(SolverConfig, name), dest
    assert opts["mode"].choices == MODES
    assert opts["stopping"].choices == STOPPING_RULES


def test_scaling_options_are_the_plan_defaults():
    args = build_parser().parse_args(["scaling", "--objective", "quad-iso"])
    plan = ExperimentPlan(objective="quad-iso")
    assert tuple(int(v) for v in args.dims.split(",")) == plan.dims
    assert tuple(float(v) for v in args.epsilons.split(",")) == plan.epsilons
    assert (args.reps, args.seed, args.center_distance, args.delta0,
            args.gamma, args.beta, args.max_iter, args.max_evals) == (
        plan.repetitions, plan.base_seed, plan.center_distance, plan.delta0,
        plan.gamma, plan.beta, plan.max_iterations, plan.max_evaluations)


def test_bound_and_audit_options_are_the_library_choices(capsys):
    assert _options("audit")["case"].choices == CASES
    worst = _options("worst-case")
    assert worst["kind"].choices == QUERY_KINDS
    assert worst["cls"].choices == CLASSES
    assert worst["sign"].choices == SIGNS
    _, out, _ = run_cli(capsys, "verify-bounds", "--n", "2")
    assert [(r["kind"], r["class"]) for r in json.loads(out)["reports"]] == [
        (kind, cls) for kind in QUERY_KINDS for cls in CLASSES]


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# exit-code boundary: main maps bad input to 2 and a failed evaluation to 1


# TMP in an argument is replaced by the test's temporary directory.
BAD_INPUTS = [
    pytest.param(2, ["verify-bounds", "--n", "3", "--gamma", "1.5"],
                 id="a-verify-bounds-gamma"),
    pytest.param(2, ["worst-case", "--n", "3", "--kind", "shrink",
                     "--gamma", "0"], id="a-worst-case-gamma"),
    pytest.param(2, ["scaling", "--objective", "quad-spectrum", "--dims", "2",
                     "--param", "mu=20"], id="b-scaling-objective-param"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--n", "2",
                     "--trace-out", "TMP/missing/t.json"],
                 id="c-solve-trace-out"),
    pytest.param(2, ["scaling", "--objective", "quad-iso", "--dims", "2",
                     "--csv-out", "TMP/missing/s.csv"], id="c-scaling-csv-out"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--n", "2",
                     "--delta0", "inf"], id="d-solve-delta0-inf"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--n", "2",
                     "--start", "nan"], id="d-solve-start-nan"),
    pytest.param(2, ["verify-bounds", "--simplex-json", "TMP/list.json"],
                 id="e-simplex-list"),
    pytest.param(2, ["worst-case", "--simplex-json", "TMP/null_radius.json"],
                 id="e-simplex-null-radius"),
    pytest.param(1, ["scaling", "--objective", "quad-iso", "--dims", "2",
                     "--delta0", "1e300"], id="f-scaling-evaluation"),
    pytest.param(1, ["solve", "--objective", "quad-iso", "--n", "3",
                     "--delta0", "1e300"], id="f-solve-overflow"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--param", "foo=3"],
                 id="g-solve-unknown-param"),
    pytest.param(2, ["solve", "--objective", "sin-quad", "--param", "L=3"],
                 id="g-solve-unread-param"),
    pytest.param(2, ["worst-case", "--n", "2", "--L", "0"], id="h-worst-case-L"),
    pytest.param(2, ["verify-bounds", "--n", "2", "--L", "-1"],
                 id="h-verify-bounds-L"),
    # a deeply subnormal radius is irregular at every centre
    pytest.param(2, ["solve", "--objective", "quad-iso", "--n", "3",
                     "--delta0", "1e-320"], id="i-solve-subnormal-delta0"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--n", "3",
                     "--delta0", "1e-315"], id="i-solve-subnormal-delta0-b"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--n", "3",
                     "--delta0", "5e-324"], id="i-solve-least-delta0"),
    pytest.param(2, ["verify-bounds", "--n", "3", "--radius", "1e-315"],
                 id="i-verify-bounds-subnormal-radius"),
    pytest.param(2, ["worst-case", "--n", "2", "--radius", "5e-324"],
                 id="i-worst-case-least-radius"),
    pytest.param(2, ["scaling", "--objective", "quad-iso", "--dims", "2",
                     "--epsilons", "1", "--delta0", "1e-320"],
                 id="i-scaling-subnormal-delta0"),
    # builtin parameters are checked where they are read
    pytest.param(2, ["solve", "--objective", "quad-iso", "--param", "L=-1"],
                 id="j-quad-iso-L-negative"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--param", "L=0"],
                 id="j-quad-iso-L-zero"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--param", "L=inf"],
                 id="j-quad-iso-L-inf"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--param",
                     "x_star=nan"], id="j-quad-iso-x-star-nan"),
    pytest.param(2, ["scaling", "--objective", "quad-iso", "--dims", "2",
                     "--param", "x_star=nan"], id="j-scaling-x-star-nan"),
    pytest.param(2, ["solve", "--objective", "logsumexp", "--param",
                     "scale=inf"], id="j-logsumexp-scale-inf"),
    pytest.param(2, ["solve", "--objective", "logsumexp", "--param",
                     "scale=nan"], id="j-logsumexp-scale-nan"),
    pytest.param(2, ["solve", "--objective", "logsumexp", "--param",
                     "scale=1e300"], id="j-logsumexp-L-overflow"),
    pytest.param(2, ["solve", "--objective", "quad-spectrum", "--param",
                     "L=inf"], id="j-quad-spectrum-L-inf"),
    pytest.param(2, ["solve", "--objective", "quad-spectrum", "--param",
                     "mu=nan"], id="j-quad-spectrum-mu-nan"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--n", "2",
                     "--start", "1,x"], id="k-solve-start-not-a-number"),
    pytest.param(2, ["solve", "--objective", "quad-iso", "--param", "L"],
                 id="l-solve-param-without-value"),
    pytest.param(2, ["verify-bounds", "--simplex-json", "TMP/zero_radius.json"],
                 id="l-simplex-zero-radius"),
    pytest.param(2, ["worst-case", "--simplex-json", "TMP/collinear.json"],
                 id="l-simplex-collinear"),
    pytest.param(2, ["verify-bounds", "--simplex-json", "TMP/overflow.json"],
                 id="m-simplex-centroid-overflow"),
    pytest.param(2, ["verify-bounds", "--simplex-json", "TMP/coincident.json"],
                 id="m-simplex-coincident"),
    pytest.param(2, ["verify-bounds", "--simplex-json", "TMP/inf_radius.json"],
                 id="n-simplex-infinite-radius"),
    # an integer beyond the double range, which float() cannot convert
    pytest.param(2, ["verify-bounds", "--simplex-json", "TMP/int_radius.json"],
                 id="n-simplex-huge-int-radius"),
    pytest.param(2, ["worst-case", "--simplex-json", "TMP/int_vertex.json"],
                 id="n-simplex-huge-int-vertex"),
    # G, the bound or the achieved error overflows the double range
    pytest.param(2, ["verify-bounds", "--n", "2", "--radius", "1e154"],
                 id="o-verify-bounds-G-overflow"),
    pytest.param(2, ["verify-bounds", "--n", "2", "--radius", "1e160"],
                 id="o-verify-bounds-G-overflow-b"),
    pytest.param(2, ["worst-case", "--n", "2", "--radius", "1e300"],
                 id="o-worst-case-G-overflow"),
    pytest.param(2, ["verify-bounds", "--n", "2", "--L", "1e308",
                     "--radius", "10"], id="o-verify-bounds-bound-overflow"),
    # audit constants outside the positive doubles, on the README trace
    pytest.param(2, ["audit", "--trace-in", "TMP/t.json", "--case", "pl",
                     "--L", "inf"], id="p-audit-L-inf"),
    pytest.param(2, ["audit", "--trace-in", "TMP/t.json", "--case", "pl",
                     "--L", "8", "--fstar", "nan"], id="p-audit-fstar-nan"),
    pytest.param(2, ["audit", "--trace-in", "TMP/t.json", "--case", "convex",
                     "--L", "8", "--R", "inf", "--fstar", "0"],
                 id="p-audit-R-inf"),
    pytest.param(2, ["audit", "--trace-in", "TMP/t.json", "--case",
                     "strongly_convex", "--L", "8", "--R", "1", "--mu", "inf",
                     "--fstar", "0"], id="p-audit-mu-inf"),
    # a number is a float or an int, never a bool or a string, in a simplex
    # file and in a trace's config
    pytest.param(2, ["verify-bounds", "--simplex-json", "TMP/float_dim.json"],
                 id="q-simplex-float-dim"),
    pytest.param(2, ["worst-case", "--simplex-json", "TMP/bool_dim.json"],
                 id="q-simplex-bool-dim"),
    pytest.param(2, ["verify-bounds", "--simplex-json",
                     "TMP/string_radius.json"], id="q-simplex-string-radius"),
    pytest.param(2, ["worst-case", "--simplex-json", "TMP/bool_vertex.json"],
                 id="q-simplex-bool-vertex"),
    pytest.param(2, ["audit", "--trace-in", "TMP/bool_delta0.json", "--case",
                     "pl", "--L", "8"], id="q-audit-config-bool-delta0"),
]

_G_OVERFLOW = "error: G overflows the double range"

# the one error line of a BAD_INPUTS row that names its fault, by row id
BAD_INPUT_MESSAGES = {
    "m-simplex-centroid-overflow": "error: vertex coordinates overflow the "
                                   "double range about their centroid",
    "m-simplex-coincident": "error: all vertices coincide",
    "n-simplex-infinite-radius": "error: radius must be positive and finite, "
                                 "got inf",
    "n-simplex-huge-int-radius": "error: malformed simplex: int too large to "
                                 "convert to float",
    "n-simplex-huge-int-vertex": "error: malformed simplex: int too large to "
                                 "convert to float",
    "o-verify-bounds-G-overflow": _G_OVERFLOW,
    "o-verify-bounds-G-overflow-b": _G_OVERFLOW,
    "o-worst-case-G-overflow": _G_OVERFLOW,
    "o-verify-bounds-bound-overflow": "error: the reflection bound overflows "
                                      "the double range: bound inf, "
                                      "achieved nan",
    "p-audit-L-inf": "error: L must be positive and finite, got inf",
    "p-audit-fstar-nan": "error: f_star must be finite, got nan",
    "p-audit-R-inf": "error: R must be positive and finite, got inf",
    "p-audit-mu-inf": "error: mu must be positive and finite, got inf",
    "q-simplex-float-dim": "error: malformed simplex: dim must be an integer, "
                           "got 2.7",
    "q-simplex-bool-dim": "error: malformed simplex: dim must be an integer, "
                          "got True",
    "q-simplex-string-radius": "error: malformed simplex: radius must be a "
                               "number, got '0.7'",
    "q-simplex-bool-vertex": "error: malformed simplex: vertices must be a "
                             "list of rows of numbers",
    "q-audit-config-bool-delta0": "error: malformed trace: delta0 must be a "
                                  "number, got True",
}


@pytest.mark.parametrize("code, argv", BAD_INPUTS)
def test_bad_input_ends_in_one_error_line(request, tmp_path, capsys, code,
                                          argv):
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "null_radius.json").write_text(json.dumps(
        {"dim": 2, "radius": None, "vertices": [[0, 0], [1, 0], [0, 1]]}))
    (tmp_path / "zero_radius.json").write_text(json.dumps(
        {"dim": 2, "radius": 0, "vertices": [[0, 0], [1, 0], [0, 1]]}))
    (tmp_path / "collinear.json").write_text(json.dumps(
        {"dim": 2, "radius": 1, "vertices": [[0, 0], [1, 0], [2, 0]]}))
    (tmp_path / "overflow.json").write_text(json.dumps(
        {"dim": 2, "radius": 1e308,
         "vertices": [[1e308, 0], [1e308, 1e308], [0, 1e308]]}))
    (tmp_path / "coincident.json").write_text(json.dumps(
        {"dim": 2, "radius": 1, "vertices": [[1, 1], [1, 1], [1, 1]]}))
    # json reads 1e400 as inf
    (tmp_path / "inf_radius.json").write_text(
        '{"dim": 2, "radius": 1e400, "vertices": [[0, 0], [1, 0], [0, 1]]}')
    (tmp_path / "int_radius.json").write_text(json.dumps(
        {"dim": 2, "radius": 10 ** 400, "vertices": [[0, 0], [1, 0], [0, 1]]}))
    (tmp_path / "int_vertex.json").write_text(json.dumps(
        {"dim": 2, "radius": 1, "vertices": [[0, 0], [10 ** 400, 0], [0, 1]]}))
    triangle = {"dim": 2, "radius": 0.7, "vertices": [[0, 0], [1, 0], [0, 1]]}
    for name, field, value in (("float_dim", "dim", 2.7),
                               ("bool_dim", "dim", True),
                               ("string_radius", "radius", "0.7"),
                               ("bool_vertex", "vertices",
                                [[0, 0], [1, 0], [0, True]])):
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {**triangle, field: value}))
    if "TMP/t.json" in argv or "TMP/bool_delta0.json" in argv:
        # the README's sin-quad trace
        assert run_cli(capsys, *README_TRACE_SOLVE, "--trace-out",
                       str(tmp_path / "t.json"))[0] == 0
        trace = json.loads((tmp_path / "t.json").read_text())
        trace["config"]["delta0"] = True
        (tmp_path / "bool_delta0.json").write_text(json.dumps(trace))
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code and out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    message = BAD_INPUT_MESSAGES.get(request.node.callspec.id)
    if message is not None:
        assert lines[0] == message


def test_closed_stdout_exits_1_in_silence():
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "rssm.cli", "verify-bounds", "--n", "4",
         "--radius", "0.7", "--L", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # closed before the interpreter has imported numpy, so before any write
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


def test_console_entry_point_exits_2_without_traceback():
    # the in-process tests above never pass through sys.exit(main())
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rssm.cli", "solve", "--objective", "sin-quad",
         "--param", "L=3"], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: sin-quad takes no parameter L\n"
