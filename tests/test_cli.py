"""Command-line interface, exercised in-process through main(argv)."""

import json

import numpy as np
import pytest

from rssm.cli import main
from rssm.objectives import builtin_names
from rssm.simplex import make_regular_simplex
from rssm.solver import Trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    assert len(trace.records) == trace.summary["iterations"]


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
    data["records"][1]["delta"] = data["records"][1]["delta"] * 1.5
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli(capsys, "audit", "--trace-in", str(bad),
                           "--L", "1.2")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    statuses = {c["name"]: c["status"] for c in payload["checks"]}
    assert statuses["radius_law"] == "fail"


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
    {"config": {"n": 2}, "records": [{"k": 0, "bogus": 1}], "reason": "budget"},
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


def test_scaling_rejects_increasing_epsilons(capsys):
    code, _, err = run_cli(capsys, "scaling", "--objective", "quad-iso",
                           "--epsilons", "1e-3,1e-2")
    assert code == 2 and "decreasing" in err


# ---------------------------------------------------------------------------
# parser plumbing


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main([])
    assert ei.value.code == 2


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as ei:
        main(["frobnicate"])
    assert ei.value.code == 2
