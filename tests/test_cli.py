"""Command-line interface, exercised in-process through main(argv)."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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
from rssm.objectives import builtin_names
from rssm.simplex import make_regular_simplex
from rssm.solver import (
    ALGORITHMS,
    MODES,
    STOPPING_RULES,
    SolverConfig,
    Trace,
)


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


def test_solve_start_vector(capsys):
    code, out, _ = run_cli(capsys, "solve", "--objective", "quad-iso",
                           "--n", "2", "--start", "1,2", "--summary")
    assert code == 0
    assert out.startswith("quad-iso,2,") and out.endswith(",epsilon-reached\n")


def test_solve_start_of_wrong_length_names_the_count(capsys):
    code, out, err = run_cli(capsys, "solve", "--objective", "quad-iso",
                             "--n", "2", "--start", "1,2,3")
    assert (code, out) == (2, "")
    assert err == "error: --start needs 1 or 2 components, got 3\n"


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


# one field of the README sin-quad trace, set to a value of the wrong type
TRACE_FAULTS = [
    pytest.param("records", "delta", "x", id="record-delta-str"),
    pytest.param("records", "S", None, id="record-S-null"),
    pytest.param("records", "step", "bogus", id="record-step-unknown"),
    pytest.param("records", "accepted", 1, id="record-accepted-int"),
    pytest.param("records", "k", 1.0, id="record-k-float"),
    pytest.param("records", "v", True, id="record-v-bool"),
    pytest.param("config", "n", "x", id="config-n-str"),
    pytest.param("config", "mode", "bogus", id="config-mode-unknown"),
    pytest.param("config", "extra", 1, id="config-extra-field"),
]


@pytest.fixture()
def sin_quad_trace(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _, _ = run_cli(capsys, "solve", "--objective", "sin-quad", "--n", "2",
                         "--mode", "theoretical", "--beta", "1", "--L", "8",
                         "--stopping", "true_gradient", "--epsilon", "1e-3",
                         "--start", "1.7", "--trace-out", str(path))
    assert code == 0
    return json.loads(path.read_text())


@pytest.mark.parametrize("part, key, value", TRACE_FAULTS)
def test_audit_mistyped_trace_field_is_usage_error(sin_quad_trace, tmp_path,
                                                   capsys, part, key, value):
    target = sin_quad_trace[part]
    (target[1] if part == "records" else target)[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(sin_quad_trace))
    code, out, err = run_cli(capsys, "audit", "--trace-in", str(path),
                             "--case", "pl", "--L", "8", "--fstar", "0")
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: malformed trace: ")
    with pytest.raises(ValueError, match="malformed trace"):
        Trace.from_dict(sin_quad_trace)


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
    {"config": {"n": 2}, "records": [], "reason": "budget"},
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


def _options(command):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in sub.choices[command]._actions}


def test_solve_options_are_the_solver_config_defaults_and_choices():
    opts = _options("solve")
    for dest, name in (("delta0", "delta0"), ("gamma", "gamma"),
                       ("beta", "beta"), ("eta", "eta"),
                       ("epsilon", "epsilon"), ("mode", "mode"),
                       ("algorithm", "algorithm"), ("stopping", "stopping"),
                       ("max_iter", "max_iterations"),
                       ("max_evals", "max_evaluations")):
        assert opts[dest].default == getattr(SolverConfig, name), dest
    assert opts["mode"].choices == MODES
    assert opts["algorithm"].choices == ALGORITHMS
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
    # a subnormal radius is irregular at every centre
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
]


@pytest.mark.parametrize("code, argv", BAD_INPUTS)
def test_bad_input_ends_in_one_error_line(tmp_path, capsys, code, argv):
    (tmp_path / "list.json").write_text("[1, 2]")
    (tmp_path / "null_radius.json").write_text(json.dumps(
        {"dim": 2, "radius": None, "vertices": [[0, 0], [1, 0], [0, 1]]}))
    argv = [a.replace("TMP", str(tmp_path)) for a in argv]
    got, out, err = run_cli(capsys, *argv)
    assert got == code and out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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
