"""Solver state machine: acceptance rule, stepping, traces, stopping."""

import ast
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import rssm.solver
from rssm.interpolation import simplex_gradient
from rssm.objectives import Objective, builtin
from rssm.simplex import (
    CenterResolutionError,
    Simplex,
    make_regular_simplex,
    regular_simplex_gradient,
)
from rssm.solver import (
    EvaluationError,
    SolverConfig,
    SolverState,
    Trace,
    run,
)


def _theoretical_cfg(**kw):
    base = dict(n=2, delta0=1.0, gamma=0.5, mode="theoretical", beta=1.0, L=1.0,
                stopping="none", max_iterations=10)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# acceptance rule


# 1-d, f(x) = x from centre 0: the worst vertex +delta reflects to -3*delta,
# so f_r - f_worst = -4*delta exactly
@pytest.mark.parametrize("delta0, mode, scale, step", [
    (1.0, "theoretical", 0.9, "reflection"),
    (1.0, "theoretical", 1.0, "reflection"),  # margin -4*L*delta^2 = -4, inclusive
    (1.0, "theoretical", 1.1, "shrink"),
    # the margin scales with delta^2: -4*L/4 against -2
    (0.5, "theoretical", 2.0, "reflection"),  # inclusive
    (0.5, "theoretical", 2.1, "shrink"),
    (0.5, "practical", 8.0, "reflection"),  # -eta/4 against -2, inclusive
    (0.5, "practical", 8.5, "shrink"),
])
def test_acceptance_threshold(delta0, mode, scale, step):
    line = Objective("line", 1, lambda x: float(x[0]))
    scales = {"L": scale, "beta": 1.0} if mode == "theoretical" else {"eta": scale}
    cfg = SolverConfig(n=1, delta0=delta0, mode=mode, stopping="none",
                       max_iterations=1, **scales)
    r = run(line, cfg).records[0]
    assert r.v_r - r.v == -4.0 * delta0
    assert r.step == step


# ---------------------------------------------------------------------------
# single hand-checked step (1-d, f(x) = x)


def test_one_dimensional_hand_step():
    lin = Objective("line", 1, lambda x: float(x[0]),
                    grad=lambda x: np.array([1.0]), L=1.0)
    cfg = SolverConfig(n=1, delta0=1.0, gamma=0.5, mode="theoretical",
                       beta=1.0, L=0.9, stopping="none", max_iterations=1)
    trace = run(lin, cfg)
    assert trace.reason == "budget"
    r = trace.records[0]
    # start simplex {+1, -1}; worst +1 reflects to -1 + 2*(-1) = -3;
    # decrease -4 beats the margin -4*0.9 = -3.6
    assert r.step == "reflection"
    assert r.delta == 1.0
    assert r.S == 0.0
    assert r.f_best == -1.0 and r.f_worst == 1.0
    assert r.v == 2.0 and r.v_r == -2.0
    assert r.simplex_gradient_norm == pytest.approx(1.0, rel=1e-12)
    assert trace.summary["best_value"] == -3.0
    assert trace.summary["objective_calls"] == 3


def test_hand_step_rejects_under_larger_margin():
    lin = Objective("line", 1, lambda x: float(x[0]))
    cfg = SolverConfig(n=1, delta0=1.0, gamma=0.5, mode="theoretical",
                       beta=1.0, L=1.1, stopping="none", max_iterations=1)
    trace = run(lin, cfg)  # decrease -4 > -4.4: shrink instead
    r = trace.records[0]
    assert r.step == "shrink"
    assert trace.summary["final_delta"] == 0.5


# ---------------------------------------------------------------------------
# whole-run behaviour


def test_constant_objective_only_shrinks():
    flat = Objective("flat", 2, lambda x: 7.0)
    cfg = SolverConfig(n=2, delta0=1.0, gamma=0.5, stopping="none",
                       max_iterations=25, eta=1e-3)
    trace = run(flat, cfg)
    assert trace.reason == "budget"
    assert trace.N_r == 0 and trace.N_s == 25
    for i, r in enumerate(trace.records):
        assert r.step == "shrink" and r.k == i
        assert r.delta == pytest.approx(0.5 ** i, rel=1e-12)
    assert trace.summary["final_delta"] == pytest.approx(0.5 ** 25, rel=1e-12)
    # eval accounting: n+1 initial, then 1 + n per rejected iteration
    assert trace.summary["objective_calls"] == 3 + 25 * 3
    assert trace.eval_count == 3 + 25 * 2


def test_practical_mode_stops_at_radius_floor():
    # center -1 puts the kept vertex exactly at the origin, so every shrink
    # rescales the other vertex exactly and regularity survives to the floor
    flat = Objective("flat", 1, lambda x: 0.0)
    cfg = SolverConfig(n=1, delta0=1.0, gamma=0.1, stopping="none", eta=1.0,
                       center=-1.0)
    trace = run(flat, cfg)
    assert trace.reason == "delta-floor"
    assert trace.N_s == 31  # first k with 10^-k < 1e-30
    assert trace.summary["final_delta"] < 1e-30 * cfg.delta0


def test_practical_quad_iso_reaches_tolerance():
    obj = builtin("quad-iso", 3)
    cfg = SolverConfig(n=3, delta0=1.0, gamma=0.5, epsilon=1e-4, center=2.0)
    trace = run(obj, cfg)
    assert trace.reason == "epsilon-reached"
    assert trace.summary["final_gradient_norm"] <= 1e-4
    assert trace.N_eps == len(trace.records)
    assert trace.summary["best_value"] >= 0.0
    assert trace.summary["best_value"] < obj(np.full(3, 2.0) + 1.0)
    # identity: objective calls = eval count + number of shrinks
    assert trace.summary["objective_calls"] == trace.eval_count + trace.N_s


def test_reflection_only_never_shrinks():
    obj = builtin("quad-iso", 2)
    cfg = SolverConfig(n=2, algorithm="reflection_only", stopping="none",
                       max_iterations=50)
    trace = run(obj, cfg)
    assert trace.reason == "budget"
    assert trace.N_r == 50 and trace.N_s == 0
    assert all(r.step == "reflection" for r in trace.records)
    assert all(r.delta == 1.0 for r in trace.records)
    assert trace.summary["final_delta"] == 1.0


def test_evaluation_budget_counts_objective_calls():
    obj = builtin("quad-iso", 2)
    cfg = SolverConfig(n=2, stopping="none", max_evaluations=4)
    trace = run(obj, cfg)
    assert trace.reason == "budget"
    assert len(trace.records) == 1
    assert trace.summary["objective_calls"] >= 4


def test_affine_below_tolerance_stops_immediately():
    a = np.array([1e-7, 0.0])
    obj = Objective("tilt", 2, lambda x: float(a @ x))
    cfg = SolverConfig(n=2, epsilon=1e-3, stopping="simplex_gradient")
    trace = run(obj, cfg)
    assert trace.reason == "epsilon-reached"
    assert trace.records == []
    assert trace.N_eps == 0


def test_affine_above_tolerance_runs_to_budget():
    a = np.array([2.0, -1.0])
    obj = Objective("tilt", 2, lambda x: float(a @ x))
    cfg = SolverConfig(n=2, epsilon=1e-3, max_iterations=25)
    trace = run(obj, cfg)
    assert trace.reason == "budget"
    assert len(trace.records) == 25
    assert trace.N_eps is None


# ---------------------------------------------------------------------------
# simplex gradient: closed form, once per iteration


def _count_calls(monkeypatch, name):
    calls = {"count": 0}
    fn = getattr(rssm.solver, name)

    def counted(*args, **kwargs):
        calls["count"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(rssm.solver, name, counted)
    return calls


def test_gradient_is_computed_once_per_iteration(monkeypatch):
    frames = _count_calls(monkeypatch, "_unit_frame")
    cfg = SolverConfig(n=4, epsilon=1e-12, stopping="simplex_gradient",
                       max_iterations=40, center=1.5)
    trace = run(builtin("quad-spectrum", 4, seed=7), cfg)
    assert trace.reason == "budget" and len(trace.records) == 40
    # one frame per iteration, plus the top-of-loop test that ends the run
    assert frames["count"] == len(trace.records) + 1
    # the loop solves no linear system: the affine solve is not reachable
    assert getattr(rssm.solver, "simplex_gradient", None) is not simplex_gradient
    tree = ast.parse(Path(rssm.solver.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("interpolation", "rssm.interpolation")]


def test_recorded_gradient_norms_match_the_affine_solve(monkeypatch):
    # each frame is built from the value-sorted simplex at a loop top
    simplices = []
    frame = rssm.solver._unit_frame

    def kept(s):
        simplices.append(s.vertices.copy())
        return frame(s)

    monkeypatch.setattr(rssm.solver, "_unit_frame", kept)
    obj = builtin("damped-sine", 3)
    cfg = SolverConfig(n=3, stopping="none", max_iterations=60, center=1.3)
    trace = run(obj, cfg)
    assert len(trace.records) == cfg.max_iterations
    for record, V in zip(trace.records, simplices):
        s = Simplex(V, radius=record.delta, check=False)
        values = np.array([obj(v) for v in V])
        want = np.linalg.norm(simplex_gradient(s, values))
        assert record.simplex_gradient_norm == pytest.approx(want, rel=1e-12)


def test_regularity_failure_reports_the_closed_form_gradient(monkeypatch):
    monkeypatch.setattr(rssm.solver, "REGULARITY_FAIL_TOL", -1.0)
    obj = builtin("quad-iso", 2)
    cfg = SolverConfig(n=2, stopping="none", center=0.3)
    trace = run(obj, cfg)
    assert trace.reason == "regularity-failure" and trace.records == []
    # the closed form on the rejected simplex: here the value-sorted start
    s = make_regular_simplex(cfg.start_center(), cfg.delta0, cfg.n)
    values = np.array([obj(v) for v in s.vertices])
    order = np.argsort(values, kind="stable")
    s.vertices = s.vertices[order]
    g = regular_simplex_gradient(s, values[order])
    assert trace.summary["final_gradient_norm"] == math.sqrt(g @ g)


def test_collapsed_simplex_keeps_its_trace():
    # one shrink by gamma 1e-17 rounds every vertex onto the best one
    cfg = SolverConfig(n=2, gamma=1e-17, stopping="none", max_iterations=50,
                       center=1.0)
    trace = run(builtin("quad-iso", 2, x_star=1.0), cfg)
    assert trace.reason == "regularity-failure"
    assert [r.step for r in trace.records] == ["shrink"]
    assert trace.summary["final_gradient_norm"] == 0.0
    assert trace.summary["regularity"] == \
        "radius dev 1.000e+00, edge dev 1.000e+00"


class _Counted:
    """An objective wrapper that counts the value calls made to it."""

    def __init__(self, obj):
        self._obj = obj
        self.calls = 0
        self.gradient = obj.gradient
        self.f_star = obj.f_star

    def __call__(self, x):
        self.calls += 1
        return self._obj(x)


def test_gap_stopping_without_f_star_fails_before_evaluating():
    obj = _Counted(builtin("damped-sine", 2))
    with pytest.raises(ValueError, match="known f"):
        run(obj, SolverConfig(n=2, stopping="gap"))
    assert obj.calls == 0


@pytest.mark.parametrize("obj, cfg, reason", [
    (builtin("quad-iso", 3), SolverConfig(n=3, epsilon=1e-5, center=2.0),
     "epsilon-reached"),
    # shrinks only, until the geometry drifts
    (Objective("const", 2, lambda x: 1.0),
     _theoretical_cfg(center=1.7, max_iterations=100_000), "regularity-failure"),
    (builtin("sin-quad", 2),
     SolverConfig(n=2, algorithm="reflection_only", stopping="none",
                  max_iterations=50), "budget"),
    (builtin("quad-iso", 2),
     SolverConfig(n=2, stopping="none", max_evaluations=20), "budget"),
])
def test_objective_calls_are_the_calls_the_objective_saw(obj, cfg, reason):
    counted = _Counted(obj)
    trace = run(counted, cfg)
    assert trace.reason == reason
    assert trace.summary["objective_calls"] == counted.calls


# ---------------------------------------------------------------------------
# sorting


def test_sort_is_stable_under_ties():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    V0 = s.vertices.copy()
    state = SolverState(s, np.array([1.0, 0.5, 0.5]))
    state.sort()
    np.testing.assert_array_equal(state.values, [0.5, 0.5, 1.0])
    np.testing.assert_array_equal(state.simplex.vertices[0], V0[1])
    np.testing.assert_array_equal(state.simplex.vertices[1], V0[2])
    np.testing.assert_array_equal(state.simplex.vertices[2], V0[0])


def test_records_values_are_sorted_views():
    obj = builtin("damped-sine", 3)
    cfg = SolverConfig(n=3, stopping="none", max_iterations=30, center=1.3)
    trace = run(obj, cfg)
    for r in trace.records:
        assert r.f_best <= r.f_worst
        assert r.v >= 0.0


# ---------------------------------------------------------------------------
# failure modes


def test_nonfinite_value_at_init_raises():
    bad = Objective("inf", 2, lambda x: float("inf"))
    with pytest.raises(EvaluationError) as ei:
        run(bad, SolverConfig(n=2))
    assert ei.value.point.shape == (2,)
    assert np.isinf(ei.value.value)


def test_nonfinite_value_mid_run_raises():
    calls = {"count": 0}

    def fn(x):
        calls["count"] += 1
        if calls["count"] > 10:
            return float("nan")
        return float(x @ x)

    bad = Objective("later-nan", 2, fn)
    with pytest.raises(EvaluationError) as ei:
        run(bad, SolverConfig(n=2, stopping="none", max_iterations=100))
    assert np.isnan(ei.value.value)
    assert calls["count"] == 11


def test_regularity_guard_trips(monkeypatch):
    monkeypatch.setattr(rssm.solver, "REGULARITY_FAIL_TOL", -1.0)
    trace = run(builtin("quad-iso", 2), SolverConfig(n=2, stopping="none"))
    assert trace.reason == "regularity-failure"
    assert trace.records == []
    assert "regularity" in trace.summary


def test_far_start_is_a_resolution_error():
    with pytest.raises(CenterResolutionError, match="centre scale"):
        run(builtin("quad-iso", 3), SolverConfig(n=3, center=1e8))


def test_gap_stopping_requires_known_optimum():
    obj = builtin("damped-sine", 2)  # no f*
    with pytest.raises(ValueError, match="f\\*"):
        run(obj, SolverConfig(n=2, stopping="gap"))


def test_true_gradient_stopping_requires_gradient():
    obj = Objective("opaque", 2, lambda x: float(x @ x))
    with pytest.raises(ValueError, match="gradient"):
        run(obj, SolverConfig(n=2, stopping="true_gradient"))


# ---------------------------------------------------------------------------
# configuration validation


@pytest.mark.parametrize("kw", [
    dict(n=0),
    dict(n=2, delta0=0.0),
    dict(n=2, delta0=-1.0),
    dict(n=2, gamma=0.0),
    dict(n=2, gamma=1.0),
    dict(n=2, epsilon=0.0),
    dict(n=2, mode="heuristic"),
    dict(n=2, mode="theoretical", L=1.0),            # missing beta
    dict(n=2, mode="theoretical", beta=1.0),         # missing L
    dict(n=2, mode="theoretical", beta=-1.0, L=1.0),
    dict(n=2, mode="practical", eta=None),
    dict(n=2, mode="practical", eta=0.0),
    dict(n=2, algorithm="nelder-mead"),
    dict(n=2, stopping="clairvoyant"),
    dict(n=2, max_iterations=0),
    dict(n=2, max_evaluations=0),
    dict(n=2, delta0=float("inf")),
    dict(n=2, center=[1.0, 2.0, 3.0]),
    dict(n=2, center="abc"),
    dict(n=2, center=[0.0, float("nan")]),
    dict(n=2.0),
    dict(n=True),
    dict(n=2, epsilon=float("inf")),
    dict(n=2, beta=float("inf")),  # the audit reads beta in practical mode
    dict(n=2, eta=10 ** 400),  # an int beyond the double range
    dict(n=2, delta0=10 ** 400),
    dict(n=2, center=10 ** 400),
    dict(n=2, max_iterations=True),  # budgets are integers as n is
    dict(n=2, max_evaluations=2.5),
    dict(n=2, max_iterations=10.0),
])
def test_config_validation_rejects(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw)


def test_config_takes_a_numpy_integer_n():
    assert SolverConfig(n=np.int64(3)).start_center().shape == (3,)


def test_config_center_broadcast():
    cfg = SolverConfig(n=3, center=1.5)
    np.testing.assert_array_equal(cfg.start_center(), [1.5, 1.5, 1.5])
    cfg2 = SolverConfig(n=2, center=[1.0, -2.0])
    np.testing.assert_array_equal(cfg2.start_center(), [1.0, -2.0])
    assert cfg.to_dict()["center"] == [1.5, 1.5, 1.5]


# ---------------------------------------------------------------------------
# trace serialization and determinism


def test_trace_json_round_trip():
    obj = builtin("damped-sine", 2)
    cfg = SolverConfig(n=2, stopping="none", max_iterations=20, center=0.7)
    trace = run(obj, cfg)
    text = trace.to_json()
    back = Trace.from_json(text)
    assert back.reason == trace.reason
    assert back.records == trace.records
    assert back.config == trace.config
    assert back.to_json() == text
    parsed = json.loads(text)
    assert set(parsed) == {"config", "records", "reason", "summary"}


def _three_runs():
    """A quad-spectrum run, a damped-sine run to budget, and the constant
    objective whose theoretical run ends in regularity-failure."""
    yield run(builtin("quad-spectrum", 4, seed=7),
              SolverConfig(n=4, epsilon=1e-5, center=1.1))
    yield run(builtin("damped-sine", 4),
              SolverConfig(n=4, stopping="none", max_iterations=60))
    const = Objective("const", 2, lambda x: 0.0)
    yield run(const, _theoretical_cfg(max_iterations=100_000))


def test_traces_serialise_as_dataclasses_asdict_does():
    reasons = []
    for trace in _three_runs():
        reasons.append(trace.reason)
        assert trace.records
        for r in trace.records:
            assert r.to_dict() == dataclasses.asdict(r)
        oracle = {"config": trace.config,
                  "records": [dataclasses.asdict(r) for r in trace.records],
                  "reason": trace.reason, "summary": trace.summary}
        assert trace.to_json() == json.dumps(oracle, sort_keys=True,
                                             separators=(",", ":"))
    assert reasons == ["epsilon-reached", "budget", "regularity-failure"]


def test_record_dicts_do_not_alias_the_records():
    trace = run(builtin("quad-iso", 2), SolverConfig(n=2, stopping="none",
                                                     max_iterations=5))
    before = [dataclasses.asdict(r) for r in trace.records]
    d = trace.records[0].to_dict()
    d["k"], d["step"], d["delta"] = 99, "bogus", -1.0
    d["extra"] = True
    for rec in trace.to_dict()["records"]:
        rec.clear()
    assert [dataclasses.asdict(r) for r in trace.records] == before
    assert not hasattr(trace.records[0], "extra")


@pytest.mark.parametrize("payload, what", [
    ({"records": 5}, "missing key 'config'"),
    ({"config": {"n": 2}, "records": 5, "reason": ""}, "a list"),
    ({"config": {"n": 2}, "records": {}, "reason": ""}, "a list"),
    ({"config": [2], "records": [], "reason": ""}, "an object"),
    ({"config": {"n": 2}, "records": [5], "reason": ""}, "mapping"),
    ({"config": {"n": 2}, "records": [{"k": 0, "bogus": 1}], "reason": ""},
     "bogus"),
    ({"config": {"n": 2}, "records": [{"k": 0}], "reason": ""}, "missing"),
    ({"config": {"n": 2}, "records": []}, "missing key 'reason'"),
    ([], "malformed"),
])
def test_malformed_trace_is_a_value_error(payload, what):
    with pytest.raises(ValueError, match="malformed trace") as ei:
        Trace.from_json(json.dumps(payload))
    assert what in str(ei.value)


@pytest.mark.parametrize("key", ["gamma", "n", "center"])
def test_trace_config_missing_a_field_is_a_value_error(key):
    d = run(builtin("quad-iso", 2),
            SolverConfig(n=2, stopping="none", max_iterations=3)).to_dict()
    del d["config"][key]
    with pytest.raises(ValueError, match=f"malformed trace: config lacks {key}"):
        Trace.from_json(json.dumps(d))


def test_trace_json_rejects_a_non_finite_record():
    trace = run(builtin("quad-iso", 2),
                SolverConfig(n=2, stopping="none", max_iterations=2))
    trace.records[1].S = math.inf
    with pytest.raises(ValueError):
        trace.to_json()


def test_identical_runs_produce_identical_json():
    cfg = dict(n=4, delta0=1.0, gamma=0.5, epsilon=1e-5, center=1.1,
               stopping="simplex_gradient")
    t1 = run(builtin("quad-spectrum", 4, seed=7), SolverConfig(**cfg))
    t2 = run(builtin("quad-spectrum", 4, seed=7), SolverConfig(**cfg))
    assert t1.to_json() == t2.to_json()


def test_eval_identity_across_modes():
    # eval_count = (n+1) + N_r + n*N_s and objective_calls = eval_count + N_s
    for name, n in (("quad-iso", 2), ("sin-quad", 3), ("damped-sine", 4)):
        trace = run(builtin(name, n),
                    SolverConfig(n=n, stopping="none", max_iterations=60,
                                 center=1.9))
        assert trace.eval_count == (n + 1) + trace.N_r + n * trace.N_s
        assert trace.summary["objective_calls"] == trace.eval_count + trace.N_s
