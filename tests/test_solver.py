"""Solver state machine: acceptance rule, stepping, traces, stopping."""

import json

import numpy as np
import pytest

import rssm.solver
from rssm.interpolation import simplex_gradient
from rssm.objectives import Objective, builtin
from rssm.simplex import CenterResolutionError, make_regular_simplex
from rssm.solver import (
    EvaluationError,
    SolverConfig,
    SolverState,
    Trace,
    accept_reflection,
    run,
)


def _theoretical_cfg(**kw):
    base = dict(n=2, delta0=1.0, gamma=0.5, mode="theoretical", beta=1.0, L=1.0,
                stopping="none", max_iterations=10)
    base.update(kw)
    return SolverConfig(**base)


# ---------------------------------------------------------------------------
# acceptance rule


def test_theoretical_acceptance_threshold():
    cfg = _theoretical_cfg()  # threshold -(2n+2)/n * beta * L * delta^2 = -3
    assert accept_reflection(-2.5, 1.0, cfg, delta=1.0)       # decrease -3.5
    assert accept_reflection(-2.0, 1.0, cfg, delta=1.0)       # exactly -3
    assert not accept_reflection(-1.99, 1.0, cfg, delta=1.0)  # -2.99


def test_theoretical_threshold_scales_with_delta_squared():
    cfg = _theoretical_cfg()
    assert accept_reflection(0.0, 0.76, cfg, delta=0.5)       # -0.76 <= -0.75
    assert not accept_reflection(0.0, 0.74, cfg, delta=0.5)


def test_practical_acceptance_threshold():
    cfg = SolverConfig(n=3, eta=0.1, mode="practical")
    assert not accept_reflection(-0.02, 0.0, cfg, delta=0.5)  # -0.02 > -0.025
    assert accept_reflection(-0.03, 0.0, cfg, delta=0.5)
    assert accept_reflection(-0.025, 0.0, cfg, delta=0.5)     # inclusive


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
    assert r.step == "reflection" and r.accepted
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
    assert r.step == "shrink" and not r.accepted
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
    assert trace.summary["eval_count"] == 3 + 25 * 2
    assert trace.eval_count == trace.summary["eval_count"]


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
    assert trace.summary["N_eps"] == trace.summary["iterations"]
    assert trace.summary["best_value"] >= 0.0
    assert trace.summary["best_value"] < obj(np.full(3, 2.0) + 1.0)
    # identity: objective calls = eval count + number of shrinks
    assert trace.summary["objective_calls"] == trace.summary["eval_count"] + trace.N_s


def test_reflection_only_never_shrinks():
    obj = builtin("quad-iso", 2)
    cfg = SolverConfig(n=2, algorithm="reflection_only", stopping="none",
                       max_iterations=50)
    trace = run(obj, cfg)
    assert trace.reason == "budget"
    assert trace.N_r == 50 and trace.N_s == 0
    assert all(r.step == "reflection" and r.accepted for r in trace.records)
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
    assert trace.summary["N_eps"] == 0


def test_affine_above_tolerance_runs_to_budget():
    a = np.array([2.0, -1.0])
    obj = Objective("tilt", 2, lambda x: float(a @ x))
    cfg = SolverConfig(n=2, epsilon=1e-3, max_iterations=25)
    trace = run(obj, cfg)
    assert trace.reason == "budget"
    assert trace.summary["iterations"] == 25
    assert trace.summary["N_eps"] is None


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
    closed = _count_calls(monkeypatch, "regular_simplex_gradient")
    svd = _count_calls(monkeypatch, "simplex_gradient")
    cfg = SolverConfig(n=4, epsilon=1e-12, stopping="simplex_gradient",
                       max_iterations=40, center=1.5)
    trace = run(builtin("quad-spectrum", 4, seed=7), cfg)
    assert trace.reason == "budget" and len(trace.records) == 40
    # one per iteration, plus the top-of-loop test that ends the run
    assert closed["count"] == len(trace.records) + 1
    assert svd["count"] == 0


def test_recorded_gradient_norms_match_the_affine_solve():
    obj = builtin("damped-sine", 3)
    cfg = SolverConfig(n=3, stopping="none", max_iterations=60, center=1.3)
    state = rssm.solver._init_state(obj, cfg)
    for _ in range(cfg.max_iterations):
        want = np.linalg.norm(simplex_gradient(state.simplex, state.values))
        state, record = rssm.solver.step(state, obj, cfg)
        assert record.simplex_gradient_norm == pytest.approx(want, rel=1e-12)


def test_regularity_failure_reports_the_affine_solve_gradient(monkeypatch):
    monkeypatch.setattr(rssm.solver, "REGULARITY_FAIL_TOL", -1.0)
    closed = _count_calls(monkeypatch, "regular_simplex_gradient")
    obj = builtin("quad-iso", 2)
    trace = run(obj, SolverConfig(n=2, stopping="none", center=0.3))
    assert closed["count"] == 0
    s = make_regular_simplex(0.3, 1.0, 2)
    want = np.linalg.norm(simplex_gradient(s, [obj(v) for v in s.vertices]))
    assert trace.summary["final_gradient_norm"] == pytest.approx(want, rel=1e-12)


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
])
def test_config_validation_rejects(kw):
    with pytest.raises(ValueError):
        SolverConfig(**kw)


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
        s = trace.summary
        assert s["eval_count"] == (n + 1) + s["N_r"] + n * s["N_s"]
        assert s["objective_calls"] == s["eval_count"] + s["N_s"]
