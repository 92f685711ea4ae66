"""Solver state machine: acceptance rule, stepping, traces, stopping."""

import ast
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rssm.simplex
import rssm.solver
from rssm import cli
from rssm.complexity import audit_trace, constants_for_trace
from rssm.experiments import ExperimentPlan, run_cell
from rssm.interpolation import simplex_gradient
from rssm.objectives import Objective, builtin, sublevel_radius
from rssm.simplex import (
    CenterResolutionError,
    RegularityReport,
    Simplex,
    _frame_regularity,
    _unit_frame,
    make_regular_simplex,
    reflect_worst,
    regularity_report,
    shrink_toward_best,
)
from rssm.solver import (
    EvaluationError,
    SolverConfig,
    SolverState,
    Trace,
    _grown,
    mean_value_gap,
    run,
)

from test_exact_geometry import (MomentOracle, assert_norm_within, exact_ints,
                                 gamma)


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
        assert r.step == "shrink"
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


def _count_calls(monkeypatch, name, owner=rssm.solver):
    calls = {"count": 0}
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls["count"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_gradient_is_computed_once_per_iteration(monkeypatch):
    gradients = _count_calls(monkeypatch, "_gradient_norm", SolverState)
    frames = _count_calls(monkeypatch, "_unit_frame")
    reports = _count_calls(monkeypatch, "_frame_regularity")
    reflections = _count_calls(monkeypatch, "_reflection")
    sorts = _count_calls(monkeypatch, "_sort", SolverState)
    cfg = SolverConfig(n=4, epsilon=1e-12, stopping="simplex_gradient",
                       max_iterations=40, center=1.5)
    trace = run(builtin("quad-spectrum", 4, seed=7), cfg)
    assert trace.reason == "budget" and len(trace.records) == 40
    # one gradient per iteration, plus the top-of-loop test that ends the run
    assert gradients["count"] == len(trace.records) + 1
    # a frame only where the budget runs out and the exact report reads it;
    # the budget certifies every loop top of this run, the start and those
    # after a shrink among them
    assert frames["count"] == reports["count"] == 0 and trace.N_s > 0
    # one O(n) reflection per iteration; the slots are sorted at the start
    # and at each shrink only
    assert reflections["count"] == len(trace.records)
    assert sorts["count"] == 1 + trace.N_s and trace.N_r > trace.N_s
    # the loop solves no linear system: the affine solve is not reachable
    assert getattr(rssm.solver, "simplex_gradient", None) is not simplex_gradient
    tree = ast.parse(Path(rssm.solver.__file__).read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module in ("interpolation", "rssm.interpolation")]


def _spy_centroids(monkeypatch):
    """Record each centroid the loop forms, T/(n+1) from the state's running
    sum, and check that each frame reads the one formed last; returns the
    centroids and the number of frames."""
    centroids, frames = [], []
    centroid = SolverState.centroid
    frame = rssm.solver._unit_frame

    def kept(state):
        centroids.append(centroid(state))
        return centroids[-1]

    def framed(s, c, order):
        assert c is centroids[-1]
        frames.append(c)
        return frame(s, c, order)

    monkeypatch.setattr(SolverState, "centroid", kept)
    monkeypatch.setattr(rssm.solver, "_unit_frame", framed)
    return centroids, frames


def test_centroid_is_computed_once_per_loop_top(monkeypatch):
    # the frame and the true-gradient rule read at most one centroid per
    # loop top, formed only where one of them reads it; the loop never
    # calls Simplex.centroid, the sum of all rows
    full_sums = _count_calls(monkeypatch, "centroid", Simplex)
    centroids, frames = _spy_centroids(monkeypatch)
    obj = builtin("sin-quad", 4)
    points = []
    gradient = obj.gradient

    def spied(x):
        points.append(x)
        return gradient(x)

    obj.gradient = spied
    cfg = SolverConfig(n=4, epsilon=1e-3, stopping="true_gradient", center=1.7)
    trace = run(obj, cfg)
    assert trace.reason == "epsilon-reached" and len(trace.records) > 0
    # the loop tops are the records plus the one that stops the run; the
    # true-gradient rule reads a centroid at each, the frames at a few
    tops = len(trace.records) + 1
    assert len(centroids) == tops
    assert all(a is b for a, b in zip(points, centroids)) and len(points) == tops
    assert len(frames) == 0
    # only make_regular_simplex sums the rows, once, to certify the start
    assert full_sums["count"] == 1
    # without that rule, a centroid only where a frame is built: nowhere
    # while the budget certifies, and at every loop top without it, each
    # frame on the centroid formed last
    cfg = SolverConfig(n=4, stopping="none", max_iterations=40, center=1.5)
    for budget, frames_per_top in ((None, 0), (math.nan, 1)):
        if budget is not None:
            monkeypatch.setattr(SolverState, "_drift_bound",
                                lambda self: budget)
        centroids.clear()
        frames.clear()
        trace = run(builtin("quad-spectrum", 4, seed=7), cfg)
        assert len(centroids) == len(frames) == \
            frames_per_top * (len(trace.records) + 1)


def test_recorded_gradient_norms_match_the_affine_solve(monkeypatch):
    # the vertices in value order at each loop top, as the gradient is taken
    simplices = []
    norm = SolverState._gradient_norm

    def kept(state):
        simplices.append(state.simplex.vertices[state.order])
        return norm(state)

    monkeypatch.setattr(SolverState, "_gradient_norm", kept)
    obj = builtin("damped-sine", 3)
    cfg = SolverConfig(n=3, stopping="none", max_iterations=60, center=1.3)
    trace = run(obj, cfg)
    assert len(trace.records) == cfg.max_iterations
    for record, V in zip(trace.records, simplices):
        s = Simplex(V, radius=record.delta)
        values = np.array([obj(v) for v in V])
        want = np.linalg.norm(simplex_gradient(s, values))
        assert record.simplex_gradient_norm == pytest.approx(want, rel=1e-12)


def test_regularity_failure_reports_the_closed_form_gradient(monkeypatch):
    monkeypatch.setattr(rssm.solver, "REGULARITY_FAIL_TOL", -1.0)
    obj = builtin("quad-iso", 2)
    cfg = SolverConfig(n=2, stopping="none", center=0.3)
    trace = run(obj, cfg)
    assert trace.reason == "regularity-failure" and trace.records == []
    # the closed form on the rejected simplex, the start, from the moment
    # just re-based there: within its bound of the exact gradient
    oracle = MomentOracle(SolverState(
        make_regular_simplex(cfg.start_center(), cfg.delta0, cfg.n), obj))
    _, g = oracle.exact()
    scale = Fraction(cfg.n, cfg.n + 1) / Fraction(cfg.delta0)
    assert_norm_within(trace.summary["final_gradient_norm"], g,
                       [scale * b for b in oracle.bound()], cfg.n + 4,
                       "final_gradient_norm")


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


def test_an_overflowing_value_sum_ends_the_run_and_keeps_the_records():
    calls = [0]

    def late(x):
        # finite throughout, but past call 12 the values sum beyond the doubles
        calls[0] += 1
        return 1e308 if calls[0] > 12 else float(x @ x)

    cfg = SolverConfig(n=2, stopping="none", max_iterations=50, center=3.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run(Objective("late", 2, late), cfg)
    assert caught == []
    assert trace.reason == "overflow"
    steps = [r.step for r in trace.records]
    assert steps == ["reflection"] * 6 + ["shrink"] * 2
    assert trace.summary["overflow"] == "the vertex-value sum S is inf"
    assert "final_S" not in trace.summary
    assert "final_gradient_norm" not in trace.summary
    assert trace.final_gap(0.0) is None
    assert Trace.from_json(trace.to_json()).records == trace.records


def test_the_overflowing_objective_of_the_roadmap_stops_without_nan():
    big = Objective("big", 2, lambda x: 1e308 + 1e292 * float(x @ x), L=2e292)
    cfg = _theoretical_cfg(L=2e292, max_iterations=5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run(big, cfg)
    assert caught == []
    assert (trace.reason, trace.records) == ("overflow", [])
    # the run stops at the sum: no gradient is taken
    assert "final_gradient_norm" not in trace.summary
    assert trace.summary["objective_calls"] == 3
    Trace.from_json(trace.to_json())


def test_an_overflowing_gradient_norm_ends_the_run_and_keeps_final_S():
    # vertex values -+1.7e308 sum to 0, but the gradient leaves the doubles
    steep = Objective("steep", 1, lambda x: 1.7e308 * float(x[0]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run(steep, SolverConfig(n=1, stopping="none"))
    assert caught == []
    assert (trace.reason, trace.records) == ("overflow", [])
    assert trace.summary["overflow"] == "the simplex gradient norm is inf"
    assert trace.summary["final_S"] == 0.0
    assert "final_gradient_norm" not in trace.summary
    assert trace.final_gap(0.0) == 0.0
    Trace.from_json(trace.to_json())


def test_a_gradient_norm_whose_square_overflows_ends_the_run():
    # the norm is 1e160, and the moment P - s/2 T0 about 2e150 at this
    # radius, but the gradient's square overflows: the norm is taken from
    # the moment over delta, so the run stops as it does with the frame
    steep = Objective("steep", 1, lambda x: 1e160 * float(x[0]))
    trace = run(steep, SolverConfig(n=1, delta0=1e-10, stopping="none"))
    assert (trace.reason, trace.records) == ("overflow", [])
    assert trace.summary["overflow"] == "the simplex gradient norm is inf"


def test_a_radius_whose_square_underflows_keeps_the_gradient_norm():
    # f(x) = x at radius 1e-170: the moment is about 1e-170 and its square
    # underflows, the gradient's does not
    line = Objective("line", 1, lambda x: float(x[0]))
    trace = run(line, SolverConfig(n=1, delta0=1e-170, stopping="none",
                                   max_iterations=1))
    assert trace.records[0].simplex_gradient_norm == pytest.approx(
        1.0, rel=1e-12)


def test_an_overflowing_reflected_gap_ends_the_run_before_its_step():
    # S = -1.6e308 and the gradient norm is 0, but the first candidate
    # lands on the cliff, so v_r = 1.7e308 + 0.8e308
    cliff = Objective("cliff", 1, lambda x: 1.7e308 if abs(x[0]) > 1.5
                      else -0.8e308)
    trace = run(cliff, SolverConfig(n=1, stopping="none", max_iterations=2))
    assert (trace.reason, trace.records) == ("overflow", [])
    assert trace.summary["overflow"] == "the record field v_r is inf"
    # the candidate is counted; the state is the loop top's
    assert trace.summary["objective_calls"] == 3
    assert trace.summary["final_values"] == [-0.8e308, -0.8e308]
    assert trace.summary["final_S"] == -1.6e308
    assert trace.summary["final_gradient_norm"] == 0.0
    assert Trace.from_json(trace.to_json()).summary == trace.summary


def test_the_starting_evaluations_warn_no_more_than_the_rest():
    # every call of this objective overflows in exp
    def f(x):
        return float(np.minimum(np.exp(np.float64(800.0)), 1.0) + x @ x)

    counted = _Counted(Objective("exp", 2, f))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = run(counted, SolverConfig(n=2, stopping="none",
                                          max_iterations=5))
    assert caught == []
    assert trace.summary["objective_calls"] == counted.calls > 3


# ---------------------------------------------------------------------------
# the regularity verdict: the distortion budget and the exact report


U = np.finfo(float).eps
HALF_TOL = 0.5 * rssm.solver.REGULARITY_FAIL_TOL


def _start(n, centre, objective):
    """A SolverState on a regular simplex of radius 1 at `centre`, with
    run's anchor: the exact report of the constructed simplex."""
    s = make_regular_simplex(np.full(n, centre), 1.0, n)
    state = SolverState(s, objective)
    state._anchor(regularity_report(s))
    return state


def _loop_tops(n, centre, steps):
    """The loop tops of a random walk driven through a SolverState as run
    drives it, from run's anchor: at each, the frame, the budget's bound
    and, where that does not certify the top, the exact report, which
    anchors the budget afresh; then an accepted reflection of the worst
    vertex (4 steps in 5) or a shrink toward the best, with random values.
    Yields (step, state, centroid, frame, bound, report); report is None at
    a certified top."""
    rng = np.random.default_rng(n)
    state = _start(n, centre, lambda x: rng.standard_normal())
    for step in range(steps):
        c = state.centroid()
        Y = _unit_frame(state.simplex, c, state.order)
        bound = state._drift_bound()
        report = None
        if not bound <= HALF_TOL:
            report = _frame_regularity(Y)
            state._anchor(report)
        yield step, state, c, Y, bound, report
        if rng.random() < 0.8:
            state.accept(state.reflection(), rng.standard_normal())
        else:
            state.shrink(0.9999)


def _exact_sqrt(q):
    """sqrt(q) for a Fraction q >= 0, rounded down to a multiple of 2^-200."""
    return Fraction(math.isqrt(q.numerator * 4 ** 200 // q.denominator),
                    2 ** 200)


def _derived_bound_ratio(state, c, Y):
    """The larger error of the exact report's two deviations, in units of
    the derived rounding bound B.

    The oracle is exact on the float vertices: the report's radii against
    ||x_a - c|| / delta about the frame's centroid c, and its edges against
    the exact edges.  Each error is an exact ratio of ints, rounded once
    to a double."""
    n = Y.shape[1]
    B = rssm.solver._drift_constants(n)[2]
    rows, k = exact_ints(np.vstack([state.simplex.vertices, c]))
    X, C = rows[:-1], rows[-1]
    p, q = state.simplex.radius.as_integer_ratio()
    # a squared radius is R / den, a squared edge D / edge_den, in ints
    den = 4 ** k * p * p
    radii = [sum((s - t) ** 2 for s, t in zip(x, C)) * q * q for x in X]
    edge_den = 2 * (n + 1) * den
    edges = [sum((s - t) ** 2 for s, t in zip(X[a], X[b])) * n * q * q
             for a in range(n + 1) for b in range(a + 1, n + 1)]
    rep = _frame_regularity(Y)
    worst = 0.0
    for got, exact, d in ((rep.max_radius_deviation, radii, den),
                          (rep.max_edge_deviation, edges, edge_den)):
        if exact:  # n = 1 has one edge; every n has radii
            hi, lo = Fraction(max(exact), d), Fraction(min(exact), d)
            dev = max(_exact_sqrt(hi) - 1, 1 - _exact_sqrt(lo))
            worst = max(worst, float(abs(Fraction(got) - dev)) + 2.0 ** -190)
    return worst / B


def test_the_derived_rounding_bound_is_the_gamma_form():
    # B = (1 + 2 tol)^2 (2n/(n+1)) gamma_(n+8) + gamma_5, in exact arithmetic
    tau = Fraction(2 * rssm.solver.REGULARITY_FAIL_TOL)
    for n in range(1, 65):
        want = ((1 + tau) ** 2 * Fraction(2 * n, n + 1) * gamma(n + 8)
                + gamma(5))
        # evaluated in doubles: a few roundings of itself, far inside the
        # factor 2 that half of REGULARITY_FAIL_TOL leaves
        got = Fraction(rssm.solver._drift_constants(n)[2])
        assert abs(got / want - 1) <= Fraction(8, 2 ** 53), n


def test_a_report_kernel_off_by_20u_fails_the_derived_bound(monkeypatch):
    # at n = 1 B is about 14u, so an edge kernel scaled by 1 + 40u (u the
    # unit roundoff, U / 2), which moves an edge by about 20u, breaks it
    kernel = rssm.simplex._squared_edges
    monkeypatch.setattr(rssm.simplex, "_squared_edges",
                        lambda *args: kernel(*args) * (1.0 + 20 * U))
    ratio = max(_derived_bound_ratio(state, c, Y)
                for _, state, c, Y, _, _ in _loop_tops(1, 0.0, 200))
    assert ratio > 1.0


@pytest.mark.parametrize("centre", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [1, 2, 8, 33])
def test_the_budget_bounds_the_exact_report_at_every_certified_loop_top(
        n, centre):
    # the walk as run takes it: the exact report only where the budget
    # does not certify, and the budget anchored afresh from it
    certified = reports = 0
    ratio = 0.0
    for step, state, c, Y, bound, report in _loop_tops(n, centre, 3_000):
        if step % 500 == 0:
            ratio = max(ratio, _derived_bound_ratio(state, c, Y))
        if report is None:
            certified += 1
            assert _frame_regularity(Y).max_deviation() <= bound, step
        else:
            reports += 1
    # the report's deviations within B of the exact ones
    assert ratio <= 1.0
    # the budget grows only by rounding, which grows with the centre only
    # through the one add of x0 in each reflection: at centre 0 it
    # certifies every loop top, and elsewhere most of them
    if centre == 0.0:
        assert reports == 0
    else:
        assert certified > 3 * reports


@pytest.mark.parametrize("n, reports", [(8, 1), (32, 3), (64, 5)])
def test_a_far_walk_takes_the_exact_report_at_few_loop_tops(n, reports,
                                                            monkeypatch):
    # far from the origin a reflection's rounding is one add of x0, u ||x0||
    # or 3e-10 to 9e-10 radii here, against half the tolerance: the budget
    # certifies all but a handful of the 3,001 loop tops of a walk.  The
    # counts are pinned, so the start's anchor runs it out no sooner
    counted = _count_calls(monkeypatch, "_frame_regularity")
    trace = run(builtin("damped-sine", n, seed=0),
                SolverConfig(n=n, stopping="none", center=1e6,
                             max_iterations=3_000))
    assert (trace.reason, len(trace.records)) == ("budget", 3_000)
    assert counted["count"] == reports


@pytest.mark.parametrize("n", [1, 2, 8])
def test_the_reach_is_taken_only_where_t0_is_resummed(n):
    # R = ||x0|| + a delta bounds every row's norm, the rows the reflections
    # wrote since the last re-sum among them: an accepted reflection and an
    # anchor (an exact report) leave it, and it is taken afresh from the
    # best vertex only where T0 is summed afresh
    rng = np.random.default_rng(n)
    state = SolverState(make_regular_simplex(np.full(n, 2.0), 1.0, n),
                        lambda x: rng.standard_normal())

    def reach():
        x0 = state.simplex.vertices[state.order[0]]
        return math.sqrt(x0 @ x0) + state._reach_radii * state.simplex.radius

    def rows_norm():
        V = state.simplex.vertices
        return float(np.sqrt(np.einsum("ij,ij->i", V, V)).max())

    assert state._reach == reach() >= rows_norm()
    taken = state._reach
    for step in range(n + 1):
        # each accepted value is below the others: a new best vertex
        state.accept(state.reflection(), float(rng.standard_normal()) - 10.0)
        Y = _unit_frame(state.simplex, state.centroid(), state.order)
        state._anchor(_frame_regularity(Y))
        if step < n:
            assert state._updates == step + 1
            assert state._reach == taken >= rows_norm()
            assert reach() != taken
    # the (n+1)-th accepted reflection re-summed T0
    assert state._updates == 0 and state._reach == reach() != taken
    assert state._reach >= rows_norm()
    state.accept(state.reflection(), 0.0)
    state.shrink(0.5)
    assert state._reach == reach() >= rows_norm()


def _anchored_state(n=2):
    """A state whose budget an exact report has just anchored: certified."""
    state = SolverState(make_regular_simplex(np.zeros(n), 1.0, n),
                        lambda x: float(x @ x))
    state._anchor(_frame_regularity(_unit_frame(state.simplex,
                                                state.centroid(),
                                                state.order)))
    assert state._drift_bound() <= HALF_TOL
    return state


@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("where", ["kappa", "reach", "report"])
def test_a_nan_or_inf_in_the_budget_leaves_the_loop_top_uncertified(
        where, value):
    # max(x, nan) drops a NaN, so each test reads not (bound <= half)
    state = _anchored_state()
    if where == "kappa":
        state._kappa = value
    elif where == "reach":
        state._reach = value
    else:
        state._anchor(RegularityReport(0.0, value))
    assert not state._drift_bound() <= HALF_TOL


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_a_nan_or_inf_reflection_leaves_the_gradient_norm_to_the_frame(
        value):
    # the budget reads the reach taken at the last re-sum, so an accepted
    # reflection that is not finite shows in the running sums instead: the
    # norm from the moment is not finite, and run takes the frame form,
    # which ends the run as overflow
    state = _anchored_state()
    x_r = state.reflection()
    x_r[0] = value
    with np.errstate(over="ignore", invalid="ignore"):  # as in run
        state.accept(x_r, 0.0)
        assert not state._gradient_norm() <= rssm.solver._MAX


def test_a_nan_radius_leaves_the_loop_top_uncertified():
    state = _anchored_state()
    state.simplex.radius = math.nan
    assert not state._drift_bound() <= HALF_TOL


def test_the_start_is_anchored_and_a_shrink_adds_its_rounding():
    # a new state certifies nothing; run's anchor, the exact report of the
    # constructed simplex, certifies the start
    s = make_regular_simplex(np.zeros(3), 1.0, 3)
    assert SolverState(s, lambda x: float(x @ x))._drift_bound() == math.inf
    state = _start(3, 0.0, lambda x: float(x @ x))
    assert state._drift_bound() <= HALF_TOL
    # a shrink keeps the budget and adds the rounding of its moved rows and
    # of the stored radius
    kappa, R = state._kappa, state._reach
    state.shrink(0.5)
    grown = _grown(kappa, state._shrink * R / state.simplex.radius)
    assert state._kappa == grown + 1.5 * U * (1.0 + grown) > kappa
    assert state._drift_bound() <= HALF_TOL


@pytest.mark.parametrize("n, centre", [(1, 0.0), (5, 1e3), (32, 1e6)])
def test_run_anchors_the_budget_once_from_the_report_of_its_start(
        n, centre, monkeypatch):
    # run takes the one report that certified its starting simplex to
    # anchor the budget, before its first loop top, which that certifies
    events = []
    anchor, bound = SolverState._anchor, SolverState._drift_bound

    def anchored(self, report):
        events.append(("anchor", report))
        anchor(self, report)

    def bounded(self):
        events.append(("top", bound(self)))
        return events[-1][1]

    monkeypatch.setattr(SolverState, "_anchor", anchored)
    monkeypatch.setattr(SolverState, "_drift_bound", bounded)
    cfg = SolverConfig(n=n, delta0=0.5, center=centre, stopping="none",
                       max_iterations=3)
    run(builtin("quad-iso", n), cfg)
    start = regularity_report(make_regular_simplex(cfg.start_center(),
                                                   cfg.delta0, n))
    first_top = [kind for kind, _ in events].index("top")
    assert events[:first_top] == [("anchor", start)]
    assert events[first_top][1] <= HALF_TOL


# (n, centre) of the grid below where doubles cannot resolve radius 1
UNRESOLVED_STARTS = {(3, 3e7), (5, 3e7), (8, 3e7), (16, 3e7), (64, 1e7),
                     (64, 3e7), (256, 1e7), (256, 3e7)}


@pytest.mark.parametrize("centre", [0.0, 1e3, 1e6, 1e7, 3e7])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64, 256])
def test_the_start_is_certified_wherever_the_construction_resolves(n,
                                                                   centre):
    if (n, centre) in UNRESOLVED_STARTS:
        with pytest.raises(CenterResolutionError):
            make_regular_simplex(np.full(n, centre), 1.0, n)
    else:
        assert _start(n, centre, lambda x: 0.0)._drift_bound() <= HALF_TOL


@pytest.mark.parametrize("radius_dev, edge_dev", [
    pytest.param(math.nan, 0.5, id="radius-nan"),
    pytest.param(0.5, math.nan, id="edge-nan"),
    pytest.param(math.nan, math.nan, id="both-nan")])
def test_a_nan_regularity_report_fails_the_verdict(radius_dev, edge_dev,
                                                   monkeypatch):
    # with the budget off, the exact report, which reads NaN, decides
    monkeypatch.setattr(SolverState, "_drift_bound", lambda self: math.nan)
    monkeypatch.setattr(rssm.solver, "_frame_regularity",
                        lambda Y: RegularityReport(radius_dev, edge_dev))
    trace = run(builtin("quad-iso", 2), SolverConfig(n=2, stopping="none"))
    assert (trace.reason, trace.records) == ("regularity-failure", [])
    assert trace.summary["regularity"] == str(
        RegularityReport(radius_dev, edge_dev))


REGULARITY_FAILURES = [
    pytest.param(builtin("damped-sine", 4), SolverConfig(n=4, stopping="none"),
                 78, "radius dev 1.039e-06, edge dev 9.950e-07",
                 id="damped-sine"),
    pytest.param(Objective("const", 2, lambda x: 0.0),
                 _theoretical_cfg(max_iterations=100_000),
                 34, "radius dev 1.201e-06, edge dev 4.997e-07", id="const"),
    pytest.param(Objective("const", 2, lambda x: 0.0),
                 _theoretical_cfg(center=1e8, max_iterations=100_000),
                 7, "radius dev 1.201e-06, edge dev 4.997e-07",
                 id="const-centre-1e8"),
]


@pytest.mark.parametrize("obj, cfg, k, drift", REGULARITY_FAILURES)
def test_the_budget_stops_where_an_exact_report_does(obj, cfg, k, drift,
                                                     monkeypatch):
    trace = run(obj, cfg)
    assert (trace.reason, len(trace.records)) == ("regularity-failure", k)
    assert trace.summary["regularity"] == drift
    # with the budget off, the exact report is taken at every loop top
    monkeypatch.setattr(SolverState, "_drift_bound", lambda self: math.nan)
    assert run(obj, cfg).to_json() == trace.to_json()


def test_a_clean_run_takes_no_exact_report(monkeypatch):
    reports = _count_calls(monkeypatch, "_frame_regularity")
    frames = _count_calls(monkeypatch, "_unit_frame")
    trace = run(builtin("quad-spectrum", 64, seed=0),
                SolverConfig(n=64, epsilon=1.0, center=0.5))
    assert trace.reason == "epsilon-reached"
    assert trace.N_r > 100 and trace.N_s > 0
    assert reports["count"] == frames["count"] == 0


def test_a_clean_run_certifies_every_loop_top(monkeypatch):
    bounds = []
    bound = SolverState._drift_bound

    def spy(self):
        bounds.append(bound(self))
        return bounds[-1]

    monkeypatch.setattr(SolverState, "_drift_bound", spy)
    trace = run(builtin("quad-spectrum", 64, seed=0),
                SolverConfig(n=64, epsilon=1.0, center=0.5))
    assert trace.reason == "epsilon-reached"
    # the start, the loop tops after each shrink and those after every
    # accepted reflection: the budget grows by rounding alone
    assert len(bounds) == len(trace.records) + 1
    assert max(bounds) <= 1e-2 * HALF_TOL


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


@pytest.mark.parametrize("obj, cfg, reason, shrinks", [
    (builtin("quad-iso", 3), SolverConfig(n=3, epsilon=1e-5, center=2.0),
     "epsilon-reached", None),
    # shrinks only, until the geometry drifts
    (Objective("const", 2, lambda x: 1.0),
     _theoretical_cfg(center=1.7, max_iterations=100_000), "regularity-failure",
     None),
    # far from the minimiser every reflection is accepted
    (builtin("quad-iso", 2),
     SolverConfig(n=2, stopping="none", max_iterations=20, center=20.0),
     "budget", 0),
    (builtin("quad-iso", 2),
     SolverConfig(n=2, stopping="none", max_evaluations=20), "budget", None),
])
def test_objective_calls_are_the_calls_the_objective_saw(obj, cfg, reason,
                                                         shrinks):
    counted = _Counted(obj)
    trace = run(counted, cfg)
    assert trace.reason == reason
    assert trace.summary["objective_calls"] == counted.calls
    if shrinks is not None:
        assert trace.N_s == shrinks


# ---------------------------------------------------------------------------
# sorting


def test_the_start_orders_the_slots_stably_under_ties():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    V0 = s.vertices.copy()
    values = iter([1.0, 0.5, 0.5])
    state = SolverState(s, lambda x: next(values))
    np.testing.assert_array_equal(state.values, [0.5, 0.5, 1.0])
    np.testing.assert_array_equal(state.order, [1, 2, 0])
    # the vertices keep their slots
    np.testing.assert_array_equal(state.simplex.vertices, V0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=6),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_sort_is_stable_under_ties(n, seed):
    # values drawn from three levels force ties at every step; after each
    # accepted reflection or shrink, the order is the stable argsort of the
    # slots' values taken in the previous order, which is where a
    # row-permuting stable sort leaves the vertices
    rng = np.random.default_rng(seed)
    calls = []

    def draw(x):
        calls.append((x.copy(), float(rng.integers(0, 3))))
        return calls[-1][1]

    state = SolverState(make_regular_simplex(np.zeros(n), 1.0, n), draw)
    value = {slot: f for slot, (x, f) in enumerate(calls)}
    previous = np.arange(n + 1)
    for step in range(31):
        if step:
            previous = state.order.copy()
            calls.clear()
            if rng.random() < 0.7:
                f_r = float(rng.integers(0, 3))
                value[int(previous[n])] = f_r
                state.accept(state.reflection(), f_r)
            else:
                # the other vertices are evaluated in their value order
                state.shrink(0.5)
                assert len(calls) == n
                for slot, (x, f) in zip(previous[1:].tolist(), calls):
                    np.testing.assert_array_equal(
                        x, state.simplex.vertices[slot])
                    value[slot] = f
        want = previous[np.argsort([value[int(a)] for a in previous],
                                   kind="stable")]
        np.testing.assert_array_equal(state.order, want)
        np.testing.assert_array_equal(state.values,
                                      [value[int(a)] for a in want])


def test_records_values_are_sorted_views():
    obj = builtin("damped-sine", 3)
    cfg = SolverConfig(n=3, stopping="none", max_iterations=30, center=1.3)
    trace = run(obj, cfg)
    for r in trace.records:
        assert r.f_best <= r.f_worst
        assert r.v >= 0.0


# ---------------------------------------------------------------------------
# failure modes


@pytest.mark.parametrize("value", [2.5, np.float64(2.5), np.float32(2.5), 2],
                         ids=["float", "float64", "float32", "int"])
def test_evaluate_returns_a_float_for_every_real_return_type(value):
    state = SolverState(make_regular_simplex(np.zeros(2), 1.0, 2),
                        lambda x: value)
    got = state.evaluate(np.zeros(2))
    assert type(got) is float and got == float(value)
    assert state.values.dtype == np.float64
    assert state.objective_calls == 4


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 np.float64(math.nan), np.float32(math.inf),
                                 np.float32(-math.inf), 10 ** 400])
def test_evaluate_raises_on_a_nonfinite_return(bad):
    values = [1.0, 2.0, 3.0, bad]
    state = SolverState(make_regular_simplex(np.zeros(2), 1.0, 2),
                        lambda x: values.pop(0))
    with pytest.raises(EvaluationError) as ei:
        state.evaluate(np.ones(2))
    assert ei.value.value is bad
    assert ei.value.point.tolist() == [1.0, 1.0]
    assert state.objective_calls == 4


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
    assert set(parsed["records"]) == set(rssm.solver.IterationRecord._fields)


def _three_runs():
    """A quad-spectrum run, a damped-sine run to budget, and the constant
    objective whose theoretical run ends in regularity-failure."""
    yield run(builtin("quad-spectrum", 4, seed=7),
              SolverConfig(n=4, epsilon=1e-5, center=1.1))
    yield run(builtin("damped-sine", 4),
              SolverConfig(n=4, stopping="none", max_iterations=60))
    const = Objective("const", 2, lambda x: 0.0)
    yield run(const, _theoretical_cfg(max_iterations=100_000))


def test_traces_serialise_as_the_row_dicts_do():
    reasons = []
    for trace in _three_runs():
        reasons.append(trace.reason)
        assert trace.records
        rows = [r._asdict() for r in trace.records]
        columns = {key: [row[key] for row in rows] for key in rows[0]}
        columns["step"] = "".join({"reflection": "r", "shrink": "s"}[step]
                                  for step in columns["step"])
        oracle = {"config": trace.config, "records": columns,
                  "reason": trace.reason, "summary": trace.summary}
        assert trace.to_json() == json.dumps(oracle, sort_keys=True,
                                             separators=(",", ":"))
    assert reasons == ["epsilon-reached", "budget", "regularity-failure"]


def test_record_dicts_do_not_alias_the_records():
    trace = run(builtin("quad-iso", 2), SolverConfig(n=2, stopping="none",
                                                     max_iterations=5))
    before = [r._asdict() for r in trace.records]
    text = trace.to_json()
    columns = trace.to_dict()["records"]
    columns["delta"][0] = -1.0
    columns["step"], columns["extra"] = "bogus", [True]
    for column in columns.values():
        if isinstance(column, list):
            column.clear()
    assert [r._asdict() for r in trace.records] == before
    assert not hasattr(trace.records[0], "extra")
    assert trace.to_json() == text


def test_loads_do_not_alias_the_dict():
    d = run(builtin("quad-iso", 2), SolverConfig(n=2, stopping="none",
                                                 max_iterations=5)).to_dict()
    text = json.dumps(d, sort_keys=True, separators=(",", ":"))
    # an edit of the dict after the load leaves the trace as it was
    trace = Trace.from_dict(d)
    d["records"]["delta"][0] = -1.0
    d["records"]["S"].clear()
    d["records"]["step"] = "bogus"
    assert trace.to_json() == text
    # an edit of the trace's columns leaves the dict as it was
    d = json.loads(text)
    trace = Trace.from_dict(d)
    trace.columns["delta"][0] = -1.0
    trace.columns["S"].clear()
    trace.columns["step"][0] = "x"
    assert json.dumps(d, sort_keys=True, separators=(",", ":")) == text


def test_the_record_view_is_the_columns_as_immutable_rows():
    trace = run(builtin("damped-sine", 2), SolverConfig(
        n=2, stopping="none", max_iterations=20, center=0.7))
    assert trace.N_s > 0 and trace.N_r > 0
    rows = trace.records
    fields = rssm.solver.IterationRecord._fields
    assert fields == tuple(trace.columns)
    words = {"r": "reflection", "s": "shrink"}
    assert {name: [getattr(r, name) for r in rows] for name in fields} == {
        **trace.columns, "step": [words[c] for c in trace.columns["step"]]}
    with pytest.raises(AttributeError):
        rows[0].S = 0.0


def test_the_package_reads_the_columns_and_never_the_record_view(
        monkeypatch, tmp_path, capsys):
    def unread(self):
        raise AssertionError("Trace.records was read")

    monkeypatch.setattr(Trace, "records", property(unread))
    obj = builtin("quad-iso", 2)
    trace = run(obj, _theoretical_cfg(L=obj.L, stopping="gap", epsilon=1e-3,
                                      max_iterations=10_000))
    text = trace.to_json()
    back = Trace.from_json(text)
    assert back.to_json() == text and back.reason == "epsilon-reached"
    R = sublevel_radius(obj, back.columns["S"][0] / 3.0)
    consts = constants_for_trace(back, L=obj.L, R=R, mu=obj.mu)
    assert audit_trace(back, consts, case="strongly_convex",
                       f_star=obj.f_star).passed
    path = tmp_path / "trace.json"
    assert cli.main(["solve", "--objective", "sin-quad", "--n", "2",
                     "--mode", "theoretical", "--beta", "1", "--L", "8",
                     "--stopping", "true_gradient", "--epsilon", "1e-3",
                     "--start", "1.7", "--trace-out", str(path)]) == 0
    assert cli.main(["audit", "--trace-in", str(path), "--case", "pl",
                     "--L", "8", "--fstar", "0"]) == 0
    assert "iterations: " in capsys.readouterr().out
    row = run_cell(ExperimentPlan(objective="quad-iso", dims=(2,),
                                  epsilons=(1e-3,)), n=2, epsilon=1e-3, seed=0)
    assert row.reason == "epsilon-reached" and row.N_s > 0


def _columns(**changed) -> dict:
    """The records column object of one shrink, with `changed` columns."""
    columns = {name: [1.0] for name in rssm.solver.IterationRecord._fields}
    columns["step"] = "s"
    columns.update(changed)
    return columns


@pytest.mark.parametrize("payload, what", [
    ({"records": 5}, "missing key 'config'"),
    ({"config": {"n": 2}, "records": 5, "reason": ""}, "a list"),
    ({"config": {"n": 2}, "records": [], "reason": ""}, "a list"),
    ({"config": [2], "records": _columns(), "reason": ""}, "an object"),
    ({"config": {"n": 2}, "records": _columns(delta=5), "reason": ""},
     "'delta': 'int'"),
    ({"config": {"n": 2}, "records": _columns(bogus=[1]), "reason": ""},
     "bogus"),
    ({"config": {"n": 2}, "records": {"step": "s"}, "reason": ""},
     "not {'step': 'str'}"),
    ({"config": {"n": 2}, "records": _columns()}, "missing key 'reason'"),
    ([], "malformed"),
])
def test_malformed_trace_is_a_value_error(payload, what):
    with pytest.raises(ValueError, match="malformed trace") as ei:
        Trace.from_json(json.dumps(payload))
    assert what in str(ei.value)


# one column of a three-record trace and its new value, with the part of the
# error that names the column and the first record at fault
COLUMN_FAULTS = [
    ("step", "rxs", "record 1 is not one run writes: step 'x'"),
    ("step", ["r", "s", "s"], "'step': 'list'"),
    ("step", "rs", "column delta has 3 entries for 2 steps"),
    ("delta", (1.0, 1.0, 1.0), "'delta': 'tuple'"),
    ("delta", [1.0, 0.5], "column delta has 2 entries for 3 steps"),
    ("delta", [1.0, -0.0, 0.5], "record 1 is not one run writes: delta -0.0"),
    ("S", [1.0, 2.0, "3"], "record 2 is not one run writes: S '3'"),
    ("v", [False, 1.0, 1.0], "record 0 is not one run writes: v False"),
    ("v_r", [0.0, 10 ** 400, math.nan], "record 1 is not one run writes: v_r"),
    ("f_best", [0.0, math.nan, 1.0],
     "record 1 is not one run writes: f_best nan"),
]


@pytest.mark.parametrize("name, value, what", COLUMN_FAULTS)
def test_the_loader_names_the_column_and_record_at_fault(name, value, what):
    d = run(builtin("quad-iso", 2),
            SolverConfig(n=2, stopping="none", max_iterations=3)).to_dict()
    d["records"][name] = value
    with pytest.raises(ValueError, match="malformed trace: ") as ei:
        Trace.from_dict(d)
    assert what in str(ei.value)


def test_the_loader_keeps_ints_and_the_least_positive_radius():
    d = run(builtin("quad-iso", 2),
            SolverConfig(n=2, stopping="none", max_iterations=3)).to_dict()
    d["records"]["delta"][2] = 5e-324
    d["records"]["S"] = [1, -2, 3]
    back = Trace.from_dict(d)
    assert [r.S for r in back.records] == [1, -2, 3]
    assert back.records[2].delta == 5e-324
    assert [r.step for r in back.records] == [
        {"r": "reflection", "s": "shrink"}[c] for c in d["records"]["step"]]


@pytest.mark.parametrize("key", ["gamma", "n", "center"])
def test_trace_config_missing_a_field_is_a_value_error(key):
    d = run(builtin("quad-iso", 2),
            SolverConfig(n=2, stopping="none", max_iterations=3)).to_dict()
    del d["config"][key]
    with pytest.raises(ValueError, match=f"malformed trace: config lacks {key}"):
        Trace.from_json(json.dumps(d))


def test_trace_config_names_its_unknown_fields():
    d = run(builtin("quad-iso", 2),
            SolverConfig(n=2, stopping="none", max_iterations=3)).to_dict()
    d["config"].update(foo=1, algorithm="rssm")
    with pytest.raises(ValueError, match="^malformed trace: config has "
                                         "unknown field foo, algorithm$"):
        Trace.from_json(json.dumps(d))
    # a missing field is named first
    del d["config"]["gamma"]
    with pytest.raises(ValueError, match="^malformed trace: config lacks "
                                         "gamma$"):
        Trace.from_dict(d)


CONFIG_NUMBERS = ["delta0", "gamma", "epsilon", "beta", "eta", "L"]


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
@pytest.mark.parametrize("name", CONFIG_NUMBERS)
def test_config_numbers_are_floats_or_ints(name, value):
    # the number rule of the trace loader's records: a bool or a string is
    # not a number, though True compares as 1 and float("0.5") parses
    with pytest.raises(ValueError,
                       match=f"^{name} must be a number, got {value!r}$"):
        SolverConfig(n=2, **{name: value})


@pytest.mark.parametrize("name", CONFIG_NUMBERS)
def test_trace_config_holding_true_is_a_value_error(name):
    d = run(builtin("quad-iso", 2),
            SolverConfig(n=2, stopping="none", max_iterations=3)).to_dict()
    d["config"][name] = True
    with pytest.raises(ValueError, match=f"^malformed trace: {name} must be "
                                         "a number, got True$"):
        Trace.from_json(json.dumps(d))


def test_config_takes_numpy_numbers():
    cfg = SolverConfig(n=2, delta0=np.float64(0.5), gamma=np.float64(0.5),
                       epsilon=np.int64(1))
    assert (cfg.delta0, cfg.gamma, cfg.epsilon) == (0.5, 0.5, 1)


def test_trace_json_rejects_a_non_finite_record():
    trace = run(builtin("quad-iso", 2),
                SolverConfig(n=2, stopping="none", max_iterations=2))
    trace.columns["S"][1] = math.inf
    with pytest.raises(ValueError):
        trace.to_json()


def test_identical_runs_produce_identical_json():
    cfg = dict(n=4, delta0=1.0, gamma=0.5, epsilon=1e-5, center=1.1,
               stopping="simplex_gradient")
    t1 = run(builtin("quad-spectrum", 4, seed=7), SolverConfig(**cfg))
    t2 = run(builtin("quad-spectrum", 4, seed=7), SolverConfig(**cfg))
    assert t1.to_json() == t2.to_json()


def test_final_gap_needs_f_star_and_final_S():
    trace = run(builtin("quad-iso", 3), SolverConfig(n=3, stopping="none",
                                                     max_iterations=7))
    assert trace.final_gap(None) is None
    for f_star in (0.0, -2.5, 1e-3):
        # the formula the solve summary and the scaling rows wrote
        old = trace.summary["final_S"] / (3 + 1.0) - f_star
        assert trace.final_gap(f_star).hex() == old.hex()
    del trace.summary["final_S"]
    assert trace.final_gap(0.0) is None


def test_mean_value_gap_is_the_gap_stopping_rule():
    obj = builtin("quad-iso", 2)
    trace = run(obj, SolverConfig(n=2, stopping="gap", epsilon=1e-4,
                                  center=1.3))
    assert trace.reason == "epsilon-reached"
    gaps = [mean_value_gap(r.S, 2, obj.f_star) for r in trace.records]
    assert all(g > 1e-4 for g in gaps)
    assert trace.final_gap(obj.f_star) == mean_value_gap(
        trace.summary["final_S"], 2, obj.f_star) <= 1e-4


def test_eval_identity_across_modes():
    # eval_count = (n+1) + N_r + n*N_s and objective_calls = eval_count + N_s
    for name, n in (("quad-iso", 2), ("sin-quad", 3), ("damped-sine", 4)):
        trace = run(builtin(name, n),
                    SolverConfig(n=n, stopping="none", max_iterations=60,
                                 center=1.9))
        assert trace.eval_count == (n + 1) + trace.N_r + n * trace.N_s
        assert trace.summary["objective_calls"] == trace.eval_count + trace.N_s


def test_the_frame_form_decides_a_norm_the_moment_cannot_hold(monkeypatch):
    # value differences of about 1.7e308 overflow the running moment, so
    # the loop takes the norm from the frame form: 1e153, the slope
    frames = []
    kernel = rssm.solver._frame_gradient
    monkeypatch.setattr(rssm.solver, "_frame_gradient",
                        lambda *a: frames.append(1) or kernel(*a))
    obj = Objective("line", 2, lambda x: 1e153 * x[0])
    trace = run(obj, SolverConfig(n=2, delta0=1e155, stopping="none"))
    assert frames == [1]
    assert [r.step for r in trace.records] == ["reflection"]
    assert trace.records[0].simplex_gradient_norm == pytest.approx(1e153)
    assert trace.reason == "overflow"
    assert trace.summary["overflow"] == "the vertex-value sum S is -inf"
