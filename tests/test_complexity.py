"""Complexity constants, predicted iteration bounds, and trace audits."""

import dataclasses
import json
import math

import numpy as np
import pytest

from rssm.complexity import (
    AUDIT_RTOL,
    AuditCheck,
    _shrink_bound,
    _ineq_check,
    _strict_count_check,
    audit_trace,
    constants,
    constants_for_trace,
    predicted_bounds,
    tail_radius,
)
from rssm.objectives import builtin, sublevel_radius
from rssm.solver import SolverConfig, Trace, run


def make_consts(**kw):
    base = dict(n=4, beta=1.0, gamma=0.5, L=1.0, epsilon=1e-2, delta0=1.0)
    base.update(kw)
    return constants(**base)


# ---------------------------------------------------------------------------
# constant formulas (hand-evaluated at n=4, beta=1, gamma=1/2, L=1, eps=1e-2)


def test_kappa_values():
    c = make_consts()
    assert c.kappa1 == pytest.approx(9.0)          # (beta+1)n + sqrt(n)/2
    assert c.kappa2 == pytest.approx(2.5)          # (beta-1/2)n + sqrt(n)/2 - 1/2


def test_radius_and_potential_constants():
    c = make_consts()
    assert c.delta_bar == pytest.approx(0.5 * 1e-2 / 9.0)
    assert c.psi0 == pytest.approx(1.0 / 3.0)      # L*gamma/(1+gamma)*delta0^2
    assert c.C1 == pytest.approx(0.0625)           # (2beta/n)*gamma^2*(1-eta)


def test_convex_tail_constants_require_R():
    c = make_consts()
    assert c.d_thr is None and c.A is None and c.delta_cvx is None
    c = make_consts(R=2.0)
    assert c.d_thr == pytest.approx(200.0)         # 4*kappa2^2*L*R^2/(1-eta)
    assert c.A == pytest.approx(3.125e-4)
    assert c.delta_cvx == pytest.approx(5e-4)      # linear branch is smaller


def test_rho_requires_mu():
    assert make_consts().rho is None
    c = make_consts(mu=0.25)
    assert c.rho == pytest.approx(4 * 0.25 * 0.25 / (4 * (6.25 + 0.25)))


@pytest.mark.parametrize("n", [1, 2, 5, 12])
@pytest.mark.parametrize("beta", [0.6, 1.0, 3.0])
def test_kappa1_exceeds_kappa2(n, beta):
    c = constants(n=n, beta=beta, gamma=0.5, L=1.0, epsilon=1e-3, delta0=1.0)
    assert c.kappa1 > c.kappa2
    assert c.kappa1 == pytest.approx(c.kappa2 + 1.5 * n + 0.5)


def test_constants_asdict_round_trips():
    d = dataclasses.asdict(make_consts(R=1.0, mu=0.2))
    assert d["kappa2"] == pytest.approx(2.5)
    json.dumps(d)  # JSON-serializable


@pytest.mark.parametrize("kw", [
    dict(n=0),
    dict(beta=0.0),
    dict(gamma=0.0),
    dict(gamma=1.0),
    dict(L=0.0),
    dict(epsilon=0.0),
    dict(delta0=0.0),
    dict(eta_split=0.0),
    dict(eta_split=1.0),
    dict(R=0.0),
    dict(mu=-0.1),
    dict(n=1, beta=0.5, R=1.0),   # kappa2 = 0: convex constants undefined
])
def test_constants_validation(kw):
    with pytest.raises(ValueError):
        make_consts(**kw)


@pytest.mark.parametrize("name", ["L", "R", "mu"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 1e400, 10 ** 400])
def test_constants_name_a_constant_outside_the_positive_doubles(name, value):
    with pytest.raises(ValueError,
                       match=f"^{name} must be positive and finite"):
        make_consts(**{name: value})


@pytest.mark.parametrize("f_star", [math.inf, -math.inf, math.nan])
def test_audit_names_a_non_finite_f_star(f_star):
    trace = run(builtin("quad-iso", 2), SolverConfig(n=2, max_iterations=5))
    with pytest.raises(ValueError, match="f_star must be finite"):
        audit_trace(trace, constants_for_trace(trace, L=2.0), f_star=f_star)


# ---------------------------------------------------------------------------
# tail radius


def test_tail_radius_worked_example():
    c = constants(n=4, beta=1.0, gamma=0.5, L=1.0, epsilon=1e-2, delta0=1.0,
                  R=1.0)
    # kappa2=2.5: min{0.5*1/(2*2.5*1*1), sqrt(0.5*1)} = min{0.1, 0.707}
    assert tail_radius(1.0, c) == pytest.approx(0.1)


def test_tail_radius_branches_meet_at_threshold():
    c = make_consts(R=2.0)
    linear = lambda d: 0.5 * d / (2.0 * c.kappa2 * c.L * c.R)
    sqrt = lambda d: math.sqrt(0.5 * d / c.L)
    d = c.d_thr
    assert linear(d) == pytest.approx(sqrt(d), rel=1e-12)
    assert tail_radius(0.99 * d, c) == pytest.approx(linear(0.99 * d), rel=1e-12)
    assert tail_radius(1.01 * d, c) == pytest.approx(sqrt(1.01 * d), rel=1e-12)


def test_tail_radius_monotone():
    c = make_consts(R=0.7)
    grid = np.geomspace(1e-6, 1e4, 60)
    vals = [tail_radius(float(d), c) for d in grid]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert tail_radius(0.0, c) == 0.0


def test_delta_cvx_is_the_tail_radius_at_epsilon():
    for R, eta_split in ((1.0, 0.5), (0.3, 0.9), (40.0, 0.01)):
        c = make_consts(R=R, eta_split=eta_split)
        assert c.delta_cvx == tail_radius(c.epsilon, c)


def test_tail_radius_errors():
    with pytest.raises(ValueError, match="R"):
        tail_radius(1.0, make_consts())
    with pytest.raises(ValueError):
        tail_radius(-1.0, make_consts(R=1.0))


# ---------------------------------------------------------------------------
# predicted bounds


def test_nonconvex_bound_scales_inverse_square_in_epsilon():
    lo = constants(n=2, beta=1.0, gamma=0.5, L=1.0, epsilon=1e-3, delta0=1.0)
    hi = constants(n=2, beta=1.0, gamma=0.5, L=1.0, epsilon=5e-4, delta0=1.0)
    ratio = predicted_bounds(hi, 1.0, "nonconvex") / predicted_bounds(lo, 1.0, "nonconvex")
    assert 3.5 <= ratio <= 4.5


def test_pl_bound_drops_the_dimension_factor():
    c = constants(n=6, beta=1.0, gamma=0.5, L=1.0, epsilon=1e-4, delta0=1.0)
    assert predicted_bounds(c, 1.0, "pl") < predicted_bounds(c, 1.0, "nonconvex")


def test_convex_bound_scales_inverse_in_epsilon():
    kw = dict(n=4, beta=1.0, gamma=0.5, L=1.0, delta0=1.0, R=2.0)
    lo = constants(epsilon=1e-6, **kw)
    hi = constants(epsilon=5e-7, **kw)
    ratio = predicted_bounds(hi, 1.0, "convex") / predicted_bounds(lo, 1.0, "convex")
    assert 1.9 <= ratio <= 2.1


def test_convex_bound_adds_the_linear_phase_above_d_thr():
    # each factor 1/(1 - C1) of initial gap above d_thr costs one more
    # iteration; below d_thr the phase is absent
    c = make_consts(R=2.0)
    at = predicted_bounds(c, c.d_thr, "convex")
    assert predicted_bounds(c, 0.5 * c.d_thr, "convex") == at
    above = c.d_thr / (1.0 - c.C1) ** 3
    assert predicted_bounds(c, above, "convex") - at == pytest.approx(3.0)


def test_strongly_convex_bound_exact_count():
    # rho tuned to 0.01 and d_bar0/epsilon = e makes the success count
    # ceil(1 / -log(0.99)) = 100, and delta0 < delta_cvx kills the shrink term
    c = constants(n=4, beta=1.0, gamma=0.5, L=1.0, epsilon=1.0, delta0=0.5,
                  R=0.1, mu=0.25 / 0.96)
    assert c.rho == pytest.approx(0.01, rel=1e-12)
    assert predicted_bounds(c, math.e, "strongly_convex") == 100


def test_strongly_convex_bound_zero_when_converged():
    c = constants(n=4, beta=1.0, gamma=0.5, L=1.0, epsilon=1.0, delta0=0.5,
                  R=0.1, mu=0.25)
    assert predicted_bounds(c, 0.5, "strongly_convex") == 0.0


@pytest.mark.parametrize("case,kw,d0", [
    ("circular", {}, 1.0),                          # unknown case
    ("convex", {}, 1.0),                            # missing R
    ("strongly_convex", dict(R=1.0), 1.0),          # missing mu
    ("strongly_convex", dict(mu=0.2), 1.0),         # missing R
    ("nonconvex", {}, -1.0),                        # negative gap
])
def test_predicted_bounds_validation(case, kw, d0):
    with pytest.raises(ValueError):
        predicted_bounds(make_consts(**kw), d0, case)


def test_convex_bound_needs_contractive_C1():
    c = constants(n=1, beta=1.0, gamma=0.99, L=1.0, epsilon=1e-2, delta0=1.0,
                  R=1.0, eta_split=0.01)
    assert c.C1 > 1.0
    with pytest.raises(ValueError, match="C1"):
        predicted_bounds(c, 1.0, "convex")


def test_strongly_convex_bound_needs_contractive_rho():
    c = constants(n=1, beta=1.0, gamma=0.9, L=1.0, epsilon=1e-2, delta0=1.0,
                  R=1.0, mu=1.0)
    assert c.rho > 1.0
    with pytest.raises(ValueError, match="rho"):
        predicted_bounds(c, 1.0, "strongly_convex")


# ---------------------------------------------------------------------------
# constants_for_trace


def test_constants_for_trace_reads_config():
    obj = builtin("quad-iso", 2)
    cfg = SolverConfig(n=2, delta0=0.7, gamma=0.4, epsilon=1e-3,
                       mode="theoretical", beta=2.0, L=1.0, stopping="none",
                       max_iterations=3)
    trace = run(obj, cfg)
    c = constants_for_trace(trace, L=1.0)
    assert (c.n, c.beta, c.gamma, c.delta0, c.epsilon) == (2, 2.0, 0.4, 0.7, 1e-3)


def test_constants_for_trace_practical_defaults_beta_to_one():
    trace = run(builtin("quad-iso", 2),
                SolverConfig(n=2, stopping="none", max_iterations=3))
    assert constants_for_trace(trace, L=1.0).beta == 1.0


def test_practical_trace_predicts_no_iteration_count():
    # the placeholder beta of a practical trace must not reach a prediction
    obj = builtin("sin-quad", 2)
    trace = run(obj, SolverConfig(n=2, epsilon=1e-3, stopping="true_gradient",
                                  center=1.7))
    report = audit_trace(trace, constants_for_trace(trace, L=obj.L),
                         case="pl", f_star=0.0)
    assert report.predicted == {"unavailable": "needs theoretical mode",
                                "d_bar0": trace.records[0].S / 3.0}
    assert {c.name: c.status for c in report.checks}["iteration_bound"] == \
        "skipped"


@pytest.mark.parametrize("name, n", [
    ("quad-iso", 2), ("quad-spectrum", 4), ("logsumexp", 2)])
def test_practical_audit_reads_no_beta(name, n):
    # a practical run has no beta, so the constants' beta must reach no check
    obj = builtin(name, n)
    trace = run(obj, SolverConfig(n=n, stopping="gap", epsilon=1e-4,
                                  center=1.7))
    assert trace.reason == "epsilon-reached"
    cfg = trace.config
    R = sublevel_radius(obj, trace.records[0].S / (n + 1.0))
    reports = [audit_trace(trace, constants(
        n=n, beta=beta, gamma=cfg["gamma"], L=obj.L, epsilon=cfg["epsilon"],
        delta0=cfg["delta0"], R=R, mu=obj.mu), case=obj.convexity,
        f_star=obj.f_star) for beta in (0.5, 1.0, 3.0)]
    assert len({r.to_json() for r in reports}) == 1
    names = checks_by_name(reports[0])
    for check in ("radius_tail_lower_bound", "convex_shrink_count_bound"):
        assert names[check].status == "skipped"
        assert names[check].detail == "needs theoretical mode"


# ---------------------------------------------------------------------------
# trace audits on synthetic traces


def synth_cfg(**kw):
    base = dict(n=1, delta0=1.0, gamma=0.5, epsilon=1e-2, mode="theoretical",
                beta=1.0, eta=None, L=1.0, algorithm="rssm",
                stopping="true_gradient", max_iterations=100,
                max_evaluations=1000, center=[0.0])
    base.update(kw)
    return base


def rec(step, delta, S):
    """One record's entries by column, its step spelled as in the view."""
    return {"step": step[0], "delta": delta, "S": S, "f_best": 0.0,
            "f_worst": 1.0, "v": 1.0, "v_r": 0.0, "simplex_gradient_norm": 1.0}


def columns(records):
    """The trace columns of `records`, each a :func:`rec` dict."""
    cols = Trace(config={}).columns
    for r in records:
        for name, column in cols.items():
            column.append(r[name])
    return cols


def checks_by_name(report):
    return {c.name: c for c in report.checks}


def synth_consts(**kw):
    base = dict(n=1, beta=1.0, gamma=0.5, L=1.0, epsilon=1e-2, delta0=1.0)
    base.update(kw)
    return constants(**base)


def test_audit_flags_radius_law_violation():
    trace = Trace(config=synth_cfg(),
                  columns=columns([rec("shrink", 1.0, 4.0),
                                   rec("reflection", 0.9, 4.0)]),  # should be 0.5
                  reason="budget", summary={"final_S": 0.0})
    report = audit_trace(trace, synth_consts())
    ck = checks_by_name(report)["radius_law"]
    assert ck.status == "fail" and ck.violating_k == 1
    assert not report.passed
    assert ck in report.violations
    assert "  [   fail] radius_law worst_slack=8.000e-01 at k=1 " \
        "FIRST VIOLATION k=1" in str(report).splitlines()


def test_audit_flags_weak_reflection_decrease():
    # margin at n=1 is 4*beta*L*delta^2 = 4; a drop of 2 is not enough
    trace = Trace(config=synth_cfg(),
                  columns=columns([rec("reflection", 1.0, 10.0)]),
                  reason="budget", summary={"final_S": 8.0})
    report = audit_trace(trace, synth_consts())
    assert checks_by_name(report)["reflection_decrease"].status == "fail"

    ok = Trace(config=synth_cfg(),
               columns=columns([rec("reflection", 1.0, 10.0)]),
               reason="budget", summary={"final_S": 5.9})
    report = audit_trace(ok, synth_consts())
    assert checks_by_name(report)["reflection_decrease"].status == "pass"


def test_audit_reads_last_step_from_final_S():
    # shrink ascent cap at n=1, delta=1: L*gamma*(1-gamma)*(n+1) = 0.5
    bad = Trace(config=synth_cfg(),
                columns=columns([rec("shrink", 1.0, 4.0)]),
                reason="budget", summary={"final_S": 4.6})
    report = audit_trace(bad, synth_consts())
    assert checks_by_name(report)["shrink_ascent_per_step"].status == "fail"

    edge = Trace(config=synth_cfg(),
                 columns=columns([rec("shrink", 1.0, 4.0)]),
                 reason="budget", summary={"final_S": 4.5})
    report = audit_trace(edge, synth_consts())
    assert checks_by_name(report)["shrink_ascent_per_step"].status == "pass"

    # without final_S the last step has no known change and is left out
    unknown = Trace(config=synth_cfg(),
                    columns=columns([rec("shrink", 1.0, 4.0)]),
                    reason="budget", summary={})
    ck = checks_by_name(audit_trace(unknown, synth_consts()))[
        "shrink_ascent_per_step"]
    assert ck.status == "pass" and ck.worst_slack is None


def test_audit_eval_identity():
    base = dict(config=synth_cfg(),
                columns=columns([rec("reflection", 1.0, 4.0)]),
                reason="budget")
    # n=1: two initial calls and one accepted reflection
    good = Trace(summary={"final_S": 0.0, "objective_calls": 3}, **base)
    assert checks_by_name(audit_trace(good, synth_consts()))[
        "eval_identity"].status == "pass"

    bad = Trace(summary={"final_S": 0.0, "objective_calls": 4}, **base)
    assert checks_by_name(audit_trace(bad, synth_consts()))[
        "eval_identity"].status == "fail"

    missing = Trace(summary={"final_S": 0.0}, **base)
    assert checks_by_name(audit_trace(missing, synth_consts()))[
        "eval_identity"].status == "skipped"


def test_audit_takes_its_counts_from_one_read(monkeypatch):
    trace = run(builtin("quad-iso", 3),
                SolverConfig(n=3, stopping="none", max_iterations=40))
    N_s, N_r = trace.N_s, trace.N_r
    reads = []

    def counted(self):
        reads.append(1)
        return N_s

    monkeypatch.setattr(Trace, "N_s", property(counted))
    report = audit_trace(trace, constants_for_trace(trace, L=2.0))
    assert len(reads) == 1
    assert (report.counts["N_r"], report.counts["N_s"]) == (N_r, N_s) != (40, 0)
    assert checks_by_name(report)["eval_identity"].status == "pass"


def test_audit_skips_need_preconditions():
    trace = Trace(config=synth_cfg(mode="practical", beta=None, eta=1e-3),
                  columns=columns([rec("reflection", 1.0, 4.0)]),
                  reason="budget", summary={"final_S": 0.0})
    names = checks_by_name(audit_trace(trace, synth_consts(), case="nonconvex"))
    assert names["reflection_decrease"].status == "skipped"
    assert names["radius_floor"].status == "skipped"
    assert names["convex_shrink_monotone"].status == "skipped"
    assert names["convex_reflection_gap_decrease"].status == "skipped"
    assert names["radius_tail_lower_bound"].status == "skipped"
    assert names["iteration_bound"].status == "skipped"


def test_audit_convex_checks_on_synthetic_trace():
    cfg = synth_cfg(stopping="gap")
    consts = synth_consts(R=2.0)  # kappa2 = 0.5 at n=1
    up = Trace(config=cfg, columns=columns([rec("shrink", 1.0, 4.0)]),
               reason="epsilon-reached", summary={"final_S": 4.4})
    report = audit_trace(up, consts, case="convex", f_star=0.0)
    names = checks_by_name(report)
    assert names["convex_shrink_monotone"].status == "fail"  # sum rose
    assert names["radius_tail_lower_bound"].status == "pass"
    assert names["convex_shrink_count_bound"].status == "pass"

    down = Trace(config=cfg, columns=columns([rec("shrink", 1.0, 4.0)]),
                 reason="epsilon-reached", summary={"final_S": 3.9})
    report = audit_trace(down, consts, case="convex", f_star=0.0)
    names = checks_by_name(report)
    assert names["convex_shrink_monotone"].status == "pass"
    assert names["iteration_bound"].status == "pass"
    assert report.predicted["iterations"] >= 1.0
    assert report.predicted["d_bar0"] == pytest.approx(2.0)


def test_audit_rejects_mismatched_constants():
    trace = Trace(config=synth_cfg(), reason="budget", summary={})
    with pytest.raises(ValueError, match="mismatch"):
        audit_trace(trace, synth_consts(n=2, delta0=1.0))
    with pytest.raises(ValueError, match="beta"):
        audit_trace(trace, synth_consts(beta=2.0))
    with pytest.raises(ValueError, match="case"):
        audit_trace(trace, synth_consts(), case="mystery")


# ---------------------------------------------------------------------------
# the shared check kernel against the hand-written checks it replaced


def oracle_radius_law(trace, consts):
    """radius_law as a loop of its own, with its own threshold."""
    shrinks_seen = 0
    worst_dev = worst_dev_k = radius_violation = None
    for i, r in enumerate(trace.records):
        expect = consts.delta0 * consts.gamma ** shrinks_seen
        dev = abs(r.delta - expect) / expect
        if worst_dev is None or dev > worst_dev:
            worst_dev, worst_dev_k = dev, i
        if radius_violation is None and dev > AUDIT_RTOL:
            radius_violation = i
        if r.step == "shrink":
            shrinks_seen += 1
    return AuditCheck(
        name="radius_law",
        status="fail" if radius_violation is not None else "pass",
        worst_slack=worst_dev, worst_k=worst_dev_k,
        violating_k=radius_violation,
        detail="relative deviation from delta0*gamma^shrinks")


def oracle_count_check(name, N_s, bound):
    strict = N_s < bound + AUDIT_RTOL * max(1.0, bound)
    return AuditCheck(name=name, status="pass" if strict else "fail",
                      worst_slack=N_s - bound,
                      detail=f"N_s={N_s}, bound={bound:.6g} (strict)")


@pytest.mark.parametrize("steps, status", [
    ([("shrink", 1.0), ("reflection", 0.5), ("shrink", 0.5),
      ("reflection", 0.25)], "pass"),
    # first violation at k=2, the worst one at k=3
    ([("reflection", 1.0), ("shrink", 1.0), ("reflection", 0.5 * (1 + 3e-9)),
      ("reflection", 0.5 * (1 + 1e-6))], "fail"),
    # just inside and just outside the tolerance
    ([("reflection", 1.0 + 0.5e-9)], "pass"),
    ([("reflection", 1.0 + 2e-9)], "fail"),
    # deviations of exactly 1 and above 1
    ([("reflection", 2.0)], "fail"),
    ([("shrink", 1.0), ("reflection", 2.0), ("reflection", 0.5)], "fail"),
    ([], "pass"),
])
def test_radius_law_matches_its_loop_oracle(steps, status):
    trace = Trace(config=synth_cfg(),
                  columns=columns([rec(step, d, 4.0) for step, d in steps]),
                  reason="budget", summary={"final_S": 4.0})
    consts = synth_consts()
    got = checks_by_name(audit_trace(trace, consts))["radius_law"]
    assert got.status == status
    assert got.to_dict() == oracle_radius_law(trace, consts).to_dict()


@pytest.mark.parametrize("N_s", [7, 8, 9, 10])
def test_shrink_count_checks_match_their_oracle(N_s):
    # the bounds are 8.97 (delta_bar = 0.002) and 8.64 (delta_cvx = 0.0025)
    records = [rec("shrink", 0.5 ** k, 4.0) for k in range(N_s)]
    for name, cfg, consts, case, bound, near in (
            ("shrink_count_bound", synth_cfg(), synth_consts(), "nonconvex",
             _shrink_bound(synth_consts(), "delta_bar"),
             math.log(0.002) / math.log(0.5)),
            ("convex_shrink_count_bound", synth_cfg(stopping="gap"),
             synth_consts(R=2.0), "convex",
             _shrink_bound(synth_consts(R=2.0), "delta_cvx"),
             math.log(400.0) / math.log(2.0))):
        assert bound == pytest.approx(near)
        trace = Trace(config=cfg, columns=columns(records), reason="budget",
                      summary={"final_S": 4.0})
        got = checks_by_name(audit_trace(trace, consts, case=case))[name]
        assert got.status == ("pass" if N_s < bound else "fail")
        assert got.to_dict() == oracle_count_check(name, N_s, bound).to_dict()


@pytest.mark.parametrize("N_s, bound", [
    (8, 9.0), (9, 9.0), (9, 9.0 - 2e-9), (10, 9.0), (0, -1.5), (0, 0.0)])
def test_strict_count_check_matches_its_oracle_at_the_bound(N_s, bound):
    assert _strict_count_check("c", N_s, bound).to_dict() == \
        oracle_count_check("c", N_s, bound).to_dict()


# ---------------------------------------------------------------------------
# trace audits on real runs


def run_theoretical(name, n, stopping, epsilon, **obj_kw):
    obj = builtin(name, n, seed=n, **obj_kw)
    cfg = SolverConfig(n=n, delta0=1.0, gamma=0.5, epsilon=epsilon,
                       mode="theoretical", beta=1.0, L=obj.L,
                       stopping=stopping, center=1.7)
    return obj, run(obj, cfg)


def test_audit_nonconvex_run_passes_with_floor_checks_active():
    obj, trace = run_theoretical("damped-sine", 2, "true_gradient", 1e-3)
    assert trace.reason == "epsilon-reached"
    consts = constants_for_trace(trace, L=obj.L)
    report = audit_trace(trace, consts, case="nonconvex")
    names = checks_by_name(report)
    assert report.passed
    for name in ("radius_floor", "reflection_decrease_floor",
                 "shrink_count_bound"):
        assert names[name].status == "pass", name
    # no known f* here, so no predicted bound to compare against
    assert names["iteration_bound"].status == "skipped"
    assert report.predicted == {}


def test_audit_iteration_bound_on_nonconvex_run_with_known_optimum():
    # a gradient-dominated objective audited under the weaker nonconvex case
    obj, trace = run_theoretical("sin-quad", 2, "true_gradient", 1e-3)
    assert trace.reason == "epsilon-reached"
    consts = constants_for_trace(trace, L=obj.L)
    report = audit_trace(trace, consts, case="nonconvex", f_star=obj.f_star)
    names = checks_by_name(report)
    assert report.passed
    assert names["iteration_bound"].status == "pass"
    assert len(trace.records) <= report.predicted["iterations"]


@pytest.mark.parametrize("terms, k", [
    ([(0, math.nan, 0.0), (1, 0.0, 1.0)], 0),
    ([(0, 0.0, 1.0), (1, math.nan, 0.0)], 1),
    ([(0, 0.0, 1.0), (1, math.inf, 0.0)], 1),
    ([(0, 0.0, 1.0), (1, 0.0, math.inf)], 1),
])
def test_non_finite_slack_fails_and_is_named(terms, k):
    ck = _ineq_check("x", terms)
    assert ck.status == "fail" and ck.violating_k == k
    assert f"at k={k}" in ck.detail and "non-finite slack" in ck.detail
    # the worst slack stays finite, so the report is strict JSON
    assert ck.worst_slack == -1.0
    json.dumps(ck.to_dict(), allow_nan=False)


@pytest.mark.parametrize("lhs", [2.0, math.nan])
def test_aggregate_term_without_k_can_fail(lhs):
    # total_shrink_ascent and iteration_bound pass one term with k None
    ck = _ineq_check("x", [(None, lhs, 1.0)])
    assert ck.status == "fail" and ck.violating_k is None


def test_audit_fails_on_a_nan_value_sum():
    obj, trace = run_theoretical("sin-quad", 2, "true_gradient", 1e-3)
    consts = constants_for_trace(trace, L=obj.L)
    assert audit_trace(trace, consts, f_star=obj.f_star).passed
    # the first record after a reflection: that step's dS is the first NaN
    steps = trace.columns["step"]
    j = next(k for k in range(1, len(steps)) if steps[k - 1] == "r")
    trace.columns["S"][j] = math.nan
    report = audit_trace(trace, consts, f_star=obj.f_star)
    assert not report.passed
    ck = checks_by_name(report)["reflection_decrease"]
    assert ck.status == "fail" and ck.violating_k == j - 1
    assert f"non-finite slack nan at k={j - 1}" in ck.detail
    for c in report.violations:
        assert "non-finite slack nan" in c.detail, c.name


def test_audit_strongly_convex_run_records_gap_ratio():
    obj, trace = run_theoretical("quad-iso", 3, "gap", 1e-4)
    level = trace.records[0].S / 4.0
    consts = constants_for_trace(trace, L=obj.L,
                                 R=sublevel_radius(obj, level), mu=obj.mu)
    report = audit_trace(trace, consts, case="strongly_convex",
                         f_star=obj.f_star)
    assert report.passed
    ratio = report.observed["worst_reflection_gap_ratio"]
    assert 0.0 < ratio < 1.0
    assert report.counts["N_s"] == trace.N_s
    assert report.counts["N_eps"] == trace.N_eps


def test_audit_report_renders_and_serializes():
    obj, trace = run_theoretical("quad-iso", 2, "gap", 1e-3)
    consts = constants_for_trace(trace, L=obj.L)
    report = audit_trace(trace, consts, case="convex", f_star=obj.f_star)
    text = str(report)
    assert "audit case=convex" in text
    assert "radius_law" in text and "PASS" in text
    d = json.loads(report.to_json())
    assert d["case"] == "convex"
    assert {c["name"] for c in d["checks"]} >= {"radius_law", "eval_identity"}
    assert d["passed"] == report.passed


def test_the_convex_shrink_bound_survives_a_subnormal_radius():
    # delta_cvx = 2.07e-310 is subnormal, not zero: the bound is the one
    # formula log(delta_cvx/delta0)/log(gamma), not +inf (delta0/delta_cvx
    # once overflowed)
    c = constants(n=2, beta=1, gamma=0.5, L=1, epsilon=1e-309, delta0=1,
                  R=1, mu=0.5)
    assert 0.0 < c.delta_cvx < 1e-308
    bound = math.log(c.delta_cvx / c.delta0) / math.log(c.gamma)
    assert bound == pytest.approx(1028.7, abs=0.05)
    assert _shrink_bound(c, "delta_cvx") == bound
    assert predicted_bounds(c, 0.0, "strongly_convex") == bound
