"""Worst-case complexity constants and post-hoc trace auditors.

The iteration-count analysis of the reflect/shrink search rests on a
handful of closed-form constants:

* ``kappa1 = (beta+1)n + sqrt(n)/2`` — acceptance threshold scale: once the
  radius drops below ``||grad f(c_k)|| / (L*kappa1)`` a reflection must be
  accepted, giving the radius floor ``delta_bar = gamma*eps/(L*kappa1)``.
* ``kappa2 = (beta-1/2)n + sqrt(n)/2 - 1/2`` — the converse scale: a
  rejection certifies ``||grad f(c_k)|| <= kappa2 * L * delta_k``.
* ``psi0 = L*gamma/(1+gamma) * delta0**2`` — caps the total objective-sum
  ascent due to all shrink steps at ``(n+1)*psi0``.
* convex tail machinery: ``tail_radius(d_bar)`` is the radius below which a
  reflection is forced while the mean value gap is still ``d_bar``; the two
  branches cross at ``d_thr = 4*kappa2**2*L*R**2/(1-eta)``.  ``C1`` drives
  the linear Phase-I decrease above ``d_thr`` and ``A`` the sublinear
  Phase-II decrease below it; ``rho`` is the per-reflection contraction
  factor under strong convexity.

``audit_trace`` replays a finished run record-by-record and checks every
per-step inequality the analysis asserts, reporting worst slacks and the
first violating iteration, with a check skipped (never silently passed)
when its preconditions or metadata are missing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict, field

# the convexity tags are the objectives'; tools/artifacts.py reads
# complexity.CONVEX_CASES
from .objectives import CASES, CONVEX_CASES
from .simplex import (_finite_array, _positive, _positive_int, _sq,
                      _unit_interval)
from .solver import (_FIELD_OVERFLOW, Trace, evaluation_count,
                     mean_value_gap)

__all__ = [
    "ComplexityConstants",
    "AuditCheck",
    "AuditReport",
    "constants",
    "constants_for_trace",
    "tail_radius",
    "predicted_bounds",
    "audit_trace",
]

# Relative tolerance for every audited inequality.
AUDIT_RTOL = 1e-9

# Default eta of the (1 - eta) factors in C1, d_thr, A and delta_cvx.
ETA_SPLIT = 0.5


def _tol(lhs: float, rhs: float) -> float:
    return AUDIT_RTOL * max(1.0, abs(lhs), abs(rhs))


@dataclass(frozen=True)
class ComplexityConstants:
    """Closed-form constants of the complexity analysis.

    The convex-tail fields (d_thr, A, delta_cvx) are None unless a sublevel
    radius R was supplied; rho is None unless mu was supplied.
    """

    n: int
    beta: float
    gamma: float
    L: float
    epsilon: float
    delta0: float
    eta_split: float
    R: float | None
    mu: float | None
    kappa1: float
    kappa2: float
    delta_bar: float
    psi0: float
    C1: float
    d_thr: float | None
    A: float | None
    delta_cvx: float | None
    rho: float | None


def constants(n: int, beta: float, gamma: float, L: float, epsilon: float,
              delta0: float, R: float | None = None, mu: float | None = None,
              eta_split: float = ETA_SPLIT) -> ComplexityConstants:
    """Evaluate every complexity constant available from the given inputs.

    R (radius of the initial mean-value sublevel set) unlocks the convex
    tail constants; mu (strong-convexity/PL modulus) unlocks rho.  n is a
    positive integer; gamma, eta_split in (0, 1); others positive, finite.
    """
    _positive_int("n", n)
    _positive("beta", beta)
    _unit_interval("gamma", gamma)
    _positive("epsilon", epsilon)
    _positive("delta0", delta0)
    _unit_interval("eta_split", eta_split)
    _positive("L", L)
    for name, value in (("R", R), ("mu", mu)):
        if value is not None:
            _positive(name, value)

    rn = math.sqrt(n)
    kappa1 = (beta + 1.0) * n + rn / 2.0
    kappa2 = (beta - 0.5) * n + rn / 2.0 - 0.5
    delta_bar = gamma * epsilon / (L * kappa1)
    psi0 = L * gamma / (1.0 + gamma) * _sq(delta0)
    C1 = (2.0 * beta / n) * _sq(gamma) * (1.0 - eta_split)

    d_thr = A = delta_cvx = None
    if R is not None:
        if not (kappa2 > 0):
            raise ValueError(
                f"convex constants need kappa2 > 0, got kappa2 = {kappa2} "
                f"(n={n}, beta={beta})"
            )
        d_thr = 4.0 * _sq(kappa2) * L * _sq(R) / (1.0 - eta_split)
        A = beta * _sq(gamma) * _sq(1.0 - eta_split) / (
            2.0 * L * _sq(R) * n * _sq(kappa2))
        # the tail radius at the target gap epsilon
        delta_cvx = _tail_radius(epsilon, eta_split, kappa2, L, R)

    rho = None
    if mu is not None:
        rho = 4.0 * beta * mu * _sq(gamma) / (n * (L * _sq(kappa2) + mu))

    return ComplexityConstants(
        n=n, beta=beta, gamma=gamma, L=L, epsilon=epsilon, delta0=delta0,
        eta_split=eta_split, R=R, mu=mu, kappa1=kappa1, kappa2=kappa2,
        delta_bar=delta_bar, psi0=psi0, C1=C1, d_thr=d_thr, A=A,
        delta_cvx=delta_cvx, rho=rho)


def constants_for_trace(trace: Trace, L: float, R: float | None = None,
                        mu: float | None = None,
                        eta_split: float = ETA_SPLIT) -> ComplexityConstants:
    """Constants matching a trace's recorded run configuration.

    Practical-mode traces carry no beta; beta = 1 is used as a placeholder
    there.  :func:`audit_trace` skips every beta-dependent check and the
    iteration prediction for such traces, so a practical run's beta, this
    placeholder or one the caller sets, reaches no check.
    """
    cfg = trace.config
    beta = cfg.get("beta")
    if beta is None:
        beta = 1.0
    return constants(n=cfg["n"], beta=beta, gamma=cfg["gamma"], L=L,
                     epsilon=cfg["epsilon"], delta0=cfg["delta0"], R=R,
                     mu=mu, eta_split=eta_split)


def tail_radius(d_bar: float, consts: ComplexityConstants) -> float:
    """Radius below which a reflection is forced at mean value gap d_bar.

    min{(1-eta)*d_bar/(2*kappa2*L*R), sqrt((1-eta)*d_bar/L)}; the linear
    branch is the active one exactly when d_bar <= d_thr.
    """
    if consts.R is None:
        raise ValueError("tail_radius needs the sublevel radius R")
    if d_bar < 0:
        raise ValueError(f"d_bar must be nonnegative, got {d_bar}")
    return _tail_radius(d_bar, consts.eta_split, consts.kappa2, consts.L,
                        consts.R)


def _tail_radius(d_bar: float, eta_split: float, kappa2: float, L: float,
                 R: float) -> float:
    """The formula of :func:`tail_radius`, from the constants it reads."""
    one = 1.0 - eta_split
    return min(one * d_bar / (2.0 * kappa2 * L * R), math.sqrt(one * d_bar / L))


def _unbounded(c: ComplexityConstants, radius: str) -> str | None:
    """Why the shrink count bound down to the radius named `radius` is +inf,
    which strict JSON cannot hold, or None: its ratio to delta0 underflows."""
    if getattr(c, radius) / c.delta0 != 0.0:
        return None
    return (f"{radius}={getattr(c, radius):.3g} underflows against "
            f"delta0={c.delta0:.3g}, so the shrink count bound is +inf")


def _shrink_bound(c: ComplexityConstants, radius: str) -> float:
    """log(r/delta0)/log(gamma), r the radius named `radius`: the shrinks
    from delta0 down to r, negative when delta0 < r; ValueError when +inf."""
    why = _unbounded(c, radius)
    if why is not None:
        raise ValueError(why)
    return math.log(getattr(c, radius) / c.delta0) / math.log(c.gamma)


def predicted_bounds(consts: ComplexityConstants, d_bar0: float,
                     case: str) -> float:
    """Predicted iteration bound for the given convexity regime.

    d_bar0 is the initial mean value gap (for "pl", pass the central gap
    f(c_0) - f* or an upper bound on it).  Additive terms that come out
    negative (preconditions such as delta0 > delta_bar not binding) are
    clamped to zero.  The shrink term is taken first, so a radius that
    underflows is named (ValueError) before other terms overflow.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    if d_bar0 < 0:
        raise ValueError(f"d_bar0 must be nonnegative, got {d_bar0}")
    c = consts
    e2 = 2.0 * c.beta * _sq(c.gamma) * _sq(c.epsilon)

    if case in ("nonconvex", "pl"):
        shrinks = max(0.0, _shrink_bound(c, "delta_bar"))
        # the reflection term; the PL case drops the factor n
        return (c.L * (d_bar0 + c.psi0) * (c.n if case == "nonconvex" else 1)
                * _sq(c.kappa1) / e2 + shrinks)
    if case == "convex":
        if c.d_thr is None:
            raise ValueError("convex bound needs R (pass it to constants())")
        if not (0.0 < c.C1 < 1.0):
            raise ValueError(f"convex bound needs C1 in (0,1), got {c.C1}")
        shrinks = max(0.0, _shrink_bound(c, "delta_cvx"))
        phase1 = 0.0
        if d_bar0 > c.d_thr:
            phase1 = math.log(d_bar0 / c.d_thr) / math.log(1.0 / (1.0 - c.C1))
        phase2 = max(0.0, (1.0 / c.epsilon - 1.0 / c.d_thr) / c.A)
        return phase1 + phase2 + shrinks
    # strongly_convex
    if c.rho is None:
        raise ValueError("strongly convex bound needs mu")
    if c.delta_cvx is None:
        raise ValueError("strongly convex bound needs R for the shrink count")
    if not (0.0 < c.rho < 1.0):
        raise ValueError(f"strongly convex bound needs rho in (0,1), got {c.rho}")
    shrinks = max(0.0, _shrink_bound(c, "delta_cvx"))
    successes = 0.0
    if d_bar0 > c.epsilon:
        successes = math.ceil(math.log(d_bar0 / c.epsilon)
                              / (-math.log(1.0 - c.rho)))
    return successes + shrinks


# ---------------------------------------------------------------------------
# Trace audits


@dataclass
class AuditCheck:
    """One audited inequality family: status plus the worst observed slack.

    slack = lhs - rhs for a required "lhs <= rhs"; positive slack beyond
    tolerance means violation.  worst_k is the iteration of the worst
    slack, violating_k the first iteration beyond tolerance (None = none).
    """

    name: str
    status: str  # "pass" | "fail" | "skipped"
    worst_slack: float | None = None
    worst_k: int | None = None
    violating_k: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AuditReport:
    case: str
    checks: list[AuditCheck] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    @property
    def violations(self) -> list[AuditCheck]:
        return [c for c in self.checks if c.status == "fail"]

    def to_dict(self) -> dict:
        return {"case": self.case, "passed": self.passed,
                "checks": [c.to_dict() for c in self.checks],
                "counts": self.counts, "predicted": self.predicted,
                "observed": self.observed}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True,
                          allow_nan=False)

    def __str__(self) -> str:
        lines = [f"audit case={self.case} -> {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            extra = ""
            if c.worst_slack is not None:
                extra = f" worst_slack={c.worst_slack:.3e} at k={c.worst_k}"
            if c.violating_k is not None:
                extra += f" FIRST VIOLATION k={c.violating_k}"
            if c.detail and c.status == "skipped":
                extra += f" ({c.detail})"
            lines.append(f"  [{c.status:>7}] {c.name}{extra}")
        return "\n".join(lines)


def _ineq_check(name: str, pairs, detail: str = "") -> AuditCheck:
    """Check lhs <= rhs over (k, lhs, rhs) triples at AUDIT_RTOL.

    A NaN or infinite slack fails: the detail names its first k, and the
    worst slack is taken over the finite ones.  k may be None (a single
    aggregate term), so failure is its own flag, not violating_k.
    """
    worst_slack = worst_k = violating = non_finite = None
    failed = False
    for k, lhs, rhs in pairs:
        slack = lhs - rhs
        finite = math.isfinite(slack)
        if not finite and non_finite is None:
            non_finite = (k, slack)
        if finite and (worst_slack is None or slack > worst_slack):
            worst_slack, worst_k = slack, k
        if not failed and (not finite or slack > _tol(lhs, rhs)):
            failed, violating = True, k
    if non_finite is not None:
        detail += (f"{'; ' if detail else ''}non-finite slack "
                   f"{non_finite[1]} at k={non_finite[0]}")
    return AuditCheck(name=name, status="fail" if failed else "pass",
                      worst_slack=worst_slack, worst_k=worst_k,
                      violating_k=violating, detail=detail)


def _strict_count_check(name: str, N_s: int, bound: float) -> AuditCheck:
    """Check the shrink count N_s < bound, strict up to AUDIT_RTOL."""
    strict = N_s < bound + AUDIT_RTOL * max(1.0, bound)
    return AuditCheck(name=name, status="pass" if strict else "fail",
                      worst_slack=N_s - bound,
                      detail=f"N_s={N_s}, bound={bound:.6g} (strict)")


def _skip(name: str, why: str) -> AuditCheck:
    return AuditCheck(name=name, status="skipped", detail=why)


def audit_trace(trace: Trace, consts: ComplexityConstants,
                case: str = "nonconvex",
                f_star: float | None = None) -> AuditReport:
    """Check every applicable per-step inequality of a finished run.

    The trace must come from a run whose n/gamma/delta0/epsilon match the
    constants; case selects the convexity regime of the objective and
    f_star (when known, and then finite) unlocks the value-gap audits.

    Checks (skipped, never passed, when preconditions or metadata are
    missing):

    * radius_law          — delta_k = delta0 * gamma^(#shrinks before k).
    * eval_identity       — the measured objective_calls equal
                            (n+1) + N_r + n*N_s + N_s from the records (a
                            shrink also discards its candidate evaluation),
                            plus the candidate of the unrecorded iteration
                            when a record field's overflow stopped the run.
    * reflection_decrease — accepted reflections decrease the vertex-value
                            sum by at least (2n+2)/n * beta*L*delta_k^2
                            (theoretical mode).
    * reflection_decrease_floor — with the radius floor delta_k >= delta_bar
                            in force, that decrease is at least
                            (n+1)*2*beta*gamma^2*eps^2/(L*n*kappa1^2).
    * radius_floor        — delta_k >= delta_bar while the gradient
                            stopping rule is unmet.
    * shrink_count_bound  — N_s < log(delta_bar/delta0)/log(gamma), strict.
    * shrink_ascent_per_step — a shrink raises the sum by at most
                            L*gamma*(1-gamma)*(n+1)*delta_k^2.
    * total_shrink_ascent — all shrink ascents sum to at most (n+1)*psi0.
    * convex_shrink_monotone — under convexity a shrink never raises the sum.
    * convex_reflection_gap_decrease — accepted reflections cut the mean
                            value gap by at least (2*beta/n)*L*delta_k^2.
    * radius_tail_lower_bound — delta_k >= gamma * tail_radius(gap_k).
    * convex_shrink_count_bound — N_s < log(delta0/delta_cvx)/log(1/gamma).
    * iteration_bound     — observed iteration count against the predicted
                            closed-form bound for the case.

    Every check whose constant reads beta needs theoretical mode, because a
    practical run has no beta: reflection_decrease, the radius-floor family
    (reflection_decrease_floor, radius_floor, shrink_count_bound),
    convex_reflection_gap_decrease, radius_tail_lower_bound and
    convex_shrink_count_bound (both through kappa2) and iteration_bound.

    For strongly convex runs the report additionally records (in
    ``observed``) the worst finite per-step gap contraction ratio over
    accepted reflections after the first shrink.  This is informational
    only: the closed-form factor (1 - rho) is not audited per step, as rho is
    built on the rejection certificate kappa2 and a certificate of
    (beta+1/2)n + sqrt(n)/2 + 1/2 is what the rejection inequalities
    actually support, so the per-step form with the stated rho can fail on
    legitimate traces while the log(1/eps) iteration order still holds.
    """
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    if f_star is not None:
        _finite_array("f_star", f_star, ((),), "be finite")
    cfg = trace.config
    for key, val in (("n", consts.n), ("gamma", consts.gamma),
                     ("delta0", consts.delta0), ("epsilon", consts.epsilon)):
        if not math.isclose(cfg[key], val, rel_tol=1e-12):
            raise ValueError(
                f"constants/trace mismatch on {key}: {val} vs {cfg[key]}")
    theoretical = cfg["mode"] == "theoretical"
    if theoretical and not math.isclose(cfg["beta"], consts.beta, rel_tol=1e-12):
        raise ValueError(
            f"constants/trace mismatch on beta: {consts.beta} vs {cfg['beta']}")

    n = consts.n
    gamma = consts.gamma
    L = consts.L
    steps, deltas, sums = map(trace.columns.get, ("step", "delta", "S"))
    summ = trace.summary
    N_s = trace.N_s
    report = AuditReport(case=case)
    convex_case = case in CONVEX_CASES

    # Each step's (k, dS = S_{k+1} - S_k, delta_k, S_k), in parts[step == "s"];
    # the last record reads final_S and is left out when the summary lacks it.
    reflections, shrinks = parts = [], []
    final_S = summ.get("final_S")
    ends = sums[1:] if final_S is None else [*sums[1:], final_S]
    for k, (step, delta, S, end) in enumerate(zip(steps, deltas, sums, ends)):
        parts[step == "s"].append((k, end - S, delta, S))

    def gap(S: float) -> float:
        return mean_value_gap(S, n, f_star)

    def radius_deviations():
        """(k, |delta_k - delta0*gamma^shrinks| / that, 0): a deviation up to
        1 fails above AUDIT_RTOL, one above 1 (inf if that underflows) fails."""
        shrinks_seen = 0
        for i, (step, delta) in enumerate(zip(steps, deltas)):
            expect = consts.delta0 * gamma ** shrinks_seen
            yield i, abs(delta - expect) / expect if expect else math.inf, 0.0
            if step == "s":
                shrinks_seen += 1

    def add(name: str, why: str | None, terms=(), detail: str = "",
            check=None) -> None:
        """Declare one check: skipped when `why` names an unmet precondition,
        else check(name) or lhs <= rhs over the (k, lhs, rhs) of `terms`.
        Terms are generators and check a function, so a skipped check
        evaluates neither."""
        report.checks.append(
            _skip(name, why) if why is not None
            else check(name) if check is not None
            else _ineq_check(name, terms, detail))

    # --- plumbing invariants ----------------------------------------------
    add("radius_law", None, radius_deviations(),
        "relative deviation from delta0*gamma^shrinks")
    unrecorded = (trace.reason == "overflow" and
                  str(summ.get("overflow", "")).startswith(_FIELD_OVERFLOW))
    expected = evaluation_count(cfg["n"], len(steps), N_s) + N_s + unrecorded
    add("eval_identity",
        None if "objective_calls" in summ else "summary lacks objective_calls",
        check=lambda name: AuditCheck(
            name=name,
            status="pass" if summ["objective_calls"] == expected else "fail",
            detail=f"objective_calls={summ['objective_calls']}, "
                   f"expected={expected}"))

    # --- reflection decrease (sum form) -----------------------------------
    # a practical run has no beta, so every check that reads it is skipped
    theory = None if theoretical else "needs theoretical mode"
    margin = (2.0 * n + 2.0) / n * consts.beta * L
    add("reflection_decrease", theory,
        ((k, dS, -margin * _sq(delta)) for k, dS, delta, _ in reflections))

    # --- the gradient-stopping radius-floor family -------------------------
    floor_ok = (theoretical and cfg["stopping"] == "true_gradient"
                and consts.delta0 > consts.delta_bar)
    floor_why = None if floor_ok else ("needs theoretical mode, true-gradient "
                                       "stopping and delta0 > delta_bar")
    floor = (n + 1.0) * 2.0 * consts.beta * _sq(gamma) * _sq(consts.epsilon) \
        / (L * n * _sq(consts.kappa1))
    add("reflection_decrease_floor", floor_why,
        ((k, dS, -floor) for k, dS, _, _ in reflections))
    add("radius_floor", floor_why,
        ((k, consts.delta_bar, delta) for k, delta in enumerate(deltas)))
    add("shrink_count_bound", floor_why or _unbounded(consts, "delta_bar"),
        check=lambda name: _strict_count_check(
            name, N_s, _shrink_bound(consts, "delta_bar")))

    # --- shrink ascent caps (any mode; only L-smoothness is used) ----------
    per_shrink = L * gamma * (1.0 - gamma) * (n + 1.0)
    add("shrink_ascent_per_step", None,
        ((k, dS, per_shrink * _sq(delta)) for k, dS, delta, _ in shrinks))
    add("total_shrink_ascent", None,
        [(None, sum(max(dS, 0.0) for _, dS, _, _ in shrinks),
          (n + 1.0) * consts.psi0)])

    # --- convexity-only checks ---------------------------------------------
    add("convex_shrink_monotone", None if convex_case else "needs a convex case",
        ((k, dS, 0.0) for k, dS, _, _ in shrinks))
    add("convex_reflection_gap_decrease",
        None if convex_case and theoretical and f_star is not None
        else "needs a convex case, theoretical mode and f*",
        ((k, gap(S + dS) - gap(S),
          -(2.0 * consts.beta / n) * L * _sq(delta))
         for k, dS, delta, S in reflections))
    tail_ok = (theoretical and convex_case and f_star is not None
               and consts.R is not None and len(steps) > 0
               and consts.delta0 > tail_radius(max(gap(sums[0]), 0.0), consts))
    add("radius_tail_lower_bound", theory or (
        None if tail_ok
        else "needs a convex case, f*, R and delta0 > tail_radius(gap_0)"),
        ((k, gamma * tail_radius(max(gap(S), 0.0), consts), delta)
         for k, (S, delta) in enumerate(zip(sums, deltas))))
    add("convex_shrink_count_bound", theory or (
        None if convex_case and cfg["stopping"] == "gap"
        and consts.delta_cvx is not None and consts.delta0 > consts.delta_cvx
        else "needs a convex case, gap stopping, R and delta0 > delta_cvx")
        or _unbounded(consts, "delta_cvx"),
        check=lambda name: _strict_count_check(
            name, N_s, _shrink_bound(consts, "delta_cvx")))

    # --- counts and predicted-vs-observed ----------------------------------
    report.counts = {"N_r": len(steps) - N_s, "N_s": N_s, "N_eps": trace.N_eps,
                     "iterations": len(steps)}
    report.observed = {"iterations": len(steps), "reason": trace.reason}

    if case == "strongly_convex" and f_star is not None:
        # a last record left out of the partition has no reflection after
        # it; without a shrink no reflection follows one
        first_shrink = shrinks[0][0] if shrinks else math.inf
        # a gap near the least subnormal can make a ratio overflow
        ratios = [q for q in (gap(S + dS) / gap(S)
                              for k, dS, _, S in reflections
                              if k > first_shrink and gap(S) > 0)
                  if math.isfinite(q)]
        if ratios:
            report.observed["worst_reflection_gap_ratio"] = max(ratios)

    S0 = sums[0] if sums else final_S
    d_bar0 = None if f_star is None or S0 is None else gap(S0)
    if d_bar0 is not None and d_bar0 >= 0:
        try:
            if not theoretical:
                # the bounds read beta, which a practical run does not have
                report.predicted["unavailable"] = "needs theoretical mode"
            else:
                # For "pl" only an upper bound on the central gap is
                # available from vertex values: f(c_0) <= mean + L*delta0^2/2.
                d0 = (d_bar0 + L * _sq(consts.delta0) / 2.0 if case == "pl"
                      else d_bar0)
                bound = predicted_bounds(consts, d0, case)
                if not math.isfinite(bound):
                    raise OverflowError(f"got {bound}")
                report.predicted["iterations"] = bound
            report.predicted["d_bar0"] = d_bar0
        except ValueError as exc:
            report.predicted["unavailable"] = str(exc)
        except ArithmeticError as exc:
            report.predicted["unavailable"] = (
                f"the predicted bound leaves the double range ({exc})")

    bound_ok = (floor_ok if case == "nonconvex" else
                case == "convex" and cfg["stopping"] == "gap" and tail_ok)
    add("iteration_bound",
        None if bound_ok and trace.reason == "epsilon-reached"
        and "iterations" in report.predicted
        else "guaranteed only for nonconvex (gradient stopping) and convex "
        "(gap stopping) runs that hit epsilon with preconditions met",
        check=lambda name: _ineq_check(
            name, [(None, float(len(steps)), report.predicted["iterations"])]))
    return report
