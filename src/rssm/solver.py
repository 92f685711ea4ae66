"""The regular simplicial search loop.

:func:`run` is the one driver.  Each iteration reflects the worst vertex
through the centroid of the other n, and accepts the reflection only when
it decreases the worst value by a sufficient-decrease margin proportional
to delta_k^2; otherwise every non-best vertex is shrunk toward the best
one and the radius contracts by gamma.  The simplex stays regular
throughout, so delta_k = delta_0 * gamma^(number of shrinks).

Two acceptance modes are supported: "theoretical" uses the margin
(2n+2)/n * beta * L * delta_k^2 (requires the smoothness constant L), and
"practical" uses eta * delta_k^2 for a user-chosen eta > 0.  The
"reflection_only" algorithm variant accepts every reflection
unconditionally and never shrinks.

A run yields a Trace: the config snapshot, one record per iteration with
the quantities the complexity audits consume (radius, value sum, worst-mean
gap, reflected gap, simplex-gradient norm), and the terminal reason.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .simplex import (
    Simplex,
    _frame_gradient,
    _frame_regularity,
    _unit_frame,
    make_regular_simplex,
    reflect_worst,
    shrink_toward_best,
)
# perfbench/tracing.py wraps rssm.solver.simplex_gradient, the name of the
# affine solve the loop once made, and its smoke test reads it; the loop
# calls the frame kernels and never this name
from .simplex import regular_simplex_gradient as simplex_gradient

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "Trace",
    "EvaluationError",
    "run",
]

MODES = ("theoretical", "practical")
ALGORITHMS = ("rssm", "reflection_only")
STOPPING_RULES = ("simplex_gradient", "true_gradient", "gap", "none")
# the terminal reasons run writes
STOP_REASONS = ("epsilon-reached", "budget", "delta-floor", "regularity-failure")

_STEPS = ("reflection", "shrink")
# the JSON number types of a record's float fields (bool is an int subclass),
# float first as nearly every value is one
_REAL = (float, int)
# NaN, +-inf and an int beyond the double range fall outside [-_MAX, _MAX]
_MAX = sys.float_info.max

# A solver run fails loudly once accumulated geometric drift exceeds this.
REGULARITY_FAIL_TOL = 1e-6

# Practical mode stops rather than looping below this radius fraction.  The
# value is far below any resolution doubles can use (acceptance compares
# eta*delta^2 against value differences) but large enough that the floor is
# reached before eta*delta^2 underflows and ties start to be accepted.
DELTA_FLOOR_FRACTION = 1e-30


def _sq(x: float) -> float:
    """x ** 2, or inf where Python's float power raises OverflowError."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


class EvaluationError(RuntimeError):
    """The objective returned a non-finite value."""

    def __init__(self, point, value):
        self.point = np.asarray(point, dtype=float)
        self.value = value
        super().__init__(
            f"objective returned non-finite value {value!r} at {self.point.tolist()}"
        )


@dataclass
class SolverConfig:
    """Configuration of a search run.

    Attributes:
        n: dimension.
        delta0: initial simplex radius (> 0, finite).
        gamma: shrink factor in (0, 1).
        epsilon: stopping tolerance (> 0, finite).
        mode: "theoretical" (sufficient decrease (2n+2)/n*beta*L*delta^2,
            requires beta and L) or "practical" (eta*delta^2, requires eta).
        beta: acceptance scale for theoretical mode.
        eta: acceptance scale for practical mode.
        L: smoothness constant, theoretical mode only.
            beta, eta and L are positive and finite when given.
        algorithm: "rssm" or "reflection_only" (accept every reflection,
            never shrink).
        stopping: "simplex_gradient" (||grad of interpolant at centroid||
            <= epsilon), "true_gradient" (test objectives only), "gap"
            (mean vertex value - f* <= epsilon; needs f* metadata), or
            "none" (run to budget).
        max_iterations / max_evaluations: budgets, integers as n is;
            max_evaluations counts actual objective calls.
        center: starting centroid (scalar is broadcast).
    """

    n: int
    delta0: float = 1.0
    gamma: float = 0.5
    epsilon: float = 1e-6
    mode: str = "practical"
    beta: float | None = None
    eta: float | None = 1e-3
    L: float | None = None
    algorithm: str = "rssm"
    stopping: str = "simplex_gradient"
    max_iterations: int = 100_000
    max_evaluations: int = 10_000_000
    center: object = 0.0

    def __post_init__(self):
        for name in ("n", "max_iterations", "max_evaluations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.stopping not in STOPPING_RULES:
            raise ValueError(f"unknown stopping rule {self.stopping!r}")
        if self.mode == "theoretical":
            if self.beta is None or not (self.beta > 0):
                raise ValueError("theoretical mode needs beta > 0")
            if self.L is None or not (self.L > 0):
                raise ValueError("theoretical mode needs the smoothness constant L")
        elif self.eta is None or not (self.eta > 0):
            raise ValueError("practical mode needs eta > 0")
        # beta, eta and L may be None; the audit reads beta in either mode
        for name in ("delta0", "epsilon", "beta", "eta", "L"):
            value = getattr(self, name)
            if name in ("delta0", "epsilon") or value is not None:
                if not (0.0 < value <= _MAX):
                    raise ValueError(
                        f"{name} must be positive and finite, got {value}")
        if self.max_iterations < 1 or self.max_evaluations < 1:
            raise ValueError("budgets must be positive")
        try:
            # the shapes np.broadcast_to(center, (n,)) in start_center takes
            c = np.asarray(self.center, dtype=float)
            ok = c.shape in ((), (1,), (self.n,)) and np.isfinite(c).all()
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"center must be a finite scalar or length-{self.n} "
                             f"vector, got {self.center!r}")

    def start_center(self) -> np.ndarray:
        return np.broadcast_to(
            np.asarray(self.center, dtype=float), (self.n,)).copy()

    def to_dict(self) -> dict:
        d = asdict(self)
        d["center"] = self.start_center().tolist()
        return d


@dataclass
class IterationRecord:
    """Per-iteration quantities, all taken at the start of iteration k.

    S is the sum of the n+1 vertex values; v the worst-mean gap
    f(worst) - mean of the n best values; v_r the same gap for the
    reflection candidate (always evaluated, even before a shrink).
    """

    k: int
    step: str  # "reflection" | "shrink"
    delta: float
    S: float
    f_best: float
    f_worst: float
    v: float
    v_r: float
    simplex_gradient_norm: float

    def to_dict(self) -> dict:
        # every field is an int, str or float, so a shallow dict equals what
        # dataclasses.asdict builds; reading self.__dict__ instead would
        # attach a dict to every record
        return {"k": self.k, "step": self.step, "delta": self.delta,
                "S": self.S, "f_best": self.f_best, "f_worst": self.f_worst,
                "v": self.v, "v_r": self.v_r,
                "simplex_gradient_norm": self.simplex_gradient_norm}


@dataclass
class Trace:
    """Outcome of a run: config snapshot, per-iteration records, terminal reason.

    The records are the one home of every count (N_r, N_s, N_eps,
    eval_count); the summary holds only what they cannot give: the final
    state, the measured objective_calls and, on a regularity failure, the
    drift.
    """

    config: dict
    records: list[IterationRecord] = field(default_factory=list)
    reason: str = ""
    summary: dict = field(default_factory=dict)

    @property
    def N_r(self) -> int:
        return sum(1 for r in self.records if r.step == "reflection")

    @property
    def N_s(self) -> int:
        return sum(1 for r in self.records if r.step == "shrink")

    @property
    def N_eps(self) -> int | None:
        """Iterations to epsilon, or None when the run stopped otherwise."""
        return len(self.records) if self.reason == "epsilon-reached" else None

    @property
    def eval_count(self) -> int:
        """Evaluation count under the one-per-reflection, n-per-shrink convention."""
        return (self.config["n"] + 1) + self.N_r + self.config["n"] * self.N_s

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "records": [r.to_dict() for r in self.records],
            "reason": self.reason,
            "summary": self.summary,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output.

        Raises:
            ValueError: `d` holds what :func:`run` never writes: a missing
                `config`, `records` or `reason`; a `config` that is not an
                object, lacks a :class:`SolverConfig` field, is rejected by
                it or has a `center` other than a length-`n` list; `records`
                not a list of objects with exactly the record keys; a record
                with a mistyped or non-finite field, an unknown step, a `k`
                other than its index or `delta` <= 0; an unknown `reason`;
                a `summary` that is not an object, whose `final_S` or
                `objective_calls` is mistyped, or whose `final_S` is not
                finite.
        """
        try:
            config, records = d["config"], d["records"]
            if not isinstance(config, dict) or not isinstance(records, list):
                raise ValueError("malformed trace: 'config' must be an object "
                                 "and 'records' a list")
            trace = cls(config=config,
                        records=[IterationRecord(**r) for r in records],
                        reason=d["reason"], summary=d.get("summary", {}))
        except KeyError as exc:
            raise ValueError(f"malformed trace: missing key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed trace: {exc}") from None
        missing = [f.name for f in fields(SolverConfig) if f.name not in config]
        if missing:
            raise ValueError(
                f"malformed trace: config lacks {', '.join(missing)}")
        try:
            SolverConfig(**config)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace: {exc}") from None
        # to_dict writes the centre broadcast to n, which bounds n by the file
        if not (type(config["center"]) is list
                and len(config["center"]) == config["n"]):
            raise ValueError(f"malformed trace: center must be the length-"
                             f"{config['n']} list run writes")
        for i, r in enumerate(trace.records):
            # one unrolled test per record: this runs on every loaded record;
            # the types are tested first, so the comparisons see numbers
            if not (type(r.k) is int and r.step in _STEPS
                    and type(r.delta) in _REAL and type(r.S) in _REAL
                    and type(r.f_best) in _REAL and type(r.f_worst) in _REAL
                    and type(r.v) in _REAL and type(r.v_r) in _REAL
                    and type(r.simplex_gradient_norm) in _REAL and r.k == i
                    and 0.0 < r.delta <= _MAX and -_MAX <= r.S <= _MAX
                    and -_MAX <= r.f_best <= _MAX and -_MAX <= r.f_worst <= _MAX
                    and -_MAX <= r.v <= _MAX and -_MAX <= r.v_r <= _MAX
                    and -_MAX <= r.simplex_gradient_norm <= _MAX):
                raise ValueError(
                    f"malformed trace: record {i} is not one run writes: {r}")
        if trace.reason not in STOP_REASONS:
            raise ValueError(f"malformed trace: unknown reason {trace.reason!r}")
        summ = trace.summary
        if not isinstance(summ, dict):
            raise ValueError("malformed trace: 'summary' must be an object")
        for key, types in (("final_S", _REAL), ("objective_calls", (int,))):
            if key in summ and type(summ[key]) not in types:
                raise ValueError(f"malformed trace: mistyped summary field "
                                 f"{key}={summ[key]!r}")
        if "final_S" in summ and not -_MAX <= summ["final_S"] <= _MAX:
            raise ValueError(f"malformed trace: non-finite summary field "
                             f"final_S={summ['final_S']!r}")
        return trace

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))


class SolverState:
    """Mutable run state: value-sorted simplex, cached values and the
    objective-call count (every other count is :class:`Trace`'s)."""

    def __init__(self, simplex: Simplex, values: np.ndarray):
        self.simplex = simplex
        self.values = values
        self.objective_calls = 0

    def evaluate(self, objective, x) -> float:
        """f(x), counted in objective_calls: the solver's only objective call.

        Raises:
            EvaluationError: the value is NaN or infinite.
        """
        self.objective_calls += 1
        val = objective(x)
        if not np.isfinite(val):
            raise EvaluationError(x, val)
        return float(val)

    def sort(self) -> None:
        """Ascending stable sort of vertices by cached value."""
        order = np.argsort(self.values, kind="stable")
        self.values = self.values[order]
        self.simplex.vertices = self.simplex.vertices[order]


def _check_stopping(objective, cfg: SolverConfig) -> None:
    """Raise ValueError when the objective lacks what cfg.stopping reads.

    "true_gradient" needs an exact gradient and "gap" a known f*.
    """
    if cfg.stopping == "true_gradient" and getattr(objective, "gradient", None) is None:
        raise ValueError(
            "true_gradient stopping needs an objective with an exact gradient"
        )
    if cfg.stopping == "gap" and getattr(objective, "f_star", None) is None:
        raise ValueError("gap stopping needs an objective with known f*")


def run(objective, cfg: SolverConfig) -> Trace:
    """Run the search loop until the stopping criterion, a budget or a failure.

    Each iteration, in order: build the radius-normalised centred frame of
    the value-sorted simplex once (``simplex._unit_frame``) and read the
    closed-form simplex gradient and the regularity verdict from it; test
    the stopping criterion, the budgets and the practical-mode radius floor;
    reflect the worst vertex and evaluate the candidate; accept it when
    f_r - f_worst <= margin * delta_k^2, the margin -(2n+2)/n*beta*L or -eta
    computed once per run, or else shrink the n non-best vertices toward
    the best one and re-evaluate them; record; stable-sort by value.

    The criterion is tested at the top of every iteration, so on
    "epsilon-reached" the number of records is the first iteration index at
    which it held.  The closed-form gradient is exact only on a regular
    simplex, so its relative error is of the order of the certified drift;
    the loop solves no linear system.  On "regularity-failure" the summary's
    ``final_gradient_norm`` is the closed form on the rejected simplex, to be
    read with the drift in ``summary["regularity"]`` beside it.

    Raises:
        ValueError: the objective cannot serve cfg.stopping
            (:func:`_check_stopping`); raised before any evaluation.
        EvaluationError: the objective produced NaN/inf (aborts the run).
        CenterResolutionError: cfg.delta0 cannot be resolved at cfg.center.
    """
    _check_stopping(objective, cfg)
    n = cfg.n
    state = SolverState(make_regular_simplex(cfg.start_center(), cfg.delta0, n),
                        np.empty(n + 1))
    for i, v in enumerate(state.simplex.vertices):
        state.values[i] = state.evaluate(objective, v)
    state.sort()
    trace = Trace(config=cfg.to_dict())
    reflection_only = cfg.algorithm == "reflection_only"
    if cfg.mode == "theoretical":
        margin = -(2.0 * n + 2.0) / n * cfg.beta * cfg.L
    else:
        margin = -cfg.eta

    while True:
        f = state.values
        delta = state.simplex.radius
        Y = _unit_frame(state.simplex)
        g = _frame_gradient(Y, f, delta)
        grad_norm = math.sqrt(g @ g)
        rep = _frame_regularity(Y)
        if rep.max_deviation() > REGULARITY_FAIL_TOL:
            trace.reason = "regularity-failure"
            trace.summary["regularity"] = str(rep)
            break
        if cfg.stopping == "true_gradient":
            g_true = np.asarray(objective.gradient(state.simplex.centroid()),
                                dtype=float)
            crit = math.sqrt(g_true @ g_true)
        elif cfg.stopping == "gap":
            # mean vertex value minus f*
            crit = float(f.sum() / (n + 1) - objective.f_star)
        else:
            crit = grad_norm
        if cfg.stopping != "none" and crit <= cfg.epsilon:
            trace.reason = "epsilon-reached"
            break
        k = len(trace.records)
        if k >= cfg.max_iterations or state.objective_calls >= cfg.max_evaluations:
            trace.reason = "budget"
            break
        if cfg.mode == "practical" and delta < DELTA_FLOOR_FRACTION * cfg.delta0:
            trace.reason = "delta-floor"
            break

        S_k = float(f.sum())
        f_best_k = float(f[0])
        f_worst_k = float(f[n])
        mean_best = float(f[:n].sum() / n)
        # the candidate is evaluated even when the step ends in a shrink
        x_r = reflect_worst(state.simplex, n)
        f_r = state.evaluate(objective, x_r)
        # a boolean, not a margin of -inf: -inf * 0.0 is NaN once delta^2
        # underflows; once delta^2 overflows the margin is -inf and the
        # step shrinks
        accepted = reflection_only or f_r - f_worst_k <= margin * _sq(delta)
        if accepted:
            state.simplex.vertices[n] = x_r
            f[n] = f_r
        else:
            state.simplex = shrink_toward_best(state.simplex, 0, cfg.gamma)
            V = state.simplex.vertices
            for i in range(1, n + 1):
                f[i] = state.evaluate(objective, V[i])
        trace.records.append(IterationRecord(
            k=k, step="reflection" if accepted else "shrink", delta=delta,
            S=S_k, f_best=f_best_k, f_worst=f_worst_k, v=f_worst_k - mean_best,
            v_r=f_r - mean_best, simplex_gradient_norm=grad_norm))
        state.sort()

    trace.summary.update({
        "final_delta": state.simplex.radius,
        "final_S": float(state.values.sum()),
        "final_values": state.values.tolist(),
        "best_point": state.simplex.vertices[0].tolist(),
        "best_value": float(state.values[0]),
        "final_gradient_norm": grad_norm,
        "objective_calls": state.objective_calls,
    })
    return trace
