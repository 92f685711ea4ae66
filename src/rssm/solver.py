"""The regular simplicial search state machine.

Each iteration sorts the vertices by value, reflects the worst vertex
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
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .simplex import (
    Simplex,
    make_regular_simplex,
    reflect_worst,
    regular_simplex_gradient,
    regularity_report,
    shrink_toward_best,
)
from .interpolation import simplex_gradient

__all__ = [
    "SolverConfig",
    "SolverState",
    "IterationRecord",
    "Trace",
    "EvaluationError",
    "accept_reflection",
    "step",
    "run",
]

MODES = ("theoretical", "practical")
ALGORITHMS = ("rssm", "reflection_only")
STOPPING_RULES = ("simplex_gradient", "true_gradient", "gap", "none")

_STEPS = ("reflection", "shrink")
# the JSON number types of a record's float fields (bool is an int subclass),
# float first as nearly every value is one
_REAL = (float, int)

# A solver run fails loudly once accumulated geometric drift exceeds this.
REGULARITY_FAIL_TOL = 1e-6

# Practical mode stops rather than looping below this radius fraction.  The
# value is far below any resolution doubles can use (acceptance compares
# eta*delta^2 against value differences) but large enough that the floor is
# reached before eta*delta^2 underflows and ties start to be accepted.
DELTA_FLOOR_FRACTION = 1e-30


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
        epsilon: stopping tolerance (> 0).
        mode: "theoretical" (sufficient decrease (2n+2)/n*beta*L*delta^2,
            requires beta and L) or "practical" (eta*delta^2, requires eta).
        beta: acceptance scale for theoretical mode.
        eta: acceptance scale for practical mode.
        L: smoothness constant, theoretical mode only.
        algorithm: "rssm" or "reflection_only" (accept every reflection,
            never shrink).
        stopping: "simplex_gradient" (||grad of interpolant at centroid||
            <= epsilon), "true_gradient" (test objectives only), "gap"
            (mean vertex value - f* <= epsilon; needs f* metadata), or
            "none" (run to budget).
        max_iterations / max_evaluations: budgets; max_evaluations counts
            actual objective calls.
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
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not (0.0 < self.delta0 < math.inf):
            raise ValueError(
                f"delta0 must be positive and finite, got {self.delta0}")
        if not (0.0 < self.gamma < 1.0):
            raise ValueError(f"gamma must lie in (0,1), got {self.gamma}")
        if not (self.epsilon > 0):
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
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
        else:
            if self.eta is None or not (self.eta > 0):
                raise ValueError("practical mode needs eta > 0")
        if self.max_iterations < 1 or self.max_evaluations < 1:
            raise ValueError("budgets must be positive")

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
    accepted: bool
    delta: float
    S: float
    f_best: float
    f_worst: float
    v: float
    v_r: float
    simplex_gradient_norm: float

    def to_dict(self) -> dict:
        # every field is an int, str, bool or float, so a shallow dict
        # equals what dataclasses.asdict builds; reading self.__dict__
        # instead would attach a dict to every record
        return {"k": self.k, "step": self.step, "accepted": self.accepted,
                "delta": self.delta, "S": self.S, "f_best": self.f_best,
                "f_worst": self.f_worst, "v": self.v, "v_r": self.v_r,
                "simplex_gradient_norm": self.simplex_gradient_norm}


@dataclass
class Trace:
    """Outcome of a run: config snapshot, per-iteration records, terminal reason."""

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
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output.

        Raises:
            ValueError: `d` is not a trace: `config`, `records` or `reason`
                missing, `config` not an object, `records` not a list, a
                record that is not an object with exactly the record keys,
                a config that lacks a :class:`SolverConfig` field or that
                :class:`SolverConfig` rejects, or a record with a mistyped
                field or an unknown step.
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
        for r in trace.records:
            # one unrolled test per record: this runs on every loaded record
            if not (type(r.k) is int and type(r.accepted) is bool
                    and r.step in _STEPS and type(r.delta) in _REAL
                    and type(r.S) in _REAL and type(r.f_best) in _REAL
                    and type(r.f_worst) in _REAL and type(r.v) in _REAL
                    and type(r.v_r) in _REAL
                    and type(r.simplex_gradient_norm) in _REAL):
                raise ValueError(f"malformed trace: mistyped field or unknown "
                                 f"step in {r}")
        return trace

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))


class SolverState:
    """Mutable run state: value-sorted simplex, cached values, iteration and
    objective-call counts (N_r, N_s and eval_count are :class:`Trace`'s)."""

    def __init__(self, simplex: Simplex, values: np.ndarray):
        self.simplex = simplex
        self.values = values
        self.k = 0
        self.objective_calls = 0

    @property
    def delta(self) -> float:
        return self.simplex.radius

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


def _init_state(objective, cfg: SolverConfig) -> SolverState:
    simplex = make_regular_simplex(cfg.start_center(), cfg.delta0, cfg.n)
    state = SolverState(simplex, np.empty(cfg.n + 1))
    for i, v in enumerate(simplex.vertices):
        state.values[i] = state.evaluate(objective, v)
    state.sort()
    return state


def accept_reflection(f_r: float, f_worst: float, cfg: SolverConfig,
                      delta: float) -> bool:
    """Sufficient-decrease test for a reflection candidate (inclusive <=)."""
    if cfg.mode == "theoretical":
        threshold = -(2.0 * cfg.n + 2.0) / cfg.n * cfg.beta * cfg.L * delta ** 2
    else:
        threshold = -cfg.eta * delta ** 2
    return f_r - f_worst <= threshold


def step(state: SolverState, objective, cfg: SolverConfig,
         grad_norm: float) -> tuple[SolverState, IterationRecord]:
    """Advance one iteration: reflect the worst vertex, accept or shrink.

    Returns the (mutated) state and the record of the iteration.  The
    reflection candidate is always evaluated; on rejection the n non-best
    vertices are shrunk toward the best one and re-evaluated.  `grad_norm`
    is the norm of the current simplex gradient, for the record.
    """
    n = cfg.n
    f = state.values
    delta_k = state.delta
    S_k = float(f.sum())
    f_best_k = float(f[0])
    f_worst_k = float(f[n])
    mean_best = float(f[:n].sum() / n)
    v = f_worst_k - mean_best

    x_r = reflect_worst(state.simplex, n)
    f_r = state.evaluate(objective, x_r)
    v_r = float(f_r - mean_best)

    if cfg.algorithm == "reflection_only":
        accepted = True
    else:
        accepted = accept_reflection(f_r, f_worst_k, cfg, delta_k)

    if accepted:
        state.simplex.vertices[n] = x_r
        f[n] = f_r
        kind = "reflection"
    else:
        state.simplex = shrink_toward_best(state.simplex, 0, cfg.gamma)
        V = state.simplex.vertices
        for i in range(1, n + 1):
            f[i] = state.evaluate(objective, V[i])
        kind = "shrink"

    record = IterationRecord(
        k=state.k, step=kind, accepted=accepted, delta=delta_k, S=S_k,
        f_best=f_best_k, f_worst=f_worst_k,
        v=v, v_r=v_r, simplex_gradient_norm=grad_norm,
    )
    state.sort()
    state.k += 1
    return state, record


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


def _stopping_value(state: SolverState, objective, cfg: SolverConfig,
                    grad_norm: float) -> float | None:
    """Current value of the stopping criterion, or None when stopping='none'.

    `grad_norm` is the norm of the current simplex gradient; the objective
    has passed :func:`_check_stopping`.
    """
    if cfg.stopping == "none":
        return None
    if cfg.stopping == "simplex_gradient":
        return grad_norm
    if cfg.stopping == "true_gradient":
        g = np.asarray(objective.gradient(state.simplex.centroid()), dtype=float)
        return math.sqrt(g @ g)
    # gap: mean vertex value minus f*
    return float(state.values.sum() / (cfg.n + 1) - objective.f_star)


def run(objective, cfg: SolverConfig) -> Trace:
    """Iterate until the stopping criterion, a budget, or a failure.

    The stopping criterion is tested at the top of every iteration, so when
    the terminal reason is "epsilon-reached" the number of records equals
    the first iteration index at which the criterion held.

    Each iteration checks regularity first and then computes the simplex
    gradient once, in closed form; the stopping rule and the record share
    that value.  The closed form (``simplex.regular_simplex_gradient``) is
    exact only on a regular simplex, so its relative error is of the order
    of the certified drift.

    Raises:
        ValueError: the objective cannot serve cfg.stopping
            (:func:`_check_stopping`); raised before any evaluation.
        EvaluationError: the objective produced NaN/inf (aborts the run).
        CenterResolutionError: cfg.delta0 cannot be resolved at cfg.center.
    """
    _check_stopping(objective, cfg)
    state = _init_state(objective, cfg)
    trace = Trace(config=cfg.to_dict())

    while True:
        rep = regularity_report(state.simplex)
        if rep.max_deviation() > REGULARITY_FAIL_TOL:
            trace.reason = "regularity-failure"
            trace.summary["regularity"] = str(rep)
            # the closed form needs a regular simplex: use the general solve
            g = simplex_gradient(state.simplex, state.values)
            grad_norm = math.sqrt(g @ g)
            break
        g = regular_simplex_gradient(state.simplex, state.values)
        grad_norm = math.sqrt(g @ g)
        crit = _stopping_value(state, objective, cfg, grad_norm)
        if crit is not None and crit <= cfg.epsilon:
            trace.reason = "epsilon-reached"
            break
        if state.k >= cfg.max_iterations or state.objective_calls >= cfg.max_evaluations:
            trace.reason = "budget"
            break
        if cfg.mode == "practical" and state.delta < DELTA_FLOOR_FRACTION * cfg.delta0:
            trace.reason = "delta-floor"
            break
        state, record = step(state, objective, cfg, grad_norm)
        trace.records.append(record)

    trace.summary.update({
        "N_r": trace.N_r,
        "N_s": trace.N_s,
        "N_eps": state.k if trace.reason == "epsilon-reached" else None,
        "eval_count": trace.eval_count,
        "objective_calls": state.objective_calls,
        "iterations": state.k,
        "final_delta": state.delta,
        "final_S": float(state.values.sum()),
        "final_values": state.values.tolist(),
        "best_point": state.simplex.vertices[0].tolist(),
        "best_value": float(state.values[0]),
        "final_gradient_norm": grad_norm,
    })
    return trace
