"""The regular simplicial search loop.

:func:`run` is the one driver.  Each iteration reflects the worst vertex
through the centroid of the other n, and accepts the reflection only when
it decreases the worst value by a sufficient-decrease margin proportional
to delta_k^2; otherwise every non-best vertex is shrunk toward the best
one and the radius contracts by gamma.  The simplex stays regular
throughout, so delta_k = delta_0 * gamma^(number of shrinks).

Two acceptance modes are supported: "theoretical" uses the margin
(2n+2)/n * beta * L * delta_k^2 (requires the smoothness constant L), and
"practical" uses eta * delta_k^2 for a user-chosen eta > 0.

A run yields a Trace: the config snapshot, the per-iteration quantities the
complexity audits consume (radius, value sum, worst-mean gap, reflected gap,
simplex-gradient norm), one column each, and the terminal reason.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import namedtuple
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from .simplex import (_MAX, _UNIT_ROUNDOFF, Simplex, _frame_gradient,
                      _frame_regularity, _is_real, _point, _positive,
                      _positive_int, _reflection, _regular_simplex, _sq,
                      _unit_frame, _unit_interval, shrink_toward_best)
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
    "mean_value_gap",
    "evaluation_count",
    "run",
]

MODES = ("theoretical", "practical")
STOPPING_RULES = ("simplex_gradient", "true_gradient", "gap", "none")
# the terminal reasons run writes
STOP_REASONS = ("epsilon-reached", "budget", "delta-floor",
                "regularity-failure", "overflow")

# the JSON number types of the float fields, float first; bool is not one.
# On decoded JSON, type(x) in _REAL is simplex._is_real, at a lower cost per
# record entry
_REAL = (float, int)

# A solver run fails loudly once accumulated geometric drift exceeds this.
REGULARITY_FAIL_TOL = 1e-6

# summary["overflow"] of a run stopped by a record field beyond the doubles,
# after the iteration's candidate was evaluated and before its step
_FIELD_OVERFLOW = "the record field "

# Practical mode stops rather than looping below this radius fraction.  The
# value is far below any resolution doubles can use (acceptance compares
# eta*delta^2 against value differences) but large enough that the floor is
# reached before eta*delta^2 underflows and ties start to be accepted.
DELTA_FLOOR_FRACTION = 1e-30


def mean_value_gap(S: float, n: int, f_star: float) -> float:
    """S/(n+1) - f*, the mean value gap of n+1 vertex values that sum to S."""
    return S / (n + 1) - f_star


def evaluation_count(n: int, iterations: int, N_s: int) -> int:
    """(n+1) + N_r + n*N_s, N_r = iterations - N_s: the objective values."""
    return (n + 1) + iterations + (n - 1) * N_s


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
        n: dimension, a positive integer.
        delta0: initial simplex radius (> 0, finite).
        gamma: shrink factor in (0, 1).
        epsilon: stopping tolerance (> 0, finite).
        mode: "theoretical" (sufficient decrease (2n+2)/n*beta*L*delta^2,
            requires beta and L) or "practical" (eta*delta^2, requires eta).
        beta: acceptance scale for theoretical mode.
        eta: acceptance scale for practical mode.
        L: smoothness constant, theoretical mode only.
            beta, eta and L are positive and finite when given.
        stopping: "simplex_gradient" (||grad of interpolant at centroid||
            <= epsilon), "true_gradient" (test objectives only), "gap"
            (mean vertex value - f* <= epsilon; needs f* metadata), or
            "none" (run to budget).
        max_iterations / max_evaluations: budgets, positive integers;
            max_evaluations counts actual objective calls.
        center: starting centroid, a finite scalar or length-n vector.
    """

    n: int
    delta0: float = 1.0
    gamma: float = 0.5
    epsilon: float = 1e-6
    mode: str = "practical"
    beta: float | None = None
    eta: float | None = 1e-3
    L: float | None = None
    stopping: str = "simplex_gradient"
    max_iterations: int = 100_000
    max_evaluations: int = 10_000_000
    center: object = 0.0

    def __post_init__(self):
        for name in ("n", "max_iterations", "max_evaluations"):
            _positive_int(name, getattr(self, name))
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.stopping not in STOPPING_RULES:
            raise ValueError(f"unknown stopping rule {self.stopping!r}")
        needs = ("beta", "L") if self.mode == "theoretical" else ("eta",)
        for name in ("delta0", "gamma", "epsilon", "beta", "eta", "L"):
            value = getattr(self, name)
            # a None the mode does not need passes; a given beta is checked
            # in either mode, as the audit reads it
            if value is None and name in ("beta", "eta", "L"):
                if name in needs:
                    raise ValueError(f"{self.mode} mode needs {name}")
                continue
            if not _is_real(value):
                raise ValueError(f"{name} must be a number, got {value!r}")
            (_unit_interval if name == "gamma" else _positive)(name, value)
        self.start_center()

    def start_center(self) -> np.ndarray:
        """The centre as a length-n float array (the point rule)."""
        return _point("center", self.center, self.n)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["center"] = self.start_center().tolist()
        return d


# the keys of a trace's record columns, in order; delta is 2nd
_STEP, *_FLOATS = _FIELDS = ("step", "delta", "S", "f_best", "f_worst", "v",
                             "v_r", "simplex_gradient_norm")

# an immutable row of Trace.records, its step "reflection" or "shrink"
IterationRecord = namedtuple("IterationRecord", _FIELDS)


@dataclass
class Trace:
    """Outcome of a run: config snapshot, per-iteration records, terminal reason.

    ``columns`` holds the records as the file does, each taken at the start
    of iteration k, its index in every column: step "r" (a reflection) or
    "s" (a shrink); S the sum of the n+1 vertex values; v the worst-mean gap
    f(worst) - mean of the n best values; v_r the same gap for the
    reflection candidate (always evaluated, even before a shrink).  They
    hold every count; the summary holds only what they cannot give: the
    final state, the measured objective_calls and, on a regularity failure
    or an overflow, the drift or the quantity that overflowed.
    """

    config: dict
    columns: dict = field(default_factory=lambda: {k: [] for k in _FIELDS})
    reason: str = ""
    summary: dict = field(default_factory=dict)

    @property
    def records(self) -> list[IterationRecord]:
        """The records as :data:`IterationRecord` rows, built afresh."""
        steps = ["reflection" if c == "r" else "shrink"
                 for c in self.columns[_STEP]]
        return list(map(IterationRecord, steps,
                        *map(self.columns.get, _FLOATS)))

    @property
    def N_s(self) -> int:
        return self.columns[_STEP].count("s")

    @property
    def N_r(self) -> int:
        return len(self.columns[_STEP]) - self.N_s

    @property
    def N_eps(self) -> int | None:
        """Iterations to epsilon, or None when the run stopped otherwise."""
        return (len(self.columns[_STEP]) if self.reason == "epsilon-reached"
                else None)

    @property
    def eval_count(self) -> int:
        return evaluation_count(self.config["n"], len(self.columns[_STEP]),
                                self.N_s)

    def final_gap(self, f_star: float | None) -> float | None:
        """The mean value gap at the last loop top; None without f* or final_S."""
        S = self.summary.get("final_S")
        return None if f_star is None or S is None else mean_value_gap(
            S, self.config["n"], f_star)

    def to_dict(self) -> dict:
        columns = {name: list(self.columns[name]) for name in _FIELDS}
        columns[_STEP] = "".join(columns[_STEP])
        return {"config": self.config, "records": columns,
                "reason": self.reason, "summary": self.summary}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"),
                          allow_nan=False)

    @classmethod
    def from_dict(cls, d: dict) -> "Trace":
        """Rebuild a trace from :meth:`to_dict` output.

        Raises:
            ValueError: `d` holds what :func:`run` never writes: no `config`,
                `records` or `reason`; a `config` not an object, lacking a
                :class:`SolverConfig` field or holding a key that is none,
                rejected by it or with a `center` not a length-`n` list;
                `records` not in the column layout, or with a step not r or
                s, a mistyped or non-finite value or a `delta` <= 0; an
                unknown `reason`; a non-object `summary`, a mistyped
                `objective_calls` or a `final_S` not a finite number.
        """
        try:
            config, columns, reason = d["config"], d["records"], d["reason"]
            summ = d.get("summary", {})
        except KeyError as exc:
            raise ValueError(f"malformed trace: missing key {exc}") from None
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed trace: {exc}") from None
        if not isinstance(config, dict):
            raise ValueError("malformed trace: 'config' must be an object")
        if (type(columns) is not dict or columns.keys() != set(_FIELDS)
                or type(columns[_STEP]) is not str
                or any(type(columns[name]) is not list for name in _FLOATS)):
            got = ({key: type(v).__name__ for key, v in columns.items()}
                   if type(columns) is dict else type(columns).__name__)
            raise ValueError(f"malformed trace: 'records' must be the column "
                             f"layout: {_STEP} a string of r and s, and "
                             f"{', '.join(_FLOATS)} each a list; not {got}")
        steps = columns[_STEP]
        bad = len(steps) - len(steps.lstrip("rs"))  # the first other letter
        if bad < len(steps):
            raise ValueError(f"malformed trace: record {bad} is not one run "
                             f"writes: {_STEP} {steps[bad]!r}")
        for name in _FLOATS:
            column = columns[name]
            if len(column) != len(steps):
                raise ValueError(f"malformed trace: column {name} has "
                                 f"{len(column)} entries for {len(steps)} steps")
            low = math.ulp(0.0) if name == _FLOATS[0] else -_MAX  # delta > 0
            for i, x in enumerate(column):
                if not (type(x) in _REAL and low <= x <= _MAX):  # type first
                    raise ValueError(f"malformed trace: record {i} is not one "
                                     f"run writes: {name} {x!r}")
        names = [f.name for f in fields(SolverConfig)]
        missing = [name for name in names if name not in config]
        if missing:
            raise ValueError(
                f"malformed trace: config lacks {', '.join(missing)}")
        unknown = [str(key) for key in config if key not in names]
        if unknown:
            raise ValueError(f"malformed trace: config has unknown field "
                             f"{', '.join(unknown)}")
        try:
            SolverConfig(**config)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed trace: {exc}") from None
        # to_dict writes the centre broadcast to n, which bounds n by the file
        if not (type(config["center"]) is list
                and len(config["center"]) == config["n"]):
            raise ValueError(f"malformed trace: center must be the length-"
                             f"{config['n']} list run writes")
        if reason not in STOP_REASONS:
            raise ValueError(f"malformed trace: unknown reason {reason!r}")
        if not isinstance(summ, dict):
            raise ValueError("malformed trace: 'summary' must be an object")
        for key, types in (("final_S", _REAL), ("objective_calls", (int,))):
            if key in summ and type(summ[key]) not in types:
                raise ValueError(f"malformed trace: mistyped summary field "
                                 f"{key}={summ[key]!r}")
        if "final_S" in summ and not -_MAX <= summ["final_S"] <= _MAX:
            raise ValueError(f"malformed trace: non-finite summary field "
                             f"final_S={summ['final_S']!r}")
        columns = {name: list(columns[name]) for name in _FIELDS}
        return cls(config=config, columns=columns, reason=reason, summary=summ)

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        return cls.from_dict(json.loads(text))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u): a result of k rounded operations,
    each exact up to a factor (1 + d) with |d| <= u, lies within gamma_k of
    the exact one relative to the sum of its terms' magnitudes."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _drift_constants(n: int) -> tuple[float, float, float]:
    """The constants of :class:`SolverState`'s distortion budget in
    dimension n.  Rows e_i added to the vertices move the budget's map by
    E = sum_i e_i w_i^T, w_i the gradients of the barycentric coordinates
    of a regular simplex of radius delta, ||w_i|| = n/((n+1) delta); as its
    centred vertices S have S^T S = ((n+1)/n) delta^2 I,
    ||E|| <= ||[e_i]||_F sqrt(n/(n+1)) / delta.  The bounds hold while every
    vertex lies within rho = (1 + tau) delta of the exact centroid, tau = 2
    REGULARITY_FAIL_TOL, as at every loop top the budget certifies or a
    report passes.

    a = 12 (1 + tau) gamma_(2n+6) / u: with the reach R = ||x0|| + a delta
        (:class:`SolverState`), u R / delta bounds both the centroid's
        distance from the exact one, in radii, and the reflection's ||E||.
        T0 sums K <= 2n+1 terms, each one rounded subtraction: the n+1
        offsets of a re-sum (each of norm <= 2 rho) and at most n steps
        x_r - x_w (each <= 2 (n+1) rho / n), of total norm W <= 2(2n+1) rho.
        So x0 + T0/(n+1) lies within u ||x0|| + gamma_(K+2) W/(n+1) of the
        exact centroid.  Over n steps the centroid moves at most 2 rho, so
        ||u_w|| <= 4 rho, and x0 + (2/n)(T0 - u_w) - u_w lies within
        u ||x0|| + gamma_(K+5) ((2/n)(W + 4 rho) + 4 rho) = u ||x0|| +
        12 (1 + 1/n) gamma_(K+5) rho of the exact reflection; its ||E|| is
        n/((n+1) delta) times that.  Every row lies within 4 rho < a delta
        of x0, so R bounds its norm (``tests/test_exact_geometry.py`` holds
        the centroid and the reflection to these bounds).
    h = gamma_4 n / sqrt(n+1): each of the n rows a shrink moves lies within
        gamma_3 R of exact, and the new radius delta' = gamma delta is
        rounded once, so h R / delta' bounds the shrink's ||E||.
    B = (1 + tau)^2 (2n/(n+1)) gamma_(n+8) + gamma_5: the rounding of the
        exact report, for frames whose rows y have norm at most 1 + tau, as
        every frame the budget certifies or a report passes has.  Each
        entry of a frame row is within gamma_2 of (x - c)/delta, which
        moves ||y_a - y_b||^2 by at most 8 gamma_2 (1 + tau)^2 to first
        order; fl(fl(sq_a + sq_b) - 2 G_ab), from the n-term sums sq and G
        of the rounded rows, is within gamma_(n+2) (||y_a|| + ||y_b||)^2 of
        their exact squared edge, and the first term bounds both, relative
        to the ideal squared edge.  The second covers the square roots,
        subtractions and rounded ideal edge through which the report reads
        such squares; its squared radii are within gamma_(n+8) (1 + tau)^2
        of exact, so its radii are inside B too.  ``tests/test_solver.py``
        holds both deviations of the report to B against an exact oracle.
    """
    tau = 2.0 * REGULARITY_FAIL_TOL
    reach = 12.0 * (1.0 + tau) * _gamma(2 * n + 6) / _UNIT_ROUNDOFF
    shrink = _gamma(4) * n / math.sqrt(n + 1.0)
    slack = _sq(1.0 + tau) * (2.0 * n / (n + 1.0)) * _gamma(n + 8) + _gamma(5)
    return reach, shrink, slack


def _grown(kappa: float, e: float) -> float:
    """kappa + 2 sqrt(1 + kappa) e + e^2: the distortion of A + E for A of
    distortion kappa (so ||A|| <= sqrt(1 + kappa)) and ||E|| <= e."""
    return kappa + e * (2.0 * math.sqrt(1.0 + kappa) + e)


class SolverState:
    """Mutable run state: the simplex, whose vertices keep their slots (rows
    of ``simplex.vertices``), the slots in value order, the values in that
    order, the running offset sum and moment about the best vertex, the
    objective-call count (every other count is :class:`Trace`'s), and the
    distortion budget the regularity verdict reads.

    ``order`` lists the slots by ascending value, ties in the order they
    had before, as a stable sort leaves them; ``values[i]`` is the value of
    the vertex in slot ``order[i]``, so ``values[0]`` is the best value and
    ``values[n]`` the worst.

    The sums are taken about x0 = the best vertex and f0 = the best value,
    each summed afresh over the vertices in value order at the start, at
    every shrink and after every n+1 accepted reflections: ``_shift`` is
    T0 = sum_i (x_i - x0), ``_moment`` is P = sum_i (f_i - f0)(x_i - x0)/delta
    and ``_excess`` is s/delta = sum_i (f_i - f0)/delta.  The centroid is
    x0 + T0/(n+1) and the reflection of the worst vertex x_w is
    x0 + (2/n)(T0 - u_w) - u_w, u_w = x_w - x0, each O(n), and each differs
    from what sums of the rows give in its last bits.  An accepted
    reflection writes one row and adds its change to each sum in O(n), from
    d = x_r - x_w (T0 gains d itself) and the u_w the reflection took, and
    :meth:`_gradient_norm` reads the closed-form gradient from them in O(n).
    Each sum stays in range where the vertices and the gradient do: T0 is a
    sum of delta-scale offsets, P about (n+1) delta |g| and s/delta about
    (n+1) |g|.  A sum of the vertices, or s taken as S - (n+1) f0, would
    carry the rounding of the coordinates or the values themselves, which
    far from the origin or near a stationary point exceeds the geometry or
    the gradient (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., 2002, ch. 4).  ``tests/test_exact_geometry.py`` holds the
    centroid, the reflection and the gradient to a-priori bounds after up
    to n+1 updates.
    ``_reach`` is R = ||x0|| + a delta (:func:`_drift_constants`), taken
    at each re-sum: u R bounds the rounding of the centroid and of the
    reflection, and R every row's norm.

    ``_kappa`` is the distortion budget.  The vertices in slot i are
    Phi(s_i) = A s_i + b for s_i the vertices of a regular simplex of the
    stored radius delta, and kappa bounds ||A^T A - I||_2, so every exact
    squared edge lies within a factor 1 +- kappa of the ideal
    2(1+1/n) delta^2 and every exact squared radius about the exact
    centroid Phi(0) within 1 +- kappa of delta^2.  A reflection or a shrink
    is an affine combination of the vertices with weights that sum to 1,
    so in exact arithmetic it commutes with Phi and keeps kappa (Lagarias,
    Reeds, Wright and Wright, SIAM J. Optim. 9, 1998); only its rounding
    moves A, by some E, and kappa grows to kappa + 2 sqrt(1 + kappa) ||E||
    + ||E||^2 (see :func:`_drift_constants` for the bounds on ||E||).  A
    shrink also adds 3u (1 + kappa) for the rounding of the stored radius.
    A new state starts at kappa = inf and certifies nothing until
    :meth:`_anchor` sets kappa from an exact report of its vertices:
    :func:`run` passes the report that certified its starting simplex, and
    every later report it takes.  :meth:`_drift_bound` turns kappa into a
    bound on the exact report; a NaN in kappa, R or delta, or an inf in
    kappa or R, leaves that bound NaN or inf.
    ``tests/test_exact_geometry.py`` holds kappa to every exact squared edge
    and squared radius of the float vertices along random walks of
    reflections and shrinks.
    """

    def __init__(self, simplex: Simplex, objective):
        """Evaluate the objective at every vertex, slot by slot, and order
        the slots by value; the budget is unanchored (kappa = inf)."""
        self.simplex = simplex
        self.objective = objective
        self.objective_calls = 0
        m = simplex.vertices.shape[0]
        self.order = np.arange(m)
        self.values = np.array([self.evaluate(x) for x in simplex.vertices])
        self._kappa = math.inf
        self._reach_radii, self._shrink, self._slack = _drift_constants(m - 1)
        self._sort()

    def evaluate(self, x) -> float:
        """f(x), counted in objective_calls: the solver's only objective call.

        Raises:
            EvaluationError: the value is NaN, infinite or an int beyond the
                double range.
        """
        self.objective_calls += 1
        val = self.objective(x)
        try:
            finite = math.isfinite(val)
        except OverflowError:  # an int beyond the doubles
            finite = False
        if not finite:
            raise EvaluationError(x, val)
        return float(val)

    def centroid(self) -> np.ndarray:
        """x0 + T0/(n+1), the centroid from the running offset sum."""
        return self._x0 + self._shift / len(self.order)

    def reflection(self) -> np.ndarray:
        """The reflection of the worst vertex through the centroid of the
        other n, from the running offset sum."""
        u_w = self._u_w = self.simplex.vertices[self.order[-1]] - self._x0
        return self._x0 + _reflection(self._shift - u_w, u_w, self.simplex.dim)

    def accept(self, x_r: np.ndarray, f_r: float) -> None:
        """Put x_r, this state's latest :meth:`reflection`, of value f_r, in
        the worst vertex's slot."""
        f, order = self.values, self.order
        n = len(order) - 1
        w = int(order[n])
        V = self.simplex.vertices
        delta = self.simplex.radius
        # the budget from the T0 that made x_r
        self._kappa = _grown(self._kappa, _UNIT_ROUNDOFF * self._reach / delta)
        f_w = float(f[n])
        d = x_r - V[w]
        # the moment gains (f_r - f0)(x_r - x0) - (f_w - f0) u_w, here
        # (f_r - f0) d + (f_r - f_w) u_w, over delta
        self._moment += (f_r - self._f0) / delta * d
        self._moment += (f_r - f_w) / delta * self._u_w
        self._shift += d
        self._excess += (f_r - f_w) / delta
        V[w] = x_r
        # bisect_right places a tie last among the n best values, where a
        # stable sort of the values in their previous order puts it; a new
        # best value, the common case, is placed first with one comparison
        k = 0 if f_r < f[0] else bisect_right(f, f_r, 1, n)
        f[k + 1:] = f[k:n]
        f[k] = f_r
        order[k + 1:] = order[k:n]
        order[k] = w
        self._updates += 1
        if self._updates > n:
            self._resum()

    def shrink(self, gamma: float) -> None:
        """Shrink every other vertex toward the best one, evaluate them in
        value order and sort the slots again."""
        R = self._reach  # bounds every row's norm, before the move
        self.simplex = shrink_toward_best(self.simplex, self.order[0], gamma)
        # the moved rows' rounding, then the stored radius's
        kappa = _grown(self._kappa, self._shrink * R / self.simplex.radius)
        self._kappa = kappa + 3.0 * _UNIT_ROUNDOFF * (1.0 + kappa)
        V, f, order = self.simplex.vertices, self.values, self.order
        for i in range(1, len(order)):
            f[i] = self.evaluate(V[order[i]])
        self._sort()

    def _sort(self) -> None:
        """Stable sort of the slots by value from their previous order;
        re-sums."""
        perm = np.argsort(self.values, kind="stable")
        self.values = self.values[perm]
        self.order = self.order[perm]
        self._resum()

    def _resum(self) -> None:
        """The sums taken afresh over the vertices in value order, about the
        best vertex and its value, and the reach from them."""
        X = self.simplex.vertices.take(self.order, axis=0)
        x0 = self._x0 = X[0]
        delta = self.simplex.radius
        self._reach = math.sqrt(x0 @ x0) + self._reach_radii * delta
        self._updates = 0
        self._f0 = float(self.values[0])
        U = X - x0
        e = self.values - self._f0
        e /= delta
        self._moment = e @ U
        # np.add.reduce is what ndarray.sum computes, without its wrapper
        self._shift = np.add.reduce(U)
        self._excess = float(np.add.reduce(e))

    def _centred_moment(self) -> np.ndarray:
        """h = P - (s/((n+1) delta)) T0, in exact arithmetic
        sum_i (f_i - mean f)(x_i - x0) / delta, which is
        sum_i (f_i - mean f)(x_i - c) / delta as the f_i - mean f sum to
        zero: O(n)."""
        return self._moment - (self._excess / len(self.order)) * self._shift

    def _gradient_norm(self) -> float:
        """||g|| for the closed-form simplex gradient
        g = n/((n+1) delta^2) sum_i (f_i - mean f)(x_i - c)
        = n/((n+1) delta) h, h the :meth:`_centred_moment`: O(n).  h is
        divided by delta before it is squared, as the frame form divides
        its gradient, so the square underflows no sooner than the frame
        form's and overflows no later.  The closed form is exact only on a
        regular simplex, so its relative error is of the order of the
        certified drift; the moment and the frame form give it within a few
        roundings of each other."""
        v = self._centred_moment()
        v /= self.simplex.radius
        n = len(self.order) - 1
        return math.sqrt(v @ v) * (n / (n + 1.0))

    def _drift_bound(self) -> float:
        """A bound on the deviation of the exact report of this loop top's
        frame, from the budget: 1 - sqrt(1 - kappa) + u R / delta + B.
        Every exact radius about the exact centroid and every exact edge
        lies within a factor sqrt(1 +- kappa) of its ideal, the centroid
        x0 + T0/(n+1) within u R of the exact one, and the report's
        rounding within B.  No growth or Gower factor enters, as Phi maps
        the exact centroid to the exact centroid.  NaN or inf when the
        budget holds one."""
        kappa = self._kappa
        # 1 - sqrt(1 - kappa) without its cancellation; kappa from kappa >= 1
        loss = kappa / (1.0 + math.sqrt(max(1.0 - kappa, 0.0)))
        return (loss + self._slack
                + _UNIT_ROUNDOFF * self._reach / self.simplex.radius)

    def _anchor(self, report) -> None:
        """Set kappa afresh from the exact report of the current vertices.

        Every exact edge lies within e = the report's edge deviation + B of
        the ideal, so every relative deviation of a squared edge within
        e(2 + e).  The distortion is at most n times that: Gower's identity
        writes S(A^T A - I)S^T as -(l^2/2) J D J for D the squared edges'
        relative deviations and J the centring projection, and
        S^T S = ((n+1)/n) delta^2 I gives ||A^T A - I|| <= ||D|| <= n max |D|.
        """
        e = report.max_edge_deviation + self._slack
        self._kappa = (len(self.order) - 1) * e * (2.0 + e)


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

    Each loop top, in order:

    1. take the value sum S once;
    2. take the simplex gradient's norm in closed form from the state's
       moment, or from the frame of the vertices where that is not finite;
    3. decide the regularity verdict: the state's distortion budget
       certifies it while its bound on the exact report is at most half of
       REGULARITY_FAIL_TOL; otherwise the exact report of the frame decides
       it and, where it passes, anchors the budget afresh.  A certified
       verdict passes only where the exact report is within
       REGULARITY_FAIL_TOL, so each verdict is the one a report taken every
       iteration gives;
    4. test the stopping criterion, then the budgets, then in practical
       mode the radius floor DELTA_FLOOR_FRACTION * delta0;
    5. reflect the worst vertex and evaluate the candidate, even when the
       step ends in a shrink;
    6. append one entry to each column of the trace, the step "r" when
       f_r - f_worst <= margin * delta_k^2 (the margin -(2n+2)/n*beta*L or
       -eta) and "s" otherwise; then accept the candidate, or shrink the n
       non-best vertices toward the best one and evaluate them.

    The frame and the centroid are built only where steps 2 and 3 or the
    "true_gradient" rule read them, and the loop solves no linear system.
    :class:`SolverState` derives the sums, the gradient and the budget.

    Every stop writes final_delta, final_values, best_point, best_value and
    the measured objective_calls to the summary, and final_S and
    final_gradient_norm where they are finite.  The reasons:

    - "epsilon-reached": the criterion held at step 4; the number of
      records is the first iteration index at which it held.
    - "budget": max_iterations records, or max_evaluations objective calls.
    - "delta-floor": the practical-mode radius floor.
    - "regularity-failure": the exact report failed at step 3;
      ``summary["regularity"]`` is that report, and final_gradient_norm
      the closed form on the rejected simplex.
    - "overflow": S at step 1, the gradient norm at step 2, or a record's
      gap v or v_r left the double range; the last stops after step 5's
      evaluation, counted in objective_calls, and before the step.
      ``summary["overflow"]`` names the quantity and its value.

    Every objective call of a run, the n+1 starting evaluations among them,
    runs under one numpy error state that ignores overflow and invalid
    operations, so neither the loop nor the objective shows numpy warnings
    of those kinds.

    Raises:
        ValueError: the objective cannot serve cfg.stopping
            (:func:`_check_stopping`); raised before any evaluation.
        EvaluationError: the objective produced NaN/inf (aborts the run).
        CenterResolutionError: cfg.delta0 cannot be resolved at cfg.center.
    """
    _check_stopping(objective, cfg)
    n = cfg.n
    simplex, report = _regular_simplex(cfg.start_center(), cfg.delta0, n)
    trace = Trace(config=cfg.to_dict())
    steps, deltas, sums, bests, worsts, gaps, gaps_r, norms = (
        trace.columns.values())
    if cfg.mode == "theoretical":
        margin = -(2.0 * n + 2.0) / n * cfg.beta * cfg.L
    else:
        margin = -cfg.eta
    with np.errstate(over="ignore", invalid="ignore"):
        state = SolverState(simplex, objective)
        state._anchor(report)
        while True:
            f = state.values
            delta = state.simplex.radius
            S = float(np.add.reduce(f))  # f.sum(), as in _resum
            if not -_MAX <= S <= _MAX:
                trace.reason = "overflow"
                trace.summary["overflow"] = f"the vertex-value sum S is {S!r}"
                grad_norm = math.nan  # this loop top takes no gradient
                break
            grad_norm = state._gradient_norm()
            # the frame form decides a norm that is not finite (the moment
            # holds inf - inf once the value differences pass the doubles),
            # and the frame is built only there or where the budget does
            # not certify the verdict
            framed = not grad_norm <= _MAX
            certified = state._drift_bound() <= 0.5 * REGULARITY_FAIL_TOL
            c = None
            if framed or not certified:
                c = state.centroid()
                Y = _unit_frame(state.simplex, c, state.order)
            if framed:
                g = _frame_gradient(Y, f, S / (n + 1), delta)
                grad_norm = math.sqrt(g @ g)
                if not grad_norm <= _MAX:  # NaN or inf
                    trace.reason = "overflow"
                    trace.summary["overflow"] = (
                        f"the simplex gradient norm is {grad_norm!r}")
                    break
            # the budget certifies, or else the exact report decides, so
            # the verdict is the one a fresh report gives
            if not certified:
                rep = _frame_regularity(Y)
                if not rep.max_deviation() <= REGULARITY_FAIL_TOL:
                    trace.reason = "regularity-failure"
                    trace.summary["regularity"] = str(rep)
                    break
                state._anchor(rep)
            if cfg.stopping == "true_gradient":
                if c is None:
                    c = state.centroid()
                g_true = np.asarray(objective.gradient(c), dtype=float)
                crit = math.sqrt(g_true @ g_true)
            elif cfg.stopping == "gap":
                crit = mean_value_gap(S, n, objective.f_star)
            else:
                crit = grad_norm
            if cfg.stopping != "none" and crit <= cfg.epsilon:
                trace.reason = "epsilon-reached"
                break
            if (len(steps) >= cfg.max_iterations
                    or state.objective_calls >= cfg.max_evaluations):
                trace.reason = "budget"
                break
            if cfg.mode == "practical" and delta < DELTA_FLOOR_FRACTION * cfg.delta0:
                trace.reason = "delta-floor"
                break

            f_worst_k = float(f[n])
            mean_best = float(np.add.reduce(f[:n])) / n
            # the candidate is evaluated even when the step ends in a shrink
            x_r = state.reflection()
            f_r = state.evaluate(x_r)
            v, v_r = f_worst_k - mean_best, f_r - mean_best
            if not (-_MAX <= v <= _MAX and -_MAX <= v_r <= _MAX):
                # the record could not be written; the step is not taken
                name, value = (("v", v) if not -_MAX <= v <= _MAX
                               else ("v_r", v_r))
                trace.reason = "overflow"
                trace.summary["overflow"] = (
                    f"{_FIELD_OVERFLOW}{name} is {value!r}")
                break
            # once delta^2 overflows the required decrease is -inf and the
            # step shrinks
            accepted = f_r - f_worst_k <= margin * _sq(delta)
            steps.append("r" if accepted else "s")
            deltas.append(delta)
            sums.append(S)
            bests.append(float(f[0]))
            worsts.append(f_worst_k)
            gaps.append(v)
            gaps_r.append(v_r)
            norms.append(grad_norm)
            if accepted:
                state.accept(x_r, f_r)
            else:
                state.shrink(cfg.gamma)

    trace.summary.update({
        "final_delta": state.simplex.radius,
        "final_values": state.values.tolist(),
        "best_point": state.simplex.vertices[state.order[0]].tolist(),
        "best_value": float(state.values[0]),
        "objective_calls": state.objective_calls,
    })
    # strict JSON holds neither after an overflow
    for key, value in (("final_S", S), ("final_gradient_norm", grad_norm)):
        if -_MAX <= value <= _MAX:
            trace.summary[key] = value
    return trace
