"""Scaling experiments: empirical iteration counts vs the tolerance grid.

A plan sweeps an (n, epsilon, repetition) grid for one test objective,
solving each cell in theoretical mode with the stopping rule the analysis
uses for that convexity class: true-gradient stationarity for
nonconvex/PL objectives, mean-value gap for convex/strongly-convex ones.
Rows go to CSV with the fixed header; iteration counts from
budget-terminated cells are flagged and excluded from fits.

Two fits summarize each (objective, n) group over the epsilon grid:
log N vs log(1/eps) (the exponent p in N ~ (1/eps)^p) and N vs
log(1/eps) (the semilog line that linear convergence predicts).
"""

from __future__ import annotations

import csv
import io
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import objectives
from .complexity import CONVEX_CASES
from .solver import SolverConfig, run

__all__ = [
    "ExperimentPlan",
    "ScalingRow",
    "FitResult",
    "ScalingResult",
    "run_cell",
    "run_scaling",
    "loglog_fit",
    "semilog_fit",
    "write_csv",
    "CSV_HEADER",
]

CSV_HEADER = ("objective", "n", "epsilon", "seed", "N_r", "N_s", "N_eps",
              "evals", "final_gap", "reason", "wall_ms")

MIN_FIT_POINTS = 4


@dataclass
class ExperimentPlan:
    """One objective swept over dimensions, tolerances and repetitions.

    Each repetition re-seeds both the objective construction (relevant for
    quad-spectrum) and the random start direction; the start centroid is
    placed center_distance away from the origin along that direction.
    """

    objective: str
    dims: tuple = (4,)
    epsilons: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    repetitions: int = 1
    base_seed: int = 0
    center_distance: float = 2.0
    delta0: float = 1.0
    gamma: float = 0.5
    beta: float = 0.5
    max_iterations: int = 200_000
    max_evaluations: int = 10_000_000
    objective_params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.dims = tuple(int(n) for n in self.dims)
        self.epsilons = tuple(float(e) for e in self.epsilons)
        if not self.dims or any(n < 1 for n in self.dims):
            raise ValueError(f"dims must be positive, got {self.dims}")
        if not self.epsilons or any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if any(a <= b for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError(
                f"epsilons must be strictly decreasing, got {self.epsilons}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if self.objective not in objectives.builtin_names():
            raise ValueError(f"unknown objective {self.objective!r}")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ScalingRow:
    objective: str
    n: int
    epsilon: float
    seed: int
    N_r: int
    N_s: int
    N_eps: int | None
    evals: int
    final_gap: float | None
    reason: str
    wall_ms: float

    def csv_values(self) -> list[str]:
        return [
            self.objective, str(self.n), repr(self.epsilon), str(self.seed),
            str(self.N_r), str(self.N_s),
            "" if self.N_eps is None else str(self.N_eps),
            str(self.evals),
            "" if self.final_gap is None else repr(self.final_gap),
            self.reason, f"{self.wall_ms:.3f}",
        ]


@dataclass
class FitResult:
    """OLS line y = slope*x + intercept with the Pearson correlation of (x, y)."""

    slope: float
    intercept: float
    correlation: float
    points: int

    def to_dict(self) -> dict:
        return asdict(self)


def _ols(x: np.ndarray, y: np.ndarray) -> FitResult:
    if len(x) < MIN_FIT_POINTS:
        raise ValueError(
            f"fits need at least {MIN_FIT_POINTS} points, got {len(x)}")
    slope, intercept = np.polyfit(x, y, 1)
    corr = float(np.corrcoef(x, y)[0, 1])
    return FitResult(slope=float(slope), intercept=float(intercept),
                     correlation=corr, points=len(x))


def loglog_fit(epsilons, counts) -> FitResult:
    """Exponent p of N ~ (1/eps)^p: regress log N on log(1/eps)."""
    eps = np.asarray(epsilons, dtype=float)
    N = np.asarray(counts, dtype=float)
    if np.any(N <= 0):
        raise ValueError("iteration counts must be positive for a log-log fit")
    return _ols(np.log(1.0 / eps), np.log(N))


def semilog_fit(epsilons, counts) -> FitResult:
    """Slope of N vs log(1/eps), the line a log(1/eps)-type bound predicts."""
    eps = np.asarray(epsilons, dtype=float)
    N = np.asarray(counts, dtype=float)
    return _ols(np.log(1.0 / eps), N)


@dataclass
class ScalingResult:
    rows: list = field(default_factory=list)
    # {(n): {"exponent": FitResult|None, "semilog": FitResult|None, "note": str}}
    fits: dict = field(default_factory=dict)

    def rows_for_fit(self, n: int) -> list:
        return [r for r in self.rows
                if r.n == n and r.reason == "epsilon-reached" and r.N_eps]

    def to_csv(self) -> str:
        buf = io.StringIO()
        write_csv(self.rows, buf)
        return buf.getvalue()


def write_csv(rows, fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.csv_values())


def _stopping_for(obj) -> str:
    if obj.convexity in CONVEX_CASES:
        return "gap"
    return "true_gradient"


def _start_center(n: int, distance: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    norm = float(np.linalg.norm(u))
    if norm == 0.0:  # pragma: no cover - measure-zero draw
        u = np.ones(n)
        norm = math.sqrt(n)
    return distance / norm * u


def run_cell(plan: ExperimentPlan, n: int, epsilon: float, seed: int) -> ScalingRow:
    """Solve one grid cell and package the CSV row."""
    obj = objectives.builtin(plan.objective, n, seed=seed,
                             **plan.objective_params)
    stopping = _stopping_for(obj)
    cfg = SolverConfig(
        n=n, delta0=plan.delta0, gamma=plan.gamma, epsilon=epsilon,
        mode="theoretical", beta=plan.beta, L=obj.L, stopping=stopping,
        max_iterations=plan.max_iterations,
        max_evaluations=plan.max_evaluations,
        center=_start_center(n, plan.center_distance, seed),
    )
    start = time.perf_counter()
    trace = run(obj, cfg)
    wall_ms = (time.perf_counter() - start) * 1e3

    final_gap = None
    if obj.f_star is not None:
        final_gap = trace.summary["final_S"] / (n + 1.0) - obj.f_star
    return ScalingRow(
        objective=plan.objective, n=n, epsilon=epsilon, seed=seed,
        N_r=trace.N_r, N_s=trace.N_s, N_eps=trace.N_eps,
        evals=trace.eval_count,
        final_gap=final_gap, reason=trace.reason, wall_ms=wall_ms)


def run_scaling(plan: ExperimentPlan) -> ScalingResult:
    """Run the full grid, sort rows, and fit each dimension's epsilon curve."""
    rows = []
    for n in plan.dims:
        for epsilon in plan.epsilons:
            for rep in range(plan.repetitions):
                rows.append(run_cell(plan, n, epsilon, plan.base_seed + rep))
    rows.sort(key=lambda r: (r.objective, r.n, -r.epsilon, r.seed))

    result = ScalingResult(rows=rows)
    for n in plan.dims:
        good = result.rows_for_fit(n)
        eps = [r.epsilon for r in good]
        counts = [r.N_eps for r in good]
        entry = {"exponent": None, "semilog": None, "note": ""}
        excluded = sum(1 for r in rows if r.n == n) - len(good)
        if excluded:
            entry["note"] = f"{excluded} budget/flagged rows excluded from fits"
        try:
            entry["exponent"] = loglog_fit(eps, counts)
            entry["semilog"] = semilog_fit(eps, counts)
        except ValueError as exc:
            entry["note"] = (entry["note"] + "; " if entry["note"] else "") + str(exc)
        result.fits[n] = entry
    return result
