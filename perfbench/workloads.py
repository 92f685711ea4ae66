"""The three benchmark workloads: seeded inputs, the timed task, the gate.

Every workload has the same shape.  ``setup(seed)`` builds, from the
workload seed, the list of tasks of one round and every input they need
(objectives, solver configs, rotations), so the library only ever receives
generated inputs.  ``task(inp, j, wrap)`` makes the library calls of task
``j`` and nothing else; it is the only code the task timer covers.
``check(inp, j, out)`` is the correctness gate for that task and returns a
failure message or None, plus the counts the metrics need.

* solve-highdim -- four quad-spectrum instances at n=64 (rotation and
  start seeded by the instance number), in a seeded order.
* sweep-audit   -- the 45 grid cells, as the scaling experiments build
  them, in a seeded order.
* certify       -- simplices at n = 8, 32 and 64 in equal numbers, in a
  seeded order, each with a seeded centre, radius, rotation and gamma.

The solve workloads run every instance of a fixed pool in every round, so
the mix of work is the same for every seed (solve costs differ by up to a
factor of three between instances) and every solve has an accept/shrink
sequence pinned in ``reference.json`` (see pin_reference.py).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from rssm import complexity, interpolation, objectives, simplex, solver

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Relative distance allowed between a certified bound and error_bound's
# closed form.
BOUND_RTOL = 1e-9

KINDS = ("reflection", "centroid", "shrink")
CLASSES = ("nonconvex", "convex")


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def start_center(n: int, distance: float, seed: int) -> np.ndarray:
    """Seeded start at the given distance from the origin, drawn as the
    scaling experiments draw it."""
    u = np.random.default_rng(seed).standard_normal(n)
    return distance / float(np.linalg.norm(u)) * u


def solve_outcome(trace) -> dict:
    """The parts of a run that the reference pins: stop reason, counts and
    a digest of the accept/shrink sequence."""
    seq = "".join("r" if r.step == "reflection" else "s" for r in trace.records)
    return {"reason": trace.reason, "N_r": trace.N_r, "N_s": trace.N_s,
            "steps": hashlib.sha256(seq.encode()).hexdigest()[:16]}


def solve_stats(trace) -> dict:
    return {"iterations": len(trace.records), "accepted": trace.N_r,
            "eval_count": trace.eval_count}


def compare(expected: dict | None, got: dict) -> str | None:
    if expected is None:
        return "no pinned reference for this instance"
    diff = [k for k in expected if expected[k] != got.get(k)]
    return "; ".join(f"{k}: expected {expected[k]!r}, got {got.get(k)!r}"
                     for k in diff) or None


class SolveHighdim:
    """Practical-mode quad-spectrum solves at n=64 to epsilon=1.0."""

    name = "solve-highdim"
    solves = True
    POOL = 4
    # A start at distance 2 takes 310-450 iterations (about 1 s); from 0.5
    # it takes 50-95 at the same cost per iteration.  Short solves let the
    # best repeat of each task land in a fast spell of a shared host.
    START_DISTANCE = 0.5

    def __init__(self, smoke: bool = False):
        self.n = 2 if smoke else 64

    def instances(self) -> list[int]:
        return list(range(self.POOL))

    def build(self, inst: int):
        key = f"n{self.n}/i{inst}"
        obj = objectives.builtin("quad-spectrum", self.n, seed=inst)
        cfg = solver.SolverConfig(
            n=self.n, epsilon=1.0, mode="practical",
            center=start_center(self.n, self.START_DISTANCE, 10_000 + inst))
        return key, obj, cfg

    def setup(self, seed: int) -> dict:
        order = np.random.default_rng(seed).permutation(self.POOL)
        return {"tasks": [self.build(int(i)) for i in order],
                "ref": load_reference()[self.name]}

    def task(self, inp: dict, j: int, wrap):
        _, obj, cfg = inp["tasks"][j]
        return solver.run(wrap(obj), cfg)

    def check(self, inp: dict, j: int, trace):
        if trace.reason != "epsilon-reached":
            err = f"stopped with {trace.reason!r}"
        else:
            err = compare(inp["ref"].get(inp["tasks"][j][0]), solve_outcome(trace))
        return err, solve_stats(trace)

    def pin(self, inst: int) -> tuple[str, dict]:
        key, obj, cfg = self.build(inst)
        return key, solve_outcome(solver.run(obj, cfg))


class SweepAudit:
    """Theoretical-mode grid cells, solved, round-tripped through JSON, audited."""

    name = "sweep-audit"
    solves = True
    BETA = 0.5

    def __init__(self, smoke: bool = False):
        dims = (2,) if smoke else (2, 4, 8)
        eps = (1e-1,) if smoke else (1e-1, 1e-2, 1e-3)
        self.cells = [(name, n, e) for name in objectives.builtin_names()
                      for n in dims for e in eps]

    def instances(self) -> list[tuple]:
        return self.cells

    def build(self, cell):
        """Objective and config of one cell, as experiments.run_cell sets
        them for the plan's first repetition (seed 0)."""
        name, n, eps = cell
        obj = objectives.builtin(name, n, seed=0)
        stopping = "gap" if obj.convexity in ("convex", "strongly_convex") \
            else "true_gradient"
        cfg = solver.SolverConfig(
            n=n, delta0=1.0, gamma=0.5, epsilon=eps, mode="theoretical",
            beta=self.BETA, L=obj.L, stopping=stopping,
            max_iterations=200_000, max_evaluations=10_000_000,
            center=start_center(n, 2.0, 0))
        return f"{name}/n{n}/eps{eps:g}", obj, cfg

    def setup(self, seed: int) -> dict:
        order = np.random.default_rng(seed).permutation(len(self.cells))
        return {"tasks": [self.build(self.cells[i]) for i in order],
                "ref": load_reference()[self.name]}

    @staticmethod
    def solve_and_audit(obj, cfg, wrap=None):
        trace = solver.run(wrap(obj) if wrap else obj, cfg)
        text = trace.to_json()
        back = solver.Trace.from_json(text)
        case = obj.convexity
        R = mu = None
        if case in ("convex", "strongly_convex"):
            R = objectives.sublevel_radius(obj, back.records[0].S / (cfg.n + 1.0))
        if case == "strongly_convex":
            mu = obj.mu
        consts = complexity.constants_for_trace(back, L=obj.L, R=R, mu=mu)
        report = complexity.audit_trace(back, consts, case=case,
                                        f_star=obj.f_star)
        return trace, len(text), report

    @staticmethod
    def outcome(trace, report) -> dict:
        got = solve_outcome(trace)
        got["audit"] = ",".join(f"{c.name}:{c.status}" for c in report.checks)
        return got

    def task(self, inp: dict, j: int, wrap):
        _, obj, cfg = inp["tasks"][j]
        return self.solve_and_audit(obj, cfg, wrap)

    def check(self, inp: dict, j: int, out):
        trace, nbytes, report = out
        stats = solve_stats(trace)
        stats.update(records=len(trace.records), json_bytes=nbytes)
        if trace.reason != "epsilon-reached":
            return f"stopped with {trace.reason!r}", stats
        if not report.passed:
            bad = ", ".join(x.name for x in report.violations)
            return f"audit failed: {bad}", stats
        expected = inp["ref"].get(inp["tasks"][j][0])
        return compare(expected, self.outcome(trace, report)), stats

    def pin(self, inst) -> tuple[str, dict]:
        key, obj, cfg = self.build(inst)
        trace, _, report = self.solve_and_audit(obj, cfg)
        return key, self.outcome(trace, report)


class Certify:
    """Sharp-bound reports on rotated, shifted regular simplices."""

    name = "certify"
    solves = False
    L = 1.0

    def __init__(self, smoke: bool = False):
        self.dims = (2,) if smoke else (8, 32, 64)
        # a small round repeats every task often enough in a run for its
        # best time to be steady
        self.per_dim = 2 if smoke else 12

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        dims = rng.permutation(np.repeat(self.dims, self.per_dim))
        tasks = []
        for n in dims:
            n = int(n)
            Q, R = np.linalg.qr(rng.standard_normal((n, n)))
            tasks.append({
                "n": n,
                "center": 3.0 * rng.standard_normal(n),
                "radius": float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))),
                "rotation": Q * np.sign(np.diag(R))[None, :],
                "gamma": float(rng.uniform(0.1, 0.9)),
            })
        return {"tasks": tasks}

    def task(self, inp: dict, j: int, wrap):
        x = inp["tasks"][j]
        c, r = x["center"], x["radius"]
        s0 = simplex.make_regular_simplex(c, r, x["n"])
        s = simplex.Simplex(c + (s0.vertices - c) @ x["rotation"], radius=r)
        return [interpolation.bound_report(
                    s, kind, cls, self.L,
                    gamma=x["gamma"] if kind == "shrink" else None)
                for kind in KINDS for cls in CLASSES]

    def check(self, inp: dict, j: int, reports):
        x = inp["tasks"][j]
        errs = []
        for rep in reports:
            closed = interpolation.error_bound(
                rep.kind, rep.cls, x["n"], self.L, x["radius"],
                gamma=x["gamma"] if rep.kind == "shrink" else None)
            where = f"{rep.kind}/{rep.cls} n={x['n']}"
            if not rep.attained:
                errs.append(f"{where}: not attained")
            if not rep.dominated:
                errs.append(f"{where}: not dominated")
            if not rep.mu.sharp:
                errs.append(f"{where}: mu certificate not sharp")
            if abs(rep.bound - closed) > BOUND_RTOL * abs(closed):
                errs.append(f"{where}: bound {rep.bound!r} vs closed form {closed!r}")
        return ("; ".join(errs) or None), {"reports": len(reports)}


WORKLOADS = {w.name: w for w in (SolveHighdim, SweepAudit, Certify)}
