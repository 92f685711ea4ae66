"""Spans recorded from outside the library, and the per-layer metrics.

``Recorder.install()`` rebinds the public names that callers look up at
call time (``rssm.solver.simplex_gradient``, ``rssm.simplex.regularity_report``,
``rssm.interpolation.g_matrix``, ...) to timing wrappers, and
``Recorder.restore()`` puts the originals back.  Objectives are wrapped by
``Recorder.objective``, which forwards ``gradient`` and ``f_star``.  A name
a later version of the library no longer has is simply not wrapped, and
its span count reads 0.

Each span stores its name, start, end and parent in flat arrays that stay
in memory until ``save``.  Self time is a span's duration minus the
durations of its direct children; time spent in code that is not wrapped
therefore lands in the self time of the nearest wrapped caller, so work
that moves inline out of a wrapped function shows in
``solver.self_us_per_iter``.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

import numpy as np

# (module, attribute looked up by callers, span name)
TARGETS = (
    ("rssm.solver", "run", "solver.run"),
    ("rssm.solver", "regularity_report", "simplex.regularity_report"),
    ("rssm.simplex", "regularity_report", "simplex.regularity_report"),
    ("rssm.solver", "make_regular_simplex", "simplex.make_regular_simplex"),
    ("rssm.simplex", "make_regular_simplex", "simplex.make_regular_simplex"),
    ("rssm.solver", "simplex_gradient", "interpolation.simplex_gradient"),
    ("rssm.interpolation", "bound_report", "interpolation.bound_report"),
    ("rssm.interpolation", "g_matrix", "interpolation.g_matrix"),
    ("rssm.interpolation", "lagrange_coefficients",
     "interpolation.lagrange_coefficients"),
    ("rssm.interpolation", "mu_certificate", "interpolation.mu_certificate"),
    ("rssm.complexity", "audit_trace", "complexity.audit_trace"),
)
# methods of rssm.solver.Trace: (attribute, span name, is classmethod)
TRACE_METHODS = (
    ("to_json", "solver.trace.to_json", False),
    ("from_json", "solver.trace.from_json", True),
)


class Recorder:
    """In-memory span store with call-site wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, span: str, fn):
        nid = self._id(span)
        names, starts, ends, parents, stack = (
            self.name, self.start, self.end, self.parent, self._stack)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1

        return traced

    def objective(self, obj):
        return TracedObjective(obj, self)

    def install(self) -> None:
        for modname, attr, span in TARGETS:
            mod = importlib.import_module(modname)
            if hasattr(mod, attr):
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(span, orig))
        Trace = importlib.import_module("rssm.solver").Trace
        for attr, span, is_cls in TRACE_METHODS:
            if attr not in vars(Trace):
                continue
            orig = vars(Trace)[attr]
            self._saved.append((Trace, attr, orig))
            if is_cls:
                traced = self.wrap(span, orig.__func__)
                setattr(Trace, attr, classmethod(traced))
            else:
                setattr(Trace, attr, self.wrap(span, orig))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=float),
                "end": np.frombuffer(self.end, dtype=float),
                "parent": np.frombuffer(self.parent, dtype=np.int32)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def totals(self) -> dict:
        """span name -> (calls, inclusive seconds, self seconds)."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child],
                              minlength=len(dur))
        self_t = dur - covered
        out = {}
        for nid, name in enumerate(self.names):
            m = a["name"] == nid
            out[name] = (int(m.sum()), float(dur[m].sum()), float(self_t[m].sum()))
        return out


class TracedObjective:
    """An objective whose value and gradient calls are spans.  Every other
    attribute (``f_star``, ``L``, ...) is read from the wrapped objective."""

    def __init__(self, obj, rec: Recorder):
        self._obj = obj
        self._value = rec.wrap("objectives.value", obj)
        grad = getattr(obj, "gradient", None)
        self.gradient = None if grad is None else rec.wrap("objectives.gradient", grad)

    def __call__(self, x):
        return self._value(x)

    def __getattr__(self, name):
        return getattr(self._obj, name)


# (metric name, unit) in the order they are reported
PER_LAYER = (
    ("simplex.regularity_report.calls", "count"),
    ("simplex.regularity_report.us_per_call", "us"),
    ("simplex.regularity_report.share", "%"),
    ("simplex.make_regular_simplex.calls", "count"),
    ("simplex.make_regular_simplex.us_per_call", "us"),
    ("interpolation.simplex_gradient.calls", "count"),
    ("interpolation.simplex_gradient.us_per_call", "us"),
    ("interpolation.simplex_gradient.share", "%"),
    ("solver.gradient_calls_per_iter", "ratio"),
    ("interpolation.bound_report.us_per_call", "us"),
    ("interpolation.g_matrix.us_per_call", "us"),
    ("interpolation.g_matrix.calls_per_report", "ratio"),
    ("interpolation.lagrange_coefficients.us_per_call", "us"),
    ("interpolation.lagrange_coefficients.calls_per_report", "ratio"),
    ("interpolation.mu_certificate.us_per_call", "us"),
    ("solver.overhead_us_per_iter", "us"),
    ("solver.self_us_per_iter", "us"),
    ("solver.accept_ratio", "ratio"),
    ("solver.eval_ratio", "ratio"),
    ("objectives.calls", "count"),
    ("objectives.us_per_call", "us"),
    ("objectives.share", "%"),
    ("solver.trace.to_json_us_per_record", "us"),
    ("solver.trace.from_json_us_per_record", "us"),
    ("solver.trace.bytes_per_record", "bytes"),
    ("complexity.audit_trace.us_per_record", "us"),
    ("tracing.overhead_pct", "%"),
)


def _ratio(a: float, b: float) -> float:
    """a / b, reading 0 where the workload never does the work counted in b."""
    return a / b if b else 0.0


def per_layer(totals: dict, task_seconds: float, stats: dict,
              overhead_pct: float) -> dict:
    """Per-layer metric values from span totals and the gate's counts.

    ``stats`` sums the per-task counts: iterations, accepted, eval_count,
    records and json_bytes.  ``task_seconds`` is the traced tasks' wall.
    """
    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def us_per_call(name):
        return 1e6 * _ratio(incl(name), calls(name))

    def share(name):
        return 100.0 * _ratio(incl(name), task_seconds)

    iters = stats.get("iterations", 0)
    records = stats.get("records", 0)
    reports = calls("interpolation.bound_report")
    run_s = incl("solver.run")
    run_self = totals.get("solver.run", (0, 0.0, 0.0))[2]
    objective_s = incl("objectives.value") + incl("objectives.gradient")
    values = {
        "simplex.regularity_report.calls": calls("simplex.regularity_report"),
        "simplex.regularity_report.us_per_call": us_per_call("simplex.regularity_report"),
        "simplex.regularity_report.share": share("simplex.regularity_report"),
        "simplex.make_regular_simplex.calls": calls("simplex.make_regular_simplex"),
        "simplex.make_regular_simplex.us_per_call": us_per_call("simplex.make_regular_simplex"),
        "interpolation.simplex_gradient.calls": calls("interpolation.simplex_gradient"),
        "interpolation.simplex_gradient.us_per_call": us_per_call("interpolation.simplex_gradient"),
        "interpolation.simplex_gradient.share": share("interpolation.simplex_gradient"),
        "solver.gradient_calls_per_iter": _ratio(calls("interpolation.simplex_gradient"), iters),
        "interpolation.bound_report.us_per_call": us_per_call("interpolation.bound_report"),
        "interpolation.g_matrix.us_per_call": us_per_call("interpolation.g_matrix"),
        "interpolation.g_matrix.calls_per_report": _ratio(calls("interpolation.g_matrix"), reports),
        "interpolation.lagrange_coefficients.us_per_call": us_per_call("interpolation.lagrange_coefficients"),
        "interpolation.lagrange_coefficients.calls_per_report": _ratio(
            calls("interpolation.lagrange_coefficients"), reports),
        "interpolation.mu_certificate.us_per_call": us_per_call("interpolation.mu_certificate"),
        "solver.overhead_us_per_iter": 1e6 * _ratio(run_s - objective_s, iters),
        "solver.self_us_per_iter": 1e6 * _ratio(run_self, iters),
        "solver.accept_ratio": _ratio(stats.get("accepted", 0), iters),
        "solver.eval_ratio": _ratio(stats.get("eval_count", 0), calls("objectives.value")),
        "objectives.calls": calls("objectives.value"),
        "objectives.us_per_call": us_per_call("objectives.value"),
        "objectives.share": share("objectives.value"),
        "solver.trace.to_json_us_per_record": 1e6 * _ratio(incl("solver.trace.to_json"), records),
        "solver.trace.from_json_us_per_record": 1e6 * _ratio(incl("solver.trace.from_json"), records),
        "solver.trace.bytes_per_record": _ratio(stats.get("json_bytes", 0), records),
        "complexity.audit_trace.us_per_record": 1e6 * _ratio(incl("complexity.audit_trace"), records),
        "tracing.overhead_pct": overhead_pct,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
