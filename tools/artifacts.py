"""Dump the outputs a behaviour-preserving change must leave byte-identical.

Usage::

    python3 tools/artifacts.py SRC OUT

imports ``rssm`` from the directory SRC (a checkout's ``src/``) and writes
into OUT, one file per artifact:

* ``trace/`` and ``audit/`` -- trace JSON and audit JSON of the 45
  sweep-audit cells and the 4 solve-highdim instances (built by
  ``perfbench/workloads.py``), of the constant-objective theoretical run
  (it ends in ``regularity-failure``), and of 40 ``stopping=none`` runs:
  every builtin at n in {1, 2, 4, 8}, in both modes, 3000 iterations from
  1.7; and of 6 practical-mode ``stopping=gap`` runs (quad-iso,
  quad-spectrum and logsumexp at n in {2, 4}, epsilon 1e-4, from 1.7),
  whose audits reach the convex checks that gap stopping unlocks; and of
  far-centre runs, where vertex rounding is largest: the constant
  objective in theoretical mode and quad-iso to budget at centre 1e8,
  n=2, and at centres 1e4 and 1e6, n in {8, 32}, damped-sine walking to
  budget and quad-iso minimised 0.3 from the centre in both modes (most
  of these end in ``regularity-failure``); beside
  each ``trace/<name>.json``, ``trace/<name>.records.txt`` lists the
  loaded trace apart from its file layout (see ``_listing``);
* ``certify/`` -- for every certify report at seeds 4242, 1 and 2, two
  JSON lines: ``to_dict``; then ``dominated``, the index sets of the
  weights, G's eigenvalues and ||H||_F, which a tolerant compare can read,
  beside SHA-256 digests of H and of G; and in ``fallback.txt`` the same
  for the 3 kinds x 2 classes on two simplices beyond the closed forms
  (see ``_fallback_simplices``), so that the guarded solve of the weights
  and the eigh of G are dumped too;
* ``cli/`` -- stdout, stderr and exit code of the README commands, of
  ``verify-bounds`` and ``worst-case`` variants, of bad-input runs (audit
  constants outside the positive doubles among them), of ``verify-bounds``
  and ``worst-case`` on the ``SIMPLEX_FILES`` (collinear, coincident,
  overflowing about the centroid, flattened to rcond 5e-14, radius field
  1e-300), of a solve whose value sum overflows and the audit of its
  trace, and of ``--help`` for the program and every subcommand (the
  ``wall_ms`` column of the scaling CSV cut); the trace files these write
  are in ``cli/work``, each with its ``.records.txt`` listing, and the
  simplex files in ``cli/work/simplex``.

Compare two checkouts with::

    python3 tools/artifacts.py PARENT/src /tmp/a
    python3 tools/artifacts.py CHANGE/src /tmp/b
    diff -r /tmp/a /tmp/b

A change of the trace file layout shows in the ``.json`` traces only; the
listings stay equal while the records do.

A change that replaces a kernel by one as accurate moves last bits, so
``diff -r`` cannot gate it.  Then::

    python3 tools/artifacts.py --compare /tmp/a /tmp/b

requires the ``TOLERANT`` files (``certify/`` and the
``verify-bounds``/``worst-case`` stdouts) to match value by value: every
boolean, string, integer and index set equal, every float within
``ULP_BOUND`` units in the last place of its scale (digests skipped).  A
trace that is not byte-identical (``trace/`` and ``cli/work/``, with its
``.records.txt`` listing and the stdout of the CLI run that wrote it) must
keep its stop reason, and on ``epsilon-reached`` its step string; for any
other reason the first record whose step differs is listed with its delta
and f_worst - f_best, which shows whether the runs parted where rounding
decides a step.  Two traces of the same steps are listed with each record
column and summary key whose values differ and its largest relative
difference, and the run ends with the largest of each, over the
epsilon-reached traces and over the others apart (a run that walked on
after it converged records rounding noise).  An audit (``audit/`` and
the ``audit-*`` stdouts) must keep its verdict and the status of every
check, any other CLI output its text apart from its float literals, and
every other file its bytes.  It prints each listed trace, each problem
and the largest float distance, and exits 1 on a problem.
The perfbench workloads are read from this script's own checkout.  A dump
writes 469 files in 10 to 20 s on a 2-vCPU host; it is not part of the
test suite, and CI runs it twice and compares the two dumps.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

CERTIFY_SEEDS = (4242, 1, 2)

# The bound pipeline's outputs, whose floats may move in their last bits when
# a kernel is replaced by another that is as accurate: the certify reports
# and the JSON stdout of the verify-bounds and worst-case runs.  In
# ``--compare``, every other file must be byte-identical.
TOLERANT = ("certify/*.txt", "cli/verify-bounds-*.stdout",
            "cli/worst-case-*.stdout")

# In ``--compare``, a float of a TOLERANT file may differ from its
# counterpart by at most this many units in the last place of its scale:
# the largest magnitude in its array (nested arrays counted as one) or in
# its object of numbers (the mu entries), else its own.  Weights that move
# by a few ulps move G, a sum of n+1 weighted outer products, and the mu
# entries built from it by up to a few ulps per term: the bound allows 8
# per term at the largest n dumped, 64.
ULP_BOUND = 8 * 65

# The --simplex-json inputs of the CLI runs, by name; the first four fail the
# nondegeneracy rule or overflow about their centroid, the last is a unit
# triangle whose radius field makes its unit frame overflow.
_A, _B, _T = math.sqrt(2.0 / 3.0), math.sqrt(2.0) / 3.0, 8.2e-14
SIMPLEX_FILES = {
    "collinear": {"dim": 2, "radius": 1,
                  "vertices": [[0, 0], [1, 0], [2, 0]]},
    "coincident": {"dim": 2, "radius": 1,
                   "vertices": [[1, 1], [1, 1], [1, 1]]},
    "centroid-overflow": {"dim": 2, "radius": 1e308,
                          "vertices": [[1e308, 0], [1e308, 1e308],
                                       [0, 1e308]]},
    # a unit regular 3-simplex pressed by _T along its last axis: rcond of
    # its affine system about 5e-14
    "flat": {"dim": 3, "radius": 1.0,
             "vertices": [[_A, _B, _T / 3], [-_A, _B, _T / 3],
                          [0.0, -2 * _B, _T / 3], [0.0, 0.0, -_T]]},
    "radius-1e-300": {"dim": 2, "radius": 1e-300,
                      "vertices": [[0, 0], [1, 0], [0, 1]]},
}

# (name, argv); files named in an argv are written in OUT/cli/work
CLI_RUNS = [
    ("solve-summary", ["solve", "--objective", "quad-iso", "--n", "3",
                       "--mode", "practical", "--epsilon", "1e-5",
                       "--start", "2", "--summary"]),
    ("solve-human", ["solve", "--objective", "quad-iso", "--n", "3",
                     "--mode", "practical", "--epsilon", "1e-5",
                     "--start", "2"]),
    ("solve-trace-out", ["solve", "--objective", "sin-quad", "--n", "2",
                         "--mode", "theoretical", "--beta", "1", "--L", "8",
                         "--stopping", "true_gradient", "--epsilon", "1e-3",
                         "--start", "1.7", "--trace-out", "t.json"]),
    ("audit-pl", ["audit", "--trace-in", "t.json", "--case", "pl", "--L", "8",
                  "--fstar", "0"]),
    ("audit-convex-without-R", ["audit", "--trace-in", "t.json", "--case",
                                "convex", "--L", "8"]),
    # audit constants outside the positive doubles
    ("audit-L-inf", ["audit", "--trace-in", "t.json", "--case", "pl",
                     "--L", "inf"]),
    ("audit-fstar-nan", ["audit", "--trace-in", "t.json", "--case", "pl",
                         "--L", "8", "--fstar", "nan"]),
    ("audit-R-inf", ["audit", "--trace-in", "t.json", "--case", "convex",
                     "--L", "8", "--R", "inf", "--fstar", "0"]),
    ("audit-mu-inf", ["audit", "--trace-in", "t.json", "--case",
                      "strongly_convex", "--L", "8", "--R", "1", "--mu", "inf",
                      "--fstar", "0"]),
    # each vertex value is near 0.7e308, so their sum S overflows
    ("solve-overflow", ["solve", "--objective", "quad-iso", "--n", "2",
                        "--start", "8.3e153", "--delta0", "1e151",
                        "--stopping", "none", "--max-iter", "3",
                        "--trace-out", "o.json"]),
    ("audit-overflow", ["audit", "--trace-in", "o.json", "--L", "2"]),
    ("verify-bounds-n5", ["verify-bounds", "--n", "5"]),
    ("verify-bounds-n4", ["verify-bounds", "--n", "4", "--radius", "0.7",
                          "--L", "2"]),
    ("verify-bounds-gamma-0.3", ["verify-bounds", "--n", "3", "--gamma", "0.3"]),
    ("verify-bounds-gamma-0", ["verify-bounds", "--n", "3", "--gamma", "0"]),
    ("worst-case-readme", ["worst-case", "--n", "2", "--kind", "reflection",
                           "--cls", "nonconvex"]),
    ("worst-case-shrink-convex", ["worst-case", "--n", "5", "--kind", "shrink",
                                  "--cls", "convex"]),
    ("worst-case-reflection", ["worst-case", "--n", "2"]),
    ("worst-case-centroid-negative", ["worst-case", "--n", "3", "--kind",
                                      "centroid", "--sign", "negative"]),
    ("worst-case-reflection-gamma", ["worst-case", "--n", "3", "--gamma",
                                     "0.9"]),
    ("worst-case-centroid-gamma", ["worst-case", "--n", "3", "--kind",
                                   "centroid", "--gamma", "1.5"]),
    ("solve-damped-sine", ["solve", "--objective", "damped-sine", "--n", "4",
                           "--stopping", "none", "--max-iter", "400",
                           "--trace-out", "d.json"]),
    ("solve-far-start", ["solve", "--objective", "quad-iso", "--n", "3",
                         "--start", "1e8"]),
    # one shrink by gamma 1e-17 collapses the simplex: regularity-failure
    ("solve-collapse", ["solve", "--objective", "quad-iso", "--n", "2",
                        "--start", "1", "--param", "x_star=1", "--gamma",
                        "1e-17", "--stopping", "none", "--max-iter", "50"]),
    ("scaling", ["scaling", "--objective", "quad-iso", "--dims", "2,4",
                 "--epsilons", "1e-1,1e-2,1e-3,1e-4", "--csv-out",
                 "sweep.csv"]),
    ("help", ["--help"]),
] + [(f"help-{cmd}", [cmd, "--help"]) for cmd in
     ("solve", "verify-bounds", "worst-case", "audit", "scaling")] + [
    (f"{cmd}-file-{name}", [cmd, "--simplex-json", f"simplex/{name}.json"])
    for name in SIMPLEX_FILES for cmd in ("verify-bounds", "worst-case")]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _digest(a) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


def _listing(trace) -> str:
    """The trace apart from its file layout: one line per record, the repr
    of each column's entry in column order, the step spelled 'reflection'
    or 'shrink', then the reason and the summary."""
    columns = dict(trace.columns)
    columns["step"] = ["reflection" if c == "r" else "shrink"
                       for c in columns["step"]]
    lines = [" ".join(map(repr, row)) for row in zip(*columns.values())]
    lines += [repr(trace.reason), json.dumps(trace.summary, sort_keys=True)]
    return "\n".join(lines) + "\n"


def _solver_runs():
    """(name, objective, config) of every solve whose trace is dumped."""
    import workloads
    from rssm import objectives, solver

    sweep = workloads.SweepAudit()
    for cell in sweep.instances():
        name, obj, cfg = sweep.build(cell)
        yield "sweep-" + name.replace("/", "-"), obj, cfg
    highdim = workloads.SolveHighdim()
    for inst in highdim.instances():
        name, obj, cfg = highdim.build(inst)
        yield "highdim-" + name.replace("/", "-"), obj, cfg
    const = objectives.Objective("const", 2, lambda x: 0.0)
    yield "const-theoretical", const, solver.SolverConfig(
        n=2, mode="theoretical", beta=1.0, L=1.0, stopping="none")
    for name in objectives.builtin_names():
        for n in (1, 2, 4, 8):
            obj = objectives.builtin(name, n, seed=0)
            for mode in solver.MODES:
                extra = (dict(beta=1.0, L=obj.L) if mode == "theoretical"
                         else {})
                yield f"none-{name}-n{n}-{mode}", obj, solver.SolverConfig(
                    n=n, mode=mode, stopping="none", max_iterations=3000,
                    center=1.7, **extra)
    for name in ("quad-iso", "quad-spectrum", "logsumexp"):
        for n in (2, 4):
            yield f"gap-{name}-n{n}-practical", objectives.builtin(
                name, n, seed=0), solver.SolverConfig(
                n=n, mode="practical", stopping="gap", epsilon=1e-4,
                center=1.7)
    yield "far-const-n2-c1e8-theoretical", const, solver.SolverConfig(
        n=2, mode="theoretical", beta=1.0, L=1.0, stopping="none",
        center=1e8)
    yield "far-quad-iso-n2-c1e8-practical", objectives.builtin(
        "quad-iso", 2, seed=0), solver.SolverConfig(
        n=2, stopping="none", max_iterations=2000, center=1e8)
    for centre, ctag in ((1e4, "c1e4"), (1e6, "c1e6")):
        for n in (8, 32):
            tag = f"n{n}-{ctag}"
            yield f"far-damped-sine-{tag}-practical", objectives.builtin(
                "damped-sine", n, seed=0), solver.SolverConfig(
                n=n, stopping="none", max_iterations=2000, center=centre)
            obj = objectives.builtin("quad-iso", n, x_star=centre + 0.3)
            for mode in solver.MODES:
                extra = (dict(beta=1.0, L=obj.L) if mode == "theoretical"
                         else {})
                yield f"far-settle-{tag}-{mode}", obj, solver.SolverConfig(
                    n=n, mode=mode, stopping="none", max_iterations=2000,
                    center=centre, **extra)


def dump_traces(out: Path) -> None:
    from rssm import complexity, objectives, solver

    for name, obj, cfg in _solver_runs():
        trace = solver.run(obj, cfg)
        text = trace.to_json()
        _write(out / "trace" / f"{name}.json", text)
        back = solver.Trace.from_json(text)
        _write(out / "trace" / f"{name}.records.txt", _listing(back))
        case = obj.convexity
        R = mu = None
        if case in complexity.CONVEX_CASES:
            R = objectives.sublevel_radius(
                obj, back.columns["S"][0] / (cfg.n + 1.0))
        if case == "strongly_convex":
            mu = obj.mu
        # the constant objective has no L of its own; its config carries one
        consts = complexity.constants_for_trace(back, L=cfg.L or obj.L, R=R,
                                                mu=mu)
        report = complexity.audit_trace(back, consts, case=case,
                                        f_star=obj.f_star)
        _write(out / "audit" / f"{name}.json", report.to_json())


def _report_lines(rep) -> list[str]:
    q = rep.g.coefficients
    return [json.dumps(rep.to_dict(), sort_keys=True), json.dumps({
        "dominated": rep.dominated,
        "positive_index_set": list(q.positive_index_set),
        "negative_index_set": list(q.negative_index_set),
        "H_frobenius": float(np.linalg.norm(rep.quadratic.H)),
        "H_sha256": _digest(rep.quadratic.H),
        "G_eigenvalues": rep.g.eigenvalues.tolist(),
        "G_sha256": _digest(rep.g.matrix),
    }, sort_keys=True)]


def _fallback_simplices():
    """Two simplices whose reports leave the closed forms: a regular one
    perturbed by 1e-6 radii at n=8 (the guarded solve for the weights, eigh
    for G of the reflection and the centroid) and a regular one centred at
    ||c||inf = 1e6 radii at n=64 (the guarded solve and eigh throughout)."""
    from rssm import simplex

    rng = np.random.default_rng(0)
    for n, centre, perturbation in ((8, 3.0, 1e-6), (64, 1e6, 0.0)):
        c = rng.uniform(-1.0, 1.0, n)
        c *= centre / np.abs(c).max()
        Q, R = np.linalg.qr(rng.standard_normal((n, n)))
        s0 = simplex.make_regular_simplex(c, 1.0, n)
        V = c + (s0.vertices - c) @ (Q * np.sign(np.diag(R))[None, :])
        V[0] += perturbation * rng.standard_normal(n)
        yield simplex.Simplex(V, radius=1.0)


def dump_certify(out: Path) -> None:
    import workloads
    from rssm import interpolation

    cert = workloads.Certify()
    for seed in CERTIFY_SEEDS:
        inp = cert.setup(seed)
        lines = []
        for j in range(len(inp["tasks"])):
            for rep in cert.task(inp, j, None):
                lines += _report_lines(rep)
        _write(out / "certify" / f"seed{seed}.txt", "\n".join(lines) + "\n")
    lines = []
    for s in _fallback_simplices():
        for kind in interpolation.QUERY_KINDS:
            for cls in interpolation.CLASSES:
                lines += _report_lines(interpolation.bound_report(
                    s, kind, cls, 1.0, gamma=0.3 if kind == "shrink" else None))
    _write(out / "certify" / "fallback.txt", "\n".join(lines) + "\n")


def _cut_wall_ms(csv: str) -> str:
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in csv.splitlines())


def dump_cli(src: Path, out: Path) -> None:
    work = out / "cli" / "work"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), COLUMNS="80")
    for name, d in SIMPLEX_FILES.items():
        _write(work / "simplex" / f"{name}.json", json.dumps(d))
    for name, argv in CLI_RUNS:
        proc = subprocess.run([sys.executable, "-m", "rssm.cli", *argv],
                              cwd=work, env=env, capture_output=True, text=True)
        _write(out / "cli" / f"{name}.stdout", proc.stdout)
        _write(out / "cli" / f"{name}.stderr", proc.stderr)
        _write(out / "cli" / f"{name}.code", f"{proc.returncode}\n")
    sweep = work / "sweep.csv"
    sweep.write_text(_cut_wall_ms(sweep.read_text()))
    from rssm import solver

    for path in sorted(work.glob("*.json")):
        _write(path.with_suffix(".records.txt"),
               _listing(solver.Trace.from_json(path.read_text())))


def _numbers(v) -> list[float]:
    """Every float in v, a list nested to any depth."""
    if isinstance(v, list):
        return [x for item in v for x in _numbers(item)]
    return [v] if type(v) is float else []


def _compare_values(a, b, where: str, scale: float | None,
                    problems: list[str]) -> float:
    """Walk a and b, JSON values, in step; append each difference beyond
    ULP_BOUND, or of anything but a float, to problems.  Returns the largest
    float distance seen, in units in the last place of the float's scale."""
    if type(a) is not type(b):
        problems.append(f"{where}: {a!r} vs {b!r}")
        return 0.0
    if type(a) is float:
        ulp = math.ulp(max(abs(a), abs(b)) if scale is None else scale)
        dist = abs(a - b) / ulp
        if not dist <= ULP_BOUND:
            problems.append(f"{where}: {a!r} vs {b!r} ({dist:.3g} ulps)")
        return dist
    if isinstance(a, list):
        if len(a) != len(b):
            problems.append(f"{where}: length {len(a)} vs {len(b)}")
            return 0.0
        if scale is None:
            scale = max(map(abs, _numbers(a) + _numbers(b)), default=0.0)
        return max((_compare_values(x, y, f"{where}[{i}]", scale, problems)
                    for i, (x, y) in enumerate(zip(a, b))), default=0.0)
    if isinstance(a, dict):
        if list(a) != list(b):
            problems.append(f"{where}: keys {list(a)} vs {list(b)}")
            return 0.0
        values = list(a.values()) + list(b.values())
        scale = (max(map(abs, values), default=0.0)
                 if all(type(v) is float for v in values) else None)
        return max((_compare_values(a[k], b[k], f"{where}.{k}", scale,
                                    problems)
                    for k in a if not k.endswith("_sha256")), default=0.0)
    if a != b:  # bool, int, str, None: exact
        problems.append(f"{where}: {a!r} vs {b!r}")
    return 0.0


def _is_trace(rel: str) -> bool:
    """A trace file of the dump: trace/<name>.json or cli/work/<name>.json
    (the simplex input files lie one level further down)."""
    parts = rel.split("/")
    return rel.endswith(".json") and (parts[0] == "trace" and len(parts) == 2
                                      or parts[:2] == ["cli", "work"]
                                      and len(parts) == 3)


# the stdout of a CLI run that wrote a trace renders that trace, and is
# judged with it
RENDERS = {f"cli/{name}.stdout": f"cli/work/{argv[argv.index('--trace-out') + 1]}"
           for name, argv in CLI_RUNS if "--trace-out" in argv}

# a float literal of a CLI text output: a decimal point or an exponent
_FLOAT = re.compile(r"(-?\d+\.\d*(?:[eE][-+]?\d+)?|-?\d+[eE][-+]?\d+)")


def _relative(x, y) -> float:
    """|x - y| relative to the larger magnitude, for two JSON values that
    are equal or floats; inf for any other pair that differs."""
    if x == y:
        return 0.0
    if type(x) is not float or type(y) is not float:
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _moved(a: dict, b: dict) -> dict[str, float]:
    """Each record column and summary key of two traces of the same steps
    whose values differ, with its largest relative difference (inf for a
    difference of anything but floats, or a key in one trace only)."""
    moved = {}
    pairs = [(f"records.{k}", a["records"][k], b["records"][k])
             for k in a["records"] if k != "step"]
    sa, sb = a.get("summary", {}), b.get("summary", {})
    pairs += [(f"summary.{k}", sa.get(k), sb.get(k))
              for k in sorted(sa.keys() | sb.keys())]
    for name, x, y in pairs:
        if x == y:
            continue
        xs, ys = (x, y) if isinstance(x, list) and isinstance(y, list) \
            else ([x], [y])
        moved[name] = (max(map(_relative, xs, ys)) if len(xs) == len(ys)
                       else math.inf)
    return moved


def _compare_trace(rel: str, x: bytes, y: bytes, problems: list[str],
                   notes: list[str], moved: dict[bool, dict]) -> None:
    """Two traces that are not byte-identical: the same reason, and on
    epsilon-reached the same step string, or a problem; otherwise a note of
    the first record whose step differs, with its delta and f_worst - f_best
    (also in units in the last place of f_worst).  Two traces of the same
    steps get a note of each column and summary key that differs, with its
    largest relative difference, and raise that key's entry in
    `moved[reason == "epsilon-reached"]` (the largest difference and its
    trace): a run that ends otherwise may have walked on after it
    converged, where a value such as the gradient norm is rounding noise.
    """
    a, b = json.loads(x), json.loads(y)
    reason = a["reason"]
    if reason != b["reason"]:
        problems.append(f"{rel}: reason {reason!r} vs {b['reason']!r}")
        return
    sa, sb = a["records"]["step"], b["records"]["step"]
    k = next((i for i, (p, q) in enumerate(zip(sa, sb)) if p != q),
             min(len(sa), len(sb)))
    where = f"{rel}: {reason}, {len(sa)} vs {len(sb)} records"
    if sa == sb:
        diffs = _moved(a, b)
        largest = moved[reason == "epsilon-reached"]
        for name, d in diffs.items():
            if not d <= largest.get(name, (-1.0,))[0]:
                largest[name] = (d, rel)
        notes.append(f"{where}; the same steps; "
                     + (", ".join(f"{name} moved by {d:.2g}"
                                  for name, d in diffs.items())
                        or "no value moved"))
    elif reason == "epsilon-reached":
        problems.append(f"{where}, steps differ from record {k}")
    elif k < min(len(sa), len(sb)):
        r = a["records"]
        gap = r["f_worst"][k] - r["f_best"][k]
        notes.append(f"{where}; first differing step at record {k}: delta "
                     f"{r['delta'][k]!r}, f_worst - f_best {gap!r} "
                     f"({gap / math.ulp(r['f_worst'][k]):.3g} ulps of "
                     f"f_worst)")
    else:
        notes.append(f"{where}; the steps agree up to the shorter run's end")


def _statuses(doc: dict) -> list:
    return [("passed", doc["passed"])] + [(c["name"], c["status"])
                                          for c in doc["checks"]]


def compare(a: Path, b: Path) -> int:
    """Compare two dumps.  Prints each problem, a note for each trace that
    differs, the largest relative difference of each value that moved in
    traces of the same steps, and the largest float distance; returns 0
    when there is no problem.

    * a TOLERANT file: value by value, floats within ULP_BOUND;
    * a trace (and its .records.txt listing, and the stdout of the CLI run
      that wrote it): the same reason and, on epsilon-reached, the same
      step string; for any other reason a note lists the first differing
      record with its delta and f_worst - f_best; with the same steps, a
      note lists each column and summary key that moved;
    * an audit (audit/, and the audit-* stdouts): the same verdict and the
      same status of every check;
    * any other CLI output: the same text apart from its float literals;
    * every other file: byte for byte.
    """
    files = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    other = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    problems = [f"{rel}: only in {a}" for rel in sorted(files - other)]
    problems += [f"{rel}: only in {b}" for rel in sorted(other - files)]
    notes = []
    moved = {True: {}, False: {}}
    worst = 0.0
    traces = epsilon = 0
    both = files & other

    def judged_as_trace(rel):
        """The trace rel renders or lists, when that trace differs too."""
        trace = RENDERS.get(rel, rel.removesuffix(".records.txt") + ".json")
        return (trace != rel and trace in both
                and (a / trace).read_bytes() != (b / trace).read_bytes())

    for rel in sorted(both):
        x, y = (a / rel).read_bytes(), (b / rel).read_bytes()
        if x == y or judged_as_trace(rel):
            continue
        if _is_trace(rel):
            traces += 1
            epsilon += json.loads(x)["reason"] == "epsilon-reached"
            _compare_trace(rel, x, y, problems, notes, moved)
            continue
        if (rel.startswith("audit/")
                or fnmatch.fnmatch(rel, "cli/audit-*.stdout")):
            try:
                sa, sb = _statuses(json.loads(x)), _statuses(json.loads(y))
            except (ValueError, KeyError, TypeError):
                problems.append(f"{rel}: differs and is not an audit")
                continue
            if sa != sb:
                diff = [f"{p} {u!r} vs {v!r}" for (p, u), (_, v)
                        in zip(sa, sb) if u != v] or [f"{sa} vs {sb}"]
                problems.append(f"{rel}: statuses differ: {'; '.join(diff)}")
            continue
        if rel.startswith("cli/") and not any(fnmatch.fnmatch(rel, pat)
                                              for pat in TOLERANT):
            u, v = _FLOAT.split(x.decode()), _FLOAT.split(y.decode())
            if len(u) != len(v) or u[::2] != v[::2]:
                problems.append(f"{rel}: differs apart from its floats")
            continue
        if not any(fnmatch.fnmatch(rel, pat) for pat in TOLERANT):
            problems.append(f"{rel}: differs")
            continue
        xs, ys = x.decode().splitlines(), y.decode().splitlines()
        if rel.startswith("cli/"):  # one JSON document
            xs, ys = ["".join(xs)], ["".join(ys)]
        if len(xs) != len(ys):
            problems.append(f"{rel}: {len(xs)} vs {len(ys)} lines")
            continue
        for i, (u, v) in enumerate(zip(xs, ys), 1):
            try:
                u, v = json.loads(u), json.loads(v)
            except ValueError:
                problems.append(f"{rel}:{i}: differs and is not JSON")
                continue
            worst = max(worst, _compare_values(u, v, f"{rel}:{i}", None,
                                               problems))
    for line in notes + problems:
        print(line)
    print(f"{traces} traces differ: {epsilon} epsilon-reached, "
          f"{traces - epsilon} others listed")
    for epsilon_reached, largest in moved.items():
        if largest:
            print(f"values moved in the same steps of the "
                  f"{'epsilon-reached' if epsilon_reached else 'other'} "
                  f"traces, each by its largest relative difference: "
                  + "; ".join(f"{name} {d:.2g} ({rel})"
                              for name, (d, rel) in sorted(largest.items())))
    print(f"{len(problems)} problems; largest float distance {worst:.3g} "
          f"ulps of scale (bound {ULP_BOUND})")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        return compare(Path(args[1]), Path(args[2]))
    if len(args) != 2:
        print("usage: python3 tools/artifacts.py SRC OUT\n"
              "       python3 tools/artifacts.py --compare A B",
              file=sys.stderr)
        return 2
    src, out = Path(args[0]).resolve(), Path(args[1]).resolve()
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import rssm

    if Path(rssm.__file__).resolve().parents[1] != src:
        print(f"error: rssm imported from {rssm.__file__}, not {src}",
              file=sys.stderr)
        return 2
    dump_traces(out)
    dump_certify(out)
    dump_cli(src, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
