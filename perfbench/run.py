"""rssm benchmark: one closed-loop caller runs tasks back to back.

    python3 perfbench/run.py --workload solve-highdim --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the same tasks first untraced and then traced, and
prints the per-layer metrics together with the tracing overhead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name and unit, and the provenance.  The full result (and, for a
traced run, the spans) is also written under ``perfbench/out/``.

The library is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 and prints no result.
``--smoke`` shrinks every workload to n=2 and a few tasks.  See README.md.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import math
import platform
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up is timed as SETUP_SERIES series of at least MIN_SETUPS runs each
SETUP_SERIES = 3
MIN_SETUPS = 5
TAIL_BEYOND = 10
# A seed kept out of development and tuning, for checking later claims.
HELD_OUT_SEED = 4242


class LibraryMissing(RuntimeError):
    pass


def load_library():
    """Import rssm from this checkout's src/ only."""
    if not (SRC / "rssm" / "__init__.py").is_file():
        raise LibraryMissing(f"no rssm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rssm
    if not Path(rssm.__file__).resolve().is_relative_to(SRC):
        raise LibraryMissing(f"rssm imported from {rssm.__file__}, not {SRC}")
    return rssm


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rssm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "seed": seed,
        "held_out_seed": seed == HELD_OUT_SEED,
    }


def tail(times_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND tasks
    beyond it: the order statistic with exactly TAIL_BEYOND larger tasks.
    With too few tasks it is the maximum, reported as percentile 100."""
    xs = sorted(times_ms)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _identity(obj):
    return obj


class CpuRotation:
    """Moves this process to the next CPU it may run on, round by round.

    On a shared host each CPU can switch, every few seconds, between full
    speed and about 0.6x speed, independently of the others.  A process
    left on one CPU can spend a whole run in slow spells; spreading the
    rounds over every allowed CPU gives each task's best repeat more
    chances of a fast one.
    """

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))
        except (AttributeError, OSError):
            self.cpus = []
        self.k = 0

    def __call__(self):
        if len(self.cpus) < 2:
            return
        self.k += 1
        try:
            os.sched_setaffinity(0, {self.cpus[self.k % len(self.cpus)]})
        except OSError:
            self.cpus = []


def measure(wl, inp, *, seconds=None, executions=None, wrap=_identity, task=None,
            between_rounds=None):
    """Run the round's tasks in order, over and over, until at least one
    whole round is done and `seconds` have passed, or for exactly
    `executions` task runs.  `between_rounds` is called, untimed, before
    every round after the first.

    Each run of a task is timed alone and gated after the timer stops; a
    task that raises is a failure, never skipped.  best[j] is task j's
    fastest run.
    """
    task = task or wl.task
    n = len(inp["tasks"])
    best, counts = [math.inf] * n, [None] * n
    times, failures, stats = [], [], Counter()
    t_start = perf_counter()
    k = 0
    while True:
        j = k % n
        if j == 0 and k and between_rounds:
            between_rounds()
        t0 = perf_counter()
        try:
            out, err = task(inp, j, wrap), None
        except Exception:
            out, err = None, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        times.append(dt)
        best[j] = min(best[j], dt)
        if err is None:
            err, counts[j] = wl.check(inp, j, out)
            stats.update(counts[j])
        if err:
            failures.append((j, err))
        k += 1
        if executions is not None:
            if k >= executions:
                break
        elif k >= n and perf_counter() - t_start >= seconds:
            break
    return {"best": best, "counts": counts, "times": times, "failures": failures,
            "stats": stats, "wall": perf_counter() - t_start}


def end_to_end(wl, setups: list[list[float]], res: dict) -> tuple[dict, dict]:
    best_ms = [1e3 * t for t in res["best"]]
    tail_ms, tail_pct = tail(best_ms)
    metrics = {
        "setup_s": (statistics.median(min(series) for series in setups), "s"),
        "tasks_per_s": (len(best_ms) / sum(res["best"]), "1/s"),
        "task_ms.p50": (statistics.median(best_ms), "ms"),
        "task_ms.tail": (tail_ms, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    runs = len(res["times"])
    extra = {"fail_frac": (len(res["failures"]) / runs, "ratio"),
             "task_ms.tail_percentile": (tail_pct, "%"),
             "tasks": (len(best_ms), "count"),
             "task_runs": (runs, "count"),
             "setups": (sum(map(len, setups)), "count"),
             "wall_tasks_per_s": (runs / res["wall"], "1/s")}
    if wl.solves:
        iters = sum(c["iterations"] for c in res["counts"] if c)
        extra["iters_per_s"] = (iters / sum(res["best"]), "1/s")
    return _named(metrics), _named(extra)


def _named(pairs: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in pairs.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("solve-highdim", "sweep-audit", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="n=2 and a few tasks, to check schema and gate")
    args = ap.parse_args(argv)

    try:
        load_library()
    except (LibraryMissing, ImportError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    import workloads
    import tracing

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke)
    prov = provenance(args.seed)

    setups = [[] for _ in range(SETUP_SERIES)]

    def set_up():
        for series in setups:
            t0 = perf_counter()
            built = wl.setup(args.seed)
            series.append(perf_counter() - t0)
        return built

    inp = set_up()
    # warm-up on the smallest size, so lazy imports and first-call costs
    # stay out of the timed tasks; a task that fails here fails again,
    # counted, in the timed rounds
    small = workloads.WORKLOADS[args.workload](smoke=True)
    small_inp = small.setup(args.seed)
    for j in range(len(small_inp["tasks"])):
        try:
            small.task(small_inp, j, _identity)
        except Exception as exc:
            print(f"warm-up task {j} raised {exc!r}", file=sys.stderr)

    result = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "provenance": prov}
    rotate = CpuRotation()
    if not args.trace:
        # set-ups are repeated between rounds, so that each series' best
        # is taken over the whole run, as the tasks' are
        def between_rounds():
            rotate()
            set_up()
        res = measure(wl, inp, seconds=args.seconds, between_rounds=between_rounds)
        while len(setups[0]) < MIN_SETUPS:
            set_up()
        metrics, extra = end_to_end(wl, setups, res)
        result["extra"] = extra
    else:
        base = measure(wl, inp, seconds=args.seconds / 2, between_rounds=rotate)
        rec = tracing.Recorder()
        rec.install()
        try:
            res = measure(wl, inp, executions=len(base["times"]), wrap=rec.objective,
                          task=rec.wrap("task", wl.task), between_rounds=rotate)
        finally:
            rec.restore()
        # overhead compares the tasks' best times, traced against untraced
        traced_s, untraced_s = sum(res["best"]), sum(base["best"])
        overhead = 100.0 * (traced_s / untraced_s - 1.0)
        metrics = tracing.per_layer(rec.totals(), sum(res["times"]), res["stats"],
                                    overhead)
        res["failures"] = base["failures"] + res["failures"]
        res["times"] = base["times"] + res["times"]
        result["extra"] = _named({"traced_best_s": (traced_s, "s"),
                                  "untraced_best_s": (untraced_s, "s"),
                                  "spans": (len(rec.start), "count")})
        OUT.mkdir(exist_ok=True)
        rec.save(OUT / f"{wl.name}-seed{args.seed}-spans.npz")

    attempted, failed = len(res["times"]), len(res["failures"])
    result.update(metrics=metrics,
                  failures=[{"task": i, "error": e} for i, e in res["failures"]])
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(result, fh, indent=1)

    for i, err in res["failures"][:5]:
        print(f"task {i} failed: {err}", file=sys.stderr)
    print(f"{wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("provenance " + json.dumps(prov))
    for name, m in {**metrics, **result["extra"]}.items():
        print(f"  {name:<54} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
