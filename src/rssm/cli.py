"""Command-line interface.

Subcommands:

* ``solve``         — run the search on a built-in objective.
* ``verify-bounds`` — check sharp interpolation bounds on one simplex.
* ``worst-case``    — emit the extremal quadratic for a query.
* ``audit``         — re-check a saved trace against the per-step analysis.
* ``scaling``       — sweep an (n, epsilon) grid and fit iteration orders.

Exit codes: 0 success, 1 a check or run failed or stdout was closed, 2 bad
input (argument, value or file).  :func:`main` is the one place that decides
the exit code; any exception but ``OSError``, ``ValueError`` and
``EvaluationError`` is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import objectives
from .simplex import Simplex, _point, make_regular_simplex
from .interpolation import CLASSES, QUERY_KINDS, SIGNS, bound_report
from .solver import (ALGORITHMS, MODES, STOPPING_RULES, SolverConfig, Trace,
                     run, EvaluationError)
from .complexity import ETA_SPLIT, constants_for_trace, audit_trace
from .experiments import ExperimentPlan, run_scaling, write_csv

__all__ = ["build_parser", "main"]


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        key, _, value = pair.partition("=")
        if not _:
            raise ValueError(f"expected KEY=VALUE, got {pair!r}")
        params[key.replace("-", "_")] = float(value)
    return params


def _parse_floats(text: str):
    """text's comma-separated numbers, or text when one is not a number."""
    try:
        return [float(v) for v in text.split(",")]
    except ValueError:
        return text


def _csv(values) -> str:
    """A tuple default in the comma-separated form its option parses."""
    return ",".join(map(repr, values))


def _dump(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args) -> int:
    if args.objective == "list":
        for name in objectives.builtin_names():
            print(name)
        return 0
    obj = objectives.builtin(args.objective, args.n, seed=args.seed,
                             **_parse_params(args.param))
    cfg = SolverConfig(
        n=args.n, delta0=args.delta0, gamma=args.gamma,
        epsilon=args.epsilon, mode=args.mode, beta=args.beta, eta=args.eta,
        L=obj.L if args.L is None else args.L, algorithm=args.algorithm,
        stopping=args.stopping, max_iterations=args.max_iter,
        max_evaluations=args.max_evals,
        center=_point("--start", _parse_floats(args.start), args.n))
    trace = run(obj, cfg)
    if args.trace_out:
        # serialised first: a trace that is not JSON leaves no empty file
        text = trace.to_json()
        with open(args.trace_out, "w") as fh:
            fh.write(text)

    summ = trace.summary
    gap = trace.final_gap(obj.f_star)
    if args.summary:
        print(",".join([
            args.objective, str(args.n), repr(args.epsilon),
            str(trace.N_r), str(trace.N_s), str(trace.eval_count),
            "" if gap is None else repr(gap), trace.reason]))
    else:
        print(f"reason: {trace.reason}")
        print(f"iterations: {len(trace.columns['step'])} "
              f"(reflections {trace.N_r}, shrinks {trace.N_s})")
        print(f"evaluations: {trace.eval_count} "
              f"(objective calls {summ['objective_calls']})")
        print(f"best value: {summ['best_value']!r}")
        print(f"best point: {summ['best_point']}")
        if "overflow" in summ:
            # the summary keeps no final norm after an overflow
            print(f"overflow: {summ['overflow']}")
        else:
            # on regularity-failure the norm is read with the drift beside it
            drift = f" ({summ['regularity']})" if "regularity" in summ else ""
            print(f"simplex gradient norm: {summ['final_gradient_norm']:.6e}"
                  f"{drift}")
        if gap is not None:
            print(f"value gap: {gap!r}")
    return 0


# ---------------------------------------------------------------------------
# verify-bounds / worst-case


def _load_or_make_simplex(args) -> Simplex:
    if getattr(args, "simplex_json", None):
        with open(args.simplex_json) as fh:
            return Simplex.from_json(fh.read())
    return make_regular_simplex(np.zeros(args.n), args.radius, args.n)


def _cmd_verify_bounds(args) -> int:
    s = _load_or_make_simplex(args)
    reports = []
    failed = False
    for kind in QUERY_KINDS:
        for cls in CLASSES:
            rep = bound_report(s, kind, cls, args.L, gamma=args.gamma)
            entry = rep.to_dict()
            mu_ok = rep.mu.sharp if rep.mu.available else None
            entry["checks"] = {
                "attained": rep.attained,
                "dominated": rep.dominated,
                "mu_nonnegative": mu_ok,
            }
            if not rep.attained or not rep.dominated or mu_ok is False:
                failed = True
            reports.append(entry)
    _dump({"radius": s.radius, "n": s.dim, "L": args.L,
           "reports": reports, "all_ok": not failed})
    return 1 if failed else 0


def _cmd_worst_case(args) -> int:
    s = _load_or_make_simplex(args)
    rep = bound_report(s, args.kind, args.cls, args.L, gamma=args.gamma,
                       sign=args.sign)
    payload = rep.to_dict()
    payload["query"] = rep.query.tolist()
    payload["quadratic"] = {
        "H": rep.quadratic.H.tolist(),
        "spectral_norm": rep.quadratic.spectral_norm(),
        "convex": rep.quadratic.is_convex(),
    }
    payload["g_eigenvalues"] = rep.g.eigenvalues.tolist()
    _dump(payload)
    return 0 if rep.attained else 1


# ---------------------------------------------------------------------------
# audit


def _cmd_audit(args) -> int:
    if args.case in objectives.CONVEX_CASES and args.R is None:
        raise ValueError("--R is required for convex cases")
    if args.case == "strongly_convex" and args.mu is None:
        raise ValueError("--mu is required for the strongly_convex case")
    with open(args.trace_in) as fh:
        trace = Trace.from_json(fh.read())
    consts = constants_for_trace(trace, L=args.L, R=args.R, mu=args.mu,
                                 eta_split=args.eta_split)
    report = audit_trace(trace, consts, case=args.case, f_star=args.fstar)
    print(report.to_json())
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# scaling


def _cmd_scaling(args) -> int:
    plan = ExperimentPlan(
        objective=args.objective,
        dims=tuple(int(v) for v in args.dims.split(",")),
        epsilons=tuple(float(v) for v in args.epsilons.split(",")),
        repetitions=args.reps, base_seed=args.seed,
        center_distance=args.center_distance, delta0=args.delta0,
        gamma=args.gamma, beta=args.beta,
        max_iterations=args.max_iter, max_evaluations=args.max_evals,
        objective_params=_parse_params(args.param))
    result = run_scaling(plan)
    if args.csv_out:
        with open(args.csv_out, "w", newline="") as fh:
            write_csv(result.rows, fh)
        out = sys.stdout
    else:
        write_csv(result.rows, sys.stdout)
        out = sys.stderr
    for n, entry in sorted(result.fits.items()):
        exp = entry["exponent"]
        semi = entry["semilog"]
        parts = [f"n={n}"]
        if exp is not None:
            parts.append(f"exponent={exp.slope:.4f} (corr {exp.correlation:.4f})")
        if semi is not None:
            parts.append(f"semilog slope={semi.slope:.4f} "
                         f"(corr {semi.correlation:.4f})")
        if entry["note"]:
            parts.append(entry["note"])
        print("fit: " + "  ".join(parts), file=out)
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssm",
        description="Regular simplicial search with sharp interpolation "
                    "error bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run the search on a built-in objective")
    p.add_argument("--objective", required=True,
                   help="objective name, or 'list' to print the registry")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--delta0", type=float, default=SolverConfig.delta0)
    p.add_argument("--gamma", type=float, default=SolverConfig.gamma)
    p.add_argument("--beta", type=float, default=SolverConfig.beta)
    p.add_argument("--eta", type=float, default=SolverConfig.eta)
    p.add_argument("--L", type=float, default=None,
                   help="smoothness constant; defaults to objective metadata")
    p.add_argument("--epsilon", type=float, default=SolverConfig.epsilon)
    p.add_argument("--mode", choices=MODES, default=SolverConfig.mode)
    p.add_argument("--algorithm", choices=ALGORITHMS,
                   default=SolverConfig.algorithm)
    p.add_argument("--stopping", choices=STOPPING_RULES,
                   default=SolverConfig.stopping)
    p.add_argument("--max-iter", type=int, default=SolverConfig.max_iterations)
    p.add_argument("--max-evals", type=int,
                   default=SolverConfig.max_evaluations)
    p.add_argument("--start", default="0",
                   help="start centroid: scalar or comma-separated vector")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="objective parameter, e.g. --param L=2")
    p.add_argument("--trace-out", default=None, help="write trace JSON here")
    p.add_argument("--summary", action="store_true",
                   help="print one CSV line: objective,n,epsilon,N_r,N_s,"
                        "evals,final_gap,reason")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify-bounds",
                       help="check sharp bounds for every query kind")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=0.5,
                   help="shrink factor for the shrink query")
    p.add_argument("--simplex-json", default=None,
                   help="load this simplex instead of generating one")
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("worst-case",
                       help="emit the bound-attaining extremal quadratic")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--kind", choices=QUERY_KINDS, default="reflection")
    p.add_argument("--cls", choices=CLASSES, default="nonconvex")
    p.add_argument("--sign", choices=SIGNS, default=None)
    p.add_argument("--gamma", type=float, default=0.5)
    p.add_argument("--simplex-json", default=None)
    p.set_defaults(func=_cmd_worst_case)

    p = sub.add_parser("audit", help="re-check a saved trace JSON")
    p.add_argument("--trace-in", required=True)
    p.add_argument("--case", choices=objectives.CASES, default="nonconvex")
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--fstar", type=float, default=None)
    p.add_argument("--eta-split", type=float, default=ETA_SPLIT)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("scaling", help="run an (n, epsilon) scaling sweep")
    p.add_argument("--objective", required=True)
    p.add_argument("--dims", default=_csv(ExperimentPlan.dims),
                   help="comma-separated dimensions")
    p.add_argument("--epsilons", default=_csv(ExperimentPlan.epsilons),
                   help="strictly decreasing comma-separated tolerances")
    p.add_argument("--reps", type=int, default=ExperimentPlan.repetitions)
    p.add_argument("--seed", type=int, default=ExperimentPlan.base_seed)
    p.add_argument("--center-distance", type=float,
                   default=ExperimentPlan.center_distance)
    p.add_argument("--delta0", type=float, default=ExperimentPlan.delta0)
    p.add_argument("--gamma", type=float, default=ExperimentPlan.gamma)
    p.add_argument("--beta", type=float, default=ExperimentPlan.beta)
    p.add_argument("--max-iter", type=int,
                   default=ExperimentPlan.max_iterations)
    p.add_argument("--max-evals", type=int,
                   default=ExperimentPlan.max_evaluations)
    p.add_argument("--param", action="append", metavar="KEY=VALUE")
    p.add_argument("--csv-out", default=None)
    p.set_defaults(func=_cmd_scaling)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a non-finite value is reported by the error it causes, not by a
        # numpy warning ahead of the one error line
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()  # so a closed stdout is caught here, not at exit
        return code
    except BrokenPipeError:
        # not bad input: as Python's signal docs advise, stdout goes to
        # devnull so that the flush at exit prints nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
