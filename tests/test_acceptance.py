"""Acceptance gate: ten end-to-end checks, one printed verdict line each.

Every test prints exactly one line of the form

    [criterion NN] <name>: PASS|FAIL - <measurement at its pinned tolerance>

so a plain ``pytest -s tests/test_acceptance.py`` doubles as a checklist.
The measurements are made against independently re-written formulas and a
from-scratch least-squares interpolation oracle, not against the library's
own bound code, wherever the criterion is about a numerical guarantee.
"""

import contextlib
import io
import math
import time
import types

import numpy as np
import pytest

from rssm.complexity import audit_trace, constants_for_trace
from rssm.experiments import ExperimentPlan, run_scaling, write_csv
from rssm.interpolation import (
    bound_report,
    g_matrix,
    lagrange_coefficients,
    mu_certificate,
    query_point,
)
from rssm.objectives import builtin, sublevel_radius
from rssm.simplex import (
    Simplex,
    make_regular_simplex,
    reflect_worst,
    regularity_report,
    shrink_toward_best,
)
from rssm.solver import SolverConfig, run

from conftest import haar_rotation, positive_count, random_regular_simplex


@pytest.fixture
def criterion(capsys):
    @contextlib.contextmanager
    def _criterion(num, name):
        res = types.SimpleNamespace(ok=False, detail="")
        try:
            yield res
        except BaseException as exc:
            res.ok = False
            if not res.detail:
                res.detail = f"raised {type(exc).__name__}: {exc}"
            _emit(capsys, num, name, res)
            raise
        _emit(capsys, num, name, res)
        assert res.ok, f"criterion {num}: {res.detail}"

    return _criterion


def _emit(capsys, num, name, res):
    verdict = "PASS" if res.ok else "FAIL"
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {verdict} - {res.detail}")


# ---------------------------------------------------------------------------
# shared runs (materialized once, reused by criteria 6, 8 and 9)


SUITE = (
    ("quad-iso", "strongly_convex", "gap", 1e-4),
    ("quad-spectrum", "strongly_convex", "gap", 1e-4),
    ("logsumexp", "convex", "gap", 1e-4),
    ("sin-quad", "pl", "true_gradient", 1e-3),
    ("damped-sine", "nonconvex", "true_gradient", 1e-3),
)

SCALING_EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


@pytest.fixture(scope="module")
def audited_cells():
    """Theoretical-mode runs of all five objectives at n in {2, 4, 8}."""
    cells = []
    for name, case, stopping, epsilon in SUITE:
        for n in (2, 4, 8):
            obj = builtin(name, n, seed=n)
            cfg = SolverConfig(n=n, delta0=1.0, gamma=0.5, epsilon=epsilon,
                               mode="theoretical", beta=1.0, L=obj.L,
                               stopping=stopping, center=1.7)
            trace = run(obj, cfg)
            R = mu = None
            if case in ("convex", "strongly_convex"):
                level = trace.records[0].S / (n + 1.0)
                R = sublevel_radius(obj, level)
            if case == "strongly_convex":
                mu = obj.mu
            consts = constants_for_trace(trace, L=obj.L, R=R, mu=mu)
            report = audit_trace(trace, consts, case=case, f_star=obj.f_star)
            cells.append(types.SimpleNamespace(
                name=name, case=case, n=n, obj=obj, trace=trace,
                consts=consts, report=report))
    return cells


@pytest.fixture(scope="module")
def scaling_results():
    out = {}
    for name in ("quad-iso", "logsumexp", "damped-sine"):
        start = time.perf_counter()
        plan = ExperimentPlan(objective=name, dims=(4,),
                              epsilons=SCALING_EPSILONS)
        out[name] = (run_scaling(plan), time.perf_counter() - start)
    return out


# ---------------------------------------------------------------------------
# criterion 1 — closed-form sharp bounds are attained by the worst case


def test_criterion_01(criterion):
    with criterion(1, "sharp bound attainment") as res:
        worst = 0.0
        reports = 0
        for n in range(1, 13):
            for L in (1.0, 10.0):
                for delta in (0.1, 1.0):
                    s = make_regular_simplex(np.zeros(n), delta, n)
                    cells = [
                        ("reflection", "nonconvex", None,
                         (2.0 * n + 2.0) / n * L * delta ** 2),
                        ("reflection", "convex", None,
                         (1.0 + 1.0 / n) ** 2 * L * delta ** 2),
                        ("centroid", "nonconvex", None, 0.5 * L * delta ** 2),
                    ] + [
                        ("shrink", "nonconvex", g,
                         (n + 1.0) / n * g * (1.0 - g) * L * delta ** 2)
                        for g in (0.3, 0.5, 0.9)
                    ]
                    for kind, cls, g, formula in cells:
                        rep = bound_report(s, kind, cls, L, gamma=g)
                        assert abs(rep.bound - formula) <= 1e-12 * formula
                        rel = abs(rep.achieved - rep.bound) / rep.bound
                        worst = max(worst, rel)
                        reports += 1
        res.ok = worst <= 1e-9
        res.detail = (f"{reports} worst-case quadratics re-achieve their "
                      f"bound, max rel gap {worst:.2e} (tol 1e-9)")


# ---------------------------------------------------------------------------
# criterion 2 — no random smooth quadratic ever beats a bound


def _batch_quadratics(rng, count, n, L, convex):
    G = rng.standard_normal((count, n, n))
    G = 0.5 * (G + np.transpose(G, (0, 2, 1)))
    w, P = np.linalg.eigh(G)
    if convex:
        lam = L * rng.uniform(0.0, 1.0, size=(count, n))
    else:
        spread = np.abs(w).max(axis=1, keepdims=True)
        lam = w / spread * (L * rng.uniform(0.5, 1.0, size=(count, 1)))
    H = np.einsum("bij,bj,bkj->bik", P, lam, P)
    v = rng.standard_normal((count, n))
    c = rng.standard_normal(count)
    return H, v, c


def test_criterion_02(criterion):
    with criterion(2, "random quadratic domination") as res:
        start = time.perf_counter()
        rng = np.random.default_rng(804423)
        count = 10_000
        delta, L, gamma = 0.8, 2.5, 0.45
        violations = 0
        worst_slack = -math.inf
        total = 0
        for n in (2, 5, 10):
            base = make_regular_simplex(np.zeros(n), delta, n)
            Q = haar_rotation(n, rng)
            V = base.vertices @ Q.T + rng.standard_normal(n)
            queries = {
                "reflection": -V[n] + (2.0 / n) * V[:n].sum(axis=0),
                "centroid": V.mean(axis=0),
                "shrink": gamma * V[n] + (1.0 - gamma) * V[0],
            }
            bounds = {
                ("reflection", False): (2.0 * n + 2.0) / n * L * delta ** 2,
                ("reflection", True): (1.0 + 1.0 / n) ** 2 * L * delta ** 2,
                ("centroid", False): 0.5 * L * delta ** 2,
                ("centroid", True): 0.5 * L * delta ** 2,
                ("shrink", False):
                    (n + 1.0) / n * gamma * (1.0 - gamma) * L * delta ** 2,
                ("shrink", True):
                    (n + 1.0) / n * gamma * (1.0 - gamma) * L * delta ** 2,
            }
            A = np.vstack([np.ones(n + 1), V.T])
            for kind, x in queries.items():
                b = np.concatenate([[1.0], x])
                wts = np.linalg.lstsq(A, b, rcond=None)[0]
                for convex in (False, True):
                    H, v, c = _batch_quadratics(rng, count, n, L, convex)
                    vals = (0.5 * np.einsum("vi,bij,vj->bv", V, H, V)
                            + np.einsum("bi,vi->bv", v, V) + c[:, None])
                    fx = 0.5 * np.einsum("i,bij,j->b", x, H, x) + v @ x + c
                    err = np.abs(vals @ wts - fx)
                    bound = bounds[(kind, convex)]
                    slack = (err - bound) / bound
                    worst_slack = max(worst_slack, float(slack.max()))
                    violations += int(np.sum(slack > 1e-9))
                    total += count
        elapsed = time.perf_counter() - start
        res.ok = violations == 0 and elapsed < 60.0
        res.detail = (f"{total} least-squares interpolations vs rewritten "
                      f"bounds: {violations} violations at 1e-9 rel slack, "
                      f"worst slack {worst_slack:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3 — attainment certificates have the predicted coefficients


def test_criterion_03(criterion):
    with criterion(3, "attainment certificates") as res:
        worst_reflection = 0.0
        worst_exact = 0.0
        for n in range(1, 13):
            s = make_regular_simplex(np.zeros(n), 1.0, n)

            cert = mu_certificate(g_matrix(s, query_point(s, "reflection")))
            assert cert.available and cert.sharp
            assert len(cert.entries) == 2 * n
            for i in range(1, n + 1):
                worst_reflection = max(
                    worst_reflection,
                    abs(cert.entries[(i, n + 1)] - 1.0 / n),
                    abs(cert.entries[(i, 0)] - 1.0 / n))

            cert = mu_certificate(g_matrix(s, s.centroid()))
            assert cert.available and cert.sharp
            assert set(cert.entries) == {(i, 0) for i in range(1, n + 2)}
            worst_exact = max(worst_exact, max(
                abs(m - 1.0 / (n + 1)) for m in cert.entries.values()))

            for g in (0.3, 0.5, 0.9):
                cert = mu_certificate(
                    g_matrix(s, query_point(s, "shrink", gamma=g)))
                assert cert.available and cert.sharp
                worst_exact = max(worst_exact,
                                  abs(cert.entries[(1, 0)] - (1.0 - g)),
                                  abs(cert.entries[(n + 1, 0)] - g))
        res.ok = worst_reflection <= 1e-10 and worst_exact <= 1e-12
        res.detail = (f"n=1..12: reflection coefficients off 1/n by "
                      f"{worst_reflection:.2e} (tol 1e-10), centroid/shrink "
                      f"off by {worst_exact:.2e} (tol 1e-12)")


# ---------------------------------------------------------------------------
# criterion 4 — reflection spectra and the eigenvalue count law


def test_criterion_04(criterion):
    with criterion(4, "query spectra and sign counts") as res:
        worst = 0.0
        for n in range(1, 13):
            for delta in (0.1, 1.0):
                s = make_regular_simplex(np.zeros(n), delta, n)
                g = g_matrix(s, query_point(s, "reflection"))
                lam_pos = 2.0 * (n + 1.0) / n ** 2 * delta ** 2
                lam_neg = -2.0 * (n + 1.0) ** 2 / n ** 2 * delta ** 2
                expected = np.array([lam_pos] * (n - 1) + [lam_neg])
                rel = np.abs(g.eigenvalues - expected) / np.abs(expected)
                worst = max(worst, float(rel.max()))

        rng = np.random.default_rng(552200)
        checked = 0
        for kind in ("reflection", "centroid", "shrink"):
            for _ in range(1000):
                n = int(rng.integers(1, 11))
                s = random_regular_simplex(n, rng)
                gamma = float(rng.uniform(0.1, 0.9)) if kind == "shrink" else None
                g = g_matrix(s, query_point(s, kind, gamma=gamma))
                q = g.coefficients
                assert positive_count(g) == len(q.positive_index_set) - 1
                assert g.negative_count() == len(q.negative_index_set) - 1
                checked += 1
        res.ok = worst <= 1e-9 and checked == 3000
        res.detail = (f"closed-form reflection spectra match to {worst:.2e} "
                      f"(tol 1e-9); count law held on {checked} random "
                      f"simplices")


# ---------------------------------------------------------------------------
# criterion 5 — ten thousand alternating steps keep the simplex regular


def test_criterion_05(criterion):
    with criterion(5, "long-run regularity") as res:
        rng = np.random.default_rng(8)
        n = 8
        s = make_regular_simplex(rng.standard_normal(n), 1.0, n)
        worst = 0.0
        for step in range(10_000):
            if step % 2 == 0:
                idx = int(rng.integers(0, n + 1))
                V = s.vertices.copy()
                V[idx] = reflect_worst(s, idx)
                s = Simplex(V, radius=s.radius)
            else:
                s = shrink_toward_best(s, 0, 0.9999)
            worst = max(worst, regularity_report(s).max_deviation())
        res.ok = worst <= 1e-8
        res.detail = (f"10000 alternating reflect/shrink steps at n=8: max "
                      f"relative deviation {worst:.2e} (tol 1e-8), final "
                      f"radius {s.radius:.3f}")


# ---------------------------------------------------------------------------
# criterion 6 — every audited inequality holds on real theoretical runs


REQUIRED_ALWAYS = ("radius_law", "eval_identity", "reflection_decrease",
                   "shrink_ascent_per_step", "total_shrink_ascent")
REQUIRED_FLOOR = ("reflection_decrease_floor", "radius_floor",
                  "shrink_count_bound")
REQUIRED_CONVEX = ("convex_shrink_monotone", "convex_reflection_gap_decrease",
                   "radius_tail_lower_bound", "convex_shrink_count_bound")


def test_criterion_06(criterion, audited_cells):
    with criterion(6, "theoretical-run audits") as res:
        failures = []
        checks_run = 0
        for cell in audited_cells:
            assert cell.trace.reason == "epsilon-reached", \
                f"{cell.name} n={cell.n} ended with {cell.trace.reason}"
            statuses = {c.name: c.status for c in cell.report.checks}
            required = set(REQUIRED_ALWAYS)
            if cell.case in ("pl", "nonconvex"):
                required |= set(REQUIRED_FLOOR)
            else:
                required |= set(REQUIRED_CONVEX)
            if cell.case == "convex":
                required.add("iteration_bound")
            for name in required:
                if statuses[name] != "pass":
                    failures.append((cell.name, cell.n, name, statuses[name]))
            checks_run += sum(1 for st in statuses.values() if st != "skipped")
            failures.extend((cell.name, cell.n, c.name, "fail")
                            for c in cell.report.violations)
        res.ok = not failures
        res.detail = (f"{len(audited_cells)} runs (5 objectives x n=2,4,8), "
                      f"{checks_run} inequality families checked, "
                      f"{len(failures)} violations")
        if failures:
            res.detail += f"; first: {failures[0]}"


# ---------------------------------------------------------------------------
# criterion 7 — empirical iteration orders at desk scale


def test_criterion_07(criterion, scaling_results):
    with criterion(7, "scaling orders") as res:
        qi, t_qi = scaling_results["quad-iso"]
        ls, t_ls = scaling_results["logsumexp"]
        ds, t_ds = scaling_results["damped-sine"]
        for name, (result, _) in scaling_results.items():
            assert all(r.reason == "epsilon-reached" for r in result.rows), name

        corr = qi.fits[4]["semilog"].correlation
        exp_ls = ls.fits[4]["exponent"].slope
        exp_ds = ds.fits[4]["exponent"].slope
        ok_time = max(t_qi, t_ls, t_ds) < 300.0
        res.ok = (corr >= 0.98 and 0.0 <= exp_ls <= 1.2
                  and 0.0 <= exp_ds <= 2.3 and ok_time)
        res.detail = (f"strongly-convex semilog corr {corr:.4f} (>=0.98); "
                      f"convex exponent {exp_ls:.3f} (in [0,1.2]); nonconvex "
                      f"exponent {exp_ds:.3f} (in [0,2.3]); slowest suite "
                      f"{max(t_qi, t_ls, t_ds):.1f}s (<300s)")


# ---------------------------------------------------------------------------
# criterion 8 — shrink counts stay strictly under the closed-form cap


def test_criterion_08(criterion, audited_cells):
    with criterion(8, "shrink count law") as res:
        rows = []
        for cell in audited_cells:
            if cell.case not in ("pl", "nonconvex"):
                continue
            c = cell.consts
            bound = math.log(c.delta_bar / c.delta0) / math.log(c.gamma)
            rows.append((cell.name, cell.n, cell.trace.N_s, bound))
        assert rows, "no gradient-stopping traces collected"
        res.ok = all(N_s < bound for _, _, N_s, bound in rows)
        tightest = max(rows, key=lambda r: r[2] / r[3])
        res.detail = (f"{len(rows)} gradient-stopping runs: N_s < "
                      f"log(delta_bar/delta0)/log(gamma) strictly; tightest "
                      f"{tightest[0]} n={tightest[1]}: {tightest[2]} < "
                      f"{tightest[3]:.2f}")


# ---------------------------------------------------------------------------
# criterion 9 — the evaluation identity holds on every trace produced


def test_criterion_09(criterion, audited_cells, scaling_results):
    with criterion(9, "evaluation identity") as res:
        checked = 0
        for cell in audited_cells:
            t = cell.trace
            n = cell.n
            assert t.eval_count == (n + 1) + t.N_r + n * t.N_s
            assert t.summary["objective_calls"] == t.eval_count + t.N_s
            checked += 1
        for result, _ in scaling_results.values():
            for row in result.rows:
                assert row.evals == (row.n + 1) + row.N_r + row.n * row.N_s
                checked += 1
        res.ok = checked >= 15 + 18
        res.detail = (f"(n+1) + N_r + n*N_s exact on all {checked} "
                      f"traces/rows this suite produced")


# ---------------------------------------------------------------------------
# criterion 10 — identical inputs give byte-identical artifacts


def test_criterion_10(criterion):
    with criterion(10, "deterministic artifacts") as res:
        def solve_once():
            obj = builtin("quad-spectrum", 3, seed=5)
            cfg = SolverConfig(n=3, delta0=1.0, gamma=0.5, epsilon=1e-4,
                               mode="theoretical", beta=1.0, L=obj.L,
                               stopping="gap", center=1.2)
            return run(obj, cfg).to_json()

        t1, t2 = solve_once(), solve_once()

        def csv_once():
            plan = ExperimentPlan(objective="quad-iso", dims=(2,),
                                  epsilons=(1e-1, 1e-2, 1e-3, 1e-4))
            buf = io.StringIO()
            write_csv(run_scaling(plan).rows, buf)
            text = buf.getvalue()
            return "\n".join(",".join(line.split(",")[:-1])
                             for line in text.strip().split("\n"))

        c1, c2 = csv_once(), csv_once()
        res.ok = (t1 == t2) and (c1 == c2)
        res.detail = (f"trace JSON byte-identical across reruns "
                      f"({len(t1)} bytes); scaling CSV identical after "
                      f"dropping wall_ms ({len(c1)} bytes)")
        assert t1 == t2
        assert c1 == c2
