"""Centroid, reflection and shrink against an exact rational oracle.

Each kernel is recomputed in fractions.Fraction on its float inputs, so the
oracle's value is exactly that of the rounded vertices, and the float
result is held to an a-priori bound on its distance from it, entry by
entry, in the gamma_k = k u / (1 - k u) form of Higham, "Accuracy and
Stability of Numerical Algorithms", 2nd ed. (2002), ch. 3: a sum of m
terms, in any order, is within gamma_(m-1) of the sum of their magnitudes,
and each further rounded operation adds one to k.  The bounds are compared
in exact arithmetic too.  The simplices are those of the weights oracle:
n <= 8, at the origin, rotated, and at centres 1e3 and 1e6; the solver's
running-sum centroid and reflection are also held at n = 16.
"""

from fractions import Fraction

import numpy as np
import pytest

from rssm.simplex import make_regular_simplex, reflect_worst, shrink_toward_best
from rssm.solver import SolverState

from conftest import random_regular_simplex
from test_exact_weights import _simplices

SIMPLICES = list(_simplices())
SHRINK_GAMMAS = (0.5, 0.3, 0.9)


def _running_sum_simplices():
    yield from SIMPLICES
    n = 16
    rng = np.random.default_rng(n)
    yield n, "origin", make_regular_simplex(np.zeros(n), 1.0, n)
    for centre in (1e3, 1e6):
        c = rng.uniform(-1.0, 1.0, n)
        c *= centre / np.abs(c).max()
        yield n, f"centre-{centre:.0e}", random_regular_simplex(n, rng,
                                                                center=c)


def gamma(k: int) -> Fraction:
    """Higham's gamma_k for u = 2^-53, exactly: k / (2^53 - k)."""
    return Fraction(k, 2 ** 53 - k)


def exact_rows(V) -> list[list[Fraction]]:
    return [[Fraction(float(x)) for x in row] for row in V]


def assert_within(got, want, bound, what):
    """|got_j - want_j| <= bound_j for every entry, in exact arithmetic."""
    for j, (g, w, b) in enumerate(zip(got, want, bound)):
        assert abs(Fraction(float(g)) - w) <= b, (what, j, float(g), float(w))


@pytest.mark.parametrize("n,where,s", SIMPLICES)
def test_centroid_lies_within_its_bound(n, where, s):
    # sum of m = n+1 rows, gamma_n, then one division: gamma_(n+1)
    m = n + 1
    X = exact_rows(s.vertices)
    cols = list(zip(*X))
    want = [sum(col) / m for col in cols]
    bound = [gamma(n + 1) * sum(map(abs, col)) / m for col in cols]
    assert_within(s.centroid(), want, bound, where)


@pytest.mark.parametrize("n,where,s", SIMPLICES)
def test_reflection_at_every_index_lies_within_its_bound(n, where, s):
    # x_r = -x_w + (2/n) sum_(j != w) x_j: a sum of n terms (gamma_(n-1)),
    # 2/n rounded, one product and the final addition: gamma_(n+2) of
    # |x_w| + (2/n) sum_(j != w) |x_j|
    X = exact_rows(s.vertices)
    k = Fraction(2, n)
    for w in range(n + 1):
        others = list(zip(*(row for i, row in enumerate(X) if i != w)))
        want = [-X[w][j] + k * sum(others[j]) for j in range(n)]
        bound = [gamma(n + 2) * (abs(X[w][j]) + k * sum(map(abs, others[j])))
                 for j in range(n)]
        assert_within(reflect_worst(s, w), want, bound, (where, w))


@pytest.mark.parametrize("n,where,s", SIMPLICES)
def test_shrink_toward_every_vertex_lies_within_its_bound(n, where, s):
    # x <- g x + (1 - g) b: 1 - g rounded, two products and one addition:
    # gamma_3 of |g x| + |(1 - g) b|; the kept vertex b is copied, and the
    # radius g delta is one product
    X = exact_rows(s.vertices)
    for g in SHRINK_GAMMAS:
        G = Fraction(g)
        for best in range(n + 1):
            s2 = shrink_toward_best(s, best, g)
            assert (s2.vertices[best] == s.vertices[best]).all()
            for i in range(n + 1):
                want = [G * x + (1 - G) * b for x, b in zip(X[i], X[best])]
                bound = [gamma(3) * (abs(G * x) + abs((1 - G) * b))
                         for x, b in zip(X[i], X[best])]
                assert_within(s2.vertices[i], want, bound, (where, g, best, i))
            radius = G * Fraction(s.radius)
            assert abs(Fraction(s2.radius) - radius) <= gamma(1) * radius



@pytest.mark.parametrize("n,where,s", list(_running_sum_simplices()))
def test_running_sum_centroid_and_reflection_lie_within_their_bounds(n, where,
                                                                     s):
    # The solver's T starts as the sum of the n+1 rows, and each accepted
    # reflection adds fl(x_r - x_w) to it: after t updates T is a rounded
    # summation tree of M = n+1+2t float terms, within gamma_(M-1) of the
    # sum of their magnitudes W.  The centroid T/(n+1) is one division
    # more: gamma_M W/(n+1).  The reflection (2/n)(T - x_w) - x_w adds the
    # term -x_w (gamma_M of W + |x_w|), 2/n rounded and one product
    # (gamma_(M+2)) and the final subtraction: gamma_(M+3) of
    # (2/n)(W + |x_w|) + |x_w|.  A re-sum after n+1 updates leaves a tree of
    # the n+1 current rows, all among the terms, so these bounds hold
    # across it.  The oracle reads the rows the state holds.
    rng = np.random.default_rng(n)
    state = SolverState(type(s)(s.vertices.copy(), radius=s.radius),
                        lambda x: float(rng.standard_normal()))
    m, k = n + 1, Fraction(2, n)
    M = m
    W = [sum(map(abs, col)) for col in zip(*exact_rows(s.vertices))]
    for t in range(n + 2):
        X = exact_rows(state.simplex.vertices)
        total = [sum(col) for col in zip(*X)]
        bound = [gamma(M) * a / m for a in W]
        assert_within(state.centroid(), [x / m for x in total], bound,
                      (where, t))
        x_w = X[int(state.order[n])]
        want = [k * (a - b) - b for a, b in zip(total, x_w)]
        bound = [gamma(M + 3) * (k * (a + abs(b)) + abs(b))
                 for a, b in zip(W, x_w)]
        x_r = state.reflection()
        assert_within(x_r, want, bound, (where, t))
        W = [a + abs(b) + abs(Fraction(float(r)))
             for a, b, r in zip(W, x_w, x_r)]
        M += 2
        state.accept(x_r, float(rng.standard_normal()))
