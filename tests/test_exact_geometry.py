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
running-sum centroid and reflection are also held at n = 16.  The two
affine identities the solver's drift budget rests on are checked in exact
arithmetic at the end.
"""

from fractions import Fraction

import numpy as np
import pytest

from rssm.simplex import make_regular_simplex, reflect_worst, shrink_toward_best
from rssm.solver import SolverState, _drift_constants

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


def squared_distance(got, want) -> Fraction:
    """||got - want||^2 in exact arithmetic, for floats got."""
    return sum((Fraction(float(g)) - w) ** 2 for g, w in zip(got, want))


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
    # across it.  The oracle reads the rows the state holds.  In norm, with
    # at most 3(n+1) terms of norm at most R (the state's R^2), the drift
    # budget's constants bound both errors: the centroid's by c R and the
    # reflection's by r R times the ideal edge over delta, sqrt(2(1+1/n)).
    rng = np.random.default_rng(n)
    state = SolverState(type(s)(s.vertices.copy(), radius=s.radius),
                        lambda x: float(rng.standard_normal()))
    m, k = n + 1, Fraction(2, n)
    M = m
    W = [sum(map(abs, col)) for col in zip(*exact_rows(s.vertices))]
    _, _, centring, rounding, _ = map(Fraction, _drift_constants(n))
    for t in range(n + 2):
        X = exact_rows(state.simplex.vertices)
        total = [sum(col) for col in zip(*X)]
        bound = [gamma(M) * a / m for a in W]
        c = state.centroid()
        assert_within(c, [x / m for x in total], bound, (where, t))
        R2 = Fraction(state._norm2)
        assert squared_distance(c, [x / m for x in total]) <= \
            centring ** 2 * R2
        x_w = X[int(state.order[n])]
        want = [k * (a - b) - b for a, b in zip(total, x_w)]
        bound = [gamma(M + 3) * (k * (a + abs(b)) + abs(b))
                 for a, b in zip(W, x_w)]
        x_r = state.reflection()
        assert_within(x_r, want, bound, (where, t))
        assert squared_distance(x_r, want) <= \
            rounding ** 2 * R2 * 2 * (1 + Fraction(1, n))
        W = [a + abs(b) + abs(Fraction(float(r)))
             for a, b, r in zip(W, x_w, x_r)]
        M += 2
        state.accept(x_r, float(rng.standard_normal()))


# The drift budget of the solver's loop rests on two affine identities.
# For a point p = sum_j a_j x_j with sum_j a_j = 1,
#   ||p - x_k||^2 = sum_j a_j d_jk - (1/2) sum_(i,j) a_i a_j d_ij,
# d_ij = ||x_i - x_j||^2, so each squared edge of the reflection (a_j = 2/n
# for j != w, a_w = -1) and each squared radius about the centroid
# (a_j = 1/(n+1)) is a fixed combination of the old squared edges.  In
# units of the ideal squared edge and squared radius the coefficients sum
# to 1, so the relative deviation grows at most by the sum of their
# magnitudes: A_n for an edge, (3n - 1)/(n + 1) for a radius.


def _edge_coefficients(a, k):
    """The coefficient of each d_ij, i < j, in ||sum_j a_j x_j - x_k||^2."""
    c = {}
    m = len(a)
    for j in range(m):
        if j != k:
            key = (min(j, k), max(j, k))
            c[key] = c.get(key, 0) + a[j]
    for i in range(m):
        for j in range(i + 1, m):
            c[(i, j)] = c.get((i, j), 0) - a[i] * a[j]
    return c


def _check_identity(a, k, c, n, rng):
    """The coefficients reproduce ||p - x_k||^2 exactly on random rational
    points."""
    X = [[Fraction(int(v), 64) for v in rng.integers(-640, 640, n)]
         for _ in range(len(a))]
    p = [sum(aj * x[i] for aj, x in zip(a, X)) for i in range(n)]

    def d(u, v):
        return sum((s - t) ** 2 for s, t in zip(u, v))

    assert d(p, X[k]) == sum(cij * d(X[i], X[j]) for (i, j), cij in c.items())


@pytest.mark.parametrize("n", range(1, 17))
def test_reflected_edge_coefficients_sum_to_one_and_a_n(n):
    # the worst vertex in the last slot; any other slot permutes the
    # coefficients
    rng = np.random.default_rng(n)
    a = [Fraction(2, n)] * n + [Fraction(-1)]
    A = Fraction(1) if n == 1 else 8 * (1 - Fraction(1, n)) ** 2 - 1
    growth = _drift_constants(n)[0]
    assert abs(Fraction(growth) - A) <= gamma(4) * A
    for k in range(n):
        c = _edge_coefficients(a, k)
        assert sum(c.values()) == 1
        assert sum(map(abs, c.values())) == A
    _check_identity(a, 0, _edge_coefficients(a, 0), n, rng)


@pytest.mark.parametrize("n", range(1, 17))
def test_centroid_radius_coefficients_sum_to_one_and_gower(n):
    # ||x_k - c||^2 / delta^2 = sum c_ij d_ij / l^2 with l^2 / delta^2 =
    # 2(n+1)/n: the coefficients times 2(n+1)/n
    rng = np.random.default_rng(n)
    m = n + 1
    a = [Fraction(1, m)] * m
    g = Fraction(3 * n - 1, n + 1)
    gower = _drift_constants(n)[1]
    assert abs(Fraction(gower) - g) <= gamma(3) * g
    unit = Fraction(2 * (n + 1), n)
    for k in range(m):
        c = _edge_coefficients(a, k)
        assert sum(c.values()) * unit == 1
        assert sum(map(abs, c.values())) * unit == g
    _check_identity(a, 0, _edge_coefficients(a, 0), n, rng)
