"""Centroid, reflection and shrink against an exact rational oracle.

Each kernel is recomputed in fractions.Fraction on its float inputs, so the
oracle's value is exactly that of the rounded vertices, and the float
result is held to an a-priori bound on its distance from it, entry by
entry, in the gamma_k = k u / (1 - k u) form of Higham, "Accuracy and
Stability of Numerical Algorithms", 2nd ed. (2002), ch. 3: a sum of m
terms, in any order, is within gamma_(m-1) of the sum of their magnitudes,
and each further rounded operation adds one to k.  The bounds are compared
in exact arithmetic too.  The simplices are those of the weights oracle:
n <= 8, at the origin, rotated, and at centres 1e3 and 1e6.
"""

from fractions import Fraction

import pytest

from rssm.simplex import reflect_worst, shrink_toward_best

from test_exact_weights import _simplices

SIMPLICES = list(_simplices())
SHRINK_GAMMAS = (0.5, 0.3, 0.9)


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

