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
running-sum centroid and reflection are also held at n = 16, and so is
the closed-form simplex gradient, with three sets of vertex values, both
as ``regular_simplex_gradient`` forms it and as the solver's running
moment does after up to n+1 updates, the latter also along a walk to a
near-stationary point.  The solver's distortion budget is held, at the
end, to every exact squared edge and squared radius of the float vertices
along random walks of reflections and shrinks.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from rssm.simplex import (_frame_regularity, _unit_frame,
                          make_regular_simplex, reflect_worst,
                          regular_simplex_gradient, shrink_toward_best)
from rssm.objectives import builtin
from rssm.solver import SolverConfig, SolverState, run

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
    # The solver's T0 starts as the sum of the n+1 offsets fl(x_i - x0)
    # about the best vertex x0, and each accepted reflection adds
    # fl(x_r - x_w) to it: after t updates T0 is a rounded summation tree
    # of K = n+1+t terms, each one rounding from its exact value, within
    # gamma_K of W, the sum of those values' magnitudes.  The centroid
    # fl(x0 + fl(T0/(n+1))) adds the division and the add of x0: within
    # u |x0| + gamma_(K+2) W/(n+1).  The reflection
    # fl(x0 + fl(fl(fl(2/n) fl(T0 - u_w)) - u_w)), u_w = fl(x_w - x0), adds
    # the term -u_w (gamma_(K+1) of W + |u_w|), 2/n rounded and one product,
    # the subtraction of u_w and the add of x0: within u |x0| +
    # gamma_(K+5) ((2/n)(W + |u_w|) + |u_w|).  A re-sum after n+1 updates
    # starts a new tree about the new x0.  The oracle reads the rows the
    # state holds.  In norm the state's reach R = ||x0|| + a delta bounds
    # both errors: the centroid's by u R and the reflection's e by u R
    # (n+1)/n, u R / delta bounding the norm ||e|| n/((n+1) delta) of the
    # rank-one change e w^T it makes to the budget's map.
    rng = np.random.default_rng(n)
    state = SolverState(type(s)(s.vertices.copy(), radius=s.radius),
                        lambda x: float(rng.standard_normal()))
    m, k, u = n + 1, Fraction(2, n), Fraction(1, 2 ** 53)
    for t in range(n + 2):
        X = exact_rows(state.simplex.vertices)
        x0 = exact_rows([state._x0])[0]
        if state._updates == 0:  # a re-sum: the n+1 offsets about x0
            K = m
            W = [sum(abs(a - b) for a in col) for col, b in zip(zip(*X), x0)]
        R = Fraction(state._reach)
        want = [sum(col) / m for col in zip(*X)]
        bound = [u * abs(b) + gamma(K + 2) * a / m for a, b in zip(W, x0)]
        c = state.centroid()
        assert_within(c, want, bound, (where, t))
        assert squared_distance(c, want) <= (u * R) ** 2
        x_w = X[int(state.order[n])]
        u_w = [a - b for a, b in zip(x_w, x0)]
        want = [k * (sum(col) - b) - b for col, b in zip(zip(*X), x_w)]
        bound = [u * abs(o) + gamma(K + 5) * (k * (a + abs(b)) + abs(b))
                 for a, b, o in zip(W, u_w, x0)]
        x_r = state.reflection()
        assert_within(x_r, want, bound, (where, t))
        assert squared_distance(x_r, want) * Fraction(n, n + 1) ** 2 <= \
            (u * R) ** 2
        W = [a + abs(Fraction(float(r)) - b)
             for a, b, r in zip(W, x_w, x_r)]
        K += 1
        state.accept(x_r, float(rng.standard_normal()))


def _values(s):
    """Vertex values by name: standard normal; the same far above their
    spread; and a quadratic whose minimiser lies 1e-6 radii from the
    centroid, where the gradient nearly vanishes."""
    rng = np.random.default_rng(s.dim)
    noise = rng.standard_normal(s.dim + 1)
    yield "normal", noise
    yield "offset", 1e4 + 1e-2 * noise
    d = rng.standard_normal(s.dim)
    p = s.centroid() + 1e-6 * s.radius * d / np.linalg.norm(d)
    yield "near-stationary", np.array([float((x - p) @ (x - p))
                                       for x in s.vertices])


def closed_form_gradient(X, F, radius) -> list[Fraction]:
    """n/((n+1) delta^2) sum_i (f_i - mean f)(x_i - c), c the centroid, in
    exact arithmetic on the rows X and values F (Fractions) and the float
    radius: the gradient of the affine interpolant of a regular simplex."""
    m = len(X)
    mean = sum(F) / m
    scale = Fraction(m - 1, m) / Fraction(radius) ** 2
    return [scale * sum((f - mean) * (x - sum(col) / m)
                        for f, x in zip(F, col)) for col in zip(*X)]


def frame_gradient_case(s, f):
    """The oracle of regular_simplex_gradient(s, f) and its bound, entry by
    entry.

    regular_simplex_gradient forms the centroid c~ (gamma_(n+1) of
    sum_i |x_ij| / (n+1)) and the mean m~ (gamma_(n+1) of
    sum_i |f_i| / (n+1)), the frame (x_ij - c~_j) / delta (two roundings),
    f_i - m~ (one), their dot product over n+1 vertices (gamma_(n+1)), and
    then scales it by the rounded n/(n+1) and divides by delta (three
    roundings): each term is within gamma_(n+7) of exact.  Because the
    f_i - mean f sum to zero, and the x_i - c too, the exact sum with c~ and
    m~ in place of c and the mean differs from the oracle's only by
    (n+1)(mean - m~)(c_j - c~_j).  So entry j lies within
      n/((n+1) delta^2) (gamma_(n+7) W_j + (n+1) e_m e_j),
    W_j = sum_i |x_ij - c~_j| |f_i - m~|, e_m and e_j the two a-priori
    bounds above.
    """
    n = s.dim
    m = n + 1
    X = exact_rows(s.vertices)
    F = [Fraction(float(v)) for v in f]
    c = [Fraction(float(x)) for x in s.centroid()]
    mean = Fraction(float(f.mean()))
    e_m = gamma(m) * sum(map(abs, F)) / m
    scale = Fraction(n, m) / Fraction(s.radius) ** 2
    bound = [scale * (gamma(n + 7) * sum(abs(x - cj) * abs(v - mean)
                                         for x, v in zip(col, F))
                      + e_m * gamma(m) * sum(map(abs, col)))
             for col, cj in zip(zip(*X), c)]
    return closed_form_gradient(X, F, s.radius), bound


@pytest.mark.parametrize("n,where,s", list(_running_sum_simplices()))
def test_closed_form_gradient_lies_within_its_bound(n, where, s):
    for name, f in _values(s):
        want, bound = frame_gradient_case(s, f)
        assert_within(regular_simplex_gradient(s, f), want, bound,
                      (where, name))


def test_an_uncentred_closed_form_fails_its_bound():
    # Y^T f in place of Y^T (f - m~) multiplies the residue of Y^T 1 by the
    # mean value: far outside the bound once the values sit far above their
    # spread
    n, _, s = next(case for case in _running_sum_simplices()
                   if case[:2] == (4, "centre-1e+03"))
    f = dict(_values(s))["offset"]
    Y = _unit_frame(s, s.centroid())
    uncentred = (Y.T @ f) * (n / (n + 1.0)) / s.radius
    want, bound = frame_gradient_case(s, f)
    with pytest.raises(AssertionError):
        assert_within(uncentred, want, bound, "uncentred")


def _sqrt_between(q: Fraction) -> tuple[Fraction, Fraction]:
    """Rationals lo <= sqrt(q) <= hi, 2^-200 apart, for a Fraction q >= 0."""
    r = math.isqrt(q.numerator * 4 ** 200 // q.denominator)
    return Fraction(r, 2 ** 200), Fraction(r + 1, 2 ** 200)


def assert_norm_within(got, want, bound, k, what):
    """|got - ||want||| <= (1 + gamma_k) ||bound|| + gamma_k ||want||, in
    exact arithmetic, for a float norm `got` computed from a vector within
    `bound` of `want`, entry by entry, with k roundings of its own."""
    lo, hi = _sqrt_between(sum(w * w for w in want))
    slack = (1 + gamma(k)) * _sqrt_between(sum(b * b for b in bound))[1]
    got = Fraction(float(got))
    assert (1 - gamma(k)) * lo - slack <= got <= (1 + gamma(k)) * hi + slack, \
        (what, float(got), float(hi))


class MomentOracle:
    """Follows a SolverState's running moment P, shifted sum T0 and value
    excess s/delta through its accepted reflections, shrinks and re-bases,
    and
    holds them at any loop top to an a-priori bound against the exact
    closed-form gradient of the state's float vertices and values.

    Since its last re-base at x0, f0 (the best vertex and value), each of
    P, T0 and s/delta is a rounded summation tree: the n+1 re-base terms
    (f_i - f0)(x_i - x0)/delta, x_i - x0 and (f_i - f0)/delta, and, for
    each of k accepted reflections of x_w (value f_w) to x_r (value f_r),
    d = x_r - x_w, the terms (f_r - f0) d/delta and
    (f_r - f_w)(x_w - x0)/delta, d and (f_r - f_w)/delta.  Each term is
    formed with at most 4, 1 and 2 roundings, and M terms are summed
    (gamma_(M-1)), so with A, B delta and C/delta the sums of the terms'
    magnitudes
      |P - P*| <= gamma_(n+2k+4) A,  |T0 - T0*| <= gamma_(n+k+1) B delta,
      |s/delta - s*/delta| <= gamma_(n+k+2) C/delta.
    The centred moment h = fl(P - fl(fl(s/delta/(n+1)) T0)) adds the
    division, the product and the subtraction, so with gamma_i + gamma_j +
    gamma_i gamma_j <= gamma_(i+j), entry by entry
      |h - h*| <= gamma_(2(n+k)+6) (A + C B/(n+1)),
    h* = P* - (s*/((n+1) delta)) T0* = sum_i (f_i - mean f)(x_i - x0)/delta,
    the exact gradient times (n+1) delta / n.  The norm sqrt(v.v) n/(n+1),
    v = h/delta, adds gamma_(n+4) of itself.
    """

    def __init__(self, state):
        self.state = state
        self._rebase()

    def _rebase(self):
        st = self.state
        X = exact_rows(st.simplex.vertices.take(st.order, axis=0))
        F = [Fraction(float(v)) for v in st.values]
        x0, f0 = X[0], F[0]
        delta = Fraction(st.simplex.radius)
        self.A = [sum(abs(f - f0) * abs(x[j] - x0[j]) for x, f in zip(X, F))
                  / delta for j in range(len(x0))]
        self.B = [sum(abs(x[j] - x0[j]) for x in X) / delta
                  for j in range(len(x0))]
        self.C = sum(abs(f - f0) for f in F)
        self.k = 0

    def accept(self, x_r, f_r):
        st = self.state
        x_w = exact_rows([st.simplex.vertices[st.order[-1]]])[0]
        x0 = exact_rows([st._x0])[0]
        R, f_w, f0 = exact_rows([x_r])[0], Fraction(float(st.values[-1])), \
            Fraction(st._f0)
        f_r_ = Fraction(float(f_r))
        delta = Fraction(st.simplex.radius)
        for j, (r, w, o) in enumerate(zip(R, x_w, x0)):
            self.A[j] += (abs(f_r_ - f0) * abs(r - w)
                          + abs(f_r_ - f_w) * abs(w - o)) / delta
            self.B[j] += abs(r - w) / delta
        self.C += abs(f_r_ - f_w)
        self.k += 1
        st.accept(x_r, f_r)
        if st._updates == 0:  # the (n+1)-th accept re-sums and re-bases
            self._rebase()

    def shrink(self, g):
        self.state.shrink(g)
        self._rebase()

    def exact(self):
        """h* and the exact gradient of the state's vertices and values."""
        st = self.state
        n = st.simplex.dim
        X = exact_rows(st.simplex.vertices)
        F = [Fraction(float(v)) for v in st.values]
        F = [F[list(st.order).index(i)] for i in range(n + 1)]  # by slot
        g = closed_form_gradient(X, F, st.simplex.radius)
        scale = Fraction(n + 1, n) * Fraction(st.simplex.radius)
        return [scale * x for x in g], g

    def bound(self):
        n = self.state.simplex.dim
        return [gamma(2 * (n + self.k) + 6) * (a + self.C * b / (n + 1))
                for a, b in zip(self.A, self.B)]

    def check(self, what):
        st = self.state
        n = st.simplex.dim
        h, g = self.exact()
        bound = self.bound()
        assert_within(st._centred_moment(), h, bound, (what, self.k))
        scale = Fraction(n, n + 1) / Fraction(st.simplex.radius)
        assert_norm_within(st._gradient_norm(), g, [scale * b for b in bound],
                           n + 4, (what, self.k))


@pytest.mark.parametrize("n,where,s", list(_running_sum_simplices()))
def test_running_moment_gradient_lies_within_its_bound(n, where, s):
    # at every loop top of a walk through n+1 accepted reflections (the
    # last re-sums and re-bases), a shrink and n more, with normal values
    # and with values far above their spread
    for name, offset in (("normal", 0.0), ("offset", 1e4)):
        rng = np.random.default_rng(n)

        def value(x):
            return offset + float(rng.standard_normal()) * (1e-2 if offset
                                                            else 1.0)

        oracle = MomentOracle(SolverState(
            type(s)(s.vertices.copy(), radius=s.radius), value))
        for step in range(2 * n + 3):
            oracle.check((where, name, step))
            if step == n + 1:
                oracle.shrink(0.5)
            else:
                x_r = oracle.state.reflection()
                oracle.accept(x_r, value(x_r))
        oracle.check((where, name, "end"))


def walk_near_stationary(check=True):
    """damped-sine at n = 3 from 1.3, stepped as the solver's practical
    mode steps it, down to a gradient below 1e-7 and to a regularity
    failure:
    each loop top's moment held to its bound (when `check`).  Returns the
    steps, as a string of r and s."""
    n, eta = 3, 1e-3
    obj = builtin("damped-sine", n)
    oracle = MomentOracle(SolverState(
        make_regular_simplex(np.full(n, 1.3), 1.0, n), obj))
    st = oracle.state
    steps = ""
    while len(steps) < 66:
        if check:
            oracle.check(("damped-sine", len(steps)))
        f_w = float(st.values[-1])
        x_r = st.reflection()
        f_r = st.evaluate(x_r)
        if f_r - f_w <= -eta * st.simplex.radius ** 2:
            oracle.accept(x_r, f_r)
            steps += "r"
        else:
            oracle.shrink(0.5)
            steps += "s"
    if check:
        oracle.check(("damped-sine", len(steps)))
    return steps


def test_running_moment_gradient_near_a_stationary_point():
    # the walk is the one run takes: its 66 steps, then a regularity failure
    trace = run(builtin("damped-sine", 3),
                SolverConfig(n=3, stopping="none", center=1.3))
    assert trace.reason == "regularity-failure"
    assert walk_near_stationary() == "".join(r.step[0] for r in trace.records)
    assert min(r.simplex_gradient_norm for r in trace.records) < 1e-7


# The distortion budget kappa of the solver's loop (see SolverState) bounds
# ||A^T A - I|| for the affine map A y + b that takes a regular simplex of
# the stored radius onto the float vertices, so every exact squared edge
# lies within a factor 1 +- kappa of 2(1 + 1/n) delta^2 and every exact
# squared radius about the exact centroid within 1 +- kappa of delta^2.
# The oracle checks both on the float vertices in exact arithmetic, along
# random walks of accepted reflections and shrinks from kappa anchored by an
# exact report: of the constructed simplex, as run anchors it, and of a
# simplex stretched along one vertex so that its radius deviates more than
# any edge.


def exact_ints(A):
    """Python ints I and a shift k with A[i, j] == I[i][j] / 2**k exactly."""
    mant, exp = np.frexp(A)
    M = (mant * 2.0 ** 53).astype(np.int64)  # the 53-bit significands
    E = exp.astype(np.int64) - 53
    k = -int(E[M != 0].min(initial=0))
    return [[int(m) << int(e + k) if m else 0 for m, e in zip(rm, re)]
            for rm, re in zip(M, E)], k


def distortion_ratio(state) -> Fraction:
    """max |q / ideal - 1| over the exact squared edges and squared radii q
    of the state's float vertices, over its kappa: at most 1 where kappa
    bounds them.  The ideals are 2(1 + 1/n) delta^2 and delta^2 for the
    stored radius delta, the radii are about the exact centroid, and the
    vertices are I / 2^k in ints, so each ratio is an exact quotient of
    ints."""
    I, k = exact_ints(state.simplex.vertices)
    m = len(I)
    n = m - 1
    p, q = state.simplex.radius.as_integer_ratio()  # delta = p / q
    total = [sum(col) for col in zip(*I)]
    # m^2 4^k ||x_a - c||^2 and 4^k ||x_a - x_b||^2
    radii = [sum((m * a - t) ** 2 for a, t in zip(row, total)) for row in I]
    edges = [sum((a - b) ** 2 for a, b in zip(I[i], I[j]))
             for i in range(m) for j in range(i + 1, m)]
    unit = 4 ** k * p * p
    devs = [Fraction(r * q * q, m * m * unit) - 1 for r in (min(radii),
                                                            max(radii))]
    if edges:
        devs += [Fraction(d * n * q * q, 2 * m * unit) - 1
                 for d in (min(edges), max(edges))]
    return max(map(abs, devs)) / Fraction(state._kappa)


def _stretched(s, stretch):
    """s with its vertices moved by stretch * v v^T (x - c), v the direction
    of its first vertex from the centroid c: its squared radius deviates by
    about 2 stretch, its squared edges by at most (1 + 1/n) stretch."""
    c = s.centroid()
    Y = s.vertices - c
    v = Y[0] / np.linalg.norm(Y[0])
    return type(s)(c + Y + stretch * np.outer(Y @ v, v), radius=s.radius)


def _anchored(n, centre, anchor, rng):
    """A SolverState with kappa anchored from the exact report of the
    constructed simplex ("report", as run anchors it) or of a stretched
    one ("stretched")."""
    s = make_regular_simplex(np.full(n, centre), 1.0, n)
    if anchor == "stretched":
        s = _stretched(s, 1e-8)
    state = SolverState(s, lambda x: float(rng.standard_normal()))
    state._anchor(_frame_regularity(_unit_frame(s, s.centroid())))
    return state


def distortion_walk(n, centre, anchor, steps):
    """The largest distortion ratio along a walk of `steps` random steps
    from an anchor: an accepted reflection in 4 steps of 5, otherwise a
    shrink by 0.5, 0.3 or 0.9."""
    rng = np.random.default_rng(n)
    state = _anchored(n, centre, anchor, rng)
    worst = distortion_ratio(state)
    for _ in range(steps):
        if rng.random() < 0.8:
            state.accept(state.reflection(), float(rng.standard_normal()))
        else:
            state.shrink(float(rng.choice(SHRINK_GAMMAS)))
        worst = max(worst, distortion_ratio(state))
    return worst


@pytest.mark.parametrize("anchor", ["report", "stretched"])
@pytest.mark.parametrize("centre", [0.0, 1e3, 1e6])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
def test_the_distortion_budget_bounds_every_squared_edge_and_radius(
        n, centre, anchor):
    assert distortion_walk(n, centre, anchor, 60) <= 1
