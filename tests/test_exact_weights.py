"""The affine weights against an exact rational oracle.

The oracle solves sum_i w_i = 1, sum_i w_i x_i = x in fractions.Fraction on
the float vertices and the float query, so its weights are exactly those of
the rounded inputs.  Both paths of ``lagrange_coefficients`` -- the
certified closed form (``_frame_weights``) and the guarded solve of
``_affine_system`` -- are held to one a-priori bound on their distance from
it (``weight_error_bound``).  n stays at most 8, where one exact solve takes
a few milliseconds.

The same oracle gives G exactly, against which the certified two-cluster
form of G (``GMatrix._two_cluster``) is held to its threshold.
"""

from fractions import Fraction

import numpy as np
import pytest

from rssm.interpolation import (EIG_ZERO_RTOL, _FRAME_TOL, _frame_weights,
                                _solve_guarded, g_matrix,
                                lagrange_coefficients, query_point)
from rssm.simplex import _affine_system, _unit_frame, make_regular_simplex

from conftest import random_regular_simplex

U = np.finfo(float).eps / 2


def exact_weights(V: np.ndarray, x: np.ndarray) -> list[Fraction]:
    """The affine weights of x through the rows of V, in exact arithmetic
    (Gauss-Jordan elimination on the (n+1) x (n+2) augmented system)."""
    m = V.shape[0]
    rows = [[Fraction(1)] * m + [Fraction(1)]]
    rows += [[Fraction(float(v)) for v in V[:, j]] + [Fraction(float(x[j]))]
             for j in range(V.shape[1])]
    for col in range(m):
        piv = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[piv] = rows[piv], rows[col]
        p = rows[col][col]
        rows[col] = [a / p for a in rows[col]]
        for r in range(m):
            f = rows[r][col]
            if r != col and f != 0:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [row[m] for row in rows]


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u)."""
    return k * U / (1.0 - k * U)


def weight_error_bound(s, x, w_exact) -> float:
    """A-priori bound on ||w - w*||_2 for the weights w of either path.

    In the unit frame the system is A w = b, A = [1'; Y'], b = (1, q),
    with ||A||_F = sqrt(2(n+1)) and, on a simplex the closed form
    certifies, ||A^-1||_2 <= 1.  The closed form's error is then at most
    (each term a bound on ||M|| times a perturbation, ||M||_2 <= 1):
      * the frame and q, one subtraction and one division per entry:
        gamma_2 (||A||_F ||w*|| + ||b||);
      * the residual b - A w0, dot products of n+1 terms and one
        subtraction: gamma_(n+2) (||A||_F ||w*|| + ||b||);
      * the truncation of one correction, M F^2 (I - F)^-1 b with
        ||F||_2 <= sqrt(u): u ||b|| (1 + O(sqrt u));
      * the final addition: u ||w*||.
    Together at most gamma_(n+5) (||A||_F ||w*|| + ||b||), with a factor
    1.01 for the O(sqrt u) terms.  The partially pivoted LU solve is
    normwise backward stable with a small growth factor on these
    well-conditioned systems, and is held to the same bound.
    """
    n = s.dim
    c = s.vertices.sum(axis=0) / (n + 1)
    q = (x - c) / s.radius
    w_norm = float(np.linalg.norm([float(w) for w in w_exact]))
    b_norm = float(np.sqrt(1.0 + q @ q))
    return 1.01 * gamma(n + 5) * (np.sqrt(2.0 * (n + 1)) * w_norm + b_norm)


def _simplices():
    for n in (1, 2, 4, 8):
        rng = np.random.default_rng(n)
        yield n, "origin", make_regular_simplex(np.zeros(n), 1.0, n)
        yield n, "rotated", random_regular_simplex(n, rng)
        for centre in (1e3, 1e6):
            c = rng.uniform(-1.0, 1.0, n)
            c *= centre / np.abs(c).max()
            yield n, f"centre-{centre:.0e}", random_regular_simplex(n, rng,
                                                                    center=c)


def _queries(s):
    rng = np.random.default_rng(s.dim)
    yield "reflection", query_point(s, "reflection")
    yield "centroid", query_point(s, "centroid")
    yield "shrink", query_point(s, "shrink", gamma=0.3)
    # an extrapolation two radii out in a random direction
    d = rng.standard_normal(s.dim)
    yield "random", s.centroid() + 2.0 * s.radius * d / np.linalg.norm(d)


def _error(w, w_exact) -> float:
    return float(sum((Fraction(float(a)) - b) ** 2
                     for a, b in zip(w, w_exact))) ** 0.5


@pytest.mark.parametrize("n,where,s", list(_simplices()))
def test_both_weight_paths_lie_within_the_bound_of_the_exact_weights(n, where,
                                                                    s):
    for kind, x in _queries(s):
        w_exact = exact_weights(s.vertices, x)
        bound = weight_error_bound(s, x, w_exact)
        fast = _frame_weights(s, x)
        assert fast is not None, (where, kind)  # these all certify
        np.testing.assert_array_equal(lagrange_coefficients(s, x).ell[1:],
                                      fast)
        c, scale, A = _affine_system(s)
        solved = _solve_guarded(A, np.concatenate([[1.0], (x - c) / scale]))
        assert _error(fast, w_exact) <= bound, (where, kind)
        assert _error(solved, w_exact) <= bound, (where, kind)


def test_the_oracle_solves_a_hand_example():
    # x = (0.25, 0.5) in the triangle (0,0), (1,0), (0,1): w = (0.25, 0.25, 0.5)
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert exact_weights(V, np.array([0.25, 0.5])) == [
        Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]


def test_a_re_centred_frame_keeps_the_weights_within_the_bound():
    # at ||c||/delta = 4e6 and n = 8 the rounded centroid leaves the frame's
    # column sums beyond the certificate; re-centred on its column means,
    # the frame certifies, and its weights are those of the rounded vertices
    n = 8
    rng = np.random.default_rng(n)
    c = rng.uniform(-1.0, 1.0, n)
    c *= 4e6 / np.abs(c).max()
    s = random_regular_simplex(n, rng, center=c)
    Y = _unit_frame(s, s.centroid())
    assert not n / (n + 1) * np.abs(Y.sum(axis=0)).max() <= _FRAME_TOL / (n + 1)
    for kind, x in _queries(s):
        w_exact = exact_weights(s.vertices, x)
        fast = _frame_weights(s, x)
        assert fast is not None, kind
        assert _error(fast, w_exact) <= weight_error_bound(s, x, w_exact), kind


def _exact_g(V, x, w):
    """G = sum_i w_i (v_i - x)(v_i - x)' in exact arithmetic."""
    rows = [[Fraction(float(a)) - Fraction(float(b)) for a, b in zip(v, x)]
            for v in V]
    n = len(x)
    return [[sum(wi * r[i] * r[j] for wi, r in zip(w, rows)) for j in range(n)]
            for i in range(n)]


@pytest.mark.parametrize("n,where,s", [c for c in _simplices()
                                       if c[1] != "centre-1e+06"])
def test_the_two_cluster_form_of_g_lies_within_its_threshold(n, where, s):
    # With u, lam_u, lam_c as certified, G_cf = lam_c I + (lam_u - lam_c) uu'
    # has the eigenvalues lam_c and lam_u + (lam_u - lam_c)(||u||^2 - 1), so
    # each eigenvalue of a G is within n ||G - G_cf||max + 2m |||u||^2 - 1|
    # of its cluster value (Weyl), m = max(|lam_u|, |lam_c|).  The
    # certificate promises that this is at most EIG_ZERO_RTOL m / 2, for the
    # assembled G and for the exact G of the rounded vertices alike, and that
    # its float margin 16(n+1)u m covers the rounding of E = G - G_cf.
    for kind, x in list(_queries(s))[:3]:
        g = g_matrix(s, x)
        if n == 1:
            assert g._two_cluster is None  # no complement to average
            continue
        assert g._two_cluster is not None, kind
        u, lam_u, lam_c = g._two_cluster
        m = max(abs(lam_u), abs(lam_c))
        uf = [Fraction(float(a)) for a in u]
        gap = Fraction(lam_u) - Fraction(lam_c)
        cf = [[(Fraction(lam_c) if i == j else 0) + gap * uf[i] * uf[j]
               for j in range(n)] for i in range(n)]
        spread = 2 * Fraction(m) * abs(sum(a * a for a in uf) - 1)
        E = g.matrix - lam_c * np.eye(n) - (lam_u - lam_c) * np.outer(u, u)
        margin = n * float(np.abs(E).max()) + 16 * (n + 1) * U * m

        def weyl(G):
            return n * max(abs(G[i][j] - cf[i][j])
                           for i in range(n) for j in range(n)) + spread

        assembled = weyl([[Fraction(float(a)) for a in row] for row in g.matrix])
        exact = weyl(_exact_g(s.vertices, x, exact_weights(s.vertices, x)))
        assert assembled <= Fraction(margin), kind
        half = Fraction(0.5 * EIG_ZERO_RTOL * m)
        assert assembled <= half and exact <= half, (kind, float(exact))
