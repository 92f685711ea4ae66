"""The affine weights against an exact rational oracle.

The oracle solves sum_i w_i = 1, sum_i w_i x_i = x in fractions.Fraction on
the float vertices and the float query, so its weights are exactly those of
the rounded inputs.  Both paths of ``lagrange_coefficients`` -- the
certified closed form (``_frame_weights``) and the guarded solve of
``_affine_system`` -- are held to one a-priori bound on their distance from
it (``weight_error_bound``).  n stays at most 8, where one exact solve takes
a few milliseconds.
"""

from fractions import Fraction

import numpy as np
import pytest

from rssm.interpolation import (_frame_weights, _solve_guarded,
                                lagrange_coefficients, query_point)
from rssm.simplex import _affine_system, make_regular_simplex

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
