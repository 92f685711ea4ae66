"""Affine interpolation machinery: weights, G matrices, sharp bounds, mu."""

import math
import re

import numpy as np
import pytest

import rssm.interpolation
import rssm.simplex
from rssm.simplex import (RCOND_MIN, DegenerateSimplexError, Simplex,
                          _affine_system, _unit_frame, make_regular_simplex)
from rssm.interpolation import (
    GMatrix,
    QueryCoefficients,
    Quadratic,
    bound_report,
    error_bound,
    g_matrix,
    gradient_bound_report,
    interpolate,
    lagrange_coefficients,
    mu_certificate,
    nuclear_bound_from_g,
    query_point,
    simplex_gradient,
    worst_case_quadratic,
    _FRAME_TOL,
    _frame_weights,
)

from rssm.objectives import Objective

from conftest import haar_rotation, positive_count, random_regular_simplex


# ---------------------------------------------------------------------------
# Lagrange coefficients


def test_vertex_query_gives_unit_weight():
    s = make_regular_simplex(np.zeros(3), 1.0, 3)
    q = lagrange_coefficients(s, s.vertices[2])
    expected = np.zeros(5)
    expected[0] = -1.0
    expected[3] = 1.0
    np.testing.assert_allclose(q.ell, expected, atol=1e-10)


def test_centroid_query_weights_are_uniform():
    n = 4
    s = make_regular_simplex(np.zeros(n), 1.0, n)
    q = lagrange_coefficients(s, s.centroid())
    np.testing.assert_allclose(q.ell[1:], 1.0 / (n + 1), atol=1e-12)
    assert q.negative_index_set == (0,)
    assert q.positive_index_set == tuple(range(1, n + 2))


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_reflection_query_weights_and_partition(n):
    s = make_regular_simplex(np.zeros(n), 1.0, n)
    x_r = query_point(s, "reflection")  # reflects the last vertex
    q = lagrange_coefficients(s, x_r)
    np.testing.assert_allclose(q.ell[1:n + 1], 2.0 / n, atol=1e-10)
    assert q.ell[n + 1] == pytest.approx(-1.0, abs=1e-10)
    assert q.positive_index_set == tuple(range(1, n + 1))
    assert q.negative_index_set == (0, n + 1)
    # no weight is near zero: the two sets hold every index
    assert (set(q.positive_index_set) | set(q.negative_index_set)
            == set(range(len(q.ell))))


def test_weights_reproduce_query(rng):
    s = random_regular_simplex(5, rng)
    x = rng.standard_normal(5)
    q = lagrange_coefficients(s, x)
    assert q.ell[1:].sum() == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(q.ell[1:] @ s.vertices, x, atol=1e-9)


def test_degenerate_simplex_raises():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15]])
    s = Simplex(V, radius=1.0)
    with pytest.raises(DegenerateSimplexError):
        lagrange_coefficients(s, np.array([0.3, 0.3]))
    with pytest.raises(DegenerateSimplexError):
        simplex_gradient(s, [0.0, 1.0, 2.0])


# ---------------------------------------------------------------------------
# the certified closed form and its fallback


def _certificate_residual(s):
    """||I - A M||max of the closed form's approximate inverse M, in the
    frame re-centred on its column means when the centring block alone
    misses the certificate."""
    n = s.dim
    k = n / (n + 1.0)
    Y = _unit_frame(s, s.centroid())
    if not k * np.abs(Y.sum(axis=0)).max() <= _FRAME_TOL / (n + 1):
        Y = Y - Y.mean(axis=0)
    F = np.eye(n) - k * (Y.T @ Y)
    return max(np.abs(F).max(), k * np.abs(Y.sum(axis=0)).max())


def _certified_and_perturbed_simplices():
    for n in (1, 2, 3, 8, 32, 64):
        rng = np.random.default_rng(100 + n)
        for centre in (0.0, 3.0, 1e3, 1e6):
            radius = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
            c = centre * rng.standard_normal(n)
            s = random_regular_simplex(n, rng, radius=radius, center=c)
            yield s
            for size in (1e-13, 1e-11, 1e-9):
                V = s.vertices.copy()
                V[0] += size * radius * rng.standard_normal(n)
                yield Simplex(V, radius=radius)


def test_the_guard_cannot_fire_on_a_certified_simplex():
    # With F = I - A M (A = [1'; Y'], M = [1/(n+1), k Y], k = n/(n+1)):
    # A A' = (I - F) W^-1 with W = diag(1/(n+1), k I), so the affine
    # system D A of _affine_system (D = diag(1, rho), rho = delta / scale)
    # has squared singular values within a factor (1 -+ sqrt(n)||F||_2) of
    # those of D W^-1/2, whose ratio is rho^2 / n.  A certified F has
    # sqrt(n)||F||_2 <= sqrt(n u), and rho >= 1/max||y_i|| = 1 - O(sqrt u),
    # so rcond >= 0.99 / sqrt(n): at least 0.12 for n <= 64, eleven orders
    # above RCOND_MIN.
    certified = rejected = 0
    for s in _certified_and_perturbed_simplices():
        n = s.dim
        residual = _certificate_residual(s)
        if _frame_weights(s, s.centroid()) is None:
            assert not residual <= _FRAME_TOL / (n + 1)
            rejected += 1
            continue
        assert residual <= _FRAME_TOL / (n + 1)
        certified += 1
        sv = np.linalg.svd(_affine_system(s)[2], compute_uv=False)
        assert sv[-1] / sv[0] >= 0.99 / np.sqrt(n), n
        assert 0.99 / np.sqrt(n) > 1e10 * RCOND_MIN
    # the sweep reaches both sides of the certificate
    assert certified >= 40 and rejected >= 10, (certified, rejected)


def _flattened_simplex():
    # a regular simplex pressed into the plane x_3 = 0: the radius still
    # names a regular one, the vertices span no volume
    s = make_regular_simplex(np.zeros(3), 1.0, 3)
    V = s.vertices.copy()
    V[:, 2] = 0.0
    return Simplex(V, radius=1.0)


def _beyond_the_certificate():
    rng = np.random.default_rng(7)
    s = random_regular_simplex(4, rng, radius=1.0)
    V = s.vertices.copy()
    V[0] += 1e-6 * rng.standard_normal(4)
    yield "perturbed", Simplex(V, radius=1.0)
    c = rng.uniform(-1.0, 1.0, 8)
    c *= 1e8 / np.abs(c).max()
    yield "far-centre", random_regular_simplex(8, rng, radius=1.0, center=c)


@pytest.mark.parametrize("where,s", list(_beyond_the_certificate()))
def test_a_simplex_beyond_the_certificate_takes_the_guarded_solve(
        monkeypatch, where, s):
    assert not _certificate_residual(s) <= _FRAME_TOL / (s.dim + 1)
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    guards = _count_calls(monkeypatch, rssm.interpolation, "_check_nonsingular")
    for kind in ("reflection", "centroid", "shrink"):
        x = query_point(s, kind, gamma=0.3 if kind == "shrink" else None)
        assert _frame_weights(s, x) is None
        ell = lagrange_coefficients(s, x).ell
        assert ell[1:].sum() == pytest.approx(1.0, abs=1e-12)
        scale = np.abs(s.vertices).max()
        np.testing.assert_allclose(ell[1:] @ s.vertices, x,
                                   rtol=0, atol=1e-12 * scale)
    assert (solves["count"], guards["count"]) == (3, 3)


def test_a_degenerate_simplex_takes_the_guarded_solve_and_raises(monkeypatch):
    s = _flattened_simplex()
    # a null direction of Y puts an eigenvalue -1 in F: far beyond the
    # certificate, so the fast path never accepts a degenerate simplex
    assert _certificate_residual(s) >= 1.0 / (s.dim + 1)
    guards = _count_calls(monkeypatch, rssm.interpolation, "_check_nonsingular")
    assert _frame_weights(s, s.centroid()) is None
    with pytest.raises(DegenerateSimplexError):
        lagrange_coefficients(s, s.centroid())
    assert guards["count"] == 1


def _certify_simplex(n):
    """The simplex of one certify benchmark task: seeded, regular, rotated."""
    rng = np.random.default_rng(n)
    c, radius = 3.0 * rng.standard_normal(n), 0.7
    Q = haar_rotation(n, rng)
    s0 = make_regular_simplex(c, radius, n)
    return Simplex(c + (s0.vertices - c) @ Q, radius=radius)


def _all_reports(s, gamma=0.4, L=1.0):
    """The 3 query kinds x 2 classes on s, in the certify task's order."""
    return [bound_report(s, kind, cls, L,
                         gamma=gamma if kind == "shrink" else None)
            for kind in ("reflection", "centroid", "shrink")
            for cls in ("nonconvex", "convex")]


def _certify_task(n):
    """One task of the certify benchmark, whole: a seeded regular simplex,
    rotated, then the 3 query kinds x 2 classes."""
    return _all_reports(_certify_simplex(n))


@pytest.mark.parametrize("n", [8, 32, 64])
def test_a_certify_task_solves_no_affine_system(monkeypatch, n):
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    shapes = []
    check = rssm.simplex._check_nonsingular
    for module in (rssm.simplex, rssm.interpolation):
        monkeypatch.setattr(module, "_check_nonsingular",
                            lambda M: (shapes.append(M.shape), check(M))[1])
    reports = _certify_task(n)
    assert len(reports) == 6
    assert all(rep.attained and rep.mu.sharp for rep in reports)
    assert solves["count"] == 0
    # the mu certificate's (|I_-| - 1)-square block is the only guarded
    # matrix: the reflection's, once for both classes
    assert (n + 1, n + 1) not in shapes and shapes == [(1, 1)]


# ---------------------------------------------------------------------------
# simplex gradient and interpolation


def test_affine_function_recovered_exactly(rng):
    n = 4
    s = random_regular_simplex(n, rng)
    a = rng.standard_normal(n)
    b = 1.7
    values = s.vertices @ a + b
    np.testing.assert_allclose(simplex_gradient(s, values), a, atol=1e-9)
    for kind, gamma in (("reflection", None), ("centroid", None),
                        ("shrink", 0.35)):
        x = query_point(s, kind, gamma=gamma)
        scale = max(1.0, abs(a @ x + b))
        assert abs(interpolate(s, values, x) - (a @ x + b)) <= 1e-10 * scale


def test_constant_values_give_zero_gradient():
    s = make_regular_simplex(np.zeros(3), 2.0, 3)
    np.testing.assert_allclose(simplex_gradient(s, np.full(4, 3.3)), 0.0,
                               atol=1e-12)


def test_quadratic_gradient_error_within_theory():
    # for f = (L/2)||x||^2 the simplex gradient at the centroid is within
    # (sqrt(n)/2) L delta of the true gradient L*c
    n, L, delta = 5, 2.0, 0.6
    s = make_regular_simplex(np.full(n, 1.5), delta, n)
    values = [0.5 * L * v @ v for v in s.vertices]
    ghat = simplex_gradient(s, values)
    c = s.centroid()
    assert np.linalg.norm(ghat - L * c) <= np.sqrt(n) / 2 * L * delta + 1e-12


def test_value_count_validated():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    with pytest.raises(ValueError):
        simplex_gradient(s, [1.0, 2.0])


def test_interpolant_at_reflection_mirrors_worst_gap(rng):
    # f_hat(x_r) = 2*mean(best n values) - worst value
    n = 6
    s = random_regular_simplex(n, rng)
    values = rng.standard_normal(n + 1)
    x_r = query_point(s, "reflection")
    expected = 2.0 * values[:n].mean() - values[n]
    assert interpolate(s, values, x_r) == pytest.approx(expected, rel=1e-12,
                                                        abs=1e-12)


# ---------------------------------------------------------------------------
# G matrices


def test_centroid_g_is_scaled_identity():
    n, delta = 4, 0.9
    s = make_regular_simplex(np.zeros(n), delta, n)
    g = g_matrix(s, s.centroid())
    np.testing.assert_allclose(g.matrix, delta ** 2 / n * np.eye(n),
                               atol=1e-12)
    assert positive_count(g) == n
    assert g.negative_count() == 0


def test_reflection_g_eigenvalues_2d():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    g = g_matrix(s, query_point(s, "reflection"))
    np.testing.assert_allclose(g.eigenvalues, [1.5, -4.5], rtol=1e-9)
    assert g.nuclear_norm() == pytest.approx(6.0, rel=1e-9)


def test_shrink_g_is_rank_one_psd():
    s = make_regular_simplex(np.zeros(1), 1.0, 1)
    g = g_matrix(s, query_point(s, "shrink", gamma=0.5))
    assert positive_count(g) == 1
    assert g.negative_count() == 0
    assert np.trace(g.matrix) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("kind,gamma", [("reflection", None),
                                        ("centroid", None),
                                        ("shrink", 0.4)])
def test_eigenvalue_count_law(kind, gamma, rng):
    # positive/negative eigenvalue counts equal |I+|-1 and |I-|-1
    for _ in range(60):
        n = int(rng.integers(1, 9))
        s = random_regular_simplex(n, rng)
        x = query_point(s, kind, gamma=gamma)
        g = g_matrix(s, x)
        q = g.coefficients
        assert positive_count(g) == len(q.positive_index_set) - 1
        assert g.negative_count() == len(q.negative_index_set) - 1


def test_g_translation_invariance(rng):
    n = 3
    s = random_regular_simplex(n, rng, center=np.zeros(n))
    shift = rng.standard_normal(n) * 50.0
    s2 = Simplex(s.vertices + shift, radius=s.radius)
    x = query_point(s, "reflection")
    g1 = g_matrix(s, x)
    g2 = g_matrix(s2, x + shift)
    np.testing.assert_allclose(g1.matrix, g2.matrix, atol=1e-8)


# ---------------------------------------------------------------------------
# closed-form bounds


def test_error_bound_table():
    assert error_bound("reflection", "nonconvex", 2, 1.0, 1.0) == pytest.approx(3.0)
    assert error_bound("reflection", "convex", 2, 1.0, 1.0) == pytest.approx(2.25)
    assert error_bound("centroid", "nonconvex", 7, 2.0, 0.5) == pytest.approx(0.25)
    assert error_bound("shrink", "nonconvex", 1, 1.0, 1.0,
                       gamma=0.3) == pytest.approx(2 * 0.3 * 0.7)
    # scaling in L and delta^2
    assert error_bound("reflection", "nonconvex", 3, 10.0, 0.1) \
        == pytest.approx(10 * 0.01 * error_bound("reflection", "nonconvex", 3, 1.0, 1.0))


def test_error_bound_argument_validation():
    with pytest.raises(ValueError):
        error_bound("sideways", "nonconvex", 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        error_bound("reflection", "concave", 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        error_bound("shrink", "nonconvex", 2, 1.0, 1.0)  # missing gamma
    with pytest.raises(ValueError):
        error_bound("shrink", "nonconvex", 2, 1.0, 1.0, gamma=1.0)
    with pytest.raises(ValueError):
        error_bound("centroid", "nonconvex", 2, 1.0, 1.0, gamma=2.0)


@pytest.mark.parametrize("kind, cls, n, L, delta, gamma", [
    pytest.param("centroid", "convex", 2, 1.0, 1e200, None,
                 id="delta-squared"),
    pytest.param("reflection", "nonconvex", 3, 1e300, 1e10, None,
                 id="L-delta-squared"),
    pytest.param("reflection", "convex", 2, 1e308, 1.0, None,
                 id="coefficient-L"),
    pytest.param("shrink", "convex", 2, 1e300, 1e100, 0.5, id="shrink"),
])
def test_a_bound_beyond_the_doubles_is_a_named_value_error(kind, cls, n, L,
                                                          delta, gamma):
    with pytest.raises(ValueError, match=f"^the {kind} bound overflows the "
                                         "double range: bound inf$"):
        error_bound(kind, cls, n, L, delta, gamma=gamma)


def test_a_bound_near_the_top_of_the_doubles_is_returned():
    assert error_bound("centroid", "convex", 1, 2.0, 1e154) == 1e154 ** 2


def test_nuclear_bound_matches_closed_forms():
    n, L, delta = 2, 1.0, 1.0
    s = make_regular_simplex(np.zeros(n), delta, n)
    g = g_matrix(s, query_point(s, "reflection"))
    assert nuclear_bound_from_g(g, L, "nonconvex") == pytest.approx(3.0, rel=1e-9)
    assert nuclear_bound_from_g(g, L, "convex") == pytest.approx(2.25, rel=1e-9)
    gc = g_matrix(s, s.centroid())
    assert nuclear_bound_from_g(gc, L, "nonconvex") == pytest.approx(0.5, rel=1e-9)
    with pytest.raises(ValueError):
        nuclear_bound_from_g(g, L, "monotone")


# ---------------------------------------------------------------------------
# mu certificates


@pytest.mark.parametrize("n", range(1, 13))
def test_reflection_mu_entries_are_one_over_n(n):
    s = make_regular_simplex(np.zeros(n), 1.0, n)
    cert = mu_certificate(g_matrix(s, query_point(s, "reflection")))
    assert cert.available and cert.sharp
    # each positive vertex carries 1/n toward the reflected vertex and 1/n
    # toward the query
    for i in range(1, n + 1):
        assert cert.entries[(i, n + 1)] == pytest.approx(1.0 / n, abs=1e-10)
        assert cert.entries[(i, 0)] == pytest.approx(1.0 / n, abs=1e-10)
    assert len(cert.entries) == 2 * n


def test_centroid_mu_certificate():
    n = 5
    s = make_regular_simplex(np.zeros(n), 1.0, n)
    cert = mu_certificate(g_matrix(s, s.centroid()))
    assert cert.available and cert.sharp
    assert set(cert.entries) == {(i, 0) for i in range(1, n + 2)}
    for v in cert.entries.values():
        assert v == pytest.approx(1.0 / (n + 1), abs=1e-12)


def test_shrink_mu_certificate():
    s = make_regular_simplex(np.zeros(4), 1.0, 4)
    cert = mu_certificate(g_matrix(s, query_point(s, "shrink", gamma=0.3)))
    assert cert.available and cert.sharp
    assert cert.entries[(1, 0)] == pytest.approx(0.7, abs=1e-12)
    assert cert.entries[(5, 0)] == pytest.approx(0.3, abs=1e-12)
    assert len(cert.entries) == 2


def test_mu_to_dict_shape():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    d = mu_certificate(g_matrix(s, query_point(s, "reflection"))).to_dict()
    assert d["available"] and d["sharp"]
    assert "1,3" in d["entries"]


def _hand_built_g(eigenvalues, offsets):
    """A GMatrix at n = 3 with vertex weights (2, -0.5, -0.5, 0): I_+ = {1},
    I_- = {0, 2, 3}, so the M block needs two negative eigenvalues."""
    ell = np.array([-1.0, 2.0, -0.5, -0.5, 0.0])
    q = QueryCoefficients(ell=ell, positive_index_set=(1,),
                          negative_index_set=(0, 2, 3))
    # G = diag(w) takes eigh: no partition with two negative vertices has
    # the two-cluster form
    g = GMatrix(np.diag(eigenvalues), coefficients=q,
                offsets=np.asarray(offsets, dtype=float))
    assert g._two_cluster is None
    return g


def test_mu_unavailable_on_eigenspace_count_mismatch():
    g = _hand_built_g([1.0, 0.5, -1.0], np.eye(4, 3))
    cert = mu_certificate(g)
    assert not cert.available and not cert.sharp
    assert "negative eigenspace dimension 1" in cert.message


@pytest.mark.parametrize("size", [1e-20, 1.0, 1e20])
def test_mu_unavailable_on_singular_block_at_every_size(size):
    # rows 2 and 3 of the offsets are parallel, so Y_- P_- has rank 1
    Y = size * np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 2.0, 2.0],
                         [1.0, 1.0, 1.0]])
    cert = mu_certificate(_hand_built_g([1.0, -1.0, -2.0], Y))
    assert not cert.available
    assert cert.message == ("Y_- P_- is singular beyond tolerance; "
                            "certificate unavailable")
    # the same block with independent rows is available at every size
    Y[2] = size * np.array([0.0, 2.0, -2.0])
    assert mu_certificate(_hand_built_g([1.0, -1.0, -2.0], Y)).available


@pytest.mark.parametrize("k", [-13, -20, -60, -100, -140])
@pytest.mark.parametrize("n", [1, 2, 8, 32])
def test_tiny_regular_simplices_keep_sharp_certificates(k, n):
    # the certificate is a shape test: the solver's own simplices reach
    # delta ~ 1e-30 and must certify as a unit simplex does
    radius = 10.0 ** k
    rng = np.random.default_rng(n - k)
    for centre in (np.zeros(n), 3.0 * radius * rng.standard_normal(n)):
        s0 = make_regular_simplex(centre, radius, n)
        s = Simplex(centre + (s0.vertices - centre) @ haar_rotation(n, rng),
                    radius=radius)
        for kind in ("reflection", "centroid", "shrink"):
            gamma = 0.3 if kind == "shrink" else None
            for cls in ("nonconvex", "convex"):
                rep = bound_report(s, kind, cls, 1.0, gamma=gamma)
                assert rep.mu.available and rep.mu.sharp, (kind, cls)
                assert rep.attained, (kind, cls)


# ---------------------------------------------------------------------------
# worst-case quadratics and reports


def test_centroid_worst_case_is_scaled_identity():
    n, L = 3, 2.0
    s = make_regular_simplex(np.zeros(n), 1.0, n)
    g = g_matrix(s, s.centroid())
    quad = worst_case_quadratic(g, L, "nonconvex")
    np.testing.assert_allclose(quad.H, L * np.eye(n), atol=1e-9)
    values = [quad(v) for v in s.vertices]
    err = interpolate(s, values, s.centroid()) - quad(s.centroid())
    assert abs(err) == pytest.approx(0.5 * L, rel=1e-9)


def test_reflection_report_attains_bound():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    rep = bound_report(s, "reflection", "nonconvex", 1.0)
    assert rep.bound == pytest.approx(3.0, rel=1e-12)
    assert rep.achieved == pytest.approx(3.0, rel=1e-9)
    assert rep.attained and rep.dominated
    assert rep.quadratic.spectral_norm() <= 1.0 + 1e-9


def test_convex_reflection_report():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    rep = bound_report(s, "reflection", "convex", 1.0)
    assert rep.bound == pytest.approx(2.25, rel=1e-12)
    assert rep.attained
    assert rep.quadratic.is_convex()
    eig = np.linalg.eigvalsh(rep.quadratic.H)
    assert eig.min() >= -1e-9 and eig.max() <= 1.0 + 1e-9


def test_shrink_report_attains_bound():
    s = make_regular_simplex(np.zeros(3), 1.0, 3)
    rep = bound_report(s, "shrink", "nonconvex", 1.0, gamma=0.3)
    expected = (4.0 / 3.0) * 0.3 * 0.7
    assert rep.bound == pytest.approx(expected, rel=1e-12)
    assert rep.attained


@pytest.mark.parametrize("L", [1e-13, 1.0, 1e13])
def test_is_convex_is_relative_to_the_size_of_H(L):
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    g = g_matrix(s, query_point(s, "reflection"))
    # L (I - 2uu') has the eigenvalue -L: not convex at any scale
    assert not worst_case_quadratic(g, L, "nonconvex").is_convex()
    assert worst_case_quadratic(g, L, "convex").is_convex()
    assert worst_case_quadratic(g, L, "convex", sign="negative").is_convex()
    assert Quadratic(H=np.zeros((2, 2)), v=np.zeros(2)).is_convex()


def test_worst_case_sign_flip():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    g = g_matrix(s, query_point(s, "reflection"))
    qp = worst_case_quadratic(g, 1.0, "nonconvex", sign="positive")
    qn = worst_case_quadratic(g, 1.0, "nonconvex", sign="negative")
    np.testing.assert_allclose(qp.H, -qn.H, atol=1e-12)
    with pytest.raises(ValueError):
        worst_case_quadratic(g, 1.0, "nonconvex", sign="up")


def test_report_to_dict_keys():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    d = bound_report(s, "centroid", "convex", 1.0).to_dict()
    assert set(d) == {"kind", "class", "bound", "achieved", "attained", "mu"}


# ---------------------------------------------------------------------------
# bound_report in one pass: one G, one eigensystem, one affine solve


def _column_loop_eigh(Gm):
    """Sign rule applied one column at a time, as the oracle."""
    w, P = np.linalg.eigh(Gm)
    order = np.argsort(w)[::-1]
    w = w[order]
    P = P[:, order]
    for j in range(P.shape[1]):
        col = P[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())
        if idx.size and col[idx[0]] < 0:
            P[:, j] = -col
    return w, P


def _sign_fix_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 5, 33):
        A = rng.standard_normal((n, n))
        yield f"random-{n}", A + A.T
    # eigenvectors of a diagonal matrix are unit vectors: exact-zero leading
    # entries, some of them -0.0 after the sort
    yield "diagonal", np.diag([3.0, -1.0, 2.0, 0.0, -5.0])
    Q = haar_rotation(6, rng)
    yield "repeated", (Q * np.array([2.0, 2.0, 2.0, -1.0, 0.5, 0.5])) @ Q.T
    s = make_regular_simplex(np.zeros(7), 1.3, 7)
    yield "regular-centroid", g_matrix(s, s.centroid()).matrix
    # a leading entry of 7e-13 is significant next to its own column's max
    # (1/sqrt(3)) though not next to the largest entry of the whole matrix
    v = np.array([-7e-13, 1.0, 1.0, 1.0])
    v[1:] /= np.sqrt(3.0)
    Q, _ = np.linalg.qr(np.column_stack([v, np.eye(4)[:, [0, 1, 2]]]))
    yield "tiny-leading", (Q * np.array([3.0, 1.0, -2.0, 0.5])) @ Q.T


@pytest.mark.parametrize("name,Gm", list(_sign_fix_cases()))
def test_array_sign_fix_matches_column_loop(name, Gm):
    w, P = rssm.interpolation._deterministic_eigh(Gm.copy())
    w_ref, P_ref = _column_loop_eigh(Gm.copy())
    np.testing.assert_array_equal(w, w_ref)
    np.testing.assert_array_equal(P, P_ref)
    np.testing.assert_array_equal(np.signbit(P), np.signbit(P_ref))


def test_sign_fix_leaves_zero_column_alone(monkeypatch):
    P0 = np.array([[0.0, -0.6], [0.0, 0.8]])
    monkeypatch.setattr(np.linalg, "eigh", lambda Gm: (np.array([0.0, 1.0]), P0.copy()))
    _, P = rssm.interpolation._deterministic_eigh(np.eye(2))
    np.testing.assert_array_equal(P, [[0.6, 0.0], [-0.8, 0.0]])


def test_mu_residual_column_is_a_running_sum():
    # a general query with 10 negative vertex weights, so the M block has
    # enough columns for a pairwise sum to round differently
    n = 12
    s = make_regular_simplex(np.zeros(n), 1.0, n)
    rng = np.random.default_rng(3)
    w = np.concatenate([rng.uniform(0.5, 1.5, 3), -rng.uniform(0.05, 0.3, n - 2)])
    w[0] += 1.0 - w.sum()
    x = w @ s.vertices
    cert = mu_certificate(g_matrix(s, x))
    ell = lagrange_coefficients(s, x).ell
    assert cert.available and len(cert.negative_index_set) == n - 1
    for i in cert.positive_index_set:
        row_sum = 0.0
        for j in cert.negative_index_set[1:]:
            row_sum += cert.entries[(i, j)]
        assert cert.entries[(i, 0)] == ell[i] - row_sum


def _separate_pass_report(s, kind, cls, L, gamma, sign):
    """The report built stage by stage, as the oracle: per-vertex quad(v),
    interpolate() and a separate mu_certificate()."""
    x = query_point(s, kind, gamma=gamma)
    g = g_matrix(s, x)
    quad = worst_case_quadratic(g, L, cls, sign=sign)
    values = [quad(v) for v in s.vertices]
    achieved = abs(interpolate(s, values, x) - quad(x))
    # the certificate of a G assembled again, apart from the one above
    mu = mu_certificate(g_matrix(s, x))
    return nuclear_bound_from_g(g, L, cls), achieved, mu, quad, x


def _equivalence_simplices():
    rng = np.random.default_rng(4711)
    for n in (1, 2, 8, 64):
        yield n, "origin", make_regular_simplex(np.zeros(n), 1.0, n)
        yield n, "rotated", random_regular_simplex(n, rng)
        far = 1e3 * np.where(rng.standard_normal(n) < 0, -1.0, 1.0)
        yield n, "far", random_regular_simplex(n, rng, center=far)


@pytest.mark.parametrize("n,where,s", list(_equivalence_simplices()))
def test_one_pass_report_matches_separate_passes(n, where, s):
    eps = np.finfo(float).eps
    for kind in ("reflection", "centroid", "shrink"):
        gamma = 0.3 if kind == "shrink" else None
        for cls in ("nonconvex", "convex"):
            for sign in ("positive", "negative"):
                rep = bound_report(s, kind, cls, 1.3, gamma=gamma, sign=sign)
                bound, achieved, mu, quad, x = _separate_pass_report(
                    s, kind, cls, 1.3, gamma, sign)
                assert rep.bound == bound
                assert list(rep.mu.entries.items()) == list(mu.entries.items())
                assert rep.mu.sharp == mu.sharp
                assert rep.mu.to_dict() == mu.to_dict()
                np.testing.assert_array_equal(rep.quadratic.H, quad.H)
                np.testing.assert_array_equal(rep.query, x)
                if where == "far":
                    # both measurements subtract vertex values of size
                    # ~ ||x||^2 >> bound, so each carries its own rounding
                    # error of order (n+2) u sum_i |ell_i f(x_i)|
                    ell = rep.g.coefficients.ell
                    f = np.array([quad(v) for v in s.vertices])
                    scale = np.abs(ell[1:] * f).sum() + abs(quad(x))
                    tol = 1e-10 * bound + 4 * (n + 2) * eps * scale
                else:
                    tol = 1e-10 * bound
                assert abs(rep.achieved - achieved) <= tol, (kind, cls, sign)


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("centre", [1e3, 1e5])
def test_far_simplex_reports_attain_their_bounds(n, centre):
    # the extremal quadratic's values at the vertices are ~ ||x||^2 >> bound
    # here, so `achieved` holds to 1e-9 only if they do not cancel
    rng = np.random.default_rng(n)
    c = rng.uniform(-1.0, 1.0, n)
    c *= centre / np.abs(c).max()
    s = random_regular_simplex(n, rng, radius=1.0, center=c)
    for kind in ("reflection", "centroid", "shrink"):
        gamma = 0.5 if kind == "shrink" else None
        for cls in ("nonconvex", "convex"):
            rep = bound_report(s, kind, cls, 1.0, gamma=gamma)
            assert rep.attained and rep.dominated, (kind, cls, rep.achieved,
                                                    rep.bound)


@pytest.mark.parametrize("n", [8, 32, 64])
@pytest.mark.parametrize("centre", [1e3, 1e5])
def test_far_simplex_weights_need_no_solve(monkeypatch, n, centre):
    # the cells above: the frame, re-centred on its column means where the
    # rounded centroid no longer centres it, certifies the closed form
    rng = np.random.default_rng(n)
    c = rng.uniform(-1.0, 1.0, n)
    c *= centre / np.abs(c).max()
    s = random_regular_simplex(n, rng, radius=1.0, center=c)
    solves = _count_calls(monkeypatch, np.linalg, "solve")
    shapes = []
    check = rssm.simplex._check_nonsingular
    monkeypatch.setattr(rssm.interpolation, "_check_nonsingular",
                        lambda M: (shapes.append(M.shape), check(M))[1])
    for kind in ("reflection", "centroid", "shrink"):
        x = query_point(s, kind, gamma=0.5 if kind == "shrink" else None)
        assert _frame_weights(s, x) is not None, kind
        lagrange_coefficients(s, x)
    assert solves["count"] == 0 and shapes == []


def test_g_keeps_the_query_centred_vertices(rng):
    # the mu certificate reads these rows instead of forming V - x again
    s = random_regular_simplex(5, rng)
    for kind in ("reflection", "centroid", "shrink"):
        x = query_point(s, kind, gamma=0.4 if kind == "shrink" else None)
        assert np.array_equal(g_matrix(s, x).offsets, s.vertices - x[None, :])


def test_bound_and_quadratic_share_the_zero_classification():
    # at ||c||inf = 1e6 rounding lifts the zero eigenvalues of the shrink G
    # to ~1e-9 relative; a bound that summed them would exceed what the
    # extremal quadratic (which gives them weight 0) attains
    n = 64
    rng = np.random.default_rng(n)
    c = rng.uniform(-1.0, 1.0, n)
    c *= 1e6 / np.abs(c).max()
    s = random_regular_simplex(n, rng, radius=1.0, center=c)
    for kind in ("reflection", "centroid", "shrink"):
        gamma = 0.5 if kind == "shrink" else None
        for cls in ("nonconvex", "convex"):
            rep = bound_report(s, kind, cls, 1.0, gamma=gamma)
            assert rep.attained and rep.dominated, (kind, cls)
            assert abs(rep.bound - rep.achieved) <= 1e-12 * rep.bound, (kind, cls)
            closed = error_bound(kind, cls, n, 1.0, 1.0, gamma=gamma)
            assert abs(rep.bound - closed) <= 1e-9 * closed, (kind, cls)


def _count_calls(monkeypatch, owner, name):
    calls = {"count": 0}
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls["count"] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["reflection", "centroid", "shrink"])
def test_bound_report_assembles_g_once(monkeypatch, rng, kind):
    s = random_regular_simplex(5, rng)
    g_calls = _count_calls(monkeypatch, rssm.interpolation, "g_matrix")
    ell_calls = _count_calls(monkeypatch, rssm.interpolation, "lagrange_coefficients")
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    rep = bound_report(s, kind, "nonconvex", 1.0,
                       gamma=0.4 if kind == "shrink" else None)
    assert rep.attained and rep.mu.sharp
    # a canonical query on a regular simplex reads the certified two-cluster
    # form of G: no eigh
    assert (g_calls["count"], ell_calls["count"], eigh_calls["count"]) == (1, 1, 0)


def _perturbed(s, size, rng):
    """s with its first vertex moved by `size` radii in a random direction."""
    V = s.vertices.copy()
    V[0] += size * s.radius * rng.standard_normal(s.dim)
    return Simplex(V, radius=s.radius)


@pytest.mark.parametrize("kind", ["reflection", "centroid", "shrink"])
def test_a_perturbed_bound_report_assembles_g_once(monkeypatch, rng, kind):
    s = _perturbed(random_regular_simplex(5, rng), 1e-6, rng)
    g_calls = _count_calls(monkeypatch, rssm.interpolation, "g_matrix")
    ell_calls = _count_calls(monkeypatch, rssm.interpolation, "lagrange_coefficients")
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    rep = bound_report(s, kind, "nonconvex", 1.0,
                       gamma=0.4 if kind == "shrink" else None)
    # a shrink query lies on an edge, so its G is exactly rank one on any
    # simplex and keeps the two-cluster form; the others take one eigh
    eighs = 0 if kind == "shrink" else 1
    assert (rep.g._two_cluster is None) == (eighs == 1)
    assert (g_calls["count"], ell_calls["count"], eigh_calls["count"]) == (1, 1, eighs)


@pytest.mark.parametrize("n", [2, 8, 32, 64])
def test_a_certify_task_runs_no_eigh(monkeypatch, n):
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    reports = _certify_task(n)
    assert all(rep.attained and rep.dominated and rep.mu.sharp
               for rep in reports)
    assert all(rep.g._two_cluster is not None for rep in reports)
    assert eigh_calls["count"] == 0
    # the eigensystem is still eigh of G, on first read, bit for bit
    w, P = rssm.interpolation._deterministic_eigh(reports[0].g.matrix)
    assert eigh_calls["count"] == 1
    np.testing.assert_array_equal(reports[0].g.eigenvalues, w)
    np.testing.assert_array_equal(reports[0].g.eigenvectors, P)
    assert eigh_calls["count"] == 2


def test_a_cluster_value_at_the_zero_threshold_takes_eigh():
    # lam_c = 1e-9 = EIG_ZERO_RTOL m, and G's two eigenvalues there straddle
    # it: E is tiny, but the cluster value could take either zero class
    # while eigh gives one eigenvalue each, so the form must be refused
    Gm = np.diag([1.0, 1e-9 * (1 + 1e-6), 1e-9 * (1 - 1e-6)])
    q = QueryCoefficients(ell=np.array([-1.0, -0.5, 1.0, 0.5, 0.0]),
                          positive_index_set=(2, 3),
                          negative_index_set=(0, 1))
    # the negative vertex's offset puts u along e_1
    offsets = np.vstack([[2.0, 0.0, 0.0], np.eye(3)])
    g = GMatrix(Gm, coefficients=q, offsets=offsets)
    assert g._two_cluster is None
    assert (positive_count(g), g.negative_count()) == (2, 0)


def _beyond_the_two_cluster_form():
    rng = np.random.default_rng(8)
    yield "perturbed", _perturbed(random_regular_simplex(8, rng, radius=1.0),
                                  1e-6, rng)
    # the weights certify here (the frame re-centred), G does not: rounding
    # spreads its clusters by more than EIG_ZERO_RTOL allows
    c = rng.uniform(-1.0, 1.0, 64)
    c *= 1e6 / np.abs(c).max()
    yield "far-centre", random_regular_simplex(64, rng, radius=1.0, center=c)


@pytest.mark.parametrize("where,s", list(_beyond_the_two_cluster_form()))
def test_a_g_beyond_the_two_cluster_form_takes_eigh(monkeypatch, where, s):
    eigh_calls = _count_calls(monkeypatch, np.linalg, "eigh")
    kinds = ("reflection", "centroid", "shrink")
    if where == "perturbed":
        kinds = kinds[:2]  # a shrink G is rank one on any simplex
    for kind in kinds:
        gamma = 0.3 if kind == "shrink" else None
        x = query_point(s, kind, gamma=gamma)
        assert (_frame_weights(s, x) is None) == (where == "perturbed")
        for cls in ("nonconvex", "convex"):
            before = eigh_calls["count"]
            rep = bound_report(s, kind, cls, 1.3, gamma=gamma)
            assert rep.g._two_cluster is None
            # one eigh per query: the second class reads the first's G
            assert eigh_calls["count"] == before + (cls == "nonconvex")
            # the report of the same G rebuilt, which takes eigh too: the
            # eigh path, formula for formula
            g = GMatrix(rep.g.matrix, coefficients=rep.g.coefficients,
                        offsets=rep.g.offsets)
            assert g._two_cluster is None
            sign = ("negative" if cls == "convex"
                    and g.trace_negative() >= g.trace_positive() else "positive")
            quad = worst_case_quadratic(g, 1.3, cls, sign=sign)
            # the error in the query's frame, where f(x - x) = 0
            Y = s.vertices - x
            values = 0.5 * ((Y @ quad.H) * Y).sum(axis=1)
            achieved = abs(float(g.coefficients.ell[1:] @ values))
            assert rep.bound == nuclear_bound_from_g(g, 1.3, cls)
            np.testing.assert_array_equal(rep.quadratic.H, quad.H)
            assert rep.achieved == achieved
            assert rep.mu.to_dict() == mu_certificate(g).to_dict()
            np.testing.assert_array_equal(rep.g.eigenvalues, g.eigenvalues)
            assert rep.attained and rep.dominated, (where, kind, cls)


@pytest.mark.parametrize("kind", ["reflection", "centroid", "shrink"])
def test_bound_report_calls_the_public_mu_certificate_once(monkeypatch, rng,
                                                           kind):
    # the module attribute, so a wrapper placed on it (as a tracer does) sees
    # the report's one certificate
    s = random_regular_simplex(4, rng)
    mu_calls = _count_calls(monkeypatch, rssm.interpolation, "mu_certificate")
    rep = bound_report(s, kind, "convex", 1.0,
                       gamma=0.4 if kind == "shrink" else None)
    assert mu_calls["count"] == 1
    assert rep.mu.to_dict() == mu_certificate(rep.g).to_dict()


@pytest.mark.parametrize("L", [0.0, -1.0, float("inf"), float("nan")])
def test_bound_report_rejects_L_outside_the_positive_reals(rng, L):
    s = random_regular_simplex(3, rng)
    with pytest.raises(ValueError, match="L must be positive and finite"):
        bound_report(s, "reflection", "nonconvex", L)


def test_report_carries_query_and_g(rng):
    s = random_regular_simplex(4, rng)
    rep = bound_report(s, "shrink", "convex", 1.0, gamma=0.25)
    x = query_point(s, "shrink", gamma=0.25)
    np.testing.assert_array_equal(rep.query, x)
    np.testing.assert_array_equal(rep.g.eigenvalues, g_matrix(s, x).eigenvalues)
    assert "query" not in rep.to_dict() and "g" not in rep.to_dict()


# ---------------------------------------------------------------------------
# the per-simplex query memo


def _assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def _fresh_report(s, rep, L, gamma=None):
    """rep's query and class on a new Simplex of s's vertices and radius,
    whose memo is empty."""
    return bound_report(Simplex(s.vertices.copy(), radius=s.radius),
                        rep.kind, rep.cls, L, gamma=gamma)


def _assert_as_fresh(s, reports, L=1.0, gamma=0.4):
    """Each report equals, bit for bit, the one built on a fresh simplex."""
    for rep in reports:
        fresh = _fresh_report(s, rep, L, gamma if rep.kind == "shrink" else None)
        assert rep.to_dict() == fresh.to_dict()
        for a, b in ((rep.bound, fresh.bound), (rep.achieved, fresh.achieved),
                     (rep.quadratic.H, fresh.quadratic.H),
                     (rep.g.matrix, fresh.g.matrix), (rep.query, fresh.query)):
            _assert_same_bits(a, b)


def _assert_rebuilt(before, after):
    for old, rep in zip(before, after, strict=True):
        assert rep.g is not old.g and rep.mu is not old.mu


@pytest.mark.parametrize("n", [8, 32, 64])
def test_memoised_certify_reports_equal_fresh_ones(n):
    s = _certify_simplex(n)
    reports = _all_reports(s)
    _assert_as_fresh(s, reports)
    # the two classes of a query share its class-independent part
    for a, b in zip(reports[::2], reports[1::2]):
        assert (a.kind, a.cls, b.cls) == (b.kind, "nonconvex", "convex")
        assert a.query is b.query and a.g is b.g and a.mu is b.mu
    # and an unedited simplex keeps it for later reports
    assert all(rep.g is again.g for rep, again in zip(reports, _all_reports(s)))


@pytest.mark.parametrize("where,s", list(_beyond_the_two_cluster_form()))
def test_memoised_eigh_reports_equal_fresh_ones(where, s):
    _assert_as_fresh(s, _all_reports(s, gamma=0.3, L=1.3), L=1.3, gamma=0.3)


def test_an_in_place_vertex_edit_rebuilds_the_memo():
    # the solver's accept writes vertex rows in place, as here
    s = _certify_simplex(8)
    before = _all_reports(s)
    s.vertices[3] = s.vertices[3] + 1e-3 * s.radius
    after = _all_reports(s)
    _assert_rebuilt(before, after)
    assert all(not np.array_equal(rep.g.matrix, old.g.matrix)
               for old, rep in zip(before, after))
    _assert_as_fresh(s, after)


def test_reassigned_vertices_rebuild_the_memo():
    s = _certify_simplex(8)
    before = _all_reports(s)
    s.vertices = s.vertices[::-1].copy()  # the last vertex reflects another
    after = _all_reports(s)
    _assert_rebuilt(before, after)
    assert not np.array_equal(after[0].query, before[0].query)
    _assert_as_fresh(s, after)


def test_a_new_radius_rebuilds_the_memo():
    # the radius enters the weights: the frame of a wrong radius fails the
    # closed form's certificate, so they come from the guarded solve
    s = _certify_simplex(8)
    before = _all_reports(s)
    s.radius = 2.0 * s.radius
    after = _all_reports(s)
    _assert_rebuilt(before, after)
    assert _frame_weights(s, after[0].query) is None
    _assert_as_fresh(s, after)


# the arrays the two class reports of one query share, by the report
SHARED_ARRAYS = {
    "query": lambda rep: rep.query,
    "g.matrix": lambda rep: rep.g.matrix,
    "g.offsets": lambda rep: rep.g.offsets,
    "g.coefficients.ell": lambda rep: rep.g.coefficients.ell,
    "g.eigenvalues": lambda rep: rep.g.eigenvalues,
    "g.eigenvectors": lambda rep: rep.g.eigenvectors,
    "two-cluster u": lambda rep: rep.g._two_cluster[0],
}


@pytest.mark.parametrize("kind", ["reflection", "shrink"])
@pytest.mark.parametrize("part", list(SHARED_ARRAYS))
def test_an_edit_of_a_shared_array_raises(part, kind):
    # each edit once changed the next report of the query on the simplex
    s = _certify_simplex(8)
    gamma = 0.4 if kind == "shrink" else None
    first = bound_report(s, kind, "nonconvex", 1.0, gamma=gamma)
    a = SHARED_ARRAYS[part](first)
    with pytest.raises(ValueError, match="read-only"):
        a[(0,) * a.ndim] += 5.0
    second = bound_report(s, kind, "convex", 1.0, gamma=gamma)
    assert second.g is first.g
    _assert_as_fresh(s, [first, second])


def test_the_shared_mu_entries_are_read_only():
    s = _certify_simplex(8)
    first = bound_report(s, "reflection", "nonconvex", 1.0)
    key = next(iter(first.mu.entries))
    with pytest.raises(TypeError):
        first.mu.entries[key] = 5.0
    second = bound_report(s, "reflection", "convex", 1.0)
    assert second.mu is first.mu
    _assert_as_fresh(s, [first, second])


def test_shrink_reports_at_two_gammas_keep_their_own_queries():
    s = _certify_simplex(8)
    reports = {(gamma, cls): bound_report(s, "shrink", cls, 1.0, gamma=gamma)
               for gamma in (0.3, 0.6) for cls in ("nonconvex", "convex")}
    for (gamma, _), rep in reports.items():
        _assert_as_fresh(s, [rep], gamma=gamma)
    assert reports[0.3, "nonconvex"].g is reports[0.3, "convex"].g
    assert reports[0.3, "nonconvex"].g is not reports[0.6, "nonconvex"].g
    assert reports[0.3, "convex"].bound != reports[0.6, "convex"].bound
    # the memo kept both: a later report at 0.3 is its first one's
    again = bound_report(s, "shrink", "convex", 1.0, gamma=0.3)
    assert again.g is reports[0.3, "convex"].g


@pytest.mark.parametrize("gamma", [None, 0.0, 1.0, 1.5, float("nan")])
def test_a_bad_shrink_gamma_raises_on_every_call(gamma):
    s = _certify_simplex(8)
    bound_report(s, "shrink", "convex", 1.0, gamma=0.4)
    for _ in range(3):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"gamma must lie in (0, 1), got {gamma!r}") + "$"):
            bound_report(s, "shrink", "nonconvex", 1.0, gamma=gamma)


def test_an_overflowing_g_raises_on_every_call(monkeypatch):
    s = make_regular_simplex(np.zeros(2), 1e160, 2)
    g_calls = _count_calls(monkeypatch, rssm.interpolation, "g_matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        for count in (1, 2, 3):
            with pytest.raises(ValueError, match="G overflows"):
                bound_report(s, "reflection", "nonconvex", 1.0)
            assert g_calls["count"] == count


# ---------------------------------------------------------------------------
# gradient inequalities


def test_gradient_report_linear_function(rng):
    n = 4
    s = random_regular_simplex(n, rng)
    a = rng.standard_normal(n)
    obj = Quadratic(H=np.zeros((n, n)), v=a, c=0.3)
    rep = gradient_bound_report(s, obj, L=1.0)
    assert rep["skipped"] == []
    assert rep["gradient_error"]["lhs"] <= 1e-18
    for name in ("simplex_gradient_upper", "gradient_error", "gap_lower"):
        assert rep[name]["holds"], name


def test_gradient_report_quadratic_n3():
    n, L = 3, 2.0
    s = make_regular_simplex(np.full(n, 1.0), 0.5, n)
    obj = Quadratic(H=L * np.eye(n), v=np.zeros(n))
    rep = gradient_bound_report(s, obj, L=L)
    for name in ("simplex_gradient_upper", "gradient_error", "gap_lower"):
        assert rep[name]["holds"], name


def test_gradient_report_skips_without_gradient():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    rep = gradient_bound_report(s, lambda x: float(x @ x), L=1.0)
    assert set(rep["skipped"]) == {"gradient_error", "gap_lower"}
    assert rep["simplex_gradient_upper"]["holds"]


@pytest.mark.parametrize("L", [-1.0, 0.0, float("nan"), float("inf"),
                               10 ** 400])
def test_gradient_report_refuses_an_l_outside_its_range(L):
    # given, or read from the objective: a negative L once reported gap_lower
    # failing against a meaningless bound
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    quad = Quadratic(H=np.eye(2), v=np.full(2, -0.3))
    message = "^L must be positive and finite, got "
    with pytest.raises(ValueError, match=message):
        gradient_bound_report(s, quad, L=L)
    obj = Objective("quad", 2, quad, grad=quad.gradient, L=L)
    with pytest.raises(ValueError, match=message):
        gradient_bound_report(s, obj)


def test_gradient_report_takes_an_l_whose_square_passes_the_doubles():
    # L^2 passes the doubles from L of about 1.34e154; the bound of the
    # gradient error is then inf, and holds, where pow raised OverflowError
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    quad = Quadratic(H=np.eye(2), v=np.full(2, -0.3))
    rep = gradient_bound_report(s, quad, L=1e160)
    assert rep["gradient_error"]["rhs"] == math.inf
    for name in ("simplex_gradient_upper", "gradient_error", "gap_lower"):
        assert rep[name]["holds"], name


def test_gradient_report_reads_l_from_the_objective():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    quad = Quadratic(H=np.eye(2), v=np.full(2, -0.3))
    obj = Objective("quad", 2, quad, grad=quad.gradient, L=1.0)
    assert gradient_bound_report(s, obj) == gradient_bound_report(s, quad,
                                                                  L=1.0)


def test_gradient_inequalities_random_sweep():
    # random rotated/translated quadratics with ||H||_2 = L on random simplices
    rng = np.random.default_rng(99)
    n, L = 5, 3.0
    for _ in range(1000):
        s = random_regular_simplex(n, rng)
        Q = haar_rotation(n, rng)
        lam = rng.uniform(-1.0, 1.0, n)
        lam[np.argmax(np.abs(lam))] = np.sign(lam[np.argmax(np.abs(lam))]) or 1.0
        H = (Q * (L * lam)) @ Q.T
        obj = Quadratic(H=0.5 * (H + H.T), v=rng.standard_normal(n),
                        c=float(rng.standard_normal()))
        rep = gradient_bound_report(s, obj, L=L)
        for name in ("simplex_gradient_upper", "gradient_error", "gap_lower"):
            assert rep[name]["holds"], (name, rep[name])


# ---------------------------------------------------------------------------
# bad arguments and queries beyond the doubles


@pytest.mark.parametrize("s", [
    make_regular_simplex(np.zeros(3), 1e-3, 3),  # the closed-form weights
    Simplex(np.vstack([np.zeros(3), np.eye(3)])),  # the guarded solve
], ids=["regular", "corner"])
def test_weights_beyond_the_doubles_raise_without_a_warning(s):
    # a finite query whose weights overflow: once -inf weights and numpy
    # RuntimeWarnings (errors under this suite's warning filter)
    with pytest.raises(ValueError, match="^the affine weights of x overflow "
                                         "the double range$"):
        lagrange_coefficients(s, [1e308] * 3)


def test_a_canonical_query_beyond_the_doubles_names_the_vertices():
    # the queries of bound_report are not arguments: an overflowing one
    # raises the error of the vertex coordinates it is built from, with no
    # numpy warning ahead of it
    s = Simplex([[1e308, 0.0], [1e308, 1e308], [0.0, 1e308]], radius=1e308)
    message = ("^vertex coordinates overflow the double range about their "
               "centroid$")
    for kind in ("reflection", "centroid"):
        with pytest.raises(ValueError, match=message):
            query_point(s, kind)
        with pytest.raises(ValueError, match=message):
            bound_report(s, kind, "convex", 1.0)


@pytest.mark.parametrize("call", [
    lambda s: query_point(s, "edge"),
    lambda s: bound_report(s, "edge", "convex", 1.0),
], ids=["query_point", "bound_report"])
def test_an_unknown_query_kind_raises(call):
    with pytest.raises(ValueError, match="^unknown query kind 'edge'$"):
        call(make_regular_simplex(np.zeros(2), 1.0, 2))


def test_worst_case_quadratic_rejects_an_unknown_class():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    g = g_matrix(s, query_point(s, "reflection"))
    with pytest.raises(ValueError, match="^unknown function class 'concave'$"):
        worst_case_quadratic(g, 1.0, "concave")
