"""Geometry kernels: construction, reflection, shrinking, regularity."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssm.interpolation import simplex_gradient
from rssm.simplex import (
    CenterResolutionError,
    DegenerateSimplexError,
    Simplex,
    make_regular_simplex,
    reflect_worst,
    regular_simplex_gradient,
    regularity_report,
    shrink_toward_best,
    _unit_frame,
)

from conftest import random_regular_simplex


# ---------------------------------------------------------------------------
# construction


def test_one_dimensional_simplex_is_plus_minus_radius():
    s = make_regular_simplex(0.0, 1.0, 1)
    np.testing.assert_allclose(sorted(s.vertices.ravel()), [-1.0, 1.0],
                               atol=1e-15)


def test_equilateral_triangle_edges():
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    V = s.vertices
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(V[i] - V[j]) == pytest.approx(np.sqrt(3.0),
                                                                rel=1e-12)


def test_construction_respects_center_and_radius():
    s = make_regular_simplex([5.0, 5.0, 5.0], 2.0, 3)
    c = s.centroid()
    np.testing.assert_allclose(c, [5.0, 5.0, 5.0], atol=1e-12)
    dists = np.linalg.norm(s.vertices - c, axis=1)
    np.testing.assert_allclose(dists, 2.0, rtol=1e-12)
    assert s.radius == 2.0
    assert s.dim == 3


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20])
def test_centered_simplex_identities(n):
    # sum of centered vertices vanishes; pairwise inner products are -d^2/n;
    # the second moment sum is ((n+1)/n) d^2 I.
    delta = 0.7
    s = make_regular_simplex(np.zeros(n), delta, n)
    Y = s.vertices - s.centroid()
    np.testing.assert_allclose(Y.sum(axis=0), 0.0, atol=1e-12)
    G = Y @ Y.T
    np.testing.assert_allclose(np.diag(G), delta ** 2, rtol=1e-12)
    off = G[~np.eye(n + 1, dtype=bool)]
    np.testing.assert_allclose(off, -delta ** 2 / n, rtol=1e-9, atol=1e-12)
    M = Y.T @ Y
    np.testing.assert_allclose(M, (n + 1) / n * delta ** 2 * np.eye(n),
                               atol=1e-12 * delta ** 2 * n)


def test_far_centre_is_a_resolution_error():
    # at |c| = 1e8 the vertex coordinates are rounded to ~1.5e-8, which a
    # unit radius cannot absorb within GEOMETRY_RTOL
    with pytest.raises(CenterResolutionError) as ei:
        make_regular_simplex(1e8, 1.0, 3)
    assert isinstance(ei.value, ValueError)
    msg = str(ei.value)
    assert "radius 1 " in msg and "centre scale 1e+08" in msg
    assert "\n" not in msg
    # the same radius resolves at a nearer centre
    make_regular_simplex(1e4, 1.0, 3)


@pytest.mark.parametrize("radius", [1e-315, 1e-320, 5e-324])
@pytest.mark.parametrize("n", [2, 3])
def test_subnormal_radius_is_a_resolution_error_at_the_origin(radius, n):
    # a subnormal radius has too few bits for a regular simplex anywhere
    with pytest.raises(CenterResolutionError, match="centre scale 0 "):
        make_regular_simplex(np.zeros(n), radius, n)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_nonpositive_radius_rejected(bad):
    with pytest.raises(ValueError):
        make_regular_simplex(0.0, bad, 3)


def test_dimension_must_be_positive():
    with pytest.raises(ValueError):
        make_regular_simplex(0.0, 1.0, 0)


def test_vertex_array_shape_checked():
    with pytest.raises(ValueError):
        Simplex(np.zeros((3, 3)))  # needs (n+1) x n
    with pytest.raises(ValueError):
        Simplex(np.array([[np.nan, 0.0], [0.0, 1.0], [1.0, 0.0]]))


def test_degenerate_vertices_rejected():
    V = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # collinear
    with pytest.raises(DegenerateSimplexError):
        Simplex(V)


# ---------------------------------------------------------------------------
# reflection


def test_reflection_hand_example_2d():
    s = Simplex(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    x_r = reflect_worst(s, 2)
    np.testing.assert_allclose(x_r, [1.0, 1.0], atol=1e-15)


def test_reflection_hand_example_1d():
    s = Simplex(np.array([[-1.0], [1.0]]), radius=1.0)
    assert reflect_worst(s, 0) == pytest.approx(3.0)
    assert reflect_worst(s, 1) == pytest.approx(-3.0)


@pytest.mark.parametrize("n", range(2, 11))
def test_reflection_preserves_regularity_and_radius(n, rng):
    s = random_regular_simplex(n, rng)
    wi = int(rng.integers(0, n + 1))
    x_r = reflect_worst(s, wi)
    V = s.vertices.copy()
    V[wi] = x_r
    s2 = Simplex(V, radius=s.radius)
    assert regularity_report(s2).max_deviation() <= 1e-9


def test_reflect_index_out_of_range():
    s = make_regular_simplex(0.0, 1.0, 2)
    with pytest.raises(IndexError):
        reflect_worst(s, 3)
    with pytest.raises(IndexError):
        reflect_worst(s, -1)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=20),
       seed=st.integers(min_value=0, max_value=2 ** 31))
def test_reflection_regularity_property(n, seed):
    g = np.random.default_rng(seed)
    s = random_regular_simplex(n, g)
    wi = int(g.integers(0, n + 1))
    V = s.vertices.copy()
    V[wi] = reflect_worst(s, wi)
    s2 = Simplex(V, radius=s.radius, check=False)
    assert regularity_report(s2).max_deviation() <= 1e-9


# ---------------------------------------------------------------------------
# shrinking


def test_shrink_midpoint_example():
    s = Simplex(np.array([[1.0], [-1.0]]), radius=1.0)
    s2 = shrink_toward_best(s, 0, 0.5)
    np.testing.assert_allclose(s2.vertices, [[1.0], [0.0]])
    assert s2.radius == pytest.approx(0.5)


def test_shrink_keeps_best_vertex_and_scales_radius(rng):
    s = random_regular_simplex(4, rng, radius=1.3)
    s2 = shrink_toward_best(s, 2, 0.25)
    np.testing.assert_allclose(s2.vertices[2], s.vertices[2])
    assert s2.radius == pytest.approx(0.25 * 1.3)
    assert regularity_report(s2).max_deviation() <= 1e-9


def test_two_shrinks_compose():
    s = make_regular_simplex(np.zeros(3), 1.0, 3)
    s2 = shrink_toward_best(shrink_toward_best(s, 0, 0.5), 0, 0.5)
    assert s2.radius == pytest.approx(0.25)
    d = np.linalg.norm(s2.vertices - s.vertices[0], axis=1)
    d0 = np.linalg.norm(s.vertices - s.vertices[0], axis=1)
    np.testing.assert_allclose(d, 0.25 * d0, atol=1e-14)


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.3, 1.7])
def test_shrink_gamma_range(gamma):
    s = make_regular_simplex(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        shrink_toward_best(s, 0, gamma)


# ---------------------------------------------------------------------------
# regularity diagnostics


def test_fresh_simplex_regularity_is_tiny():
    for n in (1, 3, 7, 12):
        rep = regularity_report(make_regular_simplex(np.zeros(n), 1.0, n))
        assert rep.max_deviation() <= 1e-12


def test_thousand_alternating_steps_stay_regular():
    rng = np.random.default_rng(7)
    s = make_regular_simplex(np.zeros(5), 1.0, 5)
    for k in range(1000):
        wi = int(rng.integers(0, 6))
        s.vertices[wi] = reflect_worst(s, wi)
        if k % 3 == 0:
            s = shrink_toward_best(s, 0, 0.999)
    assert regularity_report(s).max_deviation() <= 1e-8


def test_radial_perturbation_is_detected():
    s = make_regular_simplex(np.zeros(3), 1.0, 3)
    c = s.centroid()
    s.vertices[0] = c + 1.1 * (s.vertices[0] - c)  # push one vertex out by 10%
    rep = regularity_report(s)
    assert rep.max_radius_deviation >= 0.05
    assert "radius dev" in str(rep)


def _pairwise_regularity(s):
    """The direct formula: every pairwise difference, (n+1)^2 x n memory."""
    n = s.dim
    Y = (s.vertices - s.vertices.mean(axis=0)) / s.radius
    rad_dev = np.abs(np.linalg.norm(Y, axis=1) - 1.0).max()
    ideal_edge = np.sqrt(2.0 * (1.0 + 1.0 / n))
    edges = np.linalg.norm(Y[:, None, :] - Y[None, :, :], axis=2)
    edges = edges[np.triu_indices(n + 1, k=1)]
    return rad_dev, np.abs(edges - ideal_edge).max() / ideal_edge


@pytest.mark.parametrize("n", [1, 2, 5, 16])
@pytest.mark.parametrize("size", [1e-9, 1e-7, 1e-5, 1e-4])
def test_gram_regularity_matches_pairwise_formula(n, size, rng):
    s = random_regular_simplex(n, rng)
    i = int(rng.integers(0, n + 1))
    u = rng.standard_normal(n)
    s.vertices[i] += size * s.radius * u / np.linalg.norm(u)
    rep = regularity_report(s)
    rad_dev, edge_dev = _pairwise_regularity(s)
    assert abs(rep.max_radius_deviation - rad_dev) <= 1e-12
    assert abs(rep.max_edge_deviation - edge_dev) <= 1e-12
    assert rep.max_deviation() >= 0.1 * size  # the perturbation shows


# ---------------------------------------------------------------------------
# closed-form gradient


def _rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_closed_form_gradient_matches_affine_solve(n, rng):
    for _ in range(5):
        s = random_regular_simplex(n, rng)
        f = rng.standard_normal(n + 1)
        g = regular_simplex_gradient(s, f)
        assert _rel_err(g, simplex_gradient(s, f)) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 8, 64])
def test_closed_form_gradient_survives_a_large_offset(n, rng):
    # values on a 1/64 grid, so f + 1e6 is exact and has the same gradient;
    # without centring f, the rounding residue of Y^T 1 times 1e6 shows.
    # The reference solves with the unshifted f: the affine solve itself
    # loses about 1e-11 relative on values of size 1e6 at n=64.
    for _ in range(5):
        s = random_regular_simplex(n, rng)
        f = rng.integers(-2 ** 10, 2 ** 10, n + 1) / 64.0
        g = regular_simplex_gradient(s, f + 1e6)
        assert _rel_err(g, simplex_gradient(s, f)) <= 1e-13


def test_closed_form_gradient_of_an_affine_function():
    s = make_regular_simplex([3.0, -1.0, 0.5], 0.25, 3)
    a = np.array([1.0, -2.0, 0.5])
    f = s.vertices @ a + 4.0
    np.testing.assert_allclose(regular_simplex_gradient(s, f), a, rtol=1e-13)
    with pytest.raises(ValueError):
        regular_simplex_gradient(s, f[:-1])


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip():
    s = make_regular_simplex([0.5, -1.5, 2.0], 0.8, 3)
    d = s.to_dict()
    assert set(d) == {"dim", "radius", "vertices"}
    s2 = Simplex.from_json(s.to_json())
    np.testing.assert_allclose(s2.vertices, s.vertices)
    assert s2.radius == s.radius
    assert s2.dim == 3


def test_from_dict_validates_dim_field():
    s = make_regular_simplex(0.0, 1.0, 2)
    d = s.to_dict()
    d["dim"] = 5
    with pytest.raises(ValueError):
        Simplex.from_dict(d)


@pytest.mark.parametrize("text", [
    "[1, 2]",
    "5",
    '{"dim": 2, "radius": null, "vertices": [[0, 0], [1, 0], [0, 1]]}',
    '{"dim": 2, "radius": 1.0}',
    '{"dim": null, "radius": 1.0, "vertices": [[0, 0], [1, 0], [0, 1]]}',
], ids=["list", "number", "null-radius", "no-vertices", "null-dim"])
def test_malformed_simplex_json_is_a_value_error(text):
    with pytest.raises(ValueError, match="malformed simplex"):
        Simplex.from_json(text)


def test_copy_is_independent():
    s = make_regular_simplex(0.0, 1.0, 2)
    s2 = s.copy()
    s2.vertices[0, 0] += 1.0
    assert s.vertices[0, 0] != s2.vertices[0, 0]


def test_json_text_is_valid_json():
    s = make_regular_simplex(0.0, 1.0, 1)
    payload = json.loads(s.to_json())
    assert payload["dim"] == 1


# ---------------------------------------------------------------------------
# the loop kernels against the numpy formulas they stand for, bit for bit


def _offset_simplices(seed=3):
    """Rotated regular simplices, some drifted, centred up to ||c||inf = 1e6."""
    rng = np.random.default_rng(seed)
    for n in (1, 2, 4, 8, 33):
        for scale in (0.0, 1.0, 1e3, 1e6):
            c = rng.uniform(-1.0, 1.0, n)
            c *= scale / np.abs(c).max()
            s = random_regular_simplex(n, rng, center=c)
            yield s
            drifted = s.vertices + 1e-6 * rng.standard_normal(s.vertices.shape)
            yield Simplex(drifted, radius=s.radius, check=False)


def test_centroid_and_unit_frame_equal_the_mean_formulas():
    for s in _offset_simplices():
        V = s.vertices
        assert np.array_equal(s.centroid(), V.mean(axis=0))
        assert np.array_equal(_unit_frame(s),
                              (V - V.mean(axis=0)[None, :]) / s.radius)


def test_reflection_equals_the_delete_formula_at_every_index():
    for s in _offset_simplices():
        V = s.vertices
        for w in range(s.dim + 1):
            want = -V[w] + (2.0 / s.dim) * np.delete(V, w, axis=0).sum(axis=0)
            assert np.array_equal(reflect_worst(s, w), want)


def test_closed_form_gradient_equals_the_mean_formula():
    rng = np.random.default_rng(5)
    for s in _offset_simplices():
        n = s.dim
        f = 1e3 * rng.standard_normal(n + 1)
        Y = (s.vertices - s.vertices.mean(axis=0)[None, :]) / s.radius
        want = (Y.T @ (f - f.mean())) * (n / (n + 1.0)) / s.radius
        assert np.array_equal(regular_simplex_gradient(s, f), want)


def _overflowing_simplices():
    """Simplices whose radius-normalised frame overflows to inf and NaN."""
    rng = np.random.default_rng(8)
    for n in (1, 2, 3, 8):
        V = 1e10 * rng.standard_normal((n + 1, n))
        for radius in (1e-300, 1e-310, 5e-324):
            yield Simplex(V, radius=radius, check=False)


def test_regularity_report_equals_the_out_of_place_formula():
    for s in _offset_simplices():
        n = s.dim
        Y = (s.vertices - s.vertices.mean(axis=0)[None, :]) / s.radius
        G = Y @ Y.T
        sq = G.diagonal()
        ideal_edge = np.sqrt(2.0 * (1.0 + 1.0 / n))
        dev = np.abs(np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * G, 0.0))
                     - ideal_edge)
        np.fill_diagonal(dev, 0.0)
        rep = regularity_report(s)
        assert rep.max_radius_deviation == float(np.abs(np.sqrt(sq) - 1.0).max())
        assert rep.max_edge_deviation == float(dev.max() / ideal_edge)


def test_regularity_report_propagates_inf_and_nan_as_the_formula_does():
    seen = set()
    with np.errstate(all="ignore"):
        for s in _overflowing_simplices():
            n = s.dim
            Y = (s.vertices - s.vertices.mean(axis=0)[None, :]) / s.radius
            G = Y @ Y.T
            sq = G.diagonal()
            ideal_edge = np.sqrt(2.0 * (1.0 + 1.0 / n))
            dev = np.abs(np.sqrt(np.maximum(
                sq[:, None] + sq[None, :] - 2.0 * G, 0.0)) - ideal_edge)
            np.fill_diagonal(dev, 0.0)
            want = (float(np.abs(np.sqrt(sq) - 1.0).max()),
                    float(dev.max() / ideal_edge))
            rep = regularity_report(s)
            got = (rep.max_radius_deviation, rep.max_edge_deviation)
            np.testing.assert_array_equal(got, want)
            seen.update(map(repr, got))
    assert {"inf", "nan"} <= seen
