"""Geometry kernels: construction, reflection, shrinking, regularity."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rssm.interpolation import (bound_report, lagrange_coefficients,
                                simplex_gradient)
import rssm.simplex
from rssm.simplex import (
    CenterResolutionError,
    DegenerateSimplexError,
    GEOMETRY_RTOL,
    RegularityReport,
    Simplex,
    make_regular_simplex,
    reflect_worst,
    regular_simplex_gradient,
    regularity_report,
    shrink_toward_best,
    _helmert_rows,
    _sq,
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


def _helmert_loop(n):
    """Row k (1-based) is (1,...,1,-k,0,...,0)/sqrt(k(k+1)), one row a time."""
    H = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        H[k - 1, :k] = 1.0
        H[k - 1, k] = -float(k)
        H[k - 1] /= np.sqrt(k * (k + 1.0))
    return H


def test_helmert_rows_equal_the_row_by_row_formula():
    for n in [*range(1, 40), 64, 127, 199]:
        assert np.array_equal(_helmert_rows(n), _helmert_loop(n))


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
    # a deeply subnormal radius has too few bits for a regular simplex
    # anywhere
    with pytest.raises(CenterResolutionError, match="centre scale 0 "):
        make_regular_simplex(np.zeros(n), radius, n)
    # at a nonzero centre its unit frame overflows; the build still ends in
    # the one error, with no numpy warning ahead of it
    with pytest.raises(CenterResolutionError, match="centre scale 1.2 "):
        make_regular_simplex(np.linspace(1.2, -0.8, n), radius, n)


@pytest.mark.parametrize("radius", [2e-308, 1e-310, 1e-313])
def test_shallow_subnormal_radius_builds_at_the_origin(radius):
    s = make_regular_simplex(np.zeros(3), radius, 3)
    assert regularity_report(s).max_deviation() <= 1e-10


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf])
def test_nonpositive_radius_rejected(bad):
    with pytest.raises(ValueError, match="positive and finite"):
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
    # the constructor takes them; each solve on them applies the rule
    s = Simplex(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))  # collinear
    for solve in (lambda: lagrange_coefficients(s, np.array([0.5, 0.5])),
                  lambda: simplex_gradient(s, [0.0, 1.0, 2.0]),
                  lambda: bound_report(s, "reflection", "nonconvex", 1.0)):
        with pytest.raises(DegenerateSimplexError,
                           match="singular beyond tolerance"):
            solve()


@pytest.mark.parametrize("radius", [1e308])
def test_overflowing_centroid_is_named_and_warns_nothing(radius):
    # tier-1 turns warnings into errors, so numpy's overflow must not escape
    V = np.array([[1e308, 0.0], [1e308, 1e308], [0.0, 1e308]])
    s = Simplex(V, radius=radius)
    for solve in (lambda: lagrange_coefficients(s, np.zeros(2)),
                  lambda: simplex_gradient(s, [0.0, 1.0, 2.0])):
        with pytest.raises(ValueError, match="overflow") as exc:
            solve()
        assert not isinstance(exc.value, DegenerateSimplexError)


@pytest.mark.parametrize("radius", [math.inf, math.nan])
@pytest.mark.parametrize("flat", [True, False])
def test_radius_must_be_positive_and_finite(radius, flat):
    # the rule reads the radius alone, whatever the vertices span
    V = make_regular_simplex(0.0, 1.0, 2).vertices.copy()
    if flat:
        V[:, 1] = 0.0
    with pytest.raises(ValueError, match="positive and finite"):
        Simplex(V, radius=radius)


def test_overflowing_centroid_takes_no_infinite_radius():
    V = np.array([[1e308, 0.0], [1e308, 1e308], [0.0, 1e308]])
    with pytest.raises(ValueError, match="positive and finite, got inf"):
        Simplex(V)


@pytest.mark.parametrize("t", [1e-9, 1e-10, 1e-11, 3e-12, 1e-12, 5e-13, 2e-13,
                               1e-13, 1e-14])
@pytest.mark.parametrize("n", [2, 8, 32])
def test_constructor_rejects_what_the_affine_solve_rejects(t, n):
    # The two guarded solves, weights and interpolant gradient, reject
    # alike.  A unit regular simplex flattened by t along its last
    # coordinate; near t = 1e-12 the constructor and the solve once applied
    # different rules, hence the name.  The constructor now takes every one
    # of these, and only a solve applies the rule.
    V = make_regular_simplex(np.zeros(n), 1.0, n).vertices.copy()
    V[:, -1] *= t
    s = Simplex(V)

    def rejected(solve):
        try:
            solve()
        except DegenerateSimplexError:
            return True
        return False

    assert rejected(lambda: lagrange_coefficients(s, V.mean(axis=0))) == \
        rejected(lambda: simplex_gradient(s, np.arange(n + 1.0)))


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
    s2 = Simplex(V, radius=s.radius)
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


# a field of a unit triangle's simplex file, its mistyped value and the
# error, which names the field
NUMBER_FAULTS = [
    ("dim", 2.7, "dim must be an integer, got 2.7"),
    ("dim", "2", "dim must be an integer, got '2'"),
    ("dim", True, "dim must be an integer, got True"),
    ("radius", "0.7", "radius must be a number, got '0.7'"),
    ("radius", True, "radius must be a number, got True"),
    ("vertices", [[0, 0], ["1", 0], [0, 1]],
     "vertices must be a list of rows of numbers"),
    ("vertices", [[0, 0], [1, 0], [0, True]],
     "vertices must be a list of rows of numbers"),
    ("vertices", [0, 1, 2], "vertices must be a list of rows of numbers"),
]


@pytest.mark.parametrize("field, value, message", NUMBER_FAULTS)
def test_from_dict_applies_the_number_rule(field, value, message):
    d = {"dim": 2, "radius": 0.7, "vertices": [[0, 0], [1, 0], [0, 1]]}
    Simplex.from_dict(d)
    d[field] = value
    with pytest.raises(ValueError) as ei:
        Simplex.from_json(json.dumps(d))
    assert str(ei.value) == "malformed simplex: " + message


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
            yield Simplex(drifted, radius=s.radius)


def test_centroid_and_unit_frame_equal_the_mean_formulas():
    for s in _offset_simplices():
        V = s.vertices
        assert np.array_equal(s.centroid(), V.mean(axis=0))
        assert np.array_equal(_unit_frame(s, s.centroid()),
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
            yield Simplex(V, radius=radius)


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


NAN_REPORTS = [pytest.param(math.nan, 0.5, id="radius-nan"),
               pytest.param(0.5, math.nan, id="edge-nan"),
               pytest.param(math.nan, math.nan, id="both-nan")]


@pytest.mark.parametrize("radius_dev, edge_dev", NAN_REPORTS)
def test_a_nan_deviation_makes_the_largest_nan(radius_dev, edge_dev):
    rep = RegularityReport(radius_dev, edge_dev)
    assert math.isnan(rep.max_deviation())
    assert not rep.max_deviation() <= GEOMETRY_RTOL


@pytest.mark.parametrize("radius_dev, edge_dev", NAN_REPORTS)
def test_construction_rejects_a_nan_regularity_report(radius_dev, edge_dev,
                                                      monkeypatch):
    monkeypatch.setattr(rssm.simplex, "regularity_report",
                        lambda s: RegularityReport(radius_dev, edge_dev))
    with pytest.raises(CenterResolutionError, match="nan"):
        make_regular_simplex(np.zeros(3), 1.0, 3)


# ---------------------------------------------------------------------------
# the square of the acceptance margin and the complexity constants


def test_the_square_is_the_correctly_rounded_product():
    # the C library's pow, behind x ** 2, rounds this one up by an ulp
    x = -3.854472771809091e+138
    assert _sq(x) == x * x == 1.4856960348617655e+277
    # beyond the doubles, a float or an int squares to inf, not an error
    assert _sq(1e200) == _sq(-1e155) == _sq(10 ** 200) == math.inf
    assert _sq(3) == 9.0 and type(_sq(3)) is float


def test_no_float_is_squared_through_pow():
    # every float square in the library goes through _sq; only the
    # objectives square arrays elementwise
    arrays = {"objectives.py": {"(x - xs) ** 2", "x ** 2", "np.sin(x) ** 2"}}
    found = []
    for path in sorted(Path(rssm.simplex.__file__).parent.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                    and isinstance(node.right, ast.Constant)
                    and node.right.value == 2):
                segment = ast.get_source_segment(text, node)
                if segment not in arrays.get(path.name, ()):
                    found.append((path.name, node.lineno, segment))
    assert found == []


def test_a_simplex_needs_dimension_one():
    # a (1, 0) array has the (n+1) x n shape for n = 0
    with pytest.raises(ValueError, match="^ambient dimension must be at "
                                         "least 1$"):
        Simplex(np.zeros((1, 0)))


@pytest.mark.parametrize("index", [-1, 3])
def test_shrink_toward_best_rejects_an_index_out_of_range(index):
    s = make_regular_simplex(np.zeros(2), 1.0, 2)
    with pytest.raises(IndexError, match=f"^vertex index {index} out of "
                                         "range 0..2$"):
        shrink_toward_best(s, index, 0.5)
