"""Exact geometry of regular simplices in R^n.

A regular simplex is a set of n+1 points in R^n all at the same distance
delta (the "radius") from their centroid; equivalently, all pairwise edge
lengths are equal, with ||x_i - x_j||^2 = 2(1 + 1/n) delta^2.

This module provides deterministic construction of a centered regular
simplex, the isometric reflection of one vertex through the centroid of
the other n, uniform shrinking toward a chosen vertex, and regularity
diagnostics.  Points are plain 1-D numpy arrays.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Simplex",
    "DegenerateSimplexError",
    "RegularityReport",
    "CenterResolutionError",
    "make_regular_simplex",
    "regular_simplex_gradient",
    "reflect_worst",
    "shrink_toward_best",
    "regularity_report",
]

# Relative tolerance for geometric equality checks, measured against the
# simplex radius.  Well above double-precision noise, well below any
# algorithmically meaningful scale.
GEOMETRY_RTOL = 1e-9

# Reciprocal-condition threshold below which a matrix is treated as
# singular: the one nondegeneracy rule (see _check_nonsingular).
RCOND_MIN = 1e-12


def _is_int(x) -> bool:
    """The integer rule of the input boundaries (a simplex file's `dim`, a
    trace config's counts): an int, numpy's included, never a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """The number rule of the input boundaries (a simplex file's radius and
    vertices, a trace config's scales): a float (np.float64 is one) or an
    int as :func:`_is_int` takes it, never a bool or a string."""
    return isinstance(x, float) or _is_int(x)


# NaN, +-inf and an int beyond the double range fall outside [-_MAX, _MAX]
_MAX = sys.float_info.max

# The unit roundoff u of a double.
_UNIT_ROUNDOFF = np.finfo(float).eps / 2


def _sq(x: float) -> float:
    """x * x as a float: one correctly rounded product, inf beyond the
    doubles.  ``x ** 2`` calls the C library's pow, which need not round
    correctly, and raises OverflowError where the product is inf."""
    x = float(x)
    return x * x


def _rule(test, must: str):
    """check(name, x): ValueError "{name} must {must}, got {x!r}" unless
    test(x); a value that does not compare (None, a string) fails."""
    def check(name: str, x) -> None:
        try:
            if test(x):
                return
        except (TypeError, ValueError):
            pass
        raise ValueError(f"{name} must {must}, got {x!r}")
    return check


# The three rules every entry point applies to its numeric arguments; an
# int beyond the doubles fails the integer rule too, as every count feeds
# float arithmetic
_positive = _rule(lambda x: 0.0 < x <= _MAX, "be positive and finite")
_unit_interval = _rule(lambda x: 0.0 < x < 1.0, "lie in (0, 1)")
_positive_int = _rule(lambda x: _is_int(x) and 1 <= x <= _MAX,
                      "be a positive integer no larger than the largest "
                      "double")


def _finite_array(name: str, x, shapes: tuple, must: str) -> np.ndarray:
    """x as a float array of one of `shapes` with finite entries (a float
    array is not copied); else ValueError "{name} must {must}, got {x!r}"."""
    try:
        a = np.asarray(x)
        ok = a.shape in shapes and a.dtype.kind in "biufO"
        if ok:
            a = a.astype(float, copy=False)
            ok = np.isfinite(a).all()
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must {must}, got {x!r}")
    return a


def _point(name: str, x, n: int) -> np.ndarray:
    """The point rule: x is a finite scalar or length-n vector (a length-1
    vector counts as a scalar), returned as a length-n float array."""
    p = _finite_array(name, x, ((), (1,), (n,)),
                      f"be a finite scalar or length-{n} vector")
    return p if p.shape == (n,) else np.full(n, p.item())


def _values(name: str, v, m: int) -> np.ndarray:
    """The value-vector rule: exactly m finite entries, no broadcast."""
    return _finite_array(name, v, ((m,),), f"be a finite length-{m} vector")


# the error of vertex coordinates, or a query built from them, off the doubles
_COORDINATE_OVERFLOW = ("vertex coordinates overflow the double range "
                        "about their centroid")


class DegenerateSimplexError(ValueError):
    """Raised when a simplex fails the nondegeneracy rule (RCOND_MIN)."""


class CenterResolutionError(ValueError):
    """Raised when a radius is too small for doubles to resolve at its centre.

    Adding the centre rounds every vertex coordinate to a spacing of about
    eps*||c||_inf; once that is not small against the radius, no simplex
    built there is regular to GEOMETRY_RTOL.  A subnormal radius carries few
    significant bits: near 1e-310 it still builds at the origin, while from
    about 1e-315 down no simplex is regular even there.
    """


class Simplex:
    """n+1 vertices in R^n with a reference radius.

    The container itself only guarantees shape, finite entries and a
    positive finite radius.  Nondegeneracy is checked where a system is
    solved (the affine solves and the mu block of ``rssm.interpolation``);
    use :func:`make_regular_simplex` to obtain a certified regular simplex
    and :func:`regularity_report` to measure how far an instance has
    drifted from regularity.

    A simplex memoises the class-independent part of each sharp-bound
    query (``interpolation.bound_report``: the query point, G and the mu
    certificate), so the two function classes of one query share one
    build.  The memo keeps a copy of the vertices and the radius it was
    built from and is checked against both on every call (O(n^2)), so an
    edit of ``vertices``, in place or by reassignment, or of ``radius``
    rebuilds it.

    Attributes:
        vertices: array of shape (n+1, n), one vertex per row.
        dim: the ambient dimension n.
        radius: reference centroid-to-vertex distance delta, positive
            and finite.  Defaults to the mean of the actual centroid
            distances.
    """

    __slots__ = ("vertices", "dim", "radius", "_queries")

    def __init__(self, vertices, radius: float | None = None):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] != V.shape[1] + 1:
            raise ValueError(
                f"expected (n+1) x n vertex array, got shape {V.shape}"
            )
        if V.shape[1] < 1:
            raise ValueError("ambient dimension must be at least 1")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices contain non-finite entries")
        self.vertices = V
        self.dim = V.shape[1]
        if radius is None:
            with np.errstate(over="ignore"):
                radius = float(np.mean(np.linalg.norm(V - self.centroid(),
                                                      axis=1)))
        _positive("radius", radius)
        self.radius = float(radius)
        self._queries = None  # see interpolation._query

    def centroid(self) -> np.ndarray:
        """Arithmetic mean of the n+1 vertices."""
        # sum / count is what ndarray.mean computes, without its wrapper
        return self.vertices.sum(axis=0) / self.vertices.shape[0]

    def to_dict(self) -> dict:
        """JSON-ready form: {"dim": n, "radius": delta, "vertices": [[...], ...]}."""
        return {
            "dim": self.dim,
            "radius": self.radius,
            "vertices": self.vertices.tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Simplex":
        """Inverse of :meth:`to_dict`; ValueError when `d` is not a simplex:
        not an object, a key missing, a `dim` not an integer, a `radius` or
        vertex entry not a number (:func:`_is_real`; a bool or a string is
        neither), a number beyond the double range, or a wrong `dim`."""
        try:
            dim, radius, rows = d["dim"], d["radius"], d["vertices"]
        except KeyError as exc:
            raise ValueError(f"malformed simplex: missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed simplex: {exc}") from None
        if not _is_int(dim):
            raise ValueError(
                f"malformed simplex: dim must be an integer, got {dim!r}")
        if not _is_real(radius):
            raise ValueError(
                f"malformed simplex: radius must be a number, got {radius!r}")
        if not (type(rows) is list and all(type(row) is list for row in rows)
                and all(_is_real(x) for row in rows for x in row)):
            raise ValueError("malformed simplex: vertices must be a list of "
                             "rows of numbers")
        try:
            s = cls(np.asarray(rows, dtype=float), radius=float(radius))
        except OverflowError as exc:
            raise ValueError(f"malformed simplex: {exc}") from None
        if dim != s.dim:
            raise ValueError(f"dim field {dim} does not match "
                             f"vertex shape {s.vertices.shape}")
        return s

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Simplex":
        return cls.from_dict(json.loads(text))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simplex(dim={self.dim}, radius={self.radius:.6g})"


def _affine_system(s: Simplex) -> tuple[np.ndarray, float, np.ndarray]:
    """Centroid c, coordinate scale and the (n+1)x(n+1) affine system
    [[1...1], [y_1 ... y_{n+1}]] with y_i = (x_i - c) / scale.

    The guarded affine weights and interpolant gradients both use this
    centered, unit-scale frame, so the nondegeneracy rule responds to the
    shape of the simplex, never to its absolute position or size.
    """
    # an overflow shows as a non-finite c or scale, raised on below
    with np.errstate(over="ignore"):
        c = s.centroid()
        Y = s.vertices - c
    # max-entry scale avoids squaring, so it survives subnormal-range sizes
    scale = float(np.abs(Y).max())
    if not (np.isfinite(scale) and np.isfinite(c).all()):
        raise ValueError(_COORDINATE_OVERFLOW)
    if scale == 0.0:
        raise DegenerateSimplexError("all vertices coincide")
    A = np.empty((s.dim + 1, s.dim + 1))
    A[0, :] = 1.0
    A[1:, :] = Y.T / scale
    return c, scale, A


def _check_nonsingular(M: np.ndarray) -> None:
    """The one nondegeneracy rule: DegenerateSimplexError when the least
    singular value of M is at most RCOND_MIN times its largest (scale-free;
    an all-zero M fails).  Guards the affine solves and the mu certificate."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= RCOND_MIN * sv[0]:
        raise DegenerateSimplexError("affine system is singular beyond tolerance "
                                     f"(rcond ~ {sv[-1] / sv[0]:.2e})")


def _helmert_rows(n: int) -> np.ndarray:
    """n orthonormal rows in R^(n+1), each orthogonal to the all-ones vector.

    Row k (1-based) is (1,...,1,-k,0,...,0)/sqrt(k(k+1)) with k leading ones.
    """
    k = np.arange(1.0, n + 1.0)
    H = np.tri(n, n + 1)  # row k-1 holds k leading ones
    H.ravel()[1::n + 2] = -k  # the entries (k-1, k)
    H /= np.sqrt(k * (k + 1.0))[:, None]
    return H


def make_regular_simplex(center, radius: float, n: int) -> Simplex:
    """Build a regular simplex with the given centroid, radius and dimension.

    The construction is deterministic: the i-th vertex is
    center + radius*sqrt((n+1)/n) * (i-th column of the Helmert row matrix),
    which places all n+1 vertices at distance `radius` from `center` with
    the exact pairwise inner products (x_i-c)^T (x_j-c) = -radius^2/n.
    Equivalently, the centred vertices Y (one per row) satisfy
    Y^T Y = ((n+1)/n) radius^2 I, the identity behind
    :func:`regular_simplex_gradient`.

    Args:
        center: centroid, a point of R^n (:func:`_point`).
        radius: positive centroid-to-vertex distance.
        n: ambient dimension, n >= 1.

    Returns:
        A certified regular Simplex.  Its affine system's reciprocal condition
        is at least 1/sqrt(n), far above RCOND_MIN.

    Raises:
        ValueError: radius not positive and finite, n not a positive
            integer, or center not a finite point of R^n.
        CenterResolutionError: the radius is too small for its centre, or
            subnormal with too few bits, so the rounded vertices are not
            regular to GEOMETRY_RTOL.
    """
    return _regular_simplex(center, radius, n)[0]


def _regular_simplex(center, radius: float,
                     n: int) -> tuple[Simplex, RegularityReport]:
    """:func:`make_regular_simplex`, with the exact report that certified
    the simplex, so a caller that needs both takes the O(n^3) report once."""
    _positive_int("n", n)
    _positive("radius", radius)
    c = _point("center", center, n)
    Y = radius * np.sqrt((n + 1.0) / n) * _helmert_rows(n).T
    s = Simplex(c[None, :] + Y, radius=float(radius))
    # an unresolved radius can overflow the unit frame; inf or NaN
    # deviations fail the verdict below
    with np.errstate(over="ignore", invalid="ignore"):
        rep = regularity_report(s)
    if not rep.max_deviation() <= GEOMETRY_RTOL:
        raise CenterResolutionError(
            f"radius {radius:.3g} is too small for centre scale "
            f"{np.abs(c).max():.3g} (max |c_i|): the rounded vertices "
            f"drift by {rep}"
        )
    return s, rep


def regular_simplex_gradient(s: Simplex, values) -> np.ndarray:
    """Gradient of the affine interpolant on a regular simplex, in closed form.

    With Y the centred vertices divided by the radius delta, the rows of Y
    sum to zero and Y^T Y = ((n+1)/n) I, so the interpolant
    f_i = a + g.(x_i - c) has g = n/((n+1) delta) * Y^T (f - mean(f)):
    one matrix-vector product, O(n^2) work and memory, no solve.  Centring
    f is not optional: in floating point Y^T 1 is not exactly zero, and
    Y^T f would multiply that residue by the mean value.

    The identity holds only on a regular simplex; on one that has drifted
    by d (see :func:`regularity_report`) the relative error is of order d.
    ``interpolation.simplex_gradient`` is the general-simplex oracle.

    Args:
        s: a regular simplex.
        values: length n+1 vector with values[i] = f(x_i).

    Returns:
        The gradient of the interpolant.
    """
    f = _values("values", values, s.dim + 1)
    return _frame_gradient(_unit_frame(s, s.centroid()), f, f.mean(), s.radius)


def _frame_gradient(Y: np.ndarray, f: np.ndarray, mean: float,
                    radius: float) -> np.ndarray:
    """The closed-form gradient from the unit frame Y of a simplex with
    stored radius `radius`, its n+1 values f and their mean."""
    n = Y.shape[1]
    return (Y.T @ (f - mean)) * (n / (n + 1.0)) / radius


def reflect_worst(s: Simplex, worst_index: int) -> np.ndarray:
    """Isometric reflection of one vertex through the centroid of the rest.

    Returns x_r = -x_worst + (2/n) * sum of the other n vertices.  Replacing
    the worst vertex by x_r in a regular simplex yields a regular simplex
    with the same radius.

    Args:
        s: the simplex.
        worst_index: index of the vertex to reflect, in 0..n.

    Returns:
        The reflection point as a 1-D array.

    Raises:
        IndexError: worst_index outside 0..n.
    """
    m = s.vertices.shape[0]
    if not (0 <= worst_index < m):
        raise IndexError(f"vertex index {worst_index} out of range 0..{m - 1}")
    V = s.vertices
    # the last row, the one query_point reflects, leaves a view of the others
    others = (V[:worst_index] if worst_index == m - 1 else
              np.concatenate((V[:worst_index], V[worst_index + 1:])))
    return _reflection(others.sum(axis=0), V[worst_index], s.dim)


def _reflection(rest: np.ndarray, worst: np.ndarray, n: int) -> np.ndarray:
    """(2/n) * rest - worst: the reflection of the vertex `worst` through
    the centroid of the other n, from `rest`, the sum of those n vertices.

    The one reflection kernel: :func:`reflect_worst` passes the sum of the
    other rows; the solver passes offsets about the best vertex x0, T0 - u_w
    and u_w = x_w - x0 (T0 the sum of all n+1 offsets), and adds x0.
    """
    return (2.0 / n) * rest - worst


def shrink_toward_best(s: Simplex, best_index: int, gamma: float) -> Simplex:
    """Contract every non-best vertex toward the best one by factor gamma.

    x_i <- gamma*x_i + (1-gamma)*x_best for i != best; x_best is unchanged.
    Every vertex-to-best distance scales by exactly gamma, so the radius of a
    regular simplex becomes gamma*delta.

    Args:
        s: the simplex.
        best_index: index of the vertex to keep fixed.
        gamma: shrink factor in the open interval (0, 1).

    Returns:
        A new Simplex with radius gamma * s.radius.

    Raises:
        ValueError: gamma outside (0, 1).
        IndexError: best_index out of range.
    """
    _unit_interval("gamma", gamma)
    m = s.vertices.shape[0]
    if not (0 <= best_index < m):
        raise IndexError(f"vertex index {best_index} out of range 0..{m - 1}")
    best = s.vertices[best_index]
    V = gamma * s.vertices + (1.0 - gamma) * best[None, :]
    V[best_index] = best
    return Simplex(V, radius=gamma * s.radius)


@dataclass
class RegularityReport:
    """Worst-case relative deviations of a simplex from regularity.

    Both numbers are relative to the stored reference radius / the ideal
    edge length it implies, and are zero for an exactly regular simplex.
    """

    max_radius_deviation: float
    max_edge_deviation: float

    def max_deviation(self) -> float:
        """The larger deviation, or NaN when either is NaN; a verdict reads
        it as ``not dev <= tol``, so a NaN fails it."""
        r, e = self.max_radius_deviation, self.max_edge_deviation
        if r != r or e != e:
            return math.nan
        return max(r, e)

    def __str__(self) -> str:
        return (f"radius dev {self.max_radius_deviation:.3e}, "
                f"edge dev {self.max_edge_deviation:.3e}")


def regularity_report(s: Simplex) -> RegularityReport:
    """Measure how far a simplex has drifted from regularity.

    Compares every centroid-to-vertex distance against the stored radius and
    every pairwise edge length against the ideal sqrt(2(1+1/n))*radius.
    Both come from the Gram matrix G = Y Y^T of the radius-normalised
    centred vertices Y: radii are sqrt(G_ii) and edges
    sqrt(G_ii + G_jj - 2 G_ij), so the check needs O(n^2) memory and no
    (n+1) x (n+1) x n table of pairwise differences.

    Returns:
        RegularityReport with the two maximal relative deviations.
    """
    return _frame_regularity(_unit_frame(s, s.centroid()))


def _frame_regularity(Y: np.ndarray) -> RegularityReport:
    """The regularity report from the unit frame Y of a simplex."""
    n = Y.shape[1]
    G = Y @ Y.T
    sq = G.diagonal()
    ideal_edge = math.sqrt(2.0 * (1.0 + 1.0 / n))
    # the diagonal overwritten by an edge so it sets no extreme
    q = _squared_edges(sq, G)
    q.ravel()[::n + 2] = q[0, 1]
    return RegularityReport(_extreme_deviation(sq, 1.0),
                            _extreme_deviation(q, ideal_edge) / ideal_edge)


def _squared_edges(sq: np.ndarray, G: np.ndarray) -> np.ndarray:
    """sq_i + sq_j - 2 G_ij = ||y_i - y_j||^2 for every pair of frame rows,
    from the squared row norms sq and their Gram matrix G."""
    q = sq[:, None] + sq
    q -= 2.0 * G
    return q


def _extreme_deviation(sq: np.ndarray, ideal: float) -> float:
    """max |sqrt(max(q, 0)) - ideal| over the squared lengths q in `sq`, bit
    for bit from the two extremes: rounded sqrt and subtraction are monotone."""
    lo, hi = float(sq.min()), float(sq.max())
    if hi != hi:  # numpy's min and max propagate a NaN
        return math.nan
    return max(math.sqrt(max(hi, 0.0)) - ideal,
               ideal - math.sqrt(max(lo, 0.0)))


def _unit_frame(s: Simplex, c: np.ndarray, order=None) -> np.ndarray:
    """Vertices centred on their centroid c and divided by the stored radius,
    one per row, in the row order `order` (an index array) when given.

    Radius-normalised coordinates keep the geometry exactly scale-free and
    survive sizes whose squares would underflow.  The regularity report and
    the closed-form gradient both read this frame, so a caller that needs
    both builds it once and passes it to the two frame kernels.
    """
    if order is None:
        Y = s.vertices - c
    else:
        Y = s.vertices.take(order, axis=0)
        Y -= c
    Y /= s.radius
    return Y
