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

    The container itself only guarantees shape, finiteness and (optionally)
    nondegeneracy, by the rule the affine solves apply; use
    :func:`make_regular_simplex` to obtain a certified regular simplex and
    :func:`regularity_report` to measure how far an instance has drifted
    from regularity.

    Attributes:
        vertices: array of shape (n+1, n), one vertex per row.
        dim: the ambient dimension n.
        radius: reference centroid-to-vertex distance delta, positive
            and finite.  Defaults to the mean of the actual centroid
            distances.
    """

    __slots__ = ("vertices", "dim", "radius")

    def __init__(self, vertices, radius: float | None = None, check: bool = True):
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
        if check:
            # first, so that _affine_system names an overflowing centroid
            _check_nonsingular(_affine_system(self)[2])
        if radius is None:
            with np.errstate(over="ignore"):
                radius = float(np.mean(np.linalg.norm(V - self.centroid(),
                                                      axis=1)))
        if not (0.0 < radius < math.inf):
            raise ValueError(
                f"radius must be positive and finite, got {radius}")
        self.radius = float(radius)

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
        """Inverse of :meth:`to_dict`; ValueError when `d` is not a simplex
        (not an object, a key missing or mistyped, or a wrong `dim`)."""
        try:
            s = cls(np.asarray(d["vertices"], dtype=float),
                    radius=float(d["radius"]))
            if int(d["dim"]) != s.dim:
                raise ValueError(f"dim field {d['dim']} does not match "
                                 f"vertex shape {s.vertices.shape}")
            return s
        except KeyError as exc:
            raise ValueError(f"malformed simplex: missing key {exc}") from None
        except TypeError as exc:
            raise ValueError(f"malformed simplex: {exc}") from None

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

    The constructor check, affine weights and interpolant gradients all use
    this centered, unit-scale frame, so the nondegeneracy rule responds to
    the shape of the simplex, never to its absolute position or size.
    """
    # an overflow shows as a non-finite c or scale, raised on below
    with np.errstate(over="ignore"):
        c = s.centroid()
        Y = s.vertices - c
    # max-entry scale avoids squaring, so it survives subnormal-range sizes
    scale = float(np.abs(Y).max())
    if not (np.isfinite(scale) and np.isfinite(c).all()):
        raise ValueError("vertex coordinates overflow the double range "
                         "about their centroid")
    if scale == 0.0:
        raise DegenerateSimplexError("all vertices coincide")
    A = np.empty((s.dim + 1, s.dim + 1))
    A[0, :] = 1.0
    A[1:, :] = Y.T / scale
    return c, scale, A


def _check_nonsingular(M: np.ndarray) -> None:
    """The one nondegeneracy rule: DegenerateSimplexError when the least
    singular value of M is at most RCOND_MIN times its largest (scale-free;
    an all-zero M fails).  Guards the constructor, solves and mu certificate."""
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[-1] <= RCOND_MIN * sv[0]:
        raise DegenerateSimplexError("affine system is singular beyond tolerance "
                                     f"(rcond ~ {sv[-1] / sv[0]:.2e})")


def _helmert_rows(n: int) -> np.ndarray:
    """n orthonormal rows in R^(n+1), each orthogonal to the all-ones vector.

    Row k (1-based) is (1,...,1,-k,0,...,0)/sqrt(k(k+1)) with k leading ones.
    """
    H = np.zeros((n, n + 1))
    for k in range(1, n + 1):
        H[k - 1, :k] = 1.0
        H[k - 1, k] = -float(k)
        H[k - 1] /= np.sqrt(k * (k + 1.0))
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
        center: centroid, scalar-broadcastable 1-D array of length n.
        radius: positive centroid-to-vertex distance.
        n: ambient dimension, n >= 1.

    Returns:
        A certified regular Simplex.  Its affine system's reciprocal condition
        is at least 1/sqrt(n), far above RCOND_MIN, so that check is skipped.

    Raises:
        ValueError: radius not positive and finite, n < 1, or center of
            wrong length.
        CenterResolutionError: the radius is too small for its centre, or
            subnormal with too few bits, so the rounded vertices are not
            regular to GEOMETRY_RTOL.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not (0.0 < radius < math.inf):
        raise ValueError(f"radius must be positive and finite, got {radius}")
    c = np.broadcast_to(np.asarray(center, dtype=float), (n,)).copy()
    Y = radius * np.sqrt((n + 1.0) / n) * _helmert_rows(n).T
    s = Simplex(c[None, :] + Y, radius=float(radius), check=False)
    # an unresolved radius can overflow the unit frame; inf or NaN
    # deviations fail the verdict below
    with np.errstate(over="ignore", invalid="ignore"):
        rep = regularity_report(s)
    if rep.max_deviation() > GEOMETRY_RTOL:
        raise CenterResolutionError(
            f"radius {radius:.3g} is too small for centre scale "
            f"{np.abs(c).max():.3g} (max |c_i|): the rounded vertices "
            f"drift by {rep}"
        )
    return s


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
    n = s.dim
    f = np.asarray(values, dtype=float)
    if f.shape != (n + 1,):
        raise ValueError(f"expected {n + 1} values, got shape {f.shape}")
    return _frame_gradient(_unit_frame(s), f, s.radius)


def _frame_gradient(Y: np.ndarray, f: np.ndarray, radius: float) -> np.ndarray:
    """The closed-form gradient from the unit frame Y of a simplex with
    stored radius `radius` and its n+1 values f."""
    n = Y.shape[1]
    return (Y.T @ (f - f.sum() / (n + 1))) * (n / (n + 1.0)) / radius


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
    others = np.concatenate((V[:worst_index], V[worst_index + 1:]))
    return -V[worst_index] + (2.0 / s.dim) * others.sum(axis=0)


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
    if not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0, 1), got {gamma}")
    m = s.vertices.shape[0]
    if not (0 <= best_index < m):
        raise IndexError(f"vertex index {best_index} out of range 0..{m - 1}")
    best = s.vertices[best_index]
    V = gamma * s.vertices + (1.0 - gamma) * best[None, :]
    V[best_index] = best
    return Simplex(V, radius=gamma * s.radius, check=False)


@dataclass
class RegularityReport:
    """Worst-case relative deviations of a simplex from regularity.

    Both numbers are relative to the stored reference radius / the ideal
    edge length it implies, and are zero for an exactly regular simplex.
    """

    max_radius_deviation: float
    max_edge_deviation: float

    def max_deviation(self) -> float:
        return max(self.max_radius_deviation, self.max_edge_deviation)

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
    return _frame_regularity(_unit_frame(s))


def _frame_regularity(Y: np.ndarray) -> RegularityReport:
    """The regularity report from the unit frame Y of a simplex."""
    n = Y.shape[1]
    G = Y @ Y.T
    sq = G.diagonal()
    ideal_edge = math.sqrt(2.0 * (1.0 + 1.0 / n))
    # squared edges, the diagonal overwritten by an edge so it sets no extreme
    q = sq[:, None] + sq[None, :]
    q -= 2.0 * G
    q.ravel()[::n + 2] = q[0, 1]
    return RegularityReport(_extreme_deviation(sq, 1.0),
                            _extreme_deviation(q, ideal_edge) / ideal_edge)


def _extreme_deviation(sq: np.ndarray, ideal: float) -> float:
    """max |sqrt(max(q, 0)) - ideal| over the squared lengths q in `sq`, bit
    for bit from the two extremes: rounded sqrt and subtraction are monotone."""
    lo, hi = float(sq.min()), float(sq.max())
    if hi != hi:  # numpy's min and max propagate a NaN
        return math.nan
    return max(math.sqrt(max(hi, 0.0)) - ideal,
               ideal - math.sqrt(max(lo, 0.0)))


def _unit_frame(s: Simplex) -> np.ndarray:
    """Vertices centred on their centroid and divided by the stored radius.

    Radius-normalised coordinates keep the geometry exactly scale-free and
    survive sizes whose squares would underflow.  The regularity report and
    the closed-form gradient both read this frame, so a caller that needs
    both builds it once and passes it to the two frame kernels.
    """
    Y = s.vertices - s.centroid()
    Y /= s.radius
    return Y
