"""Linear interpolation and extrapolation over a simplex, with sharp error bounds.

Given a nondegenerate simplex {x_1, ..., x_{n+1}} and a query point x, the
unique affine interpolant f_hat of f on the vertices satisfies, for any
quadratic f(u) = c + v'u + (1/2) u'Hu,

    f_hat(x) - f(x) = (1/2) <H, G>,    G = sum_i ell_i (x_i - x)(x_i - x)',

where the ell_i are the affine (Lagrange) weights of x with ell_0 = -1
attached to the query itself.  Maximizing over the smoothness class
-L*I <= H <= L*I gives the sharp bound (L/2)||G||_* in the general case and
(L/2) max{tr(G_+), tr(G_-)} over convex quadratics (0 <= H <= L*I).

The bound extends from quadratics to all L-smooth functions exactly when the
mu coefficients built from M = diag(ell_+) Y_+ P_- (Y_- P_-)^{-1} are all
nonnegative; this module computes that certificate, the extremal quadratics
attaining each bound, and closed forms for the three query kinds used by the
search method (reflection, centroid, shrink).
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import MappingProxyType

import numpy as np

from .simplex import (_COORDINATE_OVERFLOW, _MAX, _UNIT_ROUNDOFF,
                      DegenerateSimplexError, Simplex, _affine_system,
                      _check_nonsingular, _point, _positive, _positive_int,
                      _sq, _unit_frame, _unit_interval, _values,
                      reflect_worst, shrink_toward_best)

__all__ = [
    "QueryCoefficients",
    "GMatrix",
    "Quadratic",
    "MuCertificate",
    "BoundReport",
    "lagrange_coefficients",
    "simplex_gradient",
    "g_matrix",
    "error_bound",
    "nuclear_bound_from_g",
    "mu_certificate",
    "worst_case_quadratic",
    "interpolate",
    "query_point",
    "bound_report",
    "gradient_bound_report",
]

# The query kinds of the search method, the function classes the bounds are
# sharp over, and the two sides an extremal quadratic can attain.
QUERY_KINDS = ("reflection", "centroid", "shrink")
CLASSES = ("nonconvex", "convex")
SIGNS = ("positive", "negative")

# Tolerance for classifying an affine weight as zero, relative to
# max(1, ||ell||_inf) (weights are O(1) for the query kinds of interest, and
# exact zeros reach us as ~1e-16 solver noise).
COEFF_ZERO_TOL = 1e-10

# Relative tolerance for classifying an eigenvalue of G as zero.
EIG_ZERO_RTOL = 1e-9

# The sharpness certificate accepts mu down to this (rounding in the solve).
MU_TOL = -1e-12

# The closed-form weights are taken when the residual F = I - A M of their
# approximate inverse M has ||F||max <= _FRAME_TOL / (n+1), so that
# ||F||_2 <= (n+1) ||F||max <= sqrt(u).  One residual correction leaves an
# error of order ||F||_2^2 = u times the weights (see _frame_weights): the
# rounding level of the solve it replaces.
_FRAME_TOL = math.sqrt(_UNIT_ROUNDOFF)


@dataclass
class QueryCoefficients:
    """Affine weights of a query point, with ell[0] = -1 for the query itself.

    ell has length n+2 and is indexed 0..n+1; entries 1..n+1 are the Lagrange
    weights (they sum to 1 and reproduce the query point), and ell[0] = -1.
    positive_index_set / negative_index_set partition the indices by sign,
    with near-zero weights (|ell| <= COEFF_ZERO_TOL * max(1, ||ell||_inf))
    in neither set.
    """

    ell: np.ndarray
    positive_index_set: tuple[int, ...]
    negative_index_set: tuple[int, ...]


def _solve_guarded(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A w = b, raising DegenerateSimplexError when A is near singular."""
    _check_nonsingular(A)
    return np.linalg.solve(A, b)


def _frame_weights(s: Simplex, x: np.ndarray) -> np.ndarray | None:
    """The affine weights of x in closed form, or None when the simplex is
    not certified regular.

    In the unit frame Y = (V - c) / delta (rows y_i, c the centroid) the
    weights solve A w = b with A = [1'; Y'] and b = (1, q), q = (x - c)/delta.
    On a regular simplex Y'1 = 0 and k Y'Y = I with k = n/(n+1), so
    M = [1/(n+1), k Y] is the inverse of A, and M b is the closed form
    ell_i = 1/(n+1) + k y_i.q.  The certificate is the one matmul
    F = I - A M, whose blocks are I - k Y'Y, the centring residual -k 1'Y
    and its transpose over n+1 (and 0): ||F||max <= _FRAME_TOL/(n+1).
    Then A is invertible, A^-1 = M (I - F)^-1, and the corrected weights
    w = M b + M (b - A M b) = M (I + F) b differ from A^-1 b by
    M F^2 (I - F)^-1 b, at most about u ||M|| ||b|| as ||F||_2 <= sqrt(u).
    The correction is what makes these the weights of the rounded vertices,
    not of the ideal simplex they approximate.

    Far from the origin the rounded centroid c is off by about u ||c||, so
    Y'1 grows with ||c||/delta and the centring block alone can miss the
    certificate.  Then the frame is re-centred once on its own column
    means m, Y - 1m', and q becomes q - m: translating the frame and the
    query alike leaves the weights unchanged, since they sum to 1.
    """
    n = s.dim
    k = n / (n + 1.0)
    tol = _FRAME_TOL / (n + 1)
    shift = 0.0
    # an overflowing frame (an unresolved radius) fails the certificate;
    # the caller raises on overflowing weights
    with np.errstate(over="ignore", invalid="ignore"):
        c = s.centroid()
        Y = _unit_frame(s, c)
        column_sums = Y.sum(axis=0)
        if not k * float(np.abs(column_sums).max()) <= tol:
            shift = column_sums / (n + 1)
            Y -= shift
            column_sums = Y.sum(axis=0)
        F = Y.T @ Y
        F *= k
        F.ravel()[::n + 1] -= 1.0
        residual = max(float(np.abs(F).max()),
                       k * float(np.abs(column_sums).max()))
        if not residual <= tol:  # NaN fails too
            return None
        q = (x - c) / s.radius - shift
        w = k * (Y @ q) + 1.0 / (n + 1)
        w += (1.0 - w.sum()) / (n + 1) + k * (Y @ (q - Y.T @ w))
    return w


def lagrange_coefficients(s: Simplex, x) -> QueryCoefficients:
    """Affine weights expressing x through the vertices, query weight -1 prepended.

    The weights w solve sum_i w_i = 1, sum_i w_i x_i = x; the returned vector
    is ell = (-1, w_1, ..., w_{n+1}).

    On a simplex that one matmul certifies regular (the residual of the
    closed-form inverse at most _FRAME_TOL/(n+1) in every entry) the weights
    are the closed form 1/(n+1) + (n/(n+1)) y_i.(x - c)/delta, refined by one
    O(n^2) residual correction with the same inverse: no SVD and no solve
    (:func:`_frame_weights`).  The certificate itself bounds the affine
    system's reciprocal condition below by about 1/sqrt(n), far above
    ``simplex.RCOND_MIN``, so the guard cannot fire there.  Any other
    simplex takes the guarded solve of ``simplex._affine_system``.

    Raises:
        ValueError: x is not a finite point of R^n (``simplex._point``), or
            its weights overflow the double range.
        DegenerateSimplexError: the affine system fails the nondegeneracy
            rule (reciprocal condition at most ``simplex.RCOND_MIN``).
    """
    x = _point("x", x, s.dim)
    w = _frame_weights(s, x)
    if w is None:
        c, scale, A = _affine_system(s)
        with np.errstate(over="ignore", invalid="ignore"):
            b = np.concatenate([[1.0], (x - c) / scale])
            w = _solve_guarded(A, b)
    if not np.isfinite(w).all():
        raise ValueError("the affine weights of x overflow the double range")
    ell = np.concatenate([[-1.0], w])
    tol = COEFF_ZERO_TOL * max(1.0, float(np.abs(ell).max()))
    pos = tuple(np.flatnonzero(ell > tol).tolist())
    neg = tuple(np.flatnonzero(ell < -tol).tolist())
    return QueryCoefficients(ell=ell, positive_index_set=pos, negative_index_set=neg)


def simplex_gradient(s: Simplex, values) -> np.ndarray:
    """Gradient of the unique affine interpolant of (x_i, values_i).

    Args:
        s: nondegenerate simplex.
        values: length n+1 vector with values[i] = f(x_i).

    Returns:
        The constant gradient of the interpolant.
    """
    f = _values("values", values, s.dim + 1)
    # [alpha; g] solves  alpha + g.y_i = f_i in the centered frame (A^T has
    # A's singular values), and the gradient in original coordinates is g / scale
    _, scale, A = _affine_system(s)
    sol = _solve_guarded(A.T, f)
    return sol[1:] / scale


def interpolate(s: Simplex, values, x) -> float:
    """Value of the affine interpolant at x: sum_i ell_i f(x_i)."""
    f = _values("values", values, s.dim + 1)
    return float(lagrange_coefficients(s, x).ell[1:] @ f)


def _deterministic_eigh(Gm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition, eigenvalues descending, fixed vector signs.

    Each eigenvector is flipped so its first entry of significant magnitude
    (|P_ij| > 1e-12 max_i |P_ij|) is positive, making the basis reproducible
    across runs; an all-zero column has no such entry and is left alone.
    """
    w, P = np.linalg.eigh(Gm)
    order = np.argsort(w)[::-1]
    w = w[order]
    P = P[:, order]
    A = np.abs(P)
    first = (A > 1e-12 * A.max(axis=0)).argmax(axis=0)
    # argmax of an all-False column is row 0, whose entry is then 0 (no flip)
    flip = P[first, np.arange(P.shape[1])] < 0
    P[:, flip] = -P[:, flip]
    _read_only(w, P)
    return w, P


def _read_only(*arrays: np.ndarray) -> None:
    """Clear each array's writeable flag: an edit in place raises ValueError."""
    for a in arrays:
        a.setflags(write=False)


def _classify(values: np.ndarray) -> np.ndarray:
    """+1, -1 or 0 per value: 0 when within EIG_ZERO_RTOL of the largest
    magnitude."""
    tol = EIG_ZERO_RTOL * float(np.abs(values).max(initial=0.0)) + np.finfo(float).tiny
    return np.where(values > tol, 1.0, np.where(values < -tol, -1.0, 0.0))


def _two_cluster_form(Gm: np.ndarray, q: QueryCoefficients,
                      offsets: np.ndarray) -> tuple[np.ndarray, float, float] | None:
    """(u, lam_u, lam_c) with G = lam_c I + (lam_u - lam_c) u u' certified,
    or None.

    On a regular simplex the three canonical queries give this form: the
    centroid a scalar G, the reflection u along the one vertex of negative
    weight, the shrink u along either vertex of nonzero weight; a shrink
    query lies on an edge, so its G is rank one on any simplex.  u is read
    from the sign partition: the offset x_i - x of the one negative vertex,
    else (no negative vertex) of the first positive one; any other
    partition, and n = 1, returns None.  lam_u = u'Gu and lam_c is the mean
    of the rest of the trace, (tr G - lam_u)/(n-1).

    The certificate: with E = G - G_cf and m = max(|lam_u|, |lam_c|),
    eps = n ||E||max + 16(n+1) u m (u the unit roundoff; the second term
    covers the rounding of E and ||u||^2 != 1) bounds ||E||_2 plus the
    distance of G_cf's eigenvalues from lam_u, lam_c.  By Weyl's bound every
    eigenvalue of G lies within eps of its cluster value.  The form is
    accepted when eps <= EIG_ZERO_RTOL m / 2 and each cluster value v sits
    outside the band where that shift could change its zero class:
    |v| <= EIG_ZERO_RTOL (m - eps) - eps (zero) or
    |v| > EIG_ZERO_RTOL (m + eps) + eps (nonzero, the sign of v).  Then
    every eigenvalue of G gets the class of its cluster value, so the counts
    equal those of eigh, and the cluster sums differ from eigh's sums only
    by O(||E||^2 / gap) plus rounding.
    """
    n = Gm.shape[0]
    negative = [i for i in q.negative_index_set if i != 0]
    if n < 2 or len(negative) > 1 or not (negative or q.positive_index_set):
        return None
    i = negative[0] if negative else q.positive_index_set[0]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        y = offsets[i - 1]
        u = y / math.sqrt(float(y @ y))
        lam_u = float(u @ (Gm @ u))
        lam_c = (float(Gm.trace()) - lam_u) / (n - 1)
        E = np.multiply.outer(u, (lam_c - lam_u) * u)
        E += Gm
        E.ravel()[::n + 1] -= lam_c
        m = max(abs(lam_u), abs(lam_c))
        eps = n * float(np.abs(E).max()) + 16 * (n + 1) * _UNIT_ROUNDOFF * m
    if not eps <= 0.5 * EIG_ZERO_RTOL * m:  # NaN fails too
        return None
    zero = EIG_ZERO_RTOL * (m - eps) - eps
    nonzero = EIG_ZERO_RTOL * (m + eps) + eps + np.finfo(float).tiny
    if any(zero < abs(v) <= nonzero for v in (lam_u, lam_c)):
        return None
    _read_only(u)
    return u, lam_u, lam_c


class GMatrix:
    """The signed second-moment matrix of a query, with its spectrum.

    The count of positive eigenvalues equals |I_+| - 1 and of negative ones
    |I_-| - 1, where I_+/I_- is the sign partition of the affine weights.

    Built without an eigensystem (as g_matrix builds it), G first tries the
    certified two-cluster form G = lam_c I + (lam_u - lam_c) u u' of the
    canonical queries on a regular simplex (:func:`_two_cluster_form`).
    When it holds, the counts, the spectral sums, the extremal quadratic and
    the mu certificate read the two cluster values and u, all in O(n^2);
    otherwise they read eigh of `matrix`.  `eigenvalues` (descending) and
    `eigenvectors` (columns, aligned) are eigh of `matrix` in either case,
    computed on first read: inside a multiple eigenvalue the rounded values
    of G spread by more than the cluster mean shows, so they are never
    replaced by it.  The reports of one query share a GMatrix, so the
    arrays of g_matrix, the eigensystem and u are read-only.
    """

    def __init__(self, matrix: np.ndarray, *, coefficients: QueryCoefficients,
                 offsets: np.ndarray):
        self.matrix = matrix
        self.coefficients = coefficients
        self.offsets = offsets  # rows x_i - x: the vertices centred at the query

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        return _deterministic_eigh(self.matrix)

    @cached_property
    def _two_cluster(self) -> tuple[np.ndarray, float, float] | None:
        return _two_cluster_form(self.matrix, self.coefficients, self.offsets)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigensystem[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigensystem[1]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(values, multiplicities): the two cluster values, or every
        eigenvalue once."""
        if self._two_cluster is not None:
            _, lam_u, lam_c = self._two_cluster
            return (np.array([lam_u, lam_c]),
                    np.array([1.0, self.matrix.shape[0] - 1.0]))
        w = self.eigenvalues
        return w, np.ones(len(w))

    @cached_property
    def _signs(self) -> np.ndarray:
        """+1, -1 or 0 per spectrum value: 0 when within EIG_ZERO_RTOL of
        the largest magnitude.

        The one zero classification: the counts, the traces (and so the
        bound), the extremal quadratic and the mu certificate all read it.
        """
        return _classify(self._spectrum[0])

    def _class_sum(self, values: np.ndarray, mask: np.ndarray) -> float:
        return float((self._spectrum[1] * values)[mask].sum())

    def negative_count(self) -> int:
        return int(self._spectrum[1][self._signs < 0].sum())

    def nuclear_norm(self) -> float:
        return self._class_sum(np.abs(self._spectrum[0]), self._signs != 0)

    def trace_positive(self) -> float:
        return self._class_sum(self._spectrum[0], self._signs > 0)

    def trace_negative(self) -> float:
        """Magnitude of the negative part of the trace (a nonnegative number)."""
        return -self._class_sum(self._spectrum[0], self._signs < 0)

    def _negative_basis(self) -> np.ndarray:
        """Orthonormal columns spanning the negative eigenspace: u or
        nothing when the lam_c cluster (sign 1) is not negative, else the
        eigenvectors eigh classes negative (the certified counts agree)."""
        if self._two_cluster is not None and self._signs[1] >= 0:
            u = self._two_cluster[0]
            return u[:, None] if self._signs[0] < 0 else u[:, :0]
        return self.eigenvectors[:, _classify(self.eigenvalues) < 0]


def g_matrix(s: Simplex, x) -> GMatrix:
    """Assemble G = sum_i ell_i (x_i - x)(x_i - x)'.

    The query-centered form equals sum_{i=0..n+1} ell_i x_i x_i' because the
    weights satisfy sum ell_i = 0 and sum ell_i x_i = 0; centering just
    removes cancellation error for far-away simplices.  A G that is not
    finite raises ValueError.  No eigendecomposition runs here: the GMatrix
    takes its spectrum from the certified two-cluster form when the query
    is canonical on a regular simplex, else from eigh on first need.
    """
    q = lagrange_coefficients(s, x)  # x passes the point rule there
    Y = s.vertices - np.asarray(x, dtype=float)
    Gm = (Y.T * q.ell[1:]) @ Y
    Gm = 0.5 * (Gm + Gm.T)
    if not np.isfinite(Gm).all():
        raise ValueError("G overflows the double range")
    _read_only(Gm, Y, q.ell)
    return GMatrix(Gm, coefficients=q, offsets=Y)


def error_bound(kind: str, cls: str, n: int, L: float, delta: float,
                gamma: float | None = None) -> float:
    """Closed-form sharp error bound for a regular-simplex query.

    Args:
        kind: "reflection", "centroid" or "shrink".
        cls: "nonconvex" (all L-smooth f) or "convex" (adds H >= 0).
        n: dimension; L: smoothness constant; delta: simplex radius.
        gamma: shrink factor, required iff kind == "shrink".

    Returns:
        The bound on |f_hat(x) - f(x)|:
          reflection, nonconvex:  (2n+2)/n * L * delta^2
          reflection, convex:     (1 + 1/n)^2 * L * delta^2
          centroid (either cls):  L * delta^2 / 2
          shrink (either cls):    (n+1)/n * gamma(1-gamma) * L * delta^2

    Raises:
        ValueError: an unknown kind or class, an argument outside its range,
            or a bound beyond the double range.
    """
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}")
    if cls not in CLASSES:
        raise ValueError(f"unknown function class {cls!r}")
    _positive_int("n", n)
    _positive("L", L)
    _positive("delta", delta)
    if kind == "shrink" or gamma is not None:
        _unit_interval("gamma", gamma)
    d2 = _sq(delta)
    if kind == "reflection":
        if cls == "convex":
            bound = _sq(1.0 + 1.0 / n) * L * d2
        else:
            bound = (2.0 * n + 2.0) / n * L * d2
    elif kind == "centroid":
        bound = 0.5 * L * d2
    else:
        bound = (n + 1.0) / n * gamma * (1.0 - gamma) * L * d2
    if not bound <= _MAX:
        raise ValueError(f"the {kind} bound overflows the double range: "
                         f"bound {bound!r}")
    return bound


def nuclear_bound_from_g(g: GMatrix, L: float, cls: str) -> float:
    """Sharp bound from an assembled G: (L/2)||G||_* or (L/2)max trace part.

    Defined for arbitrary simplices; coincides with error_bound on the
    regular-simplex query kinds.
    """
    if cls == "nonconvex":
        return 0.5 * L * g.nuclear_norm()
    if cls == "convex":
        return 0.5 * L * max(g.trace_positive(), g.trace_negative())
    raise ValueError(f"unknown function class {cls!r}")


@dataclass
class MuCertificate:
    """Sharpness certificate: the bound is attained over L-smooth functions
    exactly when every mu coefficient is nonnegative.

    entries maps (i, j) -> mu_ij for i in I_+ and j in (I_- minus the query)
    together with the residual column mu_i0 = ell_i - sum_j mu_ij.  Indices
    refer to the original vertex numbering of the ell vector (0 = query);
    a read-only copy, as the reports of one query share it.  available is
    False when the certificate cannot be formed (negative eigenspace
    dimension mismatch or singular Y_- P_-): sharpness is not asserted.
    """

    entries: Mapping[tuple[int, int], float] = field(default_factory=dict)
    positive_index_set: tuple[int, ...] = ()
    negative_index_set: tuple[int, ...] = ()
    available: bool = True
    message: str = ""

    def __post_init__(self):
        self.entries = MappingProxyType(dict(self.entries))

    @property
    def sharp(self) -> bool:
        if not self.available:
            return False
        return all(v >= MU_TOL for v in self.entries.values())

    def to_dict(self) -> dict:
        return {
            "available": self.available,
            "sharp": self.sharp,
            "message": self.message,
            "entries": {f"{i},{j}": v for (i, j), v in self.entries.items()},
        }


def mu_certificate(g: GMatrix) -> MuCertificate:
    """The mu coefficients of a query, from its assembled G (:func:`g_matrix`).

    Follows the construction M = diag(ell_+) Y_+ P_- (Y_- P_-)^{-1} with the
    vertices ordered by descending weight, where Y rows are (x_i - x)',
    Y_+ keeps the rows of I_+, Y_- the rows of I_- without the query, and
    P_- spans the negative eigenspace of G.  When I_- = {0} the M block is
    empty and mu_i0 = ell_i.
    """
    q = g.coefficients
    ell = q.ell
    # Vertex indices 1..n+1 by descending weight (stable for ties).
    vert_order = (np.argsort(-ell[1:], kind="stable") + 1).tolist()
    pos_set = set(q.positive_index_set)
    neg_set = set(q.negative_index_set)
    pos = [i for i in vert_order if i in pos_set]
    neg_tail = [i for i in vert_order if i in neg_set]
    neg = (0, *neg_tail)

    cert = partial(MuCertificate, positive_index_set=tuple(pos),
                   negative_index_set=neg)
    if not neg_tail:
        # Interpolation query: all vertex weights nonnegative, no M block.
        return cert(entries={(i, 0): float(ell[i]) for i in pos})

    m = len(neg_tail)
    if g.negative_count() != m:
        return cert(available=False, message=(
            f"negative eigenspace dimension {g.negative_count()} does not "
            f"match |I_-|-1 = {m}; certificate unavailable"))
    P_neg = g._negative_basis()
    Y = g.offsets
    Y_pos = Y[[i - 1 for i in pos], :]
    Y_neg = Y[[i - 1 for i in neg_tail], :]
    B = Y_neg @ P_neg  # m x m
    try:
        _check_nonsingular(B)
    except DegenerateSimplexError:
        return cert(available=False, message="Y_- P_- is singular beyond "
                    "tolerance; certificate unavailable")
    M = (ell[pos, None] * (Y_pos @ P_neg)) @ np.linalg.inv(B)
    # cumsum adds left to right, so the residual column is rounded exactly
    # as a running sum over j would round it
    residual = ell[pos] - np.cumsum(M, axis=1)[:, -1]
    # row by row: mu_ij for j in I_- minus the query, then mu_i0
    columns = (*neg_tail, 0)
    values = np.concatenate([M, residual[:, None]], axis=1).ravel().tolist()
    return cert(entries=dict(zip([(i, j) for i in pos for j in columns],
                                 values)))


@dataclass
class Quadratic:
    """f(u) = c + v'u + (1/2) u'H u with symmetric H."""

    H: np.ndarray
    v: np.ndarray
    c: float = 0.0

    def __call__(self, u) -> float:
        u = _point("u", u, len(self.v))
        return float(self.c + self.v @ u + 0.5 * u @ self.H @ u)

    def gradient(self, u) -> np.ndarray:
        u = _point("u", u, len(self.v))
        return self.v + self.H @ u

    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.H, 2))

    def is_convex(self) -> bool:
        """H >= 0, with eigenvalues within EIG_ZERO_RTOL of the largest
        magnitude counted as zero."""
        w = np.linalg.eigvalsh(self.H)
        return bool(w.min() >= -EIG_ZERO_RTOL * float(np.abs(w).max(initial=0.0)))


def _extremal_weights(g: GMatrix, cls: str, sign: str) -> np.ndarray:
    """The weight of each spectrum value of G in H*/L: +-1 or 0."""
    if cls not in CLASSES:
        raise ValueError(f"unknown function class {cls!r}")
    if sign not in SIGNS:
        raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}")
    d = g._signs
    if cls == "nonconvex":
        return -d if sign == "negative" else d
    if sign == "positive":
        return (d > 0).astype(float)
    return (d < 0).astype(float)


def worst_case_quadratic(g: GMatrix, L: float, cls: str,
                         sign: str = "positive") -> Quadratic:
    """The quadratic attaining the sharp bound for an assembled G.

    For the general smooth class the extremizer is H* = L P sgn(Lambda) P'
    (sign="positive"; its negation for sign="negative", which attains the
    same magnitude on the other side).  For the convex class H* is L times
    the projector onto the positive (sign="positive", attaining
    (L/2)tr(G_+) of overestimation) or negative (sign="negative", attaining
    (L/2)tr(G_-) of underestimation) eigenspace of G.
    """
    d = _extremal_weights(g, cls, sign)
    n = g.matrix.shape[0]
    if g._two_cluster is not None:
        # H = L (d_c I + (d_u - d_c) u u'), symmetric entry for entry
        u = g._two_cluster[0]
        H = (L * (d[0] - d[1])) * np.outer(u, u)
        H.ravel()[::n + 1] += L * d[1]
    else:
        P = g.eigenvectors
        H = L * (P * d) @ P.T
        H = 0.5 * (H + H.T)
    return Quadratic(H=H, v=np.zeros(n), c=0.0)


@dataclass
class BoundReport:
    """Bound-vs-achieved summary for one query kind and function class.

    The two class reports of one query on one simplex share their `query`,
    `g` and `mu` objects (see :func:`bound_report`).
    """

    kind: str
    cls: str
    bound: float
    achieved: float
    mu: MuCertificate
    quadratic: "Quadratic"
    query: np.ndarray  # the query point x
    g: GMatrix  # G of the query, with its spectrum

    @property
    def attained(self) -> bool:
        return abs(self.achieved - self.bound) <= 1e-9 * max(abs(self.bound), 1e-300)

    @property
    def dominated(self) -> bool:
        return self.achieved <= self.bound * (1.0 + 1e-9) + 1e-300

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "class": self.cls,
            "bound": self.bound,
            "achieved": self.achieved,
            "attained": self.attained,
            "mu": self.mu.to_dict(),
        }


def query_point(s: Simplex, kind: str, gamma: float | None = None) -> np.ndarray:
    """Canonical query point of each kind on a bare simplex.

    Without function values the "worst" vertex is arbitrary; the last vertex
    is used for reflection and for the moved vertex of a shrink (the first
    vertex plays the role of the best/kept one).  A query beyond the doubles
    raises ValueError, as the vertex coordinates it is built from do.
    """
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}")
    with np.errstate(over="ignore"):  # an overflow is raised on below
        x = (reflect_worst(s, s.dim) if kind == "reflection" else
             s.centroid() if kind == "centroid" else
             shrink_toward_best(s, 0, gamma).vertices[s.dim])  # checks gamma
    if not np.isfinite(x).all():
        raise ValueError(_COORDINATE_OVERFLOW)
    return x


def _query(s: Simplex, kind: str,
           gamma: float | None) -> tuple[np.ndarray, GMatrix, MuCertificate]:
    """(x, g, mu) of a query on s: the class-independent part of a report.

    Memoised on the simplex by (kind, gamma), gamma None for every kind but
    shrink, with a copy of the vertices and the radius it was built from.
    A memo that no longer matches both is dropped, so the vertices may be
    edited in place or reassigned.  A build that raises stores nothing.
    What the reports share is read-only: x, the arrays of g and mu.entries.
    """
    memo = s._queries
    if (memo is None or memo[1] != s.radius
            or not np.array_equal(memo[0], s.vertices)):
        memo = s._queries = (s.vertices.copy(), s.radius, {})
    key = (kind, gamma if kind == "shrink" else None)
    entry = memo[2].get(key)
    if entry is None:
        x = query_point(s, kind, gamma=gamma)
        _read_only(x)
        g = g_matrix(s, x)
        entry = memo[2][key] = (x, g, mu_certificate(g))
    return entry


def bound_report(s: Simplex, kind: str, cls: str, L: float,
                 gamma: float | None = None, sign: str | None = None) -> BoundReport:
    """Build the worst-case quadratic for a query and measure what it achieves.

    The achieved error is |f_hat(x) - f(x)| with f the extremal quadratic,
    f_hat its affine interpolant on the vertices.  For a regular simplex the
    achieved value equals the closed-form bound whenever the mu certificate
    is nonnegative.  It is measured from vertex values in the frame centred
    at the query x, on G's offsets x_i - x: f(u) and f(u - x) differ by an
    affine function, which the interpolant reproduces exactly, so the error
    is the same; there f(x - x) = 0, so the error is the interpolant's
    value, and the frame keeps it free of cancellation against ||x||^2 on
    simplices far from the origin.

    The query point, G (one g_matrix call: the affine weights, G and its
    spectrum) and the mu certificate are computed once per query per
    simplex and shared by both classes: they are memoised on `s`, checked
    against its vertices and radius on every call.  A report computes only
    the class-dependent parts itself: the bound, the sign, the extremal
    quadratic and the achieved error.

    Raises:
        ValueError: L is not positive and finite, the query is invalid, or
            G, the bound or the achieved error overflows the double range.
    """
    _positive("L", L)
    x, g, mu = _query(s, kind, gamma)
    bound = nuclear_bound_from_g(g, L, cls)
    if sign is None:
        if cls == "convex" and g.trace_negative() >= g.trace_positive():
            sign = "negative"
        else:
            sign = "positive"
    quad = worst_case_quadratic(g, L, cls, sign=sign)
    # f(u - x) at every vertex u (c = 0, v = 0): (1/2) rowsum((Y H) o Y)
    Y = g.offsets
    if g._two_cluster is None:
        values = 0.5 * ((Y @ quad.H) * Y).sum(axis=1)
    else:
        # y'Hy = L (d_c ||y||^2 + (d_u - d_c) (y.u)^2)
        d_u, d_c = L * _extremal_weights(g, cls, sign)
        a = Y @ g._two_cluster[0]
        values = 0.5 * (d_c * (Y * Y).sum(axis=1) + (d_u - d_c) * (a * a))
    # f(x - x) = 0: the interpolant's value is the error
    achieved = abs(float(g.coefficients.ell[1:] @ values))
    if not (np.isfinite(bound) and np.isfinite(achieved)):
        raise ValueError(f"the {kind} bound overflows the double range: "
                         f"bound {bound!r}, achieved {achieved!r}")
    return BoundReport(kind=kind, cls=cls, bound=bound, achieved=achieved,
                       mu=mu, quadratic=quad, query=x, g=g)


def gradient_bound_report(s: Simplex, objective, L: float | None = None) -> dict:
    """Check the three gradient inequalities linking f, f_hat and the gap.

    On a regular simplex of radius delta with values f_i and centroid c:

      1. ||grad f(c) - grad f_hat(c)||^2 <= (n/4) L^2 delta^2
      2. ||grad f_hat(c)|| <= (n/delta) (f_worst - mean of all values)
      3. f_worst - mean >= (delta/n) (||grad f(c)|| - (sqrt(n)/2) L delta)

    Inequalities 1 and 3 need the true gradient and are skipped (with a
    flag) when the objective does not expose one; 2 uses values only.

    Returns:
        dict mapping check name -> {"holds": bool, "lhs": .., "rhs": ..,
        "slack": rhs - lhs} plus a "skipped" list.
    """
    n = s.dim
    delta = s.radius
    if L is None:
        L = getattr(objective, "L", None)
    if L is not None:
        _positive("L", L)
    values = np.array([objective(v) for v in s.vertices], dtype=float)
    c = s.centroid()
    ghat = simplex_gradient(s, values)
    f_worst = float(values.max())
    mean = float(values.mean())
    report: dict = {"skipped": []}

    lhs2 = float(np.linalg.norm(ghat))
    rhs2 = n / delta * (f_worst - mean)
    report["simplex_gradient_upper"] = {
        "holds": lhs2 <= rhs2 + 1e-9 * max(1.0, abs(rhs2)),
        "lhs": lhs2, "rhs": rhs2, "slack": rhs2 - lhs2,
    }

    grad_fn = getattr(objective, "gradient", None)
    if grad_fn is None or L is None:
        report["skipped"] += ["gradient_error", "gap_lower"]
        return report
    gtrue = np.asarray(grad_fn(c), dtype=float)

    lhs1 = _sq(np.linalg.norm(gtrue - ghat))
    rhs1 = n / 4.0 * _sq(L) * _sq(delta)
    report["gradient_error"] = {
        "holds": lhs1 <= rhs1 + 1e-9 * max(1.0, abs(rhs1)),
        "lhs": lhs1, "rhs": rhs1, "slack": rhs1 - lhs1,
    }

    lhs3 = f_worst - mean
    rhs3 = delta / n * (float(np.linalg.norm(gtrue)) - 0.5 * np.sqrt(n) * L * delta)
    report["gap_lower"] = {
        "holds": lhs3 >= rhs3 - 1e-9 * max(1.0, abs(rhs3)),
        "lhs": lhs3, "rhs": rhs3, "slack": lhs3 - rhs3,
    }
    return report
