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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .simplex import (
    DegenerateSimplexError,
    Simplex,
    reflect_worst,
    shrink_toward_best,
)

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

# Absolute tolerance for classifying an affine weight as zero (weights are
# O(1) for the query kinds of interest, and exact zeros reach us as ~1e-16
# solver noise).
COEFF_ZERO_TOL = 1e-10

# Relative tolerance for classifying an eigenvalue of G as zero.
EIG_ZERO_RTOL = 1e-9

# The sharpness certificate accepts mu down to this (rounding in the solve).
MU_TOL = -1e-12

# Reciprocal-condition threshold below which the affine system is treated
# as singular.
RCOND_MIN = 1e-12


@dataclass
class QueryCoefficients:
    """Affine weights of a query point, with ell[0] = -1 for the query itself.

    ell has length n+2 and is indexed 0..n+1; entries 1..n+1 are the Lagrange
    weights (they sum to 1 and reproduce the query point), and ell[0] = -1.
    positive_index_set / negative_index_set partition the indices by sign,
    with near-zero weights (|ell| <= COEFF_ZERO_TOL) in neither set.
    """

    ell: np.ndarray
    positive_index_set: tuple[int, ...]
    negative_index_set: tuple[int, ...]

    @property
    def zero_index_set(self) -> tuple[int, ...]:
        inhabited = set(self.positive_index_set) | set(self.negative_index_set)
        return tuple(i for i in range(len(self.ell)) if i not in inhabited)


def _affine_system(s: Simplex) -> tuple[np.ndarray, float, np.ndarray]:
    """Centroid c, coordinate scale and the (n+1)x(n+1) affine system
    [[1...1], [y_1 ... y_{n+1}]] with y_i = (x_i - c) / scale.

    Affine weights and interpolant gradients are computed in the centered,
    unit-scale frame so the singularity guard responds to the shape of the
    simplex, never to its absolute position or size.
    """
    c = s.centroid()
    Y = s.vertices - c
    # max-entry scale avoids squaring, so it survives subnormal-range sizes
    scale = float(np.abs(Y).max())
    if scale == 0.0 or not np.isfinite(scale):
        raise DegenerateSimplexError("all vertices coincide")
    A = np.empty((s.dim + 1, s.dim + 1))
    A[0, :] = 1.0
    A[1:, :] = Y.T / scale
    return c, scale, A


def _solve_guarded(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A w = b, raising DegenerateSimplexError when A is near singular."""
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= RCOND_MIN * sv[0]:
        raise DegenerateSimplexError(
            f"affine system is singular beyond tolerance "
            f"(rcond ~ {sv[-1] / sv[0]:.2e})"
        )
    return np.linalg.solve(A, b)


def lagrange_coefficients(s: Simplex, x) -> QueryCoefficients:
    """Affine weights expressing x through the vertices, query weight -1 prepended.

    The weights w solve sum_i w_i = 1, sum_i w_i x_i = x; the returned vector
    is ell = (-1, w_1, ..., w_{n+1}).

    Raises:
        DegenerateSimplexError: the affine system is singular beyond the
            1e-12 reciprocal-condition guard.
    """
    x = np.asarray(x, dtype=float)
    c, scale, A = _affine_system(s)
    b = np.concatenate([[1.0], (x - c) / scale])
    w = _solve_guarded(A, b)
    ell = np.concatenate([[-1.0], w])
    tol = COEFF_ZERO_TOL * max(1.0, float(np.abs(ell).max()))
    pos = tuple(int(i) for i in np.flatnonzero(ell > tol))
    neg = tuple(int(i) for i in np.flatnonzero(ell < -tol))
    return QueryCoefficients(ell=ell, positive_index_set=pos, negative_index_set=neg)


def simplex_gradient(s: Simplex, values) -> np.ndarray:
    """Gradient of the unique affine interpolant of (x_i, values_i).

    Args:
        s: nondegenerate simplex.
        values: length n+1 vector with values[i] = f(x_i).

    Returns:
        The constant gradient of the interpolant.
    """
    f = np.asarray(values, dtype=float)
    if f.shape != (s.dim + 1,):
        raise ValueError(f"expected {s.dim + 1} values, got shape {f.shape}")
    # [alpha; g] solves  alpha + g.y_i = f_i in the centered frame, and the
    # gradient in original coordinates is g / scale
    _, scale, A = _affine_system(s)
    sol = _solve_guarded(A.T, f)
    return sol[1:] / scale


def interpolate(s: Simplex, values, x) -> float:
    """Value of the affine interpolant at x: sum_i ell_i f(x_i)."""
    q = lagrange_coefficients(s, x)
    return float(q.ell[1:] @ np.asarray(values, dtype=float))


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
    return w, P


@dataclass
class GMatrix:
    """The signed second-moment matrix of a query, with its eigensystem.

    The count of positive eigenvalues equals |I_+| - 1 and of negative ones
    |I_-| - 1, where I_+/I_- is the sign partition of the affine weights.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray  # descending
    eigenvectors: np.ndarray  # columns, aligned with eigenvalues
    coefficients: QueryCoefficients
    offsets: np.ndarray  # rows x_i - x: the vertices centred at the query

    @cached_property
    def _signs(self) -> np.ndarray:
        """+1, -1 or 0 per eigenvalue: 0 when within EIG_ZERO_RTOL of the
        largest magnitude.

        The one zero classification: the counts, the traces (and so the
        bound), the extremal quadratic and the mu certificate all read it.
        """
        w = self.eigenvalues
        tol = EIG_ZERO_RTOL * float(np.abs(w).max(initial=0.0)) + np.finfo(float).tiny
        return np.where(w > tol, 1.0, np.where(w < -tol, -1.0, 0.0))

    def positive_count(self) -> int:
        return int(np.sum(self._signs > 0))

    def negative_count(self) -> int:
        return int(np.sum(self._signs < 0))

    def nuclear_norm(self) -> float:
        return float(np.abs(self.eigenvalues[self._signs != 0]).sum())

    def trace_positive(self) -> float:
        return float(self.eigenvalues[self._signs > 0].sum())

    def trace_negative(self) -> float:
        """Magnitude of the negative part of the trace (a nonnegative number)."""
        return float(-self.eigenvalues[self._signs < 0].sum())


def g_matrix(s: Simplex, x) -> GMatrix:
    """Assemble G = sum_i ell_i (x_i - x)(x_i - x)' with its eigendecomposition.

    The query-centered form equals sum_{i=0..n+1} ell_i x_i x_i' because the
    weights satisfy sum ell_i = 0 and sum ell_i x_i = 0; centering just
    removes cancellation error for far-away simplices.
    """
    x = np.asarray(x, dtype=float)
    q = lagrange_coefficients(s, x)
    Y = s.vertices - x[None, :]
    Gm = (Y.T * q.ell[1:]) @ Y
    Gm = 0.5 * (Gm + Gm.T)
    w, P = _deterministic_eigh(Gm)
    return GMatrix(matrix=Gm, eigenvalues=w, eigenvectors=P, coefficients=q,
                   offsets=Y)


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
    """
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}")
    if cls not in CLASSES:
        raise ValueError(f"unknown function class {cls!r}")
    if kind == "shrink":
        if gamma is None or not (0.0 < gamma < 1.0):
            raise ValueError(f"shrink bound needs gamma in (0,1), got {gamma}")
    elif gamma is not None and not (0.0 < gamma < 1.0):
        raise ValueError(f"gamma must lie in (0,1) when given, got {gamma}")
    if kind == "reflection":
        if cls == "convex":
            return (1.0 + 1.0 / n) ** 2 * L * delta ** 2
        return (2.0 * n + 2.0) / n * L * delta ** 2
    if kind == "centroid":
        return 0.5 * L * delta ** 2
    return (n + 1.0) / n * gamma * (1.0 - gamma) * L * delta ** 2


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
    refer to the original vertex numbering of the ell vector (0 = query).
    available is False when the certificate cannot be formed (negative
    eigenspace dimension mismatch or singular Y_- P_-), in which case
    sharpness is simply not asserted.
    """

    entries: dict[tuple[int, int], float] = field(default_factory=dict)
    positive_index_set: tuple[int, ...] = ()
    negative_index_set: tuple[int, ...] = ()
    available: bool = True
    message: str = ""

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


def mu_certificate(s: Simplex, x) -> MuCertificate:
    """Compute the mu coefficients of a query point on a simplex.

    Follows the construction M = diag(ell_+) Y_+ P_- (Y_- P_-)^{-1} with the
    vertices ordered by descending weight, where Y rows are (x_i - x)',
    Y_+ keeps the rows of I_+, Y_- the rows of I_- without the query, and
    P_- spans the negative eigenspace of G.  When I_- = {0} the M block is
    empty and mu_i0 = ell_i.
    """
    return _mu_from_g(g_matrix(s, x))


def _mu_from_g(g: GMatrix) -> MuCertificate:
    """The mu certificate of a query, from its already assembled G."""
    q = g.coefficients
    ell = q.ell
    # Vertex indices 1..n+1 by descending weight (stable for ties).
    vert_order = (np.argsort(-ell[1:], kind="stable") + 1).tolist()
    pos_set = set(q.positive_index_set)
    neg_set = set(q.negative_index_set)
    pos = [i for i in vert_order if i in pos_set]
    neg_tail = [i for i in vert_order if i in neg_set]
    neg = (0, *neg_tail)

    cert = MuCertificate(positive_index_set=tuple(pos), negative_index_set=neg)
    if not neg_tail:
        # Interpolation query: all vertex weights nonnegative, no M block.
        cert.entries = {(i, 0): float(ell[i]) for i in pos}
        return cert

    m = len(neg_tail)
    if g.negative_count() != m:
        cert.available = False
        cert.message = (
            f"negative eigenspace dimension {g.negative_count()} does not "
            f"match |I_-|-1 = {m}; certificate unavailable"
        )
        return cert
    P_neg = g.eigenvectors[:, g._signs < 0]
    Y = g.offsets
    Y_pos = Y[[i - 1 for i in pos], :]
    Y_neg = Y[[i - 1 for i in neg_tail], :]
    B = Y_neg @ P_neg  # m x m
    sv = np.linalg.svd(B, compute_uv=False)
    if sv[-1] <= RCOND_MIN * max(sv[0], 1.0):
        cert.available = False
        cert.message = "Y_- P_- is singular beyond tolerance; certificate unavailable"
        return cert
    M = (ell[pos, None] * (Y_pos @ P_neg)) @ np.linalg.inv(B)
    # cumsum adds left to right, so the residual column is rounded exactly
    # as a running sum over j would round it
    residual = ell[pos] - np.cumsum(M, axis=1)[:, -1]
    for i, row, r in zip(pos, M.tolist(), residual.tolist()):
        cert.entries.update(zip([(i, j) for j in neg_tail], row))
        cert.entries[(i, 0)] = r
    return cert


@dataclass
class Quadratic:
    """f(u) = c + v'u + (1/2) u'H u with symmetric H."""

    H: np.ndarray
    v: np.ndarray
    c: float = 0.0

    def __call__(self, u) -> float:
        u = np.asarray(u, dtype=float)
        return float(self.c + self.v @ u + 0.5 * u @ self.H @ u)

    def gradient(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return self.v + self.H @ u

    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.H, 2))

    def is_convex(self) -> bool:
        return bool(np.linalg.eigvalsh(self.H).min() >= -1e-12)


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
    if cls not in CLASSES:
        raise ValueError(f"unknown function class {cls!r}")
    if sign not in SIGNS:
        raise ValueError(f"sign must be 'positive' or 'negative', got {sign!r}")
    d = g._signs
    if cls == "nonconvex":
        if sign == "negative":
            d = -d
    elif sign == "positive":
        d = (d > 0).astype(float)
    else:
        d = (d < 0).astype(float)
    P = g.eigenvectors
    H = L * (P * d) @ P.T
    H = 0.5 * (H + H.T)
    n = H.shape[0]
    return Quadratic(H=H, v=np.zeros(n), c=0.0)


@dataclass
class BoundReport:
    """Bound-vs-achieved summary for one query kind and function class."""

    kind: str
    cls: str
    bound: float
    achieved: float
    mu: MuCertificate
    quadratic: "Quadratic"
    query: np.ndarray  # the query point x
    g: GMatrix  # G of the query, with its eigensystem

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
    vertex plays the role of the best/kept one).
    """
    if kind == "reflection":
        return reflect_worst(s, s.dim)
    if kind == "centroid":
        return s.centroid()
    if kind == "shrink":
        if gamma is None or not (0.0 < gamma < 1.0):
            raise ValueError(f"shrink query needs gamma in (0,1), got {gamma}")
        return shrink_toward_best(s, 0, gamma).vertices[s.dim]
    raise ValueError(f"unknown query kind {kind!r}")


def bound_report(s: Simplex, kind: str, cls: str, L: float,
                 gamma: float | None = None, sign: str | None = None) -> BoundReport:
    """Build the worst-case quadratic for a query and measure what it achieves.

    The achieved error is |f_hat(x) - f(x)| with f the extremal quadratic,
    f_hat its affine interpolant on the vertices.  For a regular simplex the
    achieved value equals the closed-form bound whenever the mu certificate
    is nonnegative.  It is measured from vertex values in the frame centred
    at the simplex centroid: f(u) and f(u - centroid) differ by an affine
    function, which the interpolant reproduces exactly, so the error is the
    same, and the frame keeps it free of cancellation against ||x||^2 on
    simplices far from the origin.

    G, its eigensystem and the affine weights are computed once, by one
    g_matrix call, and shared by the bound, the extremal quadratic, the
    interpolant value and the mu certificate.

    Raises:
        ValueError: L is not positive and finite, or the query is invalid.
    """
    if not (0.0 < L < np.inf):
        raise ValueError(f"L must be positive and finite, got {L}")
    x = query_point(s, kind, gamma=gamma)
    g = g_matrix(s, x)
    bound = nuclear_bound_from_g(g, L, cls)
    if sign is None:
        if cls == "convex" and g.trace_negative() >= g.trace_positive():
            sign = "negative"
        else:
            sign = "positive"
    quad = worst_case_quadratic(g, L, cls, sign=sign)
    # f(u - centre) at every vertex u (c = 0, v = 0): (1/2) rowsum((Y H) o Y)
    centre = s.centroid()
    Y = s.vertices - centre[None, :]
    values = 0.5 * ((Y @ quad.H) * Y).sum(axis=1)
    achieved = abs(float(g.coefficients.ell[1:] @ values) - quad(x - centre))
    return BoundReport(kind=kind, cls=cls, bound=bound, achieved=achieved,
                       mu=_mu_from_g(g), quadratic=quad, query=x, g=g)


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

    lhs1 = float(np.linalg.norm(gtrue - ghat) ** 2)
    rhs1 = n / 4.0 * L ** 2 * delta ** 2
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
