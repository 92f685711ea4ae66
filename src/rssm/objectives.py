"""Test objectives with certified smoothness metadata.

Each builtin carries the constants the complexity audits need: a smoothness
constant L that provably dominates the gradient's Lipschitz ratio, and where
they exist the gradient-domination constant mu, the optimal value f*, the
minimizer x*, and a convexity tag.  Every builtin also exposes an exact
gradient so that true-gradient stopping and the gradient-inequality checks
can run.

Builtins:
  quad-iso       (1/2) L ||x - x*||^2                    strongly convex, mu = L
  quad-spectrum  (1/2) (x-x*)' H (x-x*), eigenvalues     strongly convex
                 log-spaced in [mu, L], seeded rotation
  logsumexp      log sum_i (e^{s x_i} + e^{-s x_i})      convex, L = s^2,
                                                         f* = log(2n) at 0
  sin-quad       sum_i x_i^2 + 3 sin^2 x_i               nonconvex, gradient
                                                         dominated (mu below), L = 8
  damped-sine    sum_i 0.1 x_i^2 + sin x_i               nonconvex, L = 1.2,
                                                         no closed-form f*

The declared mu for sin-quad is 0.175: the one-dimensional ratio
(1/2) g'(t)^2 / g(t) for g(t) = t^2 + 3 sin^2 t has global minimum
0.1755309858797 at |t| = 2.2017091749 (dense-grid minimization; the ratio
tends to 8 at 0 and 2 at infinity), and for separable sums the mediant
inequality gives the same constant in every dimension.
"""

from __future__ import annotations

import numpy as np

from .simplex import _point, _positive, _positive_int, _sq

__all__ = [
    "Objective",
    "builtin",
    "builtin_names",
    "sublevel_radius",
    "UnsupportedObjectiveError",
]


# the convexity tags, one per case of the complexity analysis
CASES = ("nonconvex", "pl", "convex", "strongly_convex")
CONVEX_CASES = ("convex", "strongly_convex")


class UnsupportedObjectiveError(ValueError):
    """Raised when an operation needs structure an objective does not have."""


class Objective:
    """A callable objective with metadata.

    Attributes:
        name: registry name.
        dim: ambient dimension n.
        gradient: exact gradient callable, or None when unavailable.
        L: certified smoothness (gradient Lipschitz) constant.
        mu: gradient-domination / strong-convexity constant, or None.
        f_star: minimal value, or None when no closed form exists.
        x_star: a minimizer (a scalar is broadcast to R^dim), or None.
        convexity: one of CASES.
    """

    def __init__(self, name: str, dim: int, fn, grad=None, L: float | None = None,
                 mu: float | None = None, f_star: float | None = None,
                 x_star=None, convexity: str = "nonconvex"):
        if convexity not in CASES:
            raise ValueError(f"unknown convexity tag {convexity!r}")
        _positive_int("dim", dim)
        self.name = name
        self.dim = int(dim)
        self._fn = fn
        self.gradient = None if grad is None else _float_gradient(grad)
        self.L = L
        self.mu = mu
        self.f_star = f_star
        self.x_star = None if x_star is None else _point("x_star", x_star, dim)
        self.convexity = convexity

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"{self.name} expects points of dimension {self.dim}, "
                             f"got shape {x.shape}")
        return float(self._fn(x))

    def __repr__(self) -> str:  # pragma: no cover
        return f"Objective({self.name!r}, dim={self.dim}, convexity={self.convexity!r})"


def _float_gradient(grad):
    """grad with float-array input and output.

    The closure holds grad, not the Objective: a bound method stored on the
    instance would put every Objective in a reference cycle.
    """

    def g(x):
        return np.asarray(grad(np.asarray(x, dtype=float)), dtype=float)

    return g


def _haar_orthogonal(n: int, seed: int) -> np.ndarray:
    """Deterministic Haar-distributed orthogonal matrix from a seeded QR."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))[None, :]


def _make_quad_iso(n: int, L: float, x_star) -> Objective:
    _positive("L", L)
    xs = _point("x_star", 0.0 if x_star is None else x_star, n)

    def fn(x):
        return 0.5 * L * float(np.sum((x - xs) ** 2))

    def grad(x):
        return L * (x - xs)

    return Objective("quad-iso", n, fn, grad, L=L, mu=L, f_star=0.0,
                     x_star=xs, convexity="strongly_convex")


def _make_quad_spectrum(n: int, mu: float, L: float, seed: int, x_star) -> Objective:
    _positive("mu", mu)
    _positive("L", L)
    if not (mu <= L):
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if n == 1:
        eigs = np.array([L])
    else:
        eigs = np.logspace(np.log10(mu), np.log10(L), n)
    Q = _haar_orthogonal(n, seed)
    H = (Q * eigs) @ Q.T
    H = 0.5 * (H + H.T)
    xs = _point("x_star", 0.0 if x_star is None else x_star, n)

    def fn(x):
        y = x - xs
        return 0.5 * float(y @ H @ y)

    def grad(x):
        return H @ (x - xs)

    obj = Objective("quad-spectrum", n, fn, grad, L=float(eigs.max()),
                    mu=float(eigs.min()), f_star=0.0, x_star=xs,
                    convexity="strongly_convex")
    obj.hessian = H  # exposed for tests/diagnostics
    return obj


def _make_logsumexp(n: int, scale: float) -> Objective:
    _positive("scale", scale)
    _positive("L = scale*scale", scale * scale)

    def fn(x):
        z = np.concatenate([scale * x, -scale * x])
        m = z.max()
        return float(m + np.log(np.exp(z - m).sum()))

    def grad(x):
        z1, z2 = scale * x, -scale * x
        m = max(z1.max(), z2.max())
        e1, e2 = np.exp(z1 - m), np.exp(z2 - m)
        return scale * (e1 - e2) / (e1.sum() + e2.sum())

    return Objective("logsumexp", n, fn, grad, L=_sq(scale),
                     f_star=float(np.log(2 * n)), x_star=np.zeros(n),
                     convexity="convex")


# Frozen constant: global minimum of (1/2) g'(t)^2 / g(t) for
# g(t) = t^2 + 3 sin^2 t (see module docstring).
SIN_QUAD_MU = 0.175


def _make_sin_quad(n: int) -> Objective:
    def fn(x):
        return float(np.sum(x ** 2 + 3.0 * np.sin(x) ** 2))

    def grad(x):
        return 2.0 * x + 3.0 * np.sin(2.0 * x)

    return Objective("sin-quad", n, fn, grad, L=8.0, mu=SIN_QUAD_MU,
                     f_star=0.0, x_star=np.zeros(n), convexity="pl")


def _make_damped_sine(n: int) -> Objective:
    def fn(x):
        return float(np.sum(0.1 * x ** 2 + np.sin(x)))

    def grad(x):
        return 0.2 * x + np.cos(x)

    return Objective("damped-sine", n, fn, grad, L=1.2, convexity="nonconvex")


def builtin(name: str, n: int, seed: int | None = None, **params) -> Objective:
    """Construct a registered test objective.

    Args:
        name: one of builtin_names().
        n: dimension (n >= 1).
        seed: randomization seed; only quad-spectrum uses it (default 0).
        **params: per-objective overrides -- quad-iso: L, x_star;
            quad-spectrum: mu, L, x_star; logsumexp: scale.

    Raises:
        ValueError: unknown name or invalid parameters.
    """
    _positive_int("n", n)
    if name == "quad-iso":
        obj = _make_quad_iso(n, params.pop("L", 1.0), params.pop("x_star", None))
    elif name == "quad-spectrum":
        obj = _make_quad_spectrum(n, params.pop("mu", 0.1), params.pop("L", 10.0),
                                  0 if seed is None else int(seed),
                                  params.pop("x_star", None))
    elif name == "logsumexp":
        obj = _make_logsumexp(n, params.pop("scale", 1.0))
    elif name == "sin-quad":
        obj = _make_sin_quad(n)
    elif name == "damped-sine":
        obj = _make_damped_sine(n)
    else:
        raise ValueError(f"unknown objective {name!r}; "
                         f"available: {', '.join(builtin_names())}")
    if params:
        raise ValueError(f"{name} takes no parameter {', '.join(sorted(params))}")
    return obj


def builtin_names() -> tuple[str, ...]:
    return ("quad-iso", "quad-spectrum", "logsumexp", "sin-quad", "damped-sine")


def sublevel_radius(obj: Objective, level: float) -> float:
    """Radius R with {f <= level} contained in the ball of radius R around x*.

    For every mu-strongly convex objective R = sqrt(2 (level - f*) / mu),
    since f(x) - f* >= mu/2 ||x - x*||^2 (exact for the isotropic
    quadratic); a certified over-estimate for logsumexp (f(x) >= scale *
    ||x||_inf implies R <= sqrt(n) * level / scale).

    Raises:
        UnsupportedObjectiveError: the objective has no known sublevel
            structure, or lacks the mu and f* (strongly convex) or L
            (logsumexp) its formula reads.
    """
    if obj.convexity == "strongly_convex":
        if obj.mu is None or obj.f_star is None:
            raise UnsupportedObjectiveError(
                f"the sublevel radius of {obj.name!r} needs mu and f*")
        gap = max(level - obj.f_star, 0.0)
        return float(np.sqrt(2.0 * gap / obj.mu))
    if obj.name == "logsumexp":
        if obj.L is None:
            raise UnsupportedObjectiveError(
                "the sublevel radius of 'logsumexp' needs L")
        # f >= scale*||x||_inf >= scale*||x||/sqrt(n); invert at the level.
        scale = np.sqrt(obj.L)
        return float(np.sqrt(obj.dim) * max(level, 0.0) / scale)
    raise UnsupportedObjectiveError(
        f"no sublevel-radius formula for objective {obj.name!r}"
    )
