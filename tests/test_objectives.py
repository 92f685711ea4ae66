"""Built-in objective suite: values, gradients, certified constants."""

import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from rssm.objectives import (
    Objective,
    UnsupportedObjectiveError,
    builtin,
    builtin_names,
    sublevel_radius,
)


ALL_NAMES = ("quad-iso", "quad-spectrum", "logsumexp", "sin-quad", "damped-sine")


def test_registry_lists_five_names():
    assert builtin_names() == ALL_NAMES


def test_importing_the_objectives_loads_neither_solver_nor_auditor():
    src = Path(__file__).parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rssm.objectives; "
         "print(sorted(m for m in sys.modules if m.startswith('rssm')))"],
        capture_output=True, text=True, env=env, check=True)
    # the range rules of the parameters are simplex's; simplex imports no
    # other rssm module
    assert proc.stdout == "['rssm', 'rssm.objectives', 'rssm.simplex']\n"


# ---------------------------------------------------------------------------
# hand-computed values


def test_quad_iso_values_and_gradient():
    obj = builtin("quad-iso", 2)
    assert obj(np.array([3.0, 4.0])) == pytest.approx(12.5)
    np.testing.assert_allclose(obj.gradient([3.0, 4.0]), [3.0, 4.0])
    assert obj.L == 1.0 and obj.mu == 1.0 and obj.f_star == 0.0
    assert obj.convexity == "strongly_convex"


def test_quad_iso_shifted_minimizer():
    obj = builtin("quad-iso", 3, L=2.0, x_star=1.5)
    np.testing.assert_allclose(obj.x_star, [1.5, 1.5, 1.5])
    assert obj(obj.x_star) == pytest.approx(0.0, abs=1e-15)
    assert obj(np.array([2.5, 1.5, 1.5])) == pytest.approx(1.0)


def test_sin_quad_at_origin_and_constants():
    obj = builtin("sin-quad", 4)
    assert obj(np.zeros(4)) == 0.0
    np.testing.assert_allclose(obj.gradient(np.zeros(4)), 0.0, atol=1e-15)
    assert obj.L == 8.0
    assert obj.mu == pytest.approx(0.175)
    assert obj.convexity == "pl" and obj.f_star == 0.0


def test_sin_quad_gradient_domination_on_random_box():
    # ratio 0.5*||grad f||^2 / f stays above the certified constant on
    # 1e5 random points of [-10, 10]^n, checked with re-written formulas
    rng = np.random.default_rng(7)
    n = 3
    X = rng.uniform(-10.0, 10.0, size=(100_000, n))
    f = np.sum(X ** 2 + 3.0 * np.sin(X) ** 2, axis=1)
    g = 2.0 * X + 3.0 * np.sin(2.0 * X)
    ratio = 0.5 * np.sum(g * g, axis=1) / np.where(f > 0, f, np.inf)
    assert ratio.min() >= 0.175

    obj = builtin("sin-quad", n)
    for i in (0, 123, 4567):
        assert obj(X[i]) == pytest.approx(f[i], rel=1e-12)
        np.testing.assert_allclose(obj.gradient(X[i]), g[i], rtol=1e-12)


def test_quad_spectrum_eigenvalues_span_mu_to_L():
    obj = builtin("quad-spectrum", 6, seed=3)
    eig = np.linalg.eigvalsh(obj.hessian)
    assert eig.min() == pytest.approx(0.1, abs=1e-12)
    assert eig.max() == pytest.approx(10.0, abs=1e-12)
    assert obj.mu == pytest.approx(0.1) and obj.L == pytest.approx(10.0)


def test_quad_spectrum_seed_determinism():
    a = builtin("quad-spectrum", 5, seed=11)
    b = builtin("quad-spectrum", 5, seed=11)
    c = builtin("quad-spectrum", 5, seed=12)
    np.testing.assert_array_equal(a.hessian, b.hessian)
    assert not np.allclose(a.hessian, c.hessian)


def test_quad_spectrum_one_dimensional():
    obj = builtin("quad-spectrum", 1, seed=0, mu=0.5, L=4.0)
    np.testing.assert_allclose(obj.hessian, [[4.0]])
    assert obj(np.array([2.0])) == pytest.approx(8.0)


def test_quad_spectrum_value_matches_hessian(rng):
    obj = builtin("quad-spectrum", 4, seed=9)
    x = rng.standard_normal(4)
    assert obj(x) == pytest.approx(0.5 * x @ obj.hessian @ x, rel=1e-12)


def test_logsumexp_constants_and_origin():
    n, scale = 5, 2.0
    obj = builtin("logsumexp", n, scale=scale)
    assert obj.L == pytest.approx(scale ** 2)
    assert obj.f_star == pytest.approx(np.log(2 * n))
    assert obj(np.zeros(n)) == pytest.approx(np.log(2 * n), rel=1e-14)
    np.testing.assert_allclose(obj.gradient(np.zeros(n)), 0.0, atol=1e-15)
    assert obj.convexity == "convex"


def test_logsumexp_is_overflow_safe():
    obj = builtin("logsumexp", 3, scale=1.0)
    x = np.array([1000.0, 0.0, 0.0])
    assert obj(x) == pytest.approx(1000.0, rel=1e-12)
    assert np.all(np.isfinite(obj.gradient(x)))


def test_damped_sine_metadata():
    obj = builtin("damped-sine", 2)
    assert obj.L == pytest.approx(1.2)
    assert obj.f_star is None and obj.mu is None
    assert obj.convexity == "nonconvex"
    assert obj(np.zeros(2)) == pytest.approx(0.0)
    x = np.array([np.pi / 2, 0.0])
    assert obj(x) == pytest.approx(0.1 * (np.pi / 2) ** 2 + 1.0)


# ---------------------------------------------------------------------------
# gradients vs central differences, smoothness constants


@pytest.mark.parametrize("name", ALL_NAMES)
def test_gradient_matches_central_difference(name, rng):
    n = 4
    obj = builtin(name, n, seed=2)
    for _ in range(5):
        x = rng.uniform(-3.0, 3.0, n)
        h = 1e-6 * (1.0 + np.linalg.norm(x))
        num = np.empty(n)
        for j in range(n):
            e = np.zeros(n)
            e[j] = h
            num[j] = (obj(x + e) - obj(x - e)) / (2.0 * h)
        np.testing.assert_allclose(obj.gradient(x), num, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_L_dominates_gradient_lipschitz_ratio(name, rng):
    n = 3
    obj = builtin(name, n, seed=5)
    for _ in range(200):
        x = rng.uniform(-6.0, 6.0, n)
        y = x + rng.uniform(-1.0, 1.0, n)
        num = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
        den = np.linalg.norm(x - y)
        if den > 1e-12:
            assert num <= obj.L * den * (1.0 + 1e-9)


# ---------------------------------------------------------------------------
# input checks and lifetime


def test_dimension_mismatch_is_rejected_without_counting():
    obj = builtin("logsumexp", 3)
    with pytest.raises(ValueError):
        obj(np.zeros(4))


@pytest.mark.parametrize("make", [
    lambda: builtin("quad-spectrum", 4),
    lambda: Objective("mystery", 2, lambda x: float(x @ x)),
])
def test_objectives_are_freed_without_the_cycle_collector(make):
    # a gradient stored as a bound method would make every Objective a
    # reference cycle, which only gc frees: peak memory grows with it
    gc.disable()
    try:
        ref = weakref.ref(make())
        assert ref() is None
    finally:
        gc.enable()


def test_plain_objective_without_gradient():
    obj = Objective("mystery", 2, lambda x: float(x @ x))
    assert obj.gradient is None
    assert obj(np.ones(2)) == pytest.approx(2.0)


def test_objective_rejects_unknown_convexity_tag():
    with pytest.raises(ValueError):
        Objective("bad", 1, lambda x: 0.0, convexity="sideways")


# ---------------------------------------------------------------------------
# construction errors


def test_unknown_name_raises():
    with pytest.raises(ValueError, match="unknown objective"):
        builtin("rosenbrock", 2)


@pytest.mark.parametrize("n", [0, -3])
def test_nonpositive_dimension_raises(n):
    with pytest.raises(ValueError):
        builtin("quad-iso", n)


def test_logsumexp_scale_must_be_positive():
    with pytest.raises(ValueError):
        builtin("logsumexp", 2, scale=0.0)
    with pytest.raises(ValueError):
        builtin("logsumexp", 2, scale=-1.0)


def test_quad_spectrum_mu_above_L_raises():
    with pytest.raises(ValueError):
        builtin("quad-spectrum", 3, mu=2.0, L=1.0)


@pytest.mark.parametrize("name, params, message", [
    pytest.param("quad-iso", {"L": -1.0}, "L must be positive and finite",
                 id="quad-iso-L-negative"),
    pytest.param("quad-iso", {"L": 0.0}, "L must be positive and finite",
                 id="quad-iso-L-zero"),
    pytest.param("quad-iso", {"L": np.inf}, "L must be positive and finite",
                 id="quad-iso-L-inf"),
    pytest.param("quad-iso", {"x_star": np.nan},
                 "x_star must be a finite scalar or length-2 vector, got nan",
                 id="quad-iso-x_star-nan"),
    pytest.param("quad-iso", {"x_star": [0.0, np.inf]},
                 r"x_star must be a finite scalar or length-2 vector, "
                 r"got \[0.0, inf\]", id="quad-iso-x_star-inf-entry"),
    pytest.param("quad-spectrum", {"L": np.inf},
                 "L must be positive and finite", id="quad-spectrum-L-inf"),
    pytest.param("quad-spectrum", {"mu": np.nan},
                 "mu must be positive and finite", id="quad-spectrum-mu-nan"),
    pytest.param("quad-spectrum", {"x_star": -np.inf},
                 "x_star must be a finite scalar or length-2 vector, got -inf",
                 id="quad-spectrum-x_star-minus-inf"),
    pytest.param("logsumexp", {"scale": np.inf},
                 "scale must be positive and finite",
                 id="logsumexp-scale-inf"),
    pytest.param("logsumexp", {"scale": np.nan},
                 "scale must be positive and finite",
                 id="logsumexp-scale-nan"),
    pytest.param("logsumexp", {"scale": 1e300},
                 "L = scale\\*scale must be positive",
                 id="logsumexp-scale-squared-overflow"),
])
def test_builtin_parameters_are_checked_where_read(name, params, message):
    with pytest.raises(ValueError, match=message):
        builtin(name, 2, **params)


@pytest.mark.parametrize("name, params, message", [
    ("quad-iso", {"foo": 3.0}, "quad-iso takes no parameter foo"),
    ("sin-quad", {"L": 3.0}, "sin-quad takes no parameter L"),
    ("logsumexp", {"scale": 2.0, "mu": 1.0, "L": 1.0},
     "logsumexp takes no parameter L, mu"),
])
def test_unread_parameters_raise(name, params, message):
    with pytest.raises(ValueError, match=message):
        builtin(name, 2, **params)


# ---------------------------------------------------------------------------
# sublevel radii


def test_sublevel_radius_quad_iso():
    obj = builtin("quad-iso", 2)
    assert sublevel_radius(obj, 8.0) == pytest.approx(4.0)
    assert sublevel_radius(obj, 0.0) == 0.0


def test_sublevel_radius_quad_spectrum():
    obj = builtin("quad-spectrum", 4, seed=1)  # lambda_min = 0.1
    assert sublevel_radius(obj, 5.0) == pytest.approx(10.0)


def test_sublevel_radius_logsumexp():
    n, scale = 4, 2.0
    obj = builtin("logsumexp", n, scale=scale)
    level = 3.0
    assert sublevel_radius(obj, level) == pytest.approx(np.sqrt(n) * level / scale)


def test_sublevel_radius_contains_sublevel_set(rng):
    # random points at or below the level really are inside the ball
    obj = builtin("quad-spectrum", 3, seed=4)
    level = 2.0
    R = sublevel_radius(obj, level)
    hits = 0
    for _ in range(500):
        x = rng.uniform(-8.0, 8.0, 3)
        if obj(x) <= level:
            hits += 1
            assert np.linalg.norm(x - obj.x_star) <= R + 1e-12
    assert hits > 0


def test_sublevel_radius_unsupported():
    with pytest.raises(UnsupportedObjectiveError):
        sublevel_radius(builtin("damped-sine", 2), 1.0)
    with pytest.raises(UnsupportedObjectiveError):
        sublevel_radius(builtin("sin-quad", 2), 1.0)


def test_sublevel_radius_reads_the_convexity_tag():
    # any mu-strongly convex objective with f*, whatever its name
    obj = Objective("bowl", 2, lambda x: 1.5 * float(x @ x), mu=3.0,
                    f_star=0.0, convexity="strongly_convex")
    assert sublevel_radius(obj, 6.0) == 2.0


@pytest.mark.parametrize("obj", [
    Objective("quad-iso", 2, lambda x: float(x @ x)),  # no tag, mu or f*
    Objective("bowl", 2, lambda x: float(x @ x), f_star=0.0,
              convexity="strongly_convex"),  # no mu
    Objective("bowl", 2, lambda x: float(x @ x), mu=2.0,
              convexity="strongly_convex"),  # no f*
    Objective("logsumexp", 2, lambda x: float(x @ x)),  # no L
], ids=["untagged-builtin-name", "no-mu", "no-fstar", "logsumexp-no-L"])
def test_sublevel_radius_without_its_metadata_is_unsupported(obj):
    with pytest.raises(UnsupportedObjectiveError):
        sublevel_radius(obj, 1.0)
