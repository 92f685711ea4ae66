"""The rules of the numeric, point and value-vector arguments, at every
entry point.

``simplex`` owns the rules: positive and finite (0 < x <= the largest
double), the open unit interval, the positive integer (1 <= x <= the
largest double), the point (a finite scalar or length-n vector) and the
value vector (exactly m finite entries).  Each entry point below routes
its arguments through them, so a value outside its rule is a ValueError
that names the parameter, and the values the benchmark and the CLI pass,
numpy scalars and arrays among them, are accepted.
"""

import math
import re

import numpy as np
import pytest

from rssm.cli import build_parser
from rssm.complexity import constants
from rssm.experiments import ExperimentPlan
from rssm.interpolation import (Quadratic, bound_report, error_bound,
                                g_matrix, gradient_bound_report, interpolate,
                                lagrange_coefficients, query_point,
                                simplex_gradient)
from rssm.objectives import Objective, builtin
from rssm.simplex import (Simplex, _point, _values, make_regular_simplex,
                          regular_simplex_gradient, shrink_toward_best)
from rssm.solver import SolverConfig

_S = make_regular_simplex(np.zeros(2), 1.0, 2)
_QUADRATIC = Quadratic(H=np.eye(2), v=np.full(2, -0.3))

_CONSTANTS = dict(n=2, beta=1.0, gamma=0.5, L=1.0, epsilon=1e-3, delta0=1.0,
                  R=1.0, mu=0.5, eta_split=0.5)
_THEORETICAL = dict(n=2, mode="theoretical", beta=1.0, L=1.0)


def _start_center(center):
    """start_center of a config whose centre was set after construction."""
    cfg = SolverConfig(n=2)
    cfg.center = center
    return cfg.start_center()


def _solve_start(text):
    """The CLI's solve, one iteration from the centroid --start text."""
    args = build_parser().parse_args(
        ["solve", "--objective", "quad-iso", "--n", "2", "--start", text,
         "--max-iter", "1"])
    return args.func(args)


# (entry point, parameter as the message names it, rule, call with the value)
ENTRIES = [
    ("Simplex", "radius", "positive",
     lambda v: Simplex(_S.vertices, radius=v)),
    ("make_regular_simplex", "n", "int",
     lambda v: make_regular_simplex(0.0, 1.0, v)),
    ("make_regular_simplex", "radius", "positive",
     lambda v: make_regular_simplex(0.0, v, 2)),
    ("shrink_toward_best", "gamma", "unit",
     lambda v: shrink_toward_best(_S, 0, v)),
    ("query_point", "gamma", "unit",
     lambda v: query_point(_S, "shrink", gamma=v)),
    ("bound_report", "L", "positive",
     lambda v: bound_report(Simplex(_S.vertices), "centroid", "convex", v)),
    ("bound_report", "gamma", "unit",
     lambda v: bound_report(Simplex(_S.vertices), "shrink", "convex", 1.0,
                            gamma=v)),
    ("gradient_bound_report", "L", "positive",
     lambda v: gradient_bound_report(_S, builtin("quad-iso", 2), L=v)),
    ("error_bound", "n", "int",
     lambda v: error_bound("reflection", "convex", v, 1.0, 1.0)),
    ("error_bound", "L", "positive",
     lambda v: error_bound("reflection", "convex", 2, v, 1.0)),
    ("error_bound", "delta", "positive",
     lambda v: error_bound("centroid", "convex", 2, 1.0, v)),
    ("error_bound", "gamma", "unit",
     lambda v: error_bound("shrink", "convex", 2, 1.0, 1.0, gamma=v)),
    ("builtin", "n", "int", lambda v: builtin("quad-iso", v)),
    ("builtin quad-iso", "L", "positive",
     lambda v: builtin("quad-iso", 2, L=v)),
    ("builtin quad-spectrum", "L", "positive",
     lambda v: builtin("quad-spectrum", 2, mu=1e-300, L=v)),
    ("builtin quad-spectrum", "mu", "positive",
     lambda v: builtin("quad-spectrum", 2, mu=v, L=1e300)),
    ("builtin logsumexp", "scale", "positive",
     lambda v: builtin("logsumexp", 2, scale=v)),
    *[("constants", name, rule,
       lambda v, name=name: constants(**{**_CONSTANTS, name: v}))
      for name, rule in (("n", "int"), ("beta", "positive"), ("gamma", "unit"),
                         ("L", "positive"), ("epsilon", "positive"),
                         ("delta0", "positive"), ("R", "positive"),
                         ("mu", "positive"), ("eta_split", "unit"))],
    *[("SolverConfig", name, rule,
       lambda v, name=name: SolverConfig(**{**_THEORETICAL, name: v}))
      for name, rule in (("n", "int"), ("delta0", "positive"),
                         ("gamma", "unit"), ("epsilon", "positive"),
                         ("beta", "positive"), ("L", "positive"),
                         ("max_iterations", "int"),
                         ("max_evaluations", "int"))],
    ("SolverConfig", "eta", "positive", lambda v: SolverConfig(n=2, eta=v)),
    ("ExperimentPlan", "dims[1]", "int",
     lambda v: ExperimentPlan("quad-iso", dims=(2, v))),
    ("ExperimentPlan", "epsilons[0]", "positive",
     lambda v: ExperimentPlan("quad-iso", epsilons=(v,))),
    ("ExperimentPlan", "repetitions", "int",
     lambda v: ExperimentPlan("quad-iso", repetitions=v)),
    ("Objective", "dim", "int", lambda v: Objective("o", v, np.sum)),
    # the point rule: points of R^2
    ("SolverConfig", "center", "point",
     lambda v: SolverConfig(n=2, center=v)),
    ("start_center", "center", "point", _start_center),
    ("make_regular_simplex", "center", "point",
     lambda v: make_regular_simplex(v, 1.0, 2)),
    ("builtin quad-iso", "x_star", "point",
     lambda v: builtin("quad-iso", 2, x_star=v)),
    ("builtin quad-spectrum", "x_star", "point",
     lambda v: builtin("quad-spectrum", 2, x_star=v)),
    ("Objective", "x_star", "point",
     lambda v: Objective("o", 2, np.sum, x_star=v)),
    ("lagrange_coefficients", "x", "point",
     lambda v: lagrange_coefficients(_S, v)),
    ("g_matrix", "x", "point", lambda v: g_matrix(_S, v)),
    ("interpolate", "x", "point", lambda v: interpolate(_S, [0, 1, 2], v)),
    ("Quadratic", "u", "point", _QUADRATIC),
    ("Quadratic.gradient", "u", "point", _QUADRATIC.gradient),
    ("cli solve", "--start", "start", _solve_start),
    # the value-vector rule: the 3 values of a simplex in R^2
    ("interpolate", "values", "values",
     lambda v: interpolate(_S, v, [0.1, 0.2])),
    ("simplex_gradient", "values", "values",
     lambda v: simplex_gradient(_S, v)),
    ("regular_simplex_gradient", "values", "values",
     lambda v: regular_simplex_gradient(_S, v)),
]

# the values outside each rule, with their test ids
_OUTSIDE_REALS = [(math.nan, "nan"), (math.inf, "inf"), (-1, "-1"), (0, "0"),
                  (10 ** 400, "10**400")]
OUTSIDE = {
    "positive": _OUTSIDE_REALS,
    "unit": _OUTSIDE_REALS + [(1, "1")],
    # 10**400 is an integer beyond the doubles (complexity.constants once
    # raised OverflowError from math.sqrt(n) on it); 2.5 is no integer
    "int": _OUTSIDE_REALS + [(2.5, "2.5")],
    "point": [(math.nan, "nan"), (math.inf, "inf"), ([0.0, -math.inf], "-inf"),
              ([10 ** 400, 0], "10**400"), ([0.0, 0.0, 0.0], "length-3"),
              (np.zeros((1, 2)), "2-D"), ("origin", "string"),
              ([None, 0.0], "None"), (1j, "complex")],
    # the --start text as the CLI reads it
    "start": [("nan", "nan"), ("inf", "inf"), ("0,-inf", "-inf"),
              ("1" + "0" * 400 + ",0", "10**400"), ("0,0,0", "length-3"),
              ("[[0, 0]]", "2-D"), ("origin", "string")],
    "values": [([math.nan, 0.0, 0.0], "nan"), ([0.0, 0.0, math.inf], "inf"),
               ([10 ** 400, 0, 0], "10**400"), ([0.0, 0.0], "length-2"),
               (np.zeros((1, 3)), "2-D"), ("abc", "string"),
               (0.0, "scalar")],
}

# values inside each rule of the kinds the benchmark and the CLI pass:
# Python and numpy floats and ints
INSIDE = {
    "positive": [0.75, 2, np.float64(0.5), np.int64(3)],
    "unit": [0.25, np.float64(0.75)],
    "int": [3, np.int64(2)],
    "point": [0.25, 1, np.float64(-0.5), [0.5], [0.25, -1],
              np.array([0.5, 0.25], dtype=np.float32), np.array([1, -1])],
    "start": ["0.5", "0.25,-1"],
    "values": [[0.0, 1.0, 2.0], (1, 2, 4), np.arange(3),
               np.array([0.5, 1.5, 2.5], dtype=np.float32)],
}


_CALLS = [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in ENTRIES]


@pytest.mark.parametrize("param, call, value", [
    pytest.param(param, call, value, id=f"{entry}-{param}-{vid}")
    for entry, param, rule, call in ENTRIES for value, vid in OUTSIDE[rule]])
def test_a_value_outside_the_rule_names_its_parameter(param, call, value):
    with pytest.raises(ValueError, match="^" + re.escape(param) + " must "):
        call(value)


@pytest.mark.parametrize("entry, param, rule, call", _CALLS)
def test_the_values_callers_pass_are_accepted(entry, param, rule, call):
    for value in INSIDE[rule]:
        call(value)


@pytest.mark.parametrize("rule, message", [
    ("positive", "must be positive and finite, got "),
    ("unit", "must lie in (0, 1), got "),
    ("int", "must be a positive integer no larger than the largest double, "
            "got "),
])
def test_each_rule_has_one_message_shape(rule, message):
    for entry, param, case_rule, call in ENTRIES:
        if case_rule != rule:
            continue
        with pytest.raises(ValueError) as exc:
            call(-1)
        assert str(exc.value) == f"{param} {message}-1", (entry, param)


@pytest.mark.parametrize("rule, message", [
    ("point", "must be a finite scalar or length-2 vector, got "),
    ("start", "must be a finite scalar or length-2 vector, got "),
    ("values", "must be a finite length-3 vector, got "),
])
def test_the_point_and_value_rules_have_one_message_shape(rule, message):
    # the message shows the argument as the caller gave it
    bad = {"point": [0.0, math.nan], "start": "origin",
           "values": [0.0, math.nan, 0.0]}[rule]
    for entry, param, case_rule, call in ENTRIES:
        if case_rule != rule:
            continue
        with pytest.raises(ValueError) as exc:
            call(bad)
        assert str(exc.value) == f"{param} {message}{bad!r}", (entry, param)


def test_the_rules_return_a_float_array_uncopied():
    # certify checks every query point; a float array is not copied
    x = np.array([0.5, -1.0])
    assert _point("x", x, 2) is x and _values("values", x, 2) is x
    assert SolverConfig(n=2, center=x).start_center() is x
    np.testing.assert_array_equal(_point("x", 3, 2), [3.0, 3.0])
    np.testing.assert_array_equal(_point("x", [np.int64(3)], 2), [3.0, 3.0])
    assert _point("x", [1, 2], 2).dtype == float


def test_an_integer_beyond_the_doubles_fails_with_a_true_message():
    # a positive integer that no double holds: the message says so
    with pytest.raises(ValueError) as exc:
        SolverConfig(n=10 ** 400)
    assert str(exc.value) == ("n must be a positive integer no larger than "
                              f"the largest double, got {10 ** 400!r}")
