"""Scaling experiment harness: plans, grid runs, CSV rows, slope fits."""

import csv
import dataclasses
import io
import math
import warnings

import numpy as np
import pytest

from rssm.experiments import (
    CSV_HEADER,
    ExperimentPlan,
    FitResult,
    ScalingRow,
    loglog_fit,
    run_cell,
    run_scaling,
    semilog_fit,
    write_csv,
    _start_center,
)


EPS4 = (1e-1, 1e-2, 1e-3, 1e-4)


# ---------------------------------------------------------------------------
# plan validation


def test_plan_normalizes_and_accepts():
    plan = ExperimentPlan(objective="quad-iso", dims=[2, 4], epsilons=[0.1, 0.01],
                          repetitions=2)
    assert plan.dims == (2, 4)
    assert plan.epsilons == (0.1, 0.01)
    assert dataclasses.asdict(plan)["objective"] == "quad-iso"


@pytest.mark.parametrize("kw", [
    dict(epsilons=(1e-3, 1e-2)),          # increasing
    dict(epsilons=(1e-2, 1e-2)),          # not strictly decreasing
    dict(epsilons=()),
    dict(epsilons=(0.1, 0.0)),
    dict(repetitions=0),
    dict(objective="unknown-thing"),
    dict(dims=()),
    dict(dims=(0,)),
])
def test_plan_validation_rejects(kw):
    base = dict(objective="quad-iso", dims=(2,), epsilons=(1e-1, 1e-2))
    base.update(kw)
    with pytest.raises(ValueError):
        ExperimentPlan(**base)


def test_default_plan_has_enough_tolerances_to_fit():
    result = run_scaling(ExperimentPlan(objective="quad-iso"))
    entry = result.fits[4]
    assert entry["note"] == ""
    assert entry["exponent"] is not None and entry["semilog"] is not None


# ---------------------------------------------------------------------------
# start centers


def test_start_center_has_requested_distance():
    c = _start_center(5, 2.0, seed=3)
    assert np.linalg.norm(c) == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_array_equal(c, _start_center(5, 2.0, seed=3))
    assert not np.allclose(c, _start_center(5, 2.0, seed=4))


# ---------------------------------------------------------------------------
# single cells


def test_run_cell_quad_iso_uses_gap_stopping():
    plan = ExperimentPlan(objective="quad-iso", dims=(2,), epsilons=EPS4)
    row = run_cell(plan, n=2, epsilon=1e-3, seed=0)
    assert row.reason == "epsilon-reached"
    assert row.N_eps == row.N_r + row.N_s
    assert row.final_gap is not None and row.final_gap <= 1e-3
    assert row.evals == 3 + row.N_r + 2 * row.N_s


def test_run_cell_of_an_overflowing_run_has_no_gap_column():
    # vertex values near 1.4e308: their sum overflows at the first loop top
    plan = ExperimentPlan(objective="quad-iso", dims=(2,), epsilons=EPS4,
                          center_distance=1.2e154, delta0=1e151)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        row = run_cell(plan, n=2, epsilon=1e-3, seed=0)
    assert caught == []
    assert (row.reason, row.N_r, row.N_s, row.final_gap) == (
        "overflow", 0, 0, None)
    assert row.csv_values()[CSV_HEADER.index("final_gap")] == ""


def test_run_cell_damped_sine_has_no_gap_column():
    plan = ExperimentPlan(objective="damped-sine", dims=(2,), epsilons=(1e-1, 1e-2))
    row = run_cell(plan, n=2, epsilon=1e-2, seed=1)
    assert row.final_gap is None
    assert row.reason == "epsilon-reached"
    vals = row.csv_values()
    assert vals[CSV_HEADER.index("final_gap")] == ""


# ---------------------------------------------------------------------------
# whole grids


@pytest.fixture(scope="module")
def quad_iso_result():
    plan = ExperimentPlan(objective="quad-iso", dims=(2,), epsilons=EPS4,
                          repetitions=1)
    return plan, run_scaling(plan)


def test_grid_rows_all_converge(quad_iso_result):
    plan, result = quad_iso_result
    assert len(result.rows) == len(EPS4)
    assert all(r.reason == "epsilon-reached" for r in result.rows)


def test_grid_rows_sorted_by_decreasing_epsilon(quad_iso_result):
    _, result = quad_iso_result
    eps = [r.epsilon for r in result.rows]
    assert eps == sorted(eps, reverse=True)
    counts = [r.N_eps for r in result.rows]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_grid_fits_are_populated(quad_iso_result):
    _, result = quad_iso_result
    entry = result.fits[2]
    assert isinstance(entry["exponent"], FitResult)
    assert isinstance(entry["semilog"], FitResult)
    assert entry["exponent"].points == 4
    assert entry["note"] == ""
    # a strongly convex objective needs at most log(1/eps)-many iterations,
    # so the power-law exponent stays well below linear-in-1/eps
    assert entry["exponent"].slope < 0.5
    assert entry["semilog"].correlation > 0.9


def test_grid_csv_shape(quad_iso_result):
    _, result = quad_iso_result
    buf = io.StringIO()
    write_csv(result.rows, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(result.rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == list(CSV_HEADER)
    seen = parsed[1]
    assert seen[0] == "quad-iso" and seen[1] == "2"
    float(seen[-1])  # wall_ms parses as a number


def test_grid_rows_deterministic_except_wall_time(quad_iso_result):
    plan, result = quad_iso_result
    again = run_scaling(ExperimentPlan(**dataclasses.asdict(plan)))
    assert len(again.rows) == len(result.rows)
    for a, b in zip(result.rows, again.rows):
        assert a.csv_values()[:-1] == b.csv_values()[:-1]


def test_budget_limited_rows_are_excluded_from_fits():
    plan = ExperimentPlan(objective="quad-iso", dims=(2,), epsilons=EPS4,
                          max_iterations=2)
    result = run_scaling(plan)
    assert all(r.reason == "budget" for r in result.rows)
    entry = result.fits[2]
    assert entry["exponent"] is None and entry["semilog"] is None
    assert "excluded" in entry["note"]
    assert result.rows_for_fit(2) == []


# ---------------------------------------------------------------------------
# fit helpers


def test_loglog_fit_recovers_power_law():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
    counts = 7.0 * (1.0 / eps) ** 1.5
    fit = loglog_fit(eps, counts)
    assert fit.slope == pytest.approx(1.5, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(7.0), rel=1e-9)
    assert fit.correlation == pytest.approx(1.0, abs=1e-12)
    assert fit.points == 5


def test_semilog_fit_recovers_line():
    eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    counts = 12.0 * np.log(1.0 / eps) + 3.0
    fit = semilog_fit(eps, counts)
    assert fit.slope == pytest.approx(12.0, rel=1e-12)
    assert fit.intercept == pytest.approx(3.0, rel=1e-9)
    assert fit.correlation == pytest.approx(1.0, abs=1e-12)


def test_fits_need_enough_points():
    with pytest.raises(ValueError, match="at least"):
        loglog_fit([1e-1, 1e-2, 1e-3], [1, 2, 3])
    with pytest.raises(ValueError, match="at least"):
        semilog_fit([1e-1, 1e-2, 1e-3], [1, 2, 3])


def test_loglog_fit_rejects_nonpositive_counts():
    with pytest.raises(ValueError, match="positive"):
        loglog_fit([1e-1, 1e-2, 1e-3, 1e-4], [5, 4, 0, 2])


def test_fit_result_serializes():
    fit = semilog_fit([1e-1, 1e-2, 1e-3, 1e-4], [1.0, 2.0, 3.0, 4.0])
    d = dataclasses.asdict(fit)
    assert set(d) == {"slope", "intercept", "correlation", "points"}


# ---------------------------------------------------------------------------
# CSV writer


def test_write_csv_formats_missing_values():
    row = ScalingRow(objective="damped-sine", n=3, epsilon=0.25, seed=9,
                     N_r=5, N_s=2, N_eps=None, evals=15, final_gap=None,
                     reason="budget", wall_ms=1.25)
    buf = io.StringIO()
    write_csv([row], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[1] == "damped-sine,3,0.25,9,5,2,,15,,budget,1.250"


def test_csv_epsilon_uses_repr_round_trip():
    row = ScalingRow(objective="quad-iso", n=1, epsilon=1e-3, seed=0,
                     N_r=1, N_s=1, N_eps=2, evals=5, final_gap=1.23e-4,
                     reason="epsilon-reached", wall_ms=0.5)
    vals = row.csv_values()
    assert float(vals[CSV_HEADER.index("epsilon")]) == 1e-3
    assert float(vals[CSV_HEADER.index("final_gap")]) == 1.23e-4
