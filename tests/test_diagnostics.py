from dataclasses import replace

import numpy as np
import pytest

from oracles import fit_rate
from proxrestart import (
    FixedRestart,
    L1,
    LogisticObjective,
    QuadraticObjective,
    CsrMatrix,
    SolverConfig,
    Zero,
    check_invariants,
    generate_synthetic,
    lasso_l1_weight,
    path_length_summary,
    run,
    spmv,
)
from proxrestart import linalg


@pytest.fixture(scope="module")
def lasso_solve():
    """``solve(max_iters)`` runs the lasso instance; 400 iterations make the shared trace."""
    ds = generate_synthetic("lasso_known", 120, 15, seed=4)
    obj = QuadraticObjective(ds.features, ds.labels)
    reg = L1(lasso_l1_weight(ds))
    cfg = SolverConfig(max_iters=400, stepsize_mode="theory", scheme=FixedRestart(10))
    return lambda max_iters: run(obj, reg, replace(cfg, max_iters=max_iters), np.zeros(15))


@pytest.fixture(scope="module")
def lasso_trace(lasso_solve):
    return lasso_solve(400)


def test_all_checks_pass_on_clean_trace(lasso_trace):
    report = check_invariants(lasso_trace, lasso_trace.lipschitz)
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == ["period_descent", "subdiff_bound", "cumulative_rate", "stepsize_interval"]


def test_corrupted_objective_column_fails_descent(lasso_trace):
    report = check_invariants(lasso_trace, lasso_trace.lipschitz)
    assert report.passed
    saved = lasso_trace.F.copy()
    try:
        k = lasso_trace.checkpoints[7]
        lasso_trace.F[k] += 0.5  # push the period-7 checkpoint value up
        bad = check_invariants(lasso_trace, lasso_trace.lipschitz)
        descent = {c.name: c for c in bad.checks}["period_descent"]
        assert not descent.passed
        assert descent.location == "period 7"
    finally:
        lasso_trace.F[:] = saved


def test_refuses_experiment_mode_trace(small_quadratic):
    cfg = SolverConfig(max_iters=20, stepsize_mode="experiment")
    trace = run(small_quadratic, Zero(), cfg, np.zeros(6))
    with pytest.raises(ValueError, match="stepsize_mode='experiment'"):
        check_invariants(trace, 1.0)


def test_report_is_pure_function_of_inputs(lasso_trace):
    a = check_invariants(lasso_trace, lasso_trace.lipschitz)
    b = check_invariants(lasso_trace, lasso_trace.lipschitz)
    assert a == b


def test_single_period_trace_still_checks_rate(small_quadratic):
    cfg = SolverConfig(max_iters=50, stepsize_mode="theory")
    trace = run(small_quadratic, Zero(), cfg, np.zeros(6))
    report = check_invariants(trace, trace.lipschitz)
    by_name = {c.name: c for c in report.checks}
    assert by_name["period_descent"].location == "no data"
    assert by_name["cumulative_rate"].passed
    assert report.passed


def test_report_serialization(lasso_trace):
    report = check_invariants(lasso_trace, lasso_trace.lipschitz)
    assert "pass" in report.summary()


# --- path lengths -------------------------------------------------------------

def test_stationary_trace_has_zero_path(small_quadratic):
    # starting at the unregularized optimum: gradient is zero, steps are zero
    x_star = np.linalg.lstsq(small_quadratic.A.to_dense(), small_quadratic.b, rcond=None)[0]
    cfg = SolverConfig(max_iters=30, stepsize_mode="theory", scheme=FixedRestart(5))
    trace = run(small_quadratic, Zero(), cfg, x_star)
    rows = path_length_summary(trace)
    assert all(length <= 1e-12 for _, length, _ in rows)


def test_cumulative_is_monotone_and_totals(lasso_trace):
    rows = path_length_summary(lasso_trace)
    cums = [c for _, _, c in rows]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    assert cums[-1] == pytest.approx(sum(l for _, l, _ in rows), rel=1e-12)
    # grouping identity: total step mass equals the per-period split
    assert sum(l * l for _, l, _ in rows) == pytest.approx(
        float(np.dot(lasso_trace.step_norm, lasso_trace.step_norm)), rel=1e-12)


def test_path_length_stops_growing_once_converged(small_quadratic):
    cfg = SolverConfig(max_iters=600, stepsize_mode="theory", scheme=FixedRestart(5))
    trace = run(small_quadratic, Zero(), cfg, np.ones(6))
    cums = [c for _, _, c in path_length_summary(trace)]
    assert cums[-1] - cums[-21] < 1e-8  # fully converged well before the last 20 periods


# --- rate fitting ---------------------------------------------------------------

def test_fit_geometric_sequence():
    # stays above the finite-termination floor (0.5^40 ~ 9e-13 > 1e-14)
    t = np.arange(41)
    fit = fit_rate(0.5 ** t)
    assert fit.regime == "linear"
    assert fit.rate == pytest.approx(np.log(2.0), abs=1e-6)
    assert fit.r_squared >= 0.999999


def test_fit_power_law_sequence():
    t = np.arange(1, 201, dtype=float)
    fit = fit_rate(t ** -2.0)
    assert fit.regime == "sublinear"
    assert fit.exponent == pytest.approx(2.0, abs=0.05)
    assert fit.r_squared >= 0.999


def test_fit_finite_termination():
    gaps = np.array([1.0, 0.3, 0.05, 0.0, 0.0, 0.0, 0.0])
    fit = fit_rate(gaps)
    assert fit.regime == "finite"
    assert fit.window[0] == 3


def test_fit_random_draws_recover_parameters(rng):
    for _ in range(20):
        if rng.random() < 0.5:
            rate = float(rng.uniform(0.02, 0.2))
            fit = fit_rate(np.exp(-rate * np.arange(120)))
            assert fit.regime == "linear"
            assert fit.rate == pytest.approx(rate, rel=1e-6)
        else:
            p = float(rng.uniform(0.5, 3.0))
            fit = fit_rate(np.arange(1, 241, dtype=float) ** -p)
            assert fit.regime == "sublinear"
            assert fit.exponent == pytest.approx(p, abs=0.05)


def test_fit_inconclusive_cases(rng):
    assert fit_rate(np.array([1.0, 0.9, 0.8])).regime == "inconclusive"
    noise = np.abs(rng.standard_normal(400)) + 0.5
    fit = fit_rate(noise)
    assert fit.regime == "inconclusive"


def test_fit_validates_inputs():
    with pytest.raises(ValueError):
        fit_rate(np.array([1.0, -1.0]))
    # tiny negatives are noise, clipped to zero -> finite
    assert fit_rate(np.array([1.0, 1e-13, -1e-13, 1e-13, 0.0])).regime == "finite"


def test_fit_r_squared_range(rng):
    for _ in range(20):
        gaps = np.abs(rng.standard_normal(50)) + 1e-3
        fit = fit_rate(gaps)
        assert 0.0 <= fit.r_squared <= 1.0


# --- variable sequence ----------------------------------------------------------

def test_variable_sequence_rate_is_linear_on_lasso(lasso_trace, lasso_solve):
    # distance-to-final-iterate regime matches the objective-gap regime; each
    # checkpoint iterate is the final iterate of the run cut at that checkpoint
    dists = np.array([np.linalg.norm(lasso_solve(checkpoint).final_x - lasso_trace.final_x)
                      for checkpoint in lasso_trace.checkpoints.tolist()])
    assert dists[-1] <= dists[0]  # the trajectory approaches its own final iterate
    fit = fit_rate(dists[:-1])  # last entry is identically zero
    assert fit.regime in ("linear", "finite")


# --- theory mode under an irregular schedule ------------------------------------

PERIODS = (1, 3, 7, 2, 50, 1, 1, 12, 5)


class ListedRestart:
    """Ends periods of the lengths in ``PERIODS``, cycling through the list.

    At theory stepsizes the bundled adaptive schemes restart every
    ``min_period`` iterations; this schedule varies the period length.
    """

    def __init__(self, max_iters):
        self.ends = set(np.cumsum(np.resize(PERIODS, max_iters)).tolist())

    def should_restart(self, obs):
        return obs.k + 1 in self.ends


def lasso_instance():
    ds = generate_synthetic("lasso_known", 200, 30, seed=0)
    return QuadraticObjective(ds.features, ds.labels), L1(lasso_l1_weight(ds))


def logistic_instance():
    ds = generate_synthetic("logistic_sep", 200, 30, seed=0)
    return LogisticObjective(ds.features, ds.labels, alpha=0.01), L1(0.01)


def split_logistic_instance():
    """40 000 x 300 with 184 000 entries: both the products and the row passes split."""
    n, d, nnz = 40_000, 300, 184_000
    assert n >= linalg._SPLIT_MIN_ROWS and nnz >= linalg._SPLIT_MIN_NNZ
    rng = np.random.default_rng(0)
    flat = np.sort(rng.choice(n * d, nnz, replace=False))
    row_ptr = np.concatenate(([0], np.cumsum(np.bincount(flat // d, minlength=n))))
    A = CsrMatrix(n, d, row_ptr, flat % d, 10.0 * rng.standard_normal(nnz))
    # planted labels, so that the L1 solution is not zero and the margins not vacuous
    labels = np.where(spmv(A, rng.standard_normal(d)) >= 0.0, 1.0, -1.0)
    return LogisticObjective(A, labels, alpha=0.01), L1(1e-3)


@pytest.mark.parametrize("instance, max_iters", [
    (lasso_instance, 1000), (logistic_instance, 1000), (split_logistic_instance, 300),
])
def test_theory_checks_pass_under_an_irregular_schedule(instance, max_iters):
    objective, reg = instance()
    cfg = SolverConfig(max_iters=max_iters, stepsize_mode="theory",
                       scheme=ListedRestart(max_iters))
    trace = run(objective, reg, cfg, np.zeros(objective.dim))
    gaps = np.diff(trace.checkpoints).tolist()
    assert len(gaps) >= 2 * len(PERIODS) and gaps == np.resize(PERIODS, len(gaps)).tolist()
    # x must leave 0: on a run that stays there every margin is exactly minus the slack
    assert trace.final_F < trace.F[0] and np.count_nonzero(trace.final_x) > 0
    assert check_invariants(trace, trace.lipschitz).passed
