import numpy as np
import pytest

from proxrestart import (
    FixedRestart,
    L1,
    QuadraticObjective,
    CsrMatrix,
    SolverConfig,
    Zero,
    check_invariants,
    checkpoint_distances,
    checkpoint_value_gaps,
    fit_rate,
    generate_synthetic,
    lasso_l1_weight,
    path_length_summary,
    run,
)


@pytest.fixture(scope="module")
def lasso_trace():
    ds = generate_synthetic("lasso_known", 120, 15, seed=4)
    obj = QuadraticObjective(ds.features, ds.labels)
    cfg = SolverConfig(max_iters=400, stepsize_mode="theory", scheme=FixedRestart(10), seed=4)
    trace = run(obj, L1(lasso_l1_weight(ds)), cfg, np.zeros(15))
    return trace


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
        k = lasso_trace.periods[7].checkpoint
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
    summary = path_length_summary(trace)
    assert all(length <= 1e-12 for _, length, _ in summary.rows)


def test_cumulative_is_monotone_and_totals(lasso_trace):
    summary = path_length_summary(lasso_trace)
    cums = [c for _, _, c in summary.rows]
    assert all(b >= a for a, b in zip(cums, cums[1:]))
    assert summary.total == pytest.approx(sum(l for _, l, _ in summary.rows), rel=1e-12)
    # grouping identity: total step mass equals the per-period split
    assert sum(l * l for _, l, _ in summary.rows) == pytest.approx(
        float(np.dot(lasso_trace.step_norm, lasso_trace.step_norm)), rel=1e-12)


def test_tail_window_flag(small_quadratic):
    cfg = SolverConfig(max_iters=600, stepsize_mode="theory", scheme=FixedRestart(5), seed=1)
    trace = run(small_quadratic, Zero(), cfg, np.ones(6))
    summary = path_length_summary(trace, tail_window=20)
    assert summary.tail_window == 20
    assert summary.tail_converged  # fully converged well before the tail


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
    with pytest.raises(ValueError):
        fit_rate(np.ones(10), tail_fraction=0.0)
    # tiny negatives are noise, clipped to zero -> finite
    assert fit_rate(np.array([1.0, 1e-13, -1e-13, 1e-13, 0.0])).regime == "finite"


def test_fit_r_squared_range(rng):
    for _ in range(20):
        gaps = np.abs(rng.standard_normal(50)) + 1e-3
        fit = fit_rate(gaps)
        assert 0.0 <= fit.r_squared <= 1.0


# --- checkpoint gap helpers -----------------------------------------------------

def test_checkpoint_value_gaps(lasso_trace):
    f_star = lasso_trace.final_F - 1e-3
    gaps = checkpoint_value_gaps(lasso_trace, f_star)
    assert len(gaps) == len(lasso_trace.periods)
    assert gaps[0] == pytest.approx(lasso_trace.periods[0].F - f_star)


def test_checkpoint_distances(lasso_trace):
    dists = checkpoint_distances(lasso_trace, lasso_trace.final_x)
    assert len(dists) == len(lasso_trace.periods)
    assert np.all(dists >= 0)
    # the trajectory approaches its own final iterate
    assert dists[-1] <= dists[0]


def test_variable_sequence_rate_is_linear_on_lasso(lasso_trace):
    # distance-to-final-iterate regime matches the objective-gap regime
    dists = checkpoint_distances(lasso_trace, lasso_trace.final_x)
    fit = fit_rate(dists[:-1])  # last entry is identically zero
    assert fit.regime in ("linear", "finite")
