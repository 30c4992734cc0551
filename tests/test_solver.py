import hashlib
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import prefix_iterates
from proxrestart import (
    CsrMatrix,
    DivergenceError,
    ElasticNet,
    FixedRestart,
    FunctionValueRestart,
    GradientMappingRestart,
    L1,
    LipschitzError,
    LogisticObjective,
    NeverRestart,
    NonMonotoneRestart,
    QuadraticObjective,
    RobustRegressionObjective,
    SolverConfig,
    SolverState,
    SquaredL2,
    Zero,
    apg_restart_step,
    generate_synthetic,
    lasso_l1_weight,
    momentum_coefficient,
    run,
    run_baseline,
    spmv,
)
from proxrestart import linalg, objectives, regularizers, restart, solver


def one_dim_quadratic():
    # f(x) = x^2 / 2, L = 1
    return QuadraticObjective(CsrMatrix.from_dense([[1.0]]), np.array([0.0]))


def test_momentum_coefficient_formula():
    assert momentum_coefficient(5, 5) == 1.0
    assert momentum_coefficient(7, 5) == 0.5
    values = [momentum_coefficient(k, 0) for k in range(40)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert momentum_coefficient(1000000, 0) < 1e-5
    with pytest.raises(ValueError):
        momentum_coefficient(3, 5)


def test_single_hand_iteration():
    # theory stepsizes with lam = beta = 1/(8 L), x0 = 1, gradient 1 -> x1 = 1 - beta;
    # the certified L is 1 times the spectral bound's rounding margin 1 + 4 eps
    objective = one_dim_quadratic()
    L = objective.lipschitz()
    assert L == 1.0 + 4 * np.finfo(np.float64).eps
    beta = 1.0 / (8.0 * L)
    cfg = SolverConfig(max_iters=1, stepsize_mode="theory", lambda_factor=0.0)
    trace = run(objective, Zero(), cfg, np.array([1.0]))
    assert trace.final_x[0] == 1.0 - beta
    assert trace.beta[0] == beta
    assert trace.lam[0] == beta


def test_restart_every_iteration_is_gradient_descent(small_quadratic):
    cfg = SolverConfig(max_iters=20, stepsize_mode="theory", scheme=FixedRestart(1))
    iterates = prefix_iterates(lambda c: run(small_quadratic, Zero(), c, np.zeros(6)), cfg)
    L = small_quadratic.lipschitz()
    lam = (1.0 + 2.0 / 3.0) / (8.0 * L)  # momentum weight is constant 2/3 at q=1
    x = np.zeros(6)
    for k in range(20):
        x = x - lam * small_quadratic.gradient(x, spmv(small_quadratic.A, x))
        assert np.linalg.norm(x - iterates[k + 1]) <= 1e-12


def test_first_iteration_always_flagged_and_alpha_reset(small_quadratic):
    cfg = SolverConfig(max_iters=30, stepsize_mode="theory", scheme=FixedRestart(10))
    trace = run(small_quadratic, Zero(), cfg, np.zeros(6))
    assert trace.restart_flags[0]
    flagged = np.flatnonzero(trace.restart_flags)
    assert trace.alpha_next[flagged] == pytest.approx(2.0 / 3.0)
    # within a period the momentum weight strictly decreases
    assert trace.alpha_next[1] == pytest.approx(0.5)
    assert np.all(np.diff(trace.alpha_next[:10]) < 0)


def test_checkpoint_query_point_equals_iterate(small_quadratic):
    # right after a restart z == x exactly, so the recorded gradient-mapping
    # norm agrees with the step norm divided by the stepsize
    cfg = SolverConfig(max_iters=50, stepsize_mode="theory", scheme=FixedRestart(7))
    trace = run(small_quadratic, L1(0.05), cfg, np.zeros(6))
    flagged = np.flatnonzero(trace.restart_flags)
    for k in flagged:
        assert trace.grad_map_norm[k] == pytest.approx(
            trace.step_norm[k] / trace.lam[k], rel=1e-12)


def test_deterministic_reruns_bit_identical(small_quadratic):
    cfg = SolverConfig(max_iters=300, stepsize_mode="theory", scheme=FixedRestart(10))
    a = run(small_quadratic, L1(0.02), cfg, np.zeros(6))
    b = run(small_quadratic, L1(0.02), cfg, np.zeros(6))
    for field in ("F", "grad_map_norm", "step_norm", "lam", "beta", "alpha_next"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert np.array_equal(a.restart_flags, b.restart_flags)
    assert np.array_equal(a.final_x, b.final_x)


def test_one_prox_and_one_gradient_per_iteration(small_quadratic):
    cfg = SolverConfig(max_iters=120, stepsize_mode="theory", scheme=FixedRestart(10))
    trace = run(small_quadratic, L1(0.02), cfg, np.zeros(6))
    assert trace.prox_calls == len(trace) == 120


def test_ag_needs_two_prox_calls_per_iteration(small_quadratic):
    cfg = SolverConfig(max_iters=80, stepsize_mode="theory")
    trace = run_baseline("ag", small_quadratic, L1(0.02), cfg, np.zeros(6))
    assert trace.prox_calls == 2 * len(trace) == 160


def test_ag_equals_never_restart_when_unregularized(small_quadratic):
    cfg = SolverConfig(max_iters=100, stepsize_mode="theory", scheme=NeverRestart())
    ag = prefix_iterates(
        lambda c: run_baseline("ag", small_quadratic, Zero(), c, np.zeros(6)), cfg)
    never = prefix_iterates(lambda c: run(small_quadratic, Zero(), c, np.zeros(6)), cfg)
    for xa, xb in zip(ag, never, strict=True):
        assert np.linalg.norm(xa - xb) <= 1e-12 * max(1.0, np.linalg.norm(xa))


def test_prox_grad_is_gradient_descent_when_unregularized(small_quadratic):
    cfg = SolverConfig(max_iters=40, stepsize_mode="theory")
    iterates = prefix_iterates(
        lambda c: run_baseline("prox_grad", small_quadratic, Zero(), c, np.zeros(6)), cfg)
    L = small_quadratic.lipschitz()
    x = np.zeros(6)
    for k in range(40):
        x = x - small_quadratic.gradient(x, spmv(small_quadratic.A, x)) / L
        assert np.linalg.norm(x - iterates[k + 1]) <= 1e-12


def test_acceleration_beats_plain_prox_grad():
    # iterations to reach F - F* <= 1e-6 on an ill-conditioned convex
    # quadratic. With practical stepsizes the momentum method's larger,
    # extrapolated steps get there first; the theory-mode base stepsize
    # (1/(8L), chosen for nonconvex safety) would not.
    rng = np.random.default_rng(7)
    U, _ = np.linalg.qr(rng.standard_normal((60, 8)))
    V, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    sigma = np.sqrt(np.geomspace(1.0 / 100.0, 1.0, 8)) * np.sqrt(60)
    obj = QuadraticObjective(CsrMatrix.from_dense((U * sigma) @ V.T), rng.standard_normal(60))
    f_star = run_baseline(
        "prox_grad", obj, Zero(),
        SolverConfig(max_iters=60000, stepsize_mode="theory"), np.zeros(8)).final_F

    def iters_to_tol(trace):
        hits = np.flatnonzero(np.append(trace.F, trace.final_F) - f_star <= 1e-6)
        assert len(hits), "run never reached the tolerance"
        return hits[0]

    cfg = SolverConfig(max_iters=30000, stepsize_mode="experiment", scheme=NeverRestart())
    accel = run(obj, Zero(), cfg, np.zeros(8))
    plain = run_baseline("prox_grad", obj, Zero(), cfg, np.zeros(8))
    assert iters_to_tol(accel) < iters_to_tol(plain)


def test_checkpoint_values_strictly_decrease_on_lasso():
    ds = generate_synthetic("lasso_known", 100, 12, seed=1)
    obj = QuadraticObjective(ds.features, ds.labels)
    cfg = SolverConfig(max_iters=300, stepsize_mode="theory", scheme=FixedRestart(10))
    trace = run(obj, L1(lasso_l1_weight(ds)), cfg, np.zeros(12))
    values = trace.F[trace.checkpoints]
    assert np.all(values[:-1] > values[1:])


def test_period_step_sq_sums_dot_each_periods_steps():
    ds = generate_synthetic("lasso_known", 200, 30, seed=0)
    cfg = SolverConfig(max_iters=30, stepsize_mode="theory", scheme=FixedRestart(10))
    trace = run(QuadraticObjective(ds.features, ds.labels), L1(lasso_l1_weight(ds)), cfg,
                np.zeros(30))
    assert trace.checkpoints.tolist() == [0, 10, 20]
    sums = trace.period_step_sq_sums()
    segments = (trace.step_norm[0:10], trace.step_norm[10:20], trace.step_norm[20:])
    expected = np.array([np.dot(seg, seg) for seg in segments])
    assert sums.dtype == np.float64 and sums.tobytes() == expected.tobytes()
    assert np.all(sums > 0.0)
    empty = run(QuadraticObjective(ds.features, ds.labels), L1(lasso_l1_weight(ds)),
                replace(cfg, max_iters=0), np.zeros(30))
    assert empty.period_step_sq_sums().dtype == np.float64
    assert empty.period_step_sq_sums().shape == (0,)


def _solvers(objective, regularizer):
    """The restart solver and each baseline, as ``solve(cfg, x_init)``."""
    return [partial(run, objective, regularizer),
            *(partial(run_baseline, kind, objective, regularizer) for kind in solver.BASELINES)]


ITERATION_COLUMNS = {"F": np.float64, "grad_map_norm": np.float64, "step_norm": np.float64,
                     "restart_flags": np.bool_, "lam": np.float64, "beta": np.float64,
                     "alpha_next": np.float64}


def _assert_trace_arrays(trace, n):
    """Every column of an ``n``-iteration trace has its dtype and length, and is writable."""
    assert len(trace) == n
    for name, dtype in ITERATION_COLUMNS.items():
        column = getattr(trace, name)
        assert column.dtype == dtype and column.shape == (n,) and column.flags.writeable, name
    assert trace.checkpoints.dtype == np.int64 and trace.subdiff_dist.dtype == np.float64
    assert trace.checkpoints.flags.writeable and trace.subdiff_dist.flags.writeable
    assert len(trace.checkpoints) == len(trace.subdiff_dist)
    if len(trace):
        assert trace.checkpoints[0] == 0
        assert np.array_equal(trace.checkpoints, np.flatnonzero(trace.restart_flags))


def test_zero_iterations_returns_init(small_quadratic, monkeypatch):
    def no_gradient(self, x, Ax):
        raise AssertionError("a zero-iteration run needs no gradient")

    monkeypatch.setattr(type(small_quadratic), "gradient", no_gradient)
    x0 = np.full(6, 0.3)
    cfg = SolverConfig(max_iters=0, stepsize_mode="theory")
    for solve in _solvers(small_quadratic, Zero()):
        trace = solve(cfg, x0)
        assert len(trace) == 0
        # no rows, so no periods
        assert len(trace.checkpoints) == len(trace.subdiff_dist) == 0
        assert np.array_equal(trace.final_x, x0)
        _assert_trace_arrays(trace, 0)
        assert trace.final_F == small_quadratic.value(x0, spmv(small_quadratic.A, x0))


def test_stopping_tolerance_cuts_run_short(small_quadratic):
    cfg = SolverConfig(max_iters=5000, stepsize_mode="theory", tolerance=1e-3)
    trace = run(small_quadratic, Zero(), cfg, np.zeros(6))
    assert len(trace) < 5000
    assert trace.grad_map_norm[-1] <= 1e-3
    _assert_trace_arrays(trace, len(trace))


def test_stepsizes_stay_in_admissible_interval(small_quadratic):
    for factor in (0.0, 0.4, 1.0):
        cfg = SolverConfig(max_iters=60, stepsize_mode="theory",
                           lambda_factor=factor, scheme=FixedRestart(9))
        trace = run(small_quadratic, L1(0.01), cfg, np.zeros(6))
        assert np.all(trace.lam >= trace.beta - 1e-15)
        assert np.all(trace.lam <= (1.0 + trace.alpha_next) * trace.beta + 1e-15)


@pytest.mark.parametrize("algorithm", ["apg_restart", "ag"])
def test_divergence_guard_carries_partial_trace(small_quadratic, algorithm):
    cfg = SolverConfig(max_iters=2000, stepsize_mode="custom", beta=1e9)
    with pytest.raises(DivergenceError) as info:
        if algorithm == "apg_restart":
            run(small_quadratic, Zero(), cfg, np.ones(6))
        else:
            run_baseline(algorithm, small_quadratic, Zero(), cfg, np.ones(6))
    assert len(info.value.trace) >= 1
    assert info.value.trace.algorithm == algorithm
    _assert_trace_arrays(info.value.trace, len(info.value.trace))


@pytest.mark.parametrize("algorithm", ["apg_restart", "ag"])
def test_diverged_trace_keeps_its_last_row_iterate(small_quadratic, algorithm):
    # final_x is the last iterate that has a row; final_F is the value one
    # step further that tripped the guard, and no row holds it
    cfg = SolverConfig(max_iters=2000, stepsize_mode="custom", beta=50.0)
    with pytest.raises(DivergenceError) as info:
        if algorithm == "apg_restart":
            run(small_quadratic, Zero(), cfg, np.zeros(6))
        else:
            run_baseline(algorithm, small_quadratic, Zero(), cfg, np.zeros(6))
    trace = info.value.trace
    x = trace.final_x
    assert small_quadratic.value(x, spmv(small_quadratic.A, x)) == trace.F[-1]
    assert trace.final_F > 1e12 * (1.0 + abs(trace.F[0])) >= trace.F.max()


def test_experiment_mode_uses_unit_beta(small_quadratic):
    cfg = SolverConfig(max_iters=5, stepsize_mode="experiment")
    trace = run(small_quadratic, Zero(), cfg, np.zeros(6))
    assert np.all(trace.beta == 1.0)
    assert trace.lam[0] == pytest.approx(1.0 + 2.0 / 3.0)
    assert trace.stepsize_mode == "experiment"


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=-1)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=10, stepsize_mode="warp")
    with pytest.raises(ValueError):
        SolverConfig(max_iters=10, lambda_factor=1.5)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=10, stepsize_mode="custom")
    with pytest.raises(ValueError):
        SolverConfig(max_iters=10, tolerance=-1e-3)
    # only custom mode reads beta, so no other mode takes one
    with pytest.raises(ValueError, match="beta applies in custom stepsize mode only"):
        SolverConfig(max_iters=3, beta=0.5)
    with pytest.raises(ValueError, match="beta applies in custom stepsize mode only"):
        SolverConfig(max_iters=3, stepsize_mode="experiment", beta=1.0)
    with pytest.raises(ValueError):
        run_baseline("sgd", None, None, SolverConfig(max_iters=1), np.zeros(1))
    # never restarting is a scheme of run, not a baseline
    with pytest.raises(ValueError, match=re.escape("one of ('prox_grad', 'ag')")):
        run_baseline("apg_never", None, None, SolverConfig(max_iters=1), np.zeros(1))


@pytest.mark.parametrize("scheme", ["fixed", None, 3])
def test_config_refuses_a_scheme_that_cannot_restart(scheme):
    # a string would fail only at step 0, with an AttributeError
    message = f"scheme must be a restart scheme (an object with should_restart), got {scheme!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SolverConfig(max_iters=3, scheme=scheme)


@pytest.mark.parametrize("fields, message", [
    ({"max_iters": 10.0}, "max_iters must be a nonnegative integer, got 10.0"),
    ({"max_iters": True}, "max_iters must be a nonnegative integer, got True"),
    ({"max_iters": 10, "stepsize_mode": "custom", "beta": float("nan")},
     "beta must be a positive finite number, got nan"),
    ({"max_iters": 10, "stepsize_mode": "custom", "beta": float("inf")},
     "beta must be a positive finite number, got inf"),
    ({"max_iters": 10, "tolerance": float("nan")},
     "tolerance must be a nonnegative finite number, got nan"),
    ({"max_iters": 10, "tolerance": float("inf")},
     "tolerance must be a nonnegative finite number, got inf"),
], ids=["float_max_iters", "bool_max_iters", "nan_beta", "inf_beta", "nan_tolerance",
        "inf_tolerance"])
def test_config_refuses_a_value_that_fails_late(fields, message):
    # each would otherwise fail only inside a run, or never stop one
    with pytest.raises(ValueError, match=message):
        SolverConfig(**fields)


@pytest.mark.parametrize("max_iters", [3, np.int64(3), np.uint8(3)])
def test_config_takes_python_and_numpy_integers(small_quadratic, max_iters):
    cfg = SolverConfig(max_iters=max_iters, stepsize_mode="theory")
    assert len(run(small_quadratic, Zero(), cfg, np.zeros(6))) == 3


def test_trace_recording_stays_small_per_iteration():
    # the columns hold 49 bytes an iteration and 16 a period (about 61 per
    # iteration here, with their growth room); an object per iteration costs
    # several hundred
    ds = generate_synthetic("lasso_known", 200, 30, seed=0)
    objective, regularizer = QuadraticObjective(ds.features, ds.labels), L1(lasso_l1_weight(ds))
    cfg = SolverConfig(max_iters=5000, stepsize_mode="theory", scheme=FixedRestart(2))
    run(objective, regularizer, replace(cfg, max_iters=3), np.zeros(30))  # caches L, imports
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        trace = run(objective, regularizer, cfg, np.zeros(30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(trace) == 5000 and len(trace.checkpoints) == 2500
    assert (peak - base) / len(trace) < 128


@pytest.mark.parametrize("rows", [[[0.0, 0.0]], [[1e308, 1e308], [-1e308, 5e307]]],
                         ids=["zero", "overflow"])
def test_stepsizes_need_a_positive_finite_lipschitz(rows):
    # 1/L stepsizes: L = 0 divides by zero, and L = inf gives a zero stepsize
    A = np.array(rows)
    objective = QuadraticObjective(CsrMatrix.from_dense(A), np.ones(len(A)))
    cfg = SolverConfig(max_iters=3, stepsize_mode="theory")
    with pytest.raises(LipschitzError, match="positive finite Lipschitz estimate"):
        run(objective, Zero(), cfg, np.zeros(2))
    with pytest.raises(LipschitzError, match="positive finite Lipschitz estimate"):
        run_baseline("prox_grad", objective, Zero(), cfg, np.zeros(2))
    # beta = 1 does not divide by L, so only an infinite L stops an experiment-mode run,
    # before step 0 rather than with an overflowed first step
    experiment = SolverConfig(max_iters=3, stepsize_mode="experiment")
    if objective.lipschitz() == 0.0:
        assert len(run(objective, Zero(), experiment, np.zeros(2))) == 3
    else:
        with pytest.raises(LipschitzError, match="experiment stepsizes need a finite "
                                                 "Lipschitz estimate, got inf"):
            run(objective, Zero(), experiment, np.zeros(2))


def test_step_restart_branch(small_quadratic):
    x0 = np.full(6, 0.5)
    cfg = SolverConfig(max_iters=10, stepsize_mode="theory")
    y0 = np.zeros(6)
    Ax0 = spmv(small_quadratic.A, x0)
    state = SolverState(x=x0.copy(), y=y0, F=small_quadratic.value(x0, Ax0),
                        Ax=Ax0, Ay=spmv(small_quadratic.A, y0))

    new_state, rec = apg_restart_step(state, small_quadratic, Zero(), cfg)
    assert rec.restarted and rec.checkpoint_subdiff is not None
    assert new_state.k == 1 and new_state.checkpoint == 0
    # restart re-synchronizes: the step is taken from x, ignoring the stale y
    assert rec.grad_map_norm == pytest.approx(
        np.linalg.norm(small_quadratic.gradient(x0, Ax0)), rel=1e-12)
    # the input state is untouched
    assert state.k == 0 and state.pending_restart and np.array_equal(state.x, x0)

    plain_state, plain_rec = apg_restart_step(new_state, small_quadratic, Zero(), cfg)
    assert not plain_rec.restarted and plain_rec.checkpoint_subdiff is None
    assert plain_state.checkpoint == 0
    assert plain_rec.alpha_next == 0.5  # 2 / (k - checkpoint + 3) at k = 1


class RecordingScheme:
    """Delegates to ``inner`` and keeps every observation it is shown."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []

    def should_restart(self, obs):
        self.seen.append(obs)
        return self.inner.should_restart(obs)


class ShiftedObjective:
    """``inner`` minus a constant, so its values can be negative."""

    def __init__(self, inner, shift):
        self.inner, self.shift, self.A = inner, shift, inner.A

    def value(self, x, Ax):
        return self.inner.value(x, Ax) - self.shift

    def gradient(self, x, Ax):
        return self.inner.gradient(x, Ax)

    def lipschitz(self):
        return self.inner.lipschitz()


def test_relaxed_function_value_test_rejects_negative_values(small_quadratic):
    shifted = ShiftedObjective(small_quadratic, 100.0)
    relaxed = SolverConfig(max_iters=20, scheme=FunctionValueRestart(rho=0.8))
    with pytest.raises(ValueError, match="nonnegative"):
        run(shifted, Zero(), relaxed, np.zeros(6))
    # the predicate itself refuses, so a wrapping scheme does not hide it
    with pytest.raises(ValueError, match="nonnegative"):
        run(shifted, Zero(), replace(relaxed, scheme=RecordingScheme(relaxed.scheme)),
            np.zeros(6))
    # the strict test reads only the sign of F_curr - F_prev
    strict = run(shifted, Zero(), replace(relaxed, scheme=FunctionValueRestart(rho=1.0)),
                 np.zeros(6))
    assert len(strict) == 20 and strict.F[-1] < 0.0
    assert len(run(small_quadratic, Zero(), relaxed, np.zeros(6))) == 20


SCHEMES = st.one_of(
    st.integers(1, 12).map(FixedRestart),
    st.floats(0.5, 1.0).map(lambda rho: FunctionValueRestart(rho=rho)),
    st.floats(-1.0, 0.0).map(lambda tau: GradientMappingRestart(tau=tau)),
    st.floats(-1.0, 0.0).map(lambda tau: NonMonotoneRestart(tau=tau)),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1), SCHEMES, st.floats(0.0, 1.0))
def test_restart_branch_queries_at_the_iterate(seed, scheme, lambda_factor):
    rng = np.random.default_rng(seed)
    objective = QuadraticObjective(CsrMatrix.from_dense(rng.standard_normal((12, 4))),
                                   rng.standard_normal(12))
    recorder = RecordingScheme(scheme)
    cfg = SolverConfig(max_iters=40, stepsize_mode="theory", lambda_factor=lambda_factor,
                       scheme=recorder)
    trace = run(objective, L1(0.01), cfg, rng.standard_normal(4))
    assert len(recorder.seen) == len(trace) and trace.restart_flags[0]
    for restarted, obs in zip(trace.restart_flags, recorder.seen):
        if restarted:
            assert obs.z_k.tobytes() == obs.x_k.tobytes()
            assert obs.y_k.tobytes() == obs.x_k.tobytes()


class RecordingRegularizer:
    """Delegates to ``inner`` and keeps the bytes of every prox output."""

    def __init__(self, inner):
        self.inner = inner
        self.outputs = []

    def value(self, x):
        return self.inner.value(x)

    def subdiff_distance(self, grad_f, x):
        return self.inner.subdiff_distance(grad_f, x)

    def prox(self, x, eta):
        out = self.inner.prox(x, eta)
        self.outputs.append(out.tobytes())
        return out


class StepMarks:
    """Notes how many prox outputs exist when each step asks its scheme."""

    def __init__(self, inner, regularizer):
        self.inner = inner
        self.regularizer = regularizer
        self.marks = [0]

    def should_restart(self, obs):
        self.marks.append(len(self.regularizer.outputs))
        return self.inner.should_restart(obs)


@pytest.mark.parametrize("regularizer", [L1(0.3), ElasticNet(0.3, 0.1), SquaredL2(0.1), Zero()],
                         ids=["l1", "elastic_net", "squared_l2", "none"])
@pytest.mark.parametrize("scheme", [FixedRestart(7), FunctionValueRestart(), GradientMappingRestart(),
                                    NonMonotoneRestart(), NeverRestart()],
                         ids=lambda scheme: scheme.label)
def test_iterates_are_prox_outputs(regularizer, scheme):
    # x_{k+1} is the prox output of step k itself, so a coordinate the
    # soft-threshold zeroes stays exactly zero
    rng = np.random.default_rng(3)
    objective = QuadraticObjective(CsrMatrix.from_dense(rng.standard_normal((12, 4))),
                                   rng.standard_normal(12))
    recorder = RecordingRegularizer(regularizer)
    marks = StepMarks(scheme, recorder)
    cfg = SolverConfig(max_iters=60, stepsize_mode="theory", scheme=marks)
    x_init = rng.standard_normal(4)
    trace = run(objective, recorder, cfg, x_init)
    iterates = prefix_iterates(lambda c: run(objective, regularizer, c, x_init),
                               replace(cfg, scheme=scheme))
    assert len(marks.marks) == len(trace) + 1 == len(iterates)
    for k, x_next in enumerate(iterates[1:]):
        assert x_next.tobytes() in recorder.outputs[marks.marks[k]:marks.marks[k + 1]]
    if isinstance(regularizer, L1):
        assert np.count_nonzero(trace.final_x == 0.0) > 0


@settings(max_examples=100, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-6, 1e3), st.integers(0, 60), st.booleans())
def test_step_lam_stays_in_its_interval(lambda_factor, beta, since_restart, pending):
    objective = one_dim_quadratic()
    cfg = SolverConfig(max_iters=1, stepsize_mode="custom", beta=beta,
                       lambda_factor=lambda_factor)
    x, y = np.array([0.3]), np.array([0.1])
    Ax = spmv(objective.A, x)
    state = SolverState(x=x, y=y, F=objective.value(x, Ax), Ax=Ax,
                        Ay=spmv(objective.A, y), k=7 + since_restart,
                        checkpoint=7, pending_restart=pending)
    _, rec = apg_restart_step(state, objective, Zero(), cfg)
    alpha = rec.alpha_next
    assert rec.beta == beta and 0.0 < alpha <= 1.0
    assert beta <= rec.lam <= (1.0 + alpha) * beta
    if lambda_factor == 0.0:
        assert rec.lam == beta
    if lambda_factor == 1.0:
        assert rec.lam == (1.0 + alpha) * beta


def test_subdiff_recorded_at_checkpoints(small_quadratic):
    reg = L1(0.05)
    cfg = SolverConfig(max_iters=60, stepsize_mode="theory", scheme=FixedRestart(15))
    for solve in _solvers(small_quadratic, reg):
        trace = solve(cfg, np.zeros(6))
        _assert_trace_arrays(trace, 60)
        iterates = prefix_iterates(lambda c: solve(c, np.zeros(6)), cfg)
        for checkpoint, subdiff in zip(trace.checkpoints, trace.subdiff_dist, strict=True):
            point = iterates[checkpoint]
            grad = small_quadratic.gradient(point, spmv(small_quadratic.A, point))
            assert subdiff == pytest.approx(reg.subdiff_distance(grad, point), rel=1e-12)


class NumpyBoolRestart:
    """``FixedRestart(q)``'s schedule, answered with numpy bools."""

    def __init__(self, q):
        self.q = q

    def should_restart(self, obs):
        return np.bool_(obs.since_restart + 1 == self.q)


def test_a_scheme_may_answer_with_numpy_bools(small_quadratic):
    traces = [run(small_quadratic, L1(0.05),
                  SolverConfig(max_iters=40, stepsize_mode="theory", scheme=scheme), np.zeros(6))
              for scheme in (NumpyBoolRestart(7), FixedRestart(7))]
    assert traces[0].checkpoints.tolist() == [0, 7, 14, 21, 28, 35]
    for name in (*ITERATION_COLUMNS, "checkpoints", "subdiff_dist", "final_x"):
        assert getattr(traces[0], name).tobytes() == getattr(traces[1], name).tobytes(), name


def _count_matvecs(monkeypatch):
    # products are counted at every binding the package calls them through
    counts = {"forward": 0, "transposed": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(objectives, "spmv_transpose",
                        counted("transposed", objectives.spmv_transpose))
    monkeypatch.setattr(solver, "spmv", counted("forward", solver.spmv))
    return counts


@pytest.mark.parametrize("n_iters", [1, 7, 40])
def test_prox_grad_reuses_the_forward_product(small_quadratic, monkeypatch, n_iters):
    # the gradient starts from the product the previous value computed
    counts = _count_matvecs(monkeypatch)
    cfg = SolverConfig(max_iters=n_iters, stepsize_mode="theory")
    run_baseline("prox_grad", small_quadratic, L1(0.02), cfg, np.ones(6))
    assert counts == {"forward": n_iters + 1, "transposed": n_iters}


@pytest.mark.parametrize("n_iters, q", [(1, 1), (20, 1), (30, 10), (31, 10), (47, 7),
                                        pytest.param(47, None, id="47-never")])
def test_restart_iterations_reuse_the_forward_product(small_quadratic, monkeypatch, n_iters, q):
    # A z and A y are carried, so each step forms only A x_{k+1} and the
    # transposed product of its gradient, whether or not it restarts
    counts = _count_matvecs(monkeypatch)
    scheme = NeverRestart() if q is None else FixedRestart(q)
    cfg = SolverConfig(max_iters=n_iters, stepsize_mode="theory", scheme=scheme)
    run(small_quadratic, Zero(), cfg, np.ones(6))
    assert counts == {"forward": n_iters + 1, "transposed": n_iters}


@pytest.mark.parametrize("n_iters", [1, 25])
def test_ag_forms_both_forward_products(small_quadratic, monkeypatch, n_iters):
    # ag's y is a prox output, so it takes A z directly besides A x_{k+1}
    counts = _count_matvecs(monkeypatch)
    cfg = SolverConfig(max_iters=n_iters, stepsize_mode="theory")
    run_baseline("ag", small_quadratic, L1(0.02), cfg, np.ones(6))
    assert counts == {"forward": 2 * n_iters + 1, "transposed": n_iters}


@pytest.mark.parametrize("n", [200, linalg._SPLIT_MIN_ROWS + 5], ids=["whole", "split_rows"])
def test_firing_steps_carry_no_Ay(monkeypatch, n):
    # a restart sets A y = A x at the next step, so a step whose scheme fires
    # skips the carried A y_{k+1} and hands on Ay = None
    ds = generate_synthetic("logistic_sep", n, 30, seed=0)
    carried_Ay, step = solver._carried_Ay, solver.apg_restart_step
    passes, steps = [], []  # steps: (fired, carried Ay passes, next Ay) per step

    def counted(*args):
        passes.append(1)
        return carried_Ay(*args)

    def observed(*args):
        passes.clear()
        state, record = step(*args)
        steps.append((state.pending_restart, len(passes), state.Ay))
        return state, record

    monkeypatch.setattr(solver, "_carried_Ay", counted)
    monkeypatch.setattr(solver, "apg_restart_step", observed)
    cfg = SolverConfig(max_iters=12, stepsize_mode="experiment", scheme=FixedRestart(3))
    trace = run(_logistic(ds.features, ds.labels), L1(1e-3), cfg, np.zeros(30))
    fired = [f for f, _, _ in steps]
    assert fired[:-1] == trace.restart_flags[1:].tolist() and 0 < sum(fired) < len(fired)
    for fire, n_passes, Ay in steps:
        if fire:
            assert n_passes == 0 and Ay is None
        else:
            assert n_passes > 0 and Ay.shape == (n,)


def _drift_instance(family):
    if family == "quadratic":
        ds = generate_synthetic("lasso_known", 200, 30, seed=0)
        return QuadraticObjective(ds.features, ds.labels)
    if family == "robust":
        ds = generate_synthetic("robust_outliers", 200, 30, seed=0)
        return RobustRegressionObjective(ds.features, ds.labels)
    ds = generate_synthetic("logistic_sep", 200, 30, seed=0)
    return LogisticObjective(ds.features, ds.labels, alpha=0.01)


@pytest.mark.parametrize("mode", ["theory", "experiment"])
@pytest.mark.parametrize("family", ["quadratic", "robust", "logistic"])
def test_carried_product_does_not_drift(monkeypatch, family, mode):
    # without restarts nothing resynchronizes A y with A x; the carried A z
    # must still match a fresh product at every one of 5 000 steps
    objective = _drift_instance(family)
    gradient = type(objective).gradient
    errors = []  # (max-norm error, max-norm of the fresh product) per step

    def checked(self, z, Az):
        fresh = spmv(self.A, z)
        errors.append((np.max(np.abs(Az - fresh)), np.max(np.abs(fresh))))
        return gradient(self, z, Az)

    monkeypatch.setattr(type(objective), "gradient", checked)
    cfg = SolverConfig(max_iters=5000, stepsize_mode=mode, scheme=NeverRestart())
    trace = run(objective, L1(1e-3), cfg, np.zeros(30))
    assert len(errors) == len(trace) == 5000
    assert all(error <= 1e-12 * scale for error, scale in errors)


def _trace_fingerprint(trace, solve):
    # the digests also cover each period's path length, summed in row order,
    # and the gradient-call count, one per iteration; both are recomputed
    # from the columns. Each checkpoint iterate is the final_x of the same
    # run cut at that checkpoint, ``solve(max_iters)``.
    h = hashlib.sha256()
    for name in ("F", "grad_map_norm", "step_norm", "restart_flags", "lam", "beta",
                 "alpha_next", "final_x"):
        h.update(getattr(trace, name).tobytes())
    checkpoints = trace.checkpoints.tolist()
    ends = checkpoints[1:] + [len(trace)]
    for t, (checkpoint, end) in enumerate(zip(checkpoints, ends, strict=True)):
        sq_sum = 0.0
        for step in trace.step_norm[checkpoint:end]:
            sq_sum += step * step
        h.update(np.array([t, checkpoint], dtype=np.int64).tobytes())
        h.update(np.array([trace.F[checkpoint], np.sqrt(sq_sum),
                           trace.subdiff_dist[t]]).tobytes())
        h.update(solve(checkpoint).final_x.tobytes())
    h.update(np.array([trace.final_F, trace.lipschitz]).tobytes())
    h.update(np.array([trace.prox_calls, len(trace)], dtype=np.int64).tobytes())
    return h.hexdigest()


BASELINE_FINGERPRINTS = {
    ("prox_grad", "theory", 0.0):
        "35ddebdad29402637499ff1d2e0dc106b041d78f4b67c5ce72461e9aed10845b",
    ("prox_grad", "theory", 0.001):
        "b64325a7ddd6b72f3db3e95ae0f70b1c983844391e52c78c0f65e5ad8f3c50ae",
    ("prox_grad", "experiment", 0.0):
        "35ddebdad29402637499ff1d2e0dc106b041d78f4b67c5ce72461e9aed10845b",
    ("prox_grad", "experiment", 0.001):
        "b64325a7ddd6b72f3db3e95ae0f70b1c983844391e52c78c0f65e5ad8f3c50ae",
    ("ag", "theory", 0.0):
        "d0f571076580462ce9e9ef03187ccae74000dee64f7ee4931541f1f408d28343",
    ("ag", "theory", 0.001):
        "752a85d492839a2e43f22ad1ab4e0d5106cb48cb1533dc6449b4cf84579bd510",
    ("ag", "experiment", 0.0):
        "8c5d00688f829dd54db233cf41f764e9d6c372345763916f13d2a79ef5a35313",
    ("ag", "experiment", 0.001):
        "ace8eb729bbfdf19ba2eb4d8fbde1e17ef12f3b5f4afb070e834e709b2354c9d",
    ("apg_never", "theory", 0.0):
        "7c2235fbfd2de2339db962448485607042e253012ea7df52c4cdf5abf81a58d7",
    ("apg_never", "theory", 0.001):
        "d3128207d96e790eaae88021d7c2efea5a5cd5b9090778bd638491b786c9f175",
    ("apg_never", "experiment", 0.0):
        "560881eadecb60181ddd6129ed54ae840d2f10a82340aeff3c364afb07b9d5f0",
    ("apg_never", "experiment", 0.001):
        "145d356e8b602b1ca1bdad89aa316bad6f313363d89a761672bce1c55f70b373",
}


@pytest.mark.parametrize("kind, mode, tolerance", sorted(BASELINE_FINGERPRINTS))
def test_baseline_traces_are_pinned(small_quadratic, kind, mode, tolerance):
    # bit-for-bit pins of every trace column, period and counter of the
    # baselines and of the restart solver that never restarts ("apg_never")
    cfg = SolverConfig(max_iters=200, stepsize_mode=mode, tolerance=tolerance,
                       scheme=NeverRestart())

    def solve(max_iters):
        if kind == "apg_never":
            return run(small_quadratic, L1(0.02), replace(cfg, max_iters=max_iters), np.ones(6))
        return run_baseline(kind, small_quadratic, L1(0.02), replace(cfg, max_iters=max_iters),
                            np.ones(6))

    assert _trace_fingerprint(solve(200), solve) == BASELINE_FINGERPRINTS[kind, mode, tolerance]



def _logistic(A, b):
    return LogisticObjective(A, b, alpha=0.01)


class LayerCalls:
    """Logs, in order, each call to a layer that the bench traces.

    Functions are wrapped at every binding a package module holds, methods
    on the run's own classes; the scheme's ``should_restart`` ends each
    iteration's entries.
    """

    def __init__(self, monkeypatch, objective, regularizer, scheme):
        self.log = []
        for fn in (linalg.spmv, linalg.spmv_transpose, regularizers.gradient_mapping):
            wrapped = self._wrap(fn.__name__, fn)
            for module in (linalg, objectives, regularizers, restart, solver):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, wrapped)
        for cls, methods in ((type(objective), ("value", "gradient")),
                             (type(regularizer), ("value", "prox", "subdiff_distance")),
                             (type(scheme), ("should_restart",))):
            for method in methods:
                name = "regularizer.value" if cls is type(regularizer) and method == "value" else method
                monkeypatch.setattr(cls, method, self._wrap(name, getattr(cls, method)))

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            self.log.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def iterations(self):
        """One Counter per iteration; the first also holds the run's set-up calls."""
        chunks, current = [], Counter()
        for name in self.log:
            current[name] += 1
            if name == "should_restart":
                chunks.append(current)
                current = Counter()
        assert not current, f"calls after the last iteration: {current}"
        return chunks


@pytest.mark.parametrize("family, kind, regularizer, mode, scheme", [
    (_logistic, "logistic_sep", Zero(), "experiment", GradientMappingRestart(tau=-0.2)),
    (QuadraticObjective, "lasso_known", L1(0.02), "theory", FixedRestart(7)),
    (RobustRegressionObjective, "robust_outliers", ElasticNet(0.02, 0.1), "experiment",
     FunctionValueRestart()),
], ids=["logistic-none", "quadratic-l1", "robust-elastic_net"])
def test_each_iteration_calls_each_layer_as_budgeted(monkeypatch, family, kind, regularizer, mode,
                                                      scheme):
    # the bench's per-layer counts rest on this per-iteration budget
    ds = generate_synthetic(kind, 200, 30, seed=0)
    objective = family(ds.features, ds.labels)
    calls = LayerCalls(monkeypatch, objective, regularizer, scheme)
    cfg = SolverConfig(max_iters=120, stepsize_mode=mode, scheme=scheme)
    trace = run(objective, regularizer, cfg, np.zeros(30))
    iterations = calls.iterations()
    assert len(iterations) == len(trace) == 120
    assert 1 < trace.num_restarts < 119
    iterations[0] -= Counter({"spmv": 1, "value": 1, "regularizer.value": 1})  # set-up
    for restarted, counts in zip(trace.restart_flags, iterations, strict=True):
        want = Counter({"gradient": 1, "spmv_transpose": 1, "prox": 1, "spmv": 1, "value": 1,
                        "regularizer.value": 1, "should_restart": 1})
        want.update({"subdiff_distance": 1} if restarted else {"gradient_mapping": 1, "prox": 1})
        assert counts == want


# The restart step's paths that the baseline pins above do not reach:
# (objective class, dataset kind, rows, regularizer, mode, scheme, iterations).
# The four logistic cells are ``configs/example.yaml``'s at seed 0; the last
# case has enough rows that the step's elementwise passes run split.
STEP_PATH_CASES = {
    "logistic-none-function_value":
        (_logistic, "logistic_sep", 200, Zero(), "experiment", FunctionValueRestart(rho=0.8), 200),
    "logistic-none-gradient_mapping":
        (_logistic, "logistic_sep", 200, Zero(), "experiment", GradientMappingRestart(tau=-0.2), 200),
    "logistic-none-non_monotone":
        (_logistic, "logistic_sep", 200, Zero(), "experiment", NonMonotoneRestart(tau=-0.2), 200),
    "logistic-none-fixed_10":
        (_logistic, "logistic_sep", 200, Zero(), "experiment", FixedRestart(10), 200),
    "robust-elastic_net-theory":
        (RobustRegressionObjective, "robust_outliers", 200, ElasticNet(0.02, 0.1), "theory",
         GradientMappingRestart(), 200),
    "robust-elastic_net-experiment":
        (RobustRegressionObjective, "robust_outliers", 200, ElasticNet(0.02, 0.1), "experiment",
         FunctionValueRestart(), 200),
    "quadratic-squared_l2-theory":
        (QuadraticObjective, "lasso_known", 200, SquaredL2(0.1), "theory", NonMonotoneRestart(), 200),
    "logistic-l1-split_rows":
        (_logistic, "logistic_sep", linalg._SPLIT_MIN_ROWS + 5, L1(1e-3), "experiment",
         GradientMappingRestart(), 20),
}

STEP_PATH_FINGERPRINTS = {
    "logistic-none-function_value":
        "da52177f97e71abbb6efbe213468892d6d0efde3d49a721695208e1996a445f7",
    "logistic-none-gradient_mapping":
        "ae8e32de435a954909caa6ac6742e2c0a38583b52644053a8a5f4387f891c067",
    "logistic-none-non_monotone":
        "3b55ddf97a6af54f536e6cb883063923565e7dff26ce082576051a8cbe393eba",
    "logistic-none-fixed_10":
        "a803da592aeb13ae19cac6f26dfa20bf1f0aa6287ef2c39c4c50167dd892be38",
    "robust-elastic_net-theory":
        "84f2e67a8bc3af08142961446c752da7de966746c5e5e1f847f61047f047493b",
    "robust-elastic_net-experiment":
        "1f1a9cc30a2e5a073df7c120399f2c4e30b417ded6be90729b538be6265f0bd3",
    "quadratic-squared_l2-theory":
        "0d5f64b570f74e57878999b4b72adb3b34da002c2b9e0f9b3926df38600dfb7b",
    "logistic-l1-split_rows":
        "e7ad4671d9f647313c2f2cf2e47232f6c1b23d334a21526b56b8ed3bf2520088",
}


@pytest.mark.parametrize("case", sorted(STEP_PATH_CASES))
def test_step_paths_are_pinned(case):
    # bit-for-bit pins of every trace column, period and counter
    family, kind, n, regularizer, mode, scheme, iters = STEP_PATH_CASES[case]
    ds = generate_synthetic(kind, n, 30, seed=0)
    objective = family(ds.features, ds.labels)
    cfg = SolverConfig(max_iters=iters, stepsize_mode=mode, scheme=scheme)

    def solve(max_iters):
        return run(objective, regularizer, replace(cfg, max_iters=max_iters), np.zeros(30))

    assert _trace_fingerprint(solve(iters), solve) == STEP_PATH_FINGERPRINTS[case]
