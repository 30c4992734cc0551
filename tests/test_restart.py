from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrestart import (
    CsrMatrix,
    ElasticNet,
    FixedRestart,
    FunctionValueRestart,
    GradientMappingRestart,
    L1,
    LogisticObjective,
    NeverRestart,
    NonMonotoneRestart,
    RestartObservation,
    SolverConfig,
    SquaredL2,
    Zero,
    run,
)


def obs(since_restart=5, F_curr=1.0, F_prev=1.0, x=None, y=None, z=None, y_next=None):
    d = 3
    return RestartObservation(
        k=since_restart, since_restart=since_restart,
        F_curr=F_curr, F_prev=F_prev,
        x_k=np.zeros(d) if x is None else np.asarray(x, float),
        y_k=np.zeros(d) if y is None else np.asarray(y, float),
        z_k=np.zeros(d) if z is None else np.asarray(z, float),
        y_next=np.zeros(d) if y_next is None else np.asarray(y_next, float),
    )


def test_function_value_strict_fires_on_increase():
    assert FunctionValueRestart(rho=1.0).should_restart(obs(F_curr=1.2, F_prev=1.0))
    assert not FunctionValueRestart(rho=1.0).should_restart(obs(F_curr=0.9, F_prev=1.0))


def test_function_value_relaxed_fires_on_slow_decrease():
    assert FunctionValueRestart(rho=0.8).should_restart(obs(F_curr=0.9, F_prev=1.0))
    assert not FunctionValueRestart(rho=0.8).should_restart(obs(F_curr=0.7, F_prev=1.0))


def test_gradient_mapping_boundary_fires_at_right_angle():
    # orthogonal vectors: inner product 0 satisfies >= 0
    o = obs(z=[1, 0, 0], y=[0, 0, 0], y_next=[1, 1, 0])  # z-y=(1,0,0), y'-z=(0,1,0)
    assert GradientMappingRestart(tau=0.0).should_restart(o)
    o2 = obs(z=[1, 0, 0], y=[0, 0, 0], y_next=[0.5, 0, 0])  # y'-z antiparallel
    assert not GradientMappingRestart(tau=0.0).should_restart(o2)


def test_gradient_mapping_relaxed_slack():
    # cos angle = -0.1 passes tau=-0.2 but not tau=0
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([-0.1, np.sqrt(1 - 0.01), 0.0])
    o = obs(z=a, y=np.zeros(3), y_next=a + b)
    assert GradientMappingRestart(tau=-0.2).should_restart(o)
    assert not GradientMappingRestart(tau=0.0).should_restart(o)


def test_non_monotone_uses_midpoint_target():
    z = np.array([1.0, 0.0, 0.0])
    x = np.array([0.0, 0.0, 0.0])
    y_next = np.array([2.0, 0.0, 0.0])  # y' - (z+x)/2 = (1.5, 0, 0), parallel to z - y
    o = obs(z=z, y=np.zeros(3), x=x, y_next=y_next)
    assert NonMonotoneRestart(tau=0.0).should_restart(o)
    o2 = obs(z=z, y=np.zeros(3), x=x, y_next=np.array([-2.0, 0.0, 0.0]))
    assert not NonMonotoneRestart(tau=0.0).should_restart(o2)


def test_fixed_period_boundary():
    scheme = FixedRestart(q=10)
    assert scheme.should_restart(obs(since_restart=9))
    assert not scheme.should_restart(obs(since_restart=5))


def test_never_never_fires():
    assert not NeverRestart().should_restart(obs(F_curr=100.0, F_prev=0.0))


def test_min_period_suppresses_firing():
    scheme = FunctionValueRestart(rho=1.0, min_period=4)
    hot = dict(F_curr=2.0, F_prev=1.0)
    assert not scheme.should_restart(obs(since_restart=0, **hot))
    assert not scheme.should_restart(obs(since_restart=2, **hot))
    assert scheme.should_restart(obs(since_restart=3, **hot))


def test_zero_direction_never_fires():
    # z == y leaves the angle undefined: must not trigger
    o = obs(z=[0, 0, 0], y=[0, 0, 0], y_next=[1, 1, 1])
    assert not GradientMappingRestart(tau=-1.0).should_restart(o)
    assert not NonMonotoneRestart(tau=-1.0).should_restart(o)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.floats(1e-6, 1e6))
def test_cosine_criterion_scale_invariant(seed, c):
    rng = np.random.default_rng(seed)
    z, y, y_next = rng.standard_normal((3, 4))
    base = obs(z=z, y=y, y_next=y_next)
    z_scaled = y + c * (z - y)
    scaled = obs(z=z_scaled, y=y, y_next=z_scaled + c * (y_next - z))
    for tau in (0.0, -0.2):
        scheme = GradientMappingRestart(tau=tau)
        assert scheme.should_restart(base) == scheme.should_restart(scaled)


def test_parameter_validation():
    with pytest.raises(ValueError):
        FixedRestart(0)
    with pytest.raises(ValueError):
        FunctionValueRestart(rho=0.0)
    with pytest.raises(ValueError):
        FunctionValueRestart(rho=1.2)
    with pytest.raises(ValueError):
        GradientMappingRestart(tau=0.5)
    with pytest.raises(ValueError):
        NonMonotoneRestart(tau=-1.5)
    for scheme in (FunctionValueRestart(), GradientMappingRestart(), NonMonotoneRestart()):
        with pytest.raises(ValueError, match="min_period"):
            replace(scheme, min_period=0)
    # min_period belongs to the adaptive tests only
    with pytest.raises(TypeError):
        FixedRestart(5, min_period=2)
    with pytest.raises(TypeError):
        NeverRestart(min_period=2)


NAN, INF = float("nan"), float("inf")


def _logistic(alpha):
    return LogisticObjective(CsrMatrix.from_dense(np.eye(2)), np.ones(2), alpha=alpha)


@pytest.mark.parametrize("make, message", [
    (lambda: FixedRestart(2.5), "q must be an integer"),
    (lambda: FixedRestart(True), "q must be an integer"),
    (lambda: FixedRestart(np.float64(3.0)), "q must be an integer"),
    (lambda: FunctionValueRestart(min_period=2.0), "min_period must be an integer"),
    (lambda: GradientMappingRestart(min_period=True), "min_period must be an integer"),
    (lambda: NonMonotoneRestart(min_period=3.5), "min_period must be an integer"),
    (lambda: L1(NAN), "mu must be finite"),
    (lambda: L1(INF), "mu must be finite"),
    (lambda: SquaredL2(NAN), "mu must be finite"),
    (lambda: ElasticNet(NAN, 0.1), "weights must be finite"),
    (lambda: ElasticNet(0.1, INF), "weights must be finite"),
    (lambda: _logistic(NAN), "alpha must be finite"),
    (lambda: _logistic(INF), "alpha must be finite"),
], ids=["fixed_float", "fixed_bool", "fixed_numpy_float", "function_value_float_min_period",
        "gradient_mapping_bool_min_period", "non_monotone_float_min_period", "l1_nan", "l1_inf",
        "squared_l2_nan", "elastic_net_nan", "elastic_net_inf", "logistic_nan_alpha",
        "logistic_inf_alpha"])
def test_constructors_refuse_non_integer_periods_and_nonfinite_weights(make, message):
    # FixedRestart(2.5) would build a scheme that never fires, and nan or inf
    # weights would pass a nonnegativity check
    with pytest.raises(ValueError, match=message):
        make()


def test_periods_take_numpy_integers():
    assert FixedRestart(np.int64(3)) == FixedRestart(3)
    assert GradientMappingRestart(min_period=np.int32(4)).min_period == 4


@pytest.mark.parametrize("scheme, label", [
    (FixedRestart(3), "fixed(q=3)"),
    (FunctionValueRestart(), "function_value(rho=0.8)"),
    (FunctionValueRestart(rho=1), "function_value(rho=1.0)"),
    (GradientMappingRestart(), "gradient_mapping(tau=-0.2)"),
    (NonMonotoneRestart(tau=0.0), "non_monotone(tau=0.0)"),
    (NeverRestart(), "never"),
    # a non-default min_period changes how often a scheme restarts
    (FunctionValueRestart(min_period=2), "function_value(rho=0.8)"),
    (FunctionValueRestart(min_period=25), "function_value(rho=0.8; min_period=25)"),
    (GradientMappingRestart(tau=0.0, min_period=1), "gradient_mapping(tau=0.0; min_period=1)"),
    (NonMonotoneRestart(min_period=3), "non_monotone(tau=-0.2; min_period=3)"),
    # rho and tau are stored as floats, so an int prints as the equal float
    (NonMonotoneRestart(tau=0), "non_monotone(tau=0.0)"),
])
def test_scheme_labels(scheme, label):
    # the labels name the scheme in summary.csv, which quotes no field
    assert scheme.label == label and "," not in label


# --- behavior inside real runs ----------------------------------------------

def test_fixed_scheme_gives_exact_periods(small_quadratic):
    for q in (3, 10, 25):
        cfg = SolverConfig(max_iters=200, stepsize_mode="theory", scheme=FixedRestart(q))
        trace = run(small_quadratic, Zero(), cfg, np.zeros(6))
        gaps = np.diff(trace.checkpoints)
        assert np.all(gaps == q)


def test_never_scheme_single_period(small_quadratic):
    cfg = SolverConfig(max_iters=150, stepsize_mode="theory", scheme=NeverRestart())
    trace = run(small_quadratic, Zero(), cfg, np.zeros(6))
    assert len(trace.checkpoints) == 1
    assert trace.num_restarts == 0
    assert trace.restart_flags[0] and not trace.restart_flags[1:].any()


@pytest.mark.parametrize("scheme", [
    FunctionValueRestart(rho=1.0, min_period=3),
    GradientMappingRestart(tau=0.0, min_period=3),
    NonMonotoneRestart(tau=0.0, min_period=3),
])
def test_min_period_holds_in_traces(scheme, small_quadratic):
    cfg = SolverConfig(max_iters=400, stepsize_mode="theory", scheme=scheme)
    trace = run(small_quadratic, Zero(), cfg, np.zeros(6))
    gaps = np.diff(trace.checkpoints)
    assert len(gaps) == 0 or gaps.min() >= 3
