import hashlib
import re
import warnings

import numpy as np
import pytest

from oracles import QuarticObjective, fd_gradient
from proxrestart import (
    L1,
    CsrMatrix,
    GradientMappingRestart,
    LogisticObjective,
    QuadraticObjective,
    RobustRegressionObjective,
    SolverConfig,
    generate_synthetic,
    run,
    spectral_norm_sq,
    spmv,
)
from proxrestart import objectives


def random_instance(rng, family, n=12, d=5):
    A = np.where(rng.random((n, d)) < 0.7, rng.standard_normal((n, d)), 0.0)
    mat = CsrMatrix.from_dense(A)
    if family == "logistic":
        labels = rng.choice((-1.0, 1.0), size=n)
        return LogisticObjective(mat, labels, alpha=0.01)
    if family == "robust":
        return RobustRegressionObjective(mat, rng.standard_normal(n))
    return QuadraticObjective(mat, rng.standard_normal(n))


FAMILIES = ("logistic", "robust", "quadratic")


def test_penalty_contributes_nothing_at_origin(rng):
    mat = CsrMatrix.from_dense(rng.standard_normal((6, 3)))
    labels = np.array([1.0, -1.0, 1.0, 1.0, -1.0, -1.0])
    with_penalty = LogisticObjective(mat, labels, alpha=0.5)
    without = LogisticObjective(mat, labels, alpha=0.0)
    x0 = np.zeros(3)
    Ax0 = spmv(mat, x0)
    assert with_penalty.value(x0, Ax0) == without.value(x0, Ax0)


def test_robust_single_residual_value():
    # one row, residual s = 2 -> log(2^2/2 + 1) = log 3
    obj = RobustRegressionObjective(CsrMatrix.from_dense([[1.0]]), np.array([-2.0]))
    x = np.zeros(1)
    assert obj.value(x, spmv(obj.A, x)) == pytest.approx(np.log(3.0), abs=1e-12)


def test_penalty_value_formula():
    # alpha = 0.01 at x = [1]: 0.01 * 1/(1+1) = 0.005
    mat = CsrMatrix.from_dense([[0.0]])
    obj = LogisticObjective(mat, np.array([1.0]), alpha=0.01)
    base = LogisticObjective(mat, np.array([1.0]), alpha=0.0)
    x = np.array([1.0])
    Ax = spmv(mat, x)
    assert obj.value(x, Ax) - base.value(x, Ax) == pytest.approx(0.005, abs=1e-15)


def test_penalty_gradient_vanishes_at_origin():
    mat = CsrMatrix.from_dense([[0.0, 0.0]])
    obj = LogisticObjective(mat, np.array([1.0]), alpha=0.3)
    x = np.zeros(2)
    assert np.array_equal(obj.gradient(x, spmv(mat, x)), np.zeros(2))


def test_robust_gradient_zero_at_zero_residual():
    obj = RobustRegressionObjective(CsrMatrix.from_dense([[1.0]]), np.array([0.0]))
    x = np.zeros(1)
    assert obj.gradient(x, spmv(obj.A, x)) == pytest.approx([0.0], abs=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
def test_gradient_matches_finite_differences(family, rng):
    for _ in range(25):
        obj = random_instance(rng, family)
        x = rng.standard_normal(obj.A.n_cols)
        got = obj.gradient(x, spmv(obj.A, x))
        want = fd_gradient(lambda v: obj.value(v, spmv(obj.A, v)), x)
        assert np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)) <= 1e-5


def test_lipschitz_quadratic_identity():
    n = 4
    obj = QuadraticObjective(CsrMatrix.from_dense(np.eye(n)), np.zeros(n))
    assert obj.lipschitz() == pytest.approx(1.0 / n, rel=1e-9)


def test_lipschitz_logistic_zero_matrix():
    obj = LogisticObjective(CsrMatrix.from_dense(np.zeros((3, 2))), np.array([1.0, -1.0, 1.0]), alpha=0.01)
    assert obj.lipschitz() == 0.02


@pytest.mark.parametrize("family", FAMILIES)
def test_lipschitz_bounds_gradient_variation(family, rng):
    obj = random_instance(rng, family, n=20, d=6)
    L = obj.lipschitz()
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(6) * 2
        y = rng.standard_normal(6) * 2
        gx, gy = obj.gradient(x, spmv(obj.A, x)), obj.gradient(y, spmv(obj.A, y))
        num = np.linalg.norm(gx - gy)
        den = np.linalg.norm(x - y)
        if den > 0:
            worst = max(worst, num / den)
    assert worst <= L * (1 + 1e-6)


def test_quartic_oracle_gradient_and_bound(rng):
    # the test-only sublinear-regime loss: finite differences and L = 2.5 ||A||^2 / n
    for _ in range(25):
        A = np.where(rng.random((12, 5)) < 0.7, rng.standard_normal((12, 5)), 0.0)
        obj = QuarticObjective(CsrMatrix.from_dense(A), rng.standard_normal(12))
        x, y = rng.standard_normal((2, 5)) * 2
        got = obj.gradient(x, spmv(obj.A, x))
        want = fd_gradient(lambda v: obj.value(v, spmv(obj.A, v)), x)
        assert np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)) <= 1e-5
        variation = np.linalg.norm(got - obj.gradient(y, spmv(obj.A, y)))
        assert variation <= obj.lipschitz() * np.linalg.norm(x - y) * (1 + 1e-6)


@pytest.mark.parametrize("family", FAMILIES)
def test_descent_step_never_increases(family, rng):
    obj = random_instance(rng, family)
    L = obj.lipschitz()
    for _ in range(50):
        x = rng.standard_normal(obj.A.n_cols)
        Ax = spmv(obj.A, x)
        stepped = x - obj.gradient(x, Ax) / L
        assert obj.value(stepped, spmv(obj.A, stepped)) <= obj.value(x, Ax) + 1e-12


@pytest.mark.parametrize("family", ("logistic", "robust"))
def test_values_bounded_below_by_zero(family, rng):
    obj = random_instance(rng, family)
    for _ in range(100):
        x = rng.standard_normal(obj.A.n_cols) * 5
        assert obj.value(x, spmv(obj.A, x)) >= 0.0


def test_lipschitz_computed_once(rng, monkeypatch):
    calls = []

    def counting(A, **kwargs):
        calls.append(kwargs)
        return spectral_norm_sq(A, **kwargs)

    monkeypatch.setattr(objectives, "spectral_norm_sq", counting)
    obj = random_instance(rng, "quadratic")
    first = obj.lipschitz()
    assert [obj.lipschitz() for _ in range(3)] == [first] * 3
    # one bound per objective, a Python float
    assert calls == [{}]
    assert type(first) is float
    assert first == obj._lipschitz_from_spectrum(spectral_norm_sq(obj.A))


def test_label_validation():
    mat = CsrMatrix.from_dense(np.eye(2))
    with pytest.raises(ValueError, match="labels"):
        LogisticObjective(mat, np.array([1.0, 2.0]))


@pytest.mark.parametrize("cls", [LogisticObjective, RobustRegressionObjective, QuadraticObjective])
@pytest.mark.parametrize("shape", [(3, 1), (1, 3), (3, 1, 1)])
def test_labels_must_be_one_dimensional(cls, shape):
    # a column of labels would fail only at the first step, inside the loss
    with pytest.raises(ValueError, match=rf"^labels/targets must be one-dimensional, "
                                         rf"got shape {re.escape(str(shape))}$"):
        cls(CsrMatrix.from_dense(np.eye(3)), np.ones(shape))


def test_logistic_refuses_negative_alpha():
    with pytest.raises(ValueError, match="alpha must be a nonnegative finite number, got -0.1"):
        LogisticObjective(CsrMatrix.from_dense(np.eye(2)), np.ones(2), alpha=-0.1)


@pytest.mark.parametrize("cls", [LogisticObjective, RobustRegressionObjective, QuadraticObjective])
def test_empty_matrix_is_rejected(cls):
    # the losses average over rows, so no rows would divide by zero
    with pytest.raises(ValueError, match="no rows"):
        cls(CsrMatrix.from_dense(np.zeros((0, 3))), np.zeros(0))


def test_dimension_checks():
    mat = CsrMatrix.from_dense(np.eye(3))
    obj = QuadraticObjective(mat, np.zeros(3))
    # spmv refuses an x of the wrong length, so neither method meets one
    for x in (np.zeros(4), np.zeros(2)):
        with pytest.raises(ValueError, match="dimension"):
            spmv(obj.A, x)
    with pytest.raises(ValueError):
        QuadraticObjective(mat, np.zeros(5))


def test_logistic_value_stable_on_extreme_margins():
    obj = LogisticObjective(CsrMatrix.from_dense([[1.0]]), np.array([1.0]), alpha=0.0)
    x, y = np.array([5000.0]), np.array([-5000.0])
    assert np.isfinite(obj.value(x, spmv(obj.A, x)))
    assert obj.value(y, spmv(obj.A, y)) == pytest.approx(5000.0, rel=1e-12)
    assert np.all(np.isfinite(obj.gradient(x, spmv(obj.A, x))))


def logistic_with_margins(margins):
    """Plain logistic objective whose margins ``b * A x`` at ``x = [1]`` are ``margins``.

    Row ``i`` holds ``|m_i|`` and its label is the sign of ``m_i``, so the
    margins come out exactly, signed zeros included.
    """
    margins = np.asarray(margins, dtype=np.float64)
    labels = np.where(np.signbit(margins), -1.0, 1.0)
    obj = LogisticObjective(CsrMatrix.from_dense(np.abs(margins)[:, None]), labels, alpha=0.0)
    assert (labels * spmv(obj.A, np.ones(1))).tobytes() == margins.tobytes()
    return obj


EXTREME_MARGINS = [0.0, 1e-300, 36.7, 40.0, 700.0, 5000.0]


@pytest.mark.parametrize("margin", [s * m for m in EXTREME_MARGINS for s in (1.0, -1.0)])
def test_logistic_value_matches_logaddexp_on_extreme_margins(margin):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obj = logistic_with_margins([margin])
        got = obj.value(np.ones(1), spmv(obj.A, np.ones(1)))
        want = float(np.logaddexp(0.0, -margin))
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_logistic_value_matches_logaddexp_on_random_margins():
    rng = np.random.default_rng(2024)
    margins = np.concatenate([
        rng.standard_normal(4000) * 3.0,
        rng.standard_normal(3000) * 300.0,
        rng.uniform(-1e-8, 1e-8, 3000),
        [s * m for m in EXTREME_MARGINS for s in (1.0, -1.0)],
    ])
    assert len(margins) == 10_012
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        obj = logistic_with_margins(margins)
        got = obj.value(np.ones(1), spmv(obj.A, np.ones(1)))
        want = float(np.logaddexp(0.0, -margins).sum()) / len(margins)
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def _logistic_sep_objective():
    ds = generate_synthetic("logistic_sep", 200, 30, 0)
    return LogisticObjective(ds.features, ds.labels, alpha=0.01)


def test_logistic_gradient_bits_are_pinned():
    # the gradient keeps its exact bits whatever happens to the loss value
    obj = _logistic_sep_objective()
    rng = np.random.default_rng(1)
    h = hashlib.sha256()
    for x in (np.zeros(30), rng.standard_normal(30), 50.0 * rng.standard_normal(30)):
        h.update(obj.gradient(x, spmv(obj.A, x)).tobytes())
    assert h.hexdigest() == "a1d72d94233a627828bbd6c5802231004d387012d8f3a9d4fe4960a5eac7f776"


def test_logistic_run_iterates_are_pinned():
    # F may move by a few ulps with the loss formula; the iterates, step
    # and gradient-mapping norms and the restart decisions must not
    cfg = SolverConfig(max_iters=400, stepsize_mode="experiment", scheme=GradientMappingRestart())
    trace = run(_logistic_sep_objective(), L1(1e-3), cfg, np.zeros(30))
    h = hashlib.sha256()
    for name in ("final_x", "grad_map_norm", "step_norm", "restart_flags"):
        h.update(getattr(trace, name).tobytes())
    assert trace.num_restarts == 198
    assert h.hexdigest() == "b8c6d5ab8d0c2485f7da53c913a541dc4316a8a04d69ce5a4db560818d5c467c"


def test_quadratic_value_and_gradient_consistent(rng):
    obj = random_instance(rng, "quadratic")
    x = rng.standard_normal(obj.A.n_cols)
    r = spmv(obj.A, x) - obj.b
    assert obj.value(x, spmv(obj.A, x)) == pytest.approx(0.5 * float(r @ r) / obj.n, rel=1e-12)
