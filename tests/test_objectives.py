import hashlib
import warnings

import numpy as np
import pytest

from oracles import fd_gradient
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
    spmv,
)


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
    assert with_penalty.value(x0) == without.value(x0)


def test_robust_single_residual_value():
    # one row, residual s = 2 -> log(2^2/2 + 1) = log 3
    obj = RobustRegressionObjective(CsrMatrix.from_dense([[1.0]]), np.array([-2.0]))
    assert obj.value(np.zeros(1)) == pytest.approx(np.log(3.0), abs=1e-12)


def test_penalty_value_formula():
    # alpha = 0.01 at x = [1]: 0.01 * 1/(1+1) = 0.005
    mat = CsrMatrix.from_dense([[0.0]])
    obj = LogisticObjective(mat, np.array([1.0]), alpha=0.01)
    base = LogisticObjective(mat, np.array([1.0]), alpha=0.0)
    x = np.array([1.0])
    assert obj.value(x) - base.value(x) == pytest.approx(0.005, abs=1e-15)


def test_penalty_gradient_vanishes_at_origin():
    mat = CsrMatrix.from_dense([[0.0, 0.0]])
    obj = LogisticObjective(mat, np.array([1.0]), alpha=0.3)
    assert np.array_equal(obj.gradient(np.zeros(2)), np.zeros(2))


def test_robust_gradient_zero_at_zero_residual():
    obj = RobustRegressionObjective(CsrMatrix.from_dense([[1.0]]), np.array([0.0]))
    assert obj.gradient(np.zeros(1)) == pytest.approx([0.0], abs=1e-15)


@pytest.mark.parametrize("family", FAMILIES)
def test_gradient_matches_finite_differences(family, rng):
    for _ in range(25):
        obj = random_instance(rng, family)
        x = rng.standard_normal(obj.dim)
        got = obj.gradient(x)
        want = fd_gradient(obj.value, x)
        assert np.linalg.norm(got - want) / max(1.0, np.linalg.norm(want)) <= 1e-5


def test_lipschitz_quadratic_identity():
    n = 4
    obj = QuadraticObjective(CsrMatrix.from_dense(np.eye(n)), np.zeros(n))
    assert obj.lipschitz(0) == pytest.approx(1.0 / n, rel=1e-9)


def test_lipschitz_logistic_zero_matrix():
    obj = LogisticObjective(CsrMatrix.from_dense(np.zeros((3, 2))), np.array([1.0, -1.0, 1.0]), alpha=0.01)
    assert obj.lipschitz(0) == 0.02


@pytest.mark.parametrize("family", FAMILIES)
def test_lipschitz_bounds_gradient_variation(family, rng):
    obj = random_instance(rng, family, n=20, d=6)
    L = obj.lipschitz(0)
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(6) * 2
        y = rng.standard_normal(6) * 2
        num = np.linalg.norm(obj.gradient(x) - obj.gradient(y))
        den = np.linalg.norm(x - y)
        if den > 0:
            worst = max(worst, num / den)
    assert worst <= L * (1 + 1e-6)


@pytest.mark.parametrize("family", FAMILIES)
def test_descent_step_never_increases(family, rng):
    obj = random_instance(rng, family)
    L = obj.lipschitz(0)
    for _ in range(50):
        x = rng.standard_normal(obj.dim)
        stepped = x - obj.gradient(x) / L
        assert obj.value(stepped) <= obj.value(x) + 1e-12


@pytest.mark.parametrize("family", ("logistic", "robust"))
def test_values_bounded_below_by_zero(family, rng):
    obj = random_instance(rng, family)
    for _ in range(100):
        assert obj.value(rng.standard_normal(obj.dim) * 5) >= 0.0


def test_lipschitz_cached_per_seed(rng):
    obj = random_instance(rng, "quadratic")
    assert obj.lipschitz(3) is obj.lipschitz(3) or obj.lipschitz(3) == obj.lipschitz(3)


def test_label_validation():
    mat = CsrMatrix.from_dense(np.eye(2))
    with pytest.raises(ValueError, match="labels"):
        LogisticObjective(mat, np.array([1.0, 2.0]))


def test_dimension_checks():
    mat = CsrMatrix.from_dense(np.eye(3))
    obj = QuadraticObjective(mat, np.zeros(3))
    with pytest.raises(ValueError):
        obj.value(np.zeros(4))
    with pytest.raises(ValueError):
        obj.gradient(np.zeros(2))
    with pytest.raises(ValueError):
        QuadraticObjective(mat, np.zeros(5))


def test_logistic_value_stable_on_extreme_margins():
    obj = LogisticObjective(CsrMatrix.from_dense([[1.0]]), np.array([1.0]), alpha=0.0)
    assert np.isfinite(obj.value(np.array([5000.0])))
    assert obj.value(np.array([-5000.0])) == pytest.approx(5000.0, rel=1e-12)
    assert np.all(np.isfinite(obj.gradient(np.array([5000.0]))))


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
        got = logistic_with_margins([margin]).value(np.ones(1))
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
        got = logistic_with_margins(margins).value(np.ones(1))
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
        h.update(obj.gradient(x).tobytes())
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
    assert h.hexdigest() == "b025a7d85b9fb0770aa5f25774f52ed513c39409ca32da1c0c2a366a9c23e577"


def test_quadratic_value_and_gradient_consistent(rng):
    obj = random_instance(rng, "quadratic")
    x = rng.standard_normal(obj.dim)
    r = spmv(obj.A, x) - obj.b
    assert obj.value(x) == pytest.approx(0.5 * float(r @ r) / obj.n, rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_reused_product_gives_fresh_bytes(family):
    # one long-lived objective against a fresh one per call: interleaved
    # value/gradient calls at repeated, new, in-place-changed and signed-zero
    # points must give the same bytes
    obj = random_instance(np.random.default_rng(7), family)
    rng = np.random.default_rng(8)
    x = rng.standard_normal(obj.dim)
    signed = np.zeros(obj.dim)
    signed[::2] = -0.0
    points = [x, x, signed, np.zeros(obj.dim), signed, -np.zeros(obj.dim)]
    for _ in range(10):
        points += [rng.standard_normal(obj.dim)] * 2
    for k, point in enumerate(points):
        fresh = random_instance(np.random.default_rng(7), family)
        calls = ("value", "gradient") if k % 3 else ("gradient", "value")
        for name in calls:
            got = np.asarray(getattr(obj, name)(point))
            want = np.asarray(getattr(fresh, name)(point))
            assert got.tobytes() == want.tobytes()
    # the caller changes its own array in place between calls
    buf = x.copy()
    obj.value(buf)
    buf *= 0.5
    fresh = random_instance(np.random.default_rng(7), family)
    assert obj.gradient(buf).tobytes() == fresh.gradient(buf).tobytes()
    buf[0] = 3.0
    assert obj.value(buf) == fresh.value(buf)
