"""Acceptance suite: every shipped guarantee, at its stated tolerance.

Each test prints one verdict line (run with ``pytest -s`` to see them all);
the assertions carry the worst observed margins. The heavy solver grid is
built once and shared by the criteria that read it.
"""

import filecmp
import io
import os
import time

import numpy as np
import pytest
import yaml

from oracles import fd_gradient, fit_rate, prefix_iterates, prox_oracle, same_dataset
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
    ParseError,
    QuadraticObjective,
    RobustRegressionObjective,
    SolverConfig,
    SquaredL2,
    Zero,
    check_invariants,
    generate_synthetic,
    gradient_mapping,
    lasso_l1_weight,
    momentum_coefficient,
    parse_libsvm,
    run,
    serialize_libsvm,
)
from proxrestart.cli import main as cli_main
from proxrestart.dataio import SYNTHETIC_KINDS, fixture_dataset

N, D, K, SEEDS = 200, 30, 2000, range(5)


def verdict(num, name, ok, detail=""):
    print(f"\nacceptance {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def make_problem(objective_kind, seed):
    if objective_kind == "logistic_ncvx":
        ds = generate_synthetic("logistic_sep", N, D, seed)
        return LogisticObjective(ds.features, ds.labels, alpha=0.01), L1(0.01)
    if objective_kind == "robust":
        ds = generate_synthetic("robust_outliers", N, D, seed)
        return RobustRegressionObjective(ds.features, ds.labels), Zero()
    ds = generate_synthetic("lasso_known", N, D, seed)
    return QuadraticObjective(ds.features, ds.labels), L1(lasso_l1_weight(ds))


SCHEMES = {
    "fixed": FixedRestart(10),
    "function_value": FunctionValueRestart(),
    "gradient_mapping": GradientMappingRestart(),
    "non_monotone": NonMonotoneRestart(),
    "never": NeverRestart(),
}
OBJECTIVES = ("logistic_ncvx", "robust", "lasso")


@pytest.fixture(scope="module")
def theory_grid():
    """All 5 schemes x 3 objectives x 5 seeds in theory mode, K=2000."""
    t0 = time.perf_counter()
    cells = {}
    for objective_kind in OBJECTIVES:
        for seed in SEEDS:
            objective, regularizer = make_problem(objective_kind, seed)
            L = objective.lipschitz()
            for scheme_name, scheme in SCHEMES.items():
                cfg = SolverConfig(max_iters=K, stepsize_mode="theory", scheme=scheme)
                trace = run(objective, regularizer, cfg, np.zeros(D))
                cells[(objective_kind, scheme_name, seed)] = (trace, L)
    return cells, time.perf_counter() - t0


def checkpoint_values(trace):
    return trace.F[trace.checkpoints]


def reported_worst(trace, L, name):
    """``check_invariants``' worst margin for check ``name``; the loops below must match it."""
    return {c.name: c.worst_margin for c in check_invariants(trace, L).checks}[name]


def test_criterion_01_period_descent(theory_grid):
    cells, elapsed = theory_grid
    worst = -np.inf
    for (obj_kind, scheme, seed), (trace, L) in cells.items():
        values = checkpoint_values(trace)
        cell_worst = -np.inf
        for t in range(1, len(trace.checkpoints)):
            path_sq = trace.period_step_sq_sum(t - 1)
            slack = 1e-9 * max(1.0, abs(values[t - 1]))
            cell_worst = max(cell_worst, values[t] - (values[t - 1] - 0.25 * L * path_sq) - slack)
        assert cell_worst == reported_worst(trace, L, "period_descent")
        worst = max(worst, cell_worst)
    ok = worst <= 0.0 and elapsed < 60.0
    verdict(1, "period-wise descent", ok,
            f"(worst margin {worst:.3e}, grid built in {elapsed:.1f}s)")


def test_criterion_02_subdifferential_bound(theory_grid):
    cells, _ = theory_grid
    worst = -np.inf
    for (_, _, _), (trace, L) in cells.items():
        dists = trace.subdiff_dist.tolist()
        cell_worst = -np.inf
        for t in range(1, len(dists)):
            path_sq = trace.period_step_sq_sum(t - 1)
            cell_worst = max(cell_worst, dists[t] ** 2 - 162.0 * L * L * path_sq - 1e-9)
        assert cell_worst == reported_worst(trace, L, "subdiff_bound")
        worst = max(worst, cell_worst)
    verdict(2, "checkpoint subdifferential bound", worst <= 0.0,
            f"(worst margin {worst:.3e})")


def test_criterion_03_global_rate_constant(theory_grid):
    cells, _ = theory_grid
    worst = -np.inf
    for (_, _, _), (trace, L) in cells.items():
        lhs = float(np.dot(trace.grad_map_norm, trace.grad_map_norm)) / (256.0 * L)
        worst = max(worst, lhs - (trace.F[0] - trace.final_F) - 1e-9)
    verdict(3, "telescoped global rate with explicit constant", worst <= 0.0,
            f"(worst margin {worst:.3e})")


def test_criterion_04_finite_path_length():
    t0 = time.perf_counter()
    ds = generate_synthetic("lasso_known", N, D, seed=0)
    objective = QuadraticObjective(ds.features, ds.labels)
    cfg = SolverConfig(max_iters=50000, stepsize_mode="theory", scheme=FixedRestart(10))
    trace = run(objective, L1(lasso_l1_weight(ds)), cfg, np.zeros(D))
    lengths = [np.sqrt(trace.period_step_sq_sum(t)) for t in range(len(trace.checkpoints))]
    tail_increment = float(np.sum(lengths[-50:]))
    elapsed = time.perf_counter() - t0
    ok = tail_increment < 1e-8 and elapsed < 30.0
    verdict(4, "finite cumulative path length", ok,
            f"(tail increment {tail_increment:.3e}, {elapsed:.1f}s)")


def test_criterion_05_linear_rate_regime():
    ds = generate_synthetic("lasso_known", N, D, seed=0)
    objective = QuadraticObjective(ds.features, ds.labels)
    regularizer = L1(lasso_l1_weight(ds))
    cfg = SolverConfig(max_iters=K, stepsize_mode="theory", scheme=FixedRestart(10))
    trace = run(objective, regularizer, cfg, np.zeros(D))
    reference = run(objective, regularizer,
                    SolverConfig(max_iters=10 * K, stepsize_mode="theory",
                                 scheme=FixedRestart(10)), np.zeros(D))
    gaps = np.array(checkpoint_values(trace)) - reference.final_F
    fit = fit_rate(gaps)
    ok = fit.regime == "linear" and fit.r_squared >= 0.9
    verdict(5, "linear convergence regime on the lasso instance", ok,
            f"(regime {fit.regime}, R^2 {fit.r_squared:.4f}, rate {fit.rate})")


def test_criterion_06_prox_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for variant in ("l1", "squared_l2", "elastic_net"):
        for _ in range(1000):
            eta = float(rng.uniform(0.05, 5.0))
            mu1 = float(rng.uniform(0.0, 3.0))
            mu2 = float(rng.uniform(0.0, 3.0))
            reg = {"l1": L1(mu1), "squared_l2": SquaredL2(mu1),
                   "elastic_net": ElasticNet(mu1, mu2)}[variant]
            x = rng.uniform(-10.0, 10.0, size=3)
            dev = float(np.max(np.abs(reg.prox(x, eta) - prox_oracle(reg, x, eta))))
            worst = max(worst, dev)
    verdict(6, "closed-form prox matches golden-section oracle", worst <= 1e-6,
            f"(worst deviation {worst:.3e} over 3x1000 draws)")


def test_criterion_07_gradient_mapping_inequalities():
    rng = np.random.default_rng(77)
    worst1 = worst2 = -np.inf
    for _ in range(1000):
        reg = [Zero(), L1(float(rng.uniform(0, 2))), SquaredL2(float(rng.uniform(0, 2))),
               ElasticNet(float(rng.uniform(0, 2)), float(rng.uniform(0, 2)))][int(rng.integers(4))]
        eta = float(rng.uniform(0.05, 4.0))
        x, u, v = rng.standard_normal((3, 6)) * 2.0
        G_u = gradient_mapping(reg, eta, x, u)
        rhs = float(np.dot(G_u, G_u)) + (reg.value(reg.prox(x - eta * u, eta)) - reg.value(x)) / eta
        worst1 = max(worst1, rhs - float(np.dot(u, G_u)) - 1e-8)
        G_v = gradient_mapping(reg, eta, x, v)
        worst2 = max(worst2,
                     float(np.linalg.norm(G_u - G_v)) - float(np.linalg.norm(u - v)) - 1e-10)
    ok = worst1 <= 0.0 and worst2 <= 0.0
    verdict(7, "gradient-mapping inner-product and nonexpansiveness bounds", ok,
            f"(worst margins {worst1:.3e}, {worst2:.3e})")


def test_criterion_08_gradient_checks():
    rng = np.random.default_rng(8)
    worst = 0.0
    for family in ("logistic", "robust", "quadratic"):
        for _ in range(200):
            n, d = int(rng.integers(8, 24)), int(rng.integers(3, 8))
            A = np.where(rng.random((n, d)) < 0.7, rng.standard_normal((n, d)), 0.0)
            mat = CsrMatrix.from_dense(A)
            if family == "logistic":
                obj = LogisticObjective(mat, rng.choice((-1.0, 1.0), size=n), alpha=0.01)
            elif family == "robust":
                obj = RobustRegressionObjective(mat, rng.standard_normal(n))
            else:
                obj = QuadraticObjective(mat, rng.standard_normal(n))
            x = rng.standard_normal(d)
            approx = fd_gradient(obj.value, x)
            rel = float(np.linalg.norm(obj.gradient(x) - approx) / max(1.0, np.linalg.norm(approx)))
            worst = max(worst, rel)
    verdict(8, "analytic gradients vs finite differences", worst <= 1e-5,
            f"(worst relative error {worst:.3e} over 3x200 draws)")


def test_criterion_09_collapse_to_gradient_descent():
    rng = np.random.default_rng(99)
    A = rng.standard_normal((40, 8))
    objective = QuadraticObjective(CsrMatrix.from_dense(A), rng.standard_normal(40))
    cfg = SolverConfig(max_iters=100, stepsize_mode="theory", scheme=FixedRestart(1))
    trace = run(objective, Zero(), cfg, np.zeros(8))
    iterates = prefix_iterates(lambda c: run(objective, Zero(), c, np.zeros(8)), cfg)
    lam = trace.lam[0]
    assert np.all(trace.lam == lam)  # restart every step freezes the stepsize
    assert lam == (1.0 + momentum_coefficient(1, 0)) * trace.beta[0]
    x = np.zeros(8)
    worst = 0.0
    for k in range(100):
        x = x - lam * objective.gradient(x)
        worst = max(worst, float(np.linalg.norm(x - iterates[k + 1])))
    verdict(9, "restart-every-step reduces to gradient descent", worst <= 1e-12,
            f"(worst per-step deviation {worst:.3e})")


def test_criterion_10_scheme_ordering_at_practical_stepsizes():
    targets = {"function_value": FunctionValueRestart(),
               "fixed_10": FixedRestart(10), "fixed_50": FixedRestart(50)}
    gaps = {name: [] for name in targets}
    for seed in SEEDS:
        ds = generate_synthetic("logistic_sep", N, D, seed)
        objective = LogisticObjective(ds.features, ds.labels, alpha=0.01)
        finals, floors = {}, []
        for name, scheme in targets.items():
            cfg = SolverConfig(max_iters=K, stepsize_mode="experiment", scheme=scheme)
            trace = run(objective, Zero(), cfg, np.zeros(D))
            finals[name] = trace.final_F
            floors.append(min(float(trace.F.min()), trace.final_F))
        f_star = min(floors)
        for name in targets:
            gaps[name].append(finals[name] - f_star)
    means = {name: float(np.mean(v)) for name, v in gaps.items()}
    ok = (means["function_value"] <= means["fixed_50"]
          and means["fixed_10"] <= means["fixed_50"])
    verdict(10, "restart schemes order as reported at practical stepsizes", ok,
            f"(seed-mean gaps {means})")


def test_criterion_11_deterministic_cli_reruns(tmp_path):
    doc = {
        "schema_version": 1,
        "problem": {
            "objective": "logistic_ncvx",
            "alpha": 0.01,
            "regularizer": {"kind": "l1", "mu": 0.01},
            "dataset": {"source": "synthetic", "kind": "logistic_sep", "n": 60, "d": 10},
        },
        "solvers": [
            {"name": "fv", "algorithm": "apg_restart",
             "scheme": {"kind": "function_value"}, "stepsize_mode": "theory",
             "max_iters": 300, "seeds": [0, 1]},
            {"name": "f10", "algorithm": "apg_restart",
             "scheme": {"kind": "fixed", "q": 10}, "stepsize_mode": "theory",
             "max_iters": 300, "seeds": [0, 1]},
        ],
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out1), "--quiet"]) == 0
    assert cli_main(["run", "--config", str(cfg), "--out", str(out2), "--quiet"]) == 0
    names = sorted(os.listdir(out1))
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    ok = sorted(os.listdir(out2)) == names and mismatch == [] and errors == []
    verdict(11, "reruns produce byte-identical trace CSVs", ok,
            f"({len(names)} files compared)")


def test_criterion_12_libsvm_round_trip():
    ok = True
    for kind in SYNTHETIC_KINDS:
        first = fixture_dataset(kind)
        second = parse_libsvm(io.StringIO(serialize_libsvm(first)), name=kind)
        ok = ok and same_dataset(first, second)
    for text, fragment in (
        ("1 2:a\n", "2:a"),                 # nonnumeric token
        ("1 3:1.0 2:4.0\n", "nonincreasing"),  # nonincreasing index
        ("1 0:5.0\n", ">= 1"),              # index below 1
    ):
        with pytest.raises(ParseError, match="line 1") as info:
            parse_libsvm(io.StringIO(text))
        ok = ok and fragment in str(info.value)
    verdict(12, "LIBSVM parse/serialize round-trip and malformed-line errors", ok)
