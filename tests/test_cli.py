import filecmp
import os
import subprocess
import sys

import numpy as np
import pytest
import yaml

import proxrestart.cli as cli
from proxrestart.cli import (
    ConfigError,
    SUMMARY_COLUMNS,
    TRACE_COLUMNS,
    load_config,
    main,
)
from proxrestart import FunctionValueRestart, GradientMappingRestart, NeverRestart, Zero
from proxrestart.dataio import fixture_path


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def base_config(**overrides):
    doc = {
        "schema_version": 1,
        "problem": {
            "objective": "quadratic",
            "regularizer": {"kind": "l1", "mu": 0.05},
            "dataset": {"source": "synthetic", "kind": "robust_outliers",
                        "n": 20, "d": 4, "seed": 11},
        },
        "solvers": [{
            "name": "demo",
            "algorithm": "apg_restart",
            "scheme": {"kind": "fixed", "q": 3},
            "stepsize_mode": "theory",
            "max_iters": 6,
            "seeds": [1],
        }],
    }
    doc.update(overrides)
    return doc


GOLDEN_TRACE = """\
k,F,grad_map_norm,step_norm,restart,lambda,beta,alpha_next
0,4.22954865754627,0.7213729430017151,0.28925806218995403,1,0.4009826886302642,0.24058961317815855,0.6666666666666666
1,4.034489674645399,0.646599991096647,0.2333478626084146,0,0.36088441976723784,0.24058961317815855,0.5
2,3.8965693204368566,0.5804258216763022,0.1955021934820029,0,0.33682545844942197,0.24058961317815855,0.4
3,3.7939975960559686,0.49536933925307636,0.19863452951869603,1,0.4009826886302642,0.24058961317815855,0.6666666666666666
4,3.7014553380476594,0.4484748614830852,0.1618475901665156,0,0.36088441976723784,0.24058961317815855,0.5
5,3.634556178728218,0.40648847648222963,0.1369156674455341,0,0.33682545844942197,0.24058961317815855,0.4
"""

GOLDEN_SUMMARY = """\
solver,algorithm,scheme,stepsize_mode,seed,iterations,restarts,prox_calls,final_F,loss_gap,status
demo,apg_restart,fixed(q=3),theory,1,6,1,6,3.5837762896584198,0.0,ok
"""


def test_run_minimal_config(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    trace = (out / "demo_seed1.csv").read_text(encoding="utf-8")
    assert trace.splitlines()[0] == ",".join(TRACE_COLUMNS)
    assert len(trace.splitlines()) == 1 + 6
    summary = (out / "summary.csv").read_text(encoding="utf-8")
    assert summary.splitlines()[0] == ",".join(SUMMARY_COLUMNS)


def test_golden_trace_and_summary(tmp_path):
    # pins the CSV schema and the shortest-round-trip float formatting
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "demo_seed1.csv").read_text(encoding="utf-8") == GOLDEN_TRACE
    assert (out / "summary.csv").read_text(encoding="utf-8") == GOLDEN_SUMMARY


def test_rerun_is_byte_identical(tmp_path):
    doc = base_config()
    doc["solvers"][0].update({"max_iters": 60, "seeds": [1, 2]})
    cfg = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    names = sorted(os.listdir(out1))
    assert names == sorted(os.listdir(out2))
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, names, shallow=False)
    assert mismatch == [] and errors == []


def test_csv_floats_roundtrip(tmp_path):
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    main(["run", "--config", cfg, "--out", str(out), "--quiet"])
    lines = (out / "demo_seed1.csv").read_text(encoding="utf-8").splitlines()[1:]
    from proxrestart import CsrMatrix, L1, QuadraticObjective, SolverConfig, FixedRestart, run
    from proxrestart.dataio import generate_synthetic
    ds = generate_synthetic("robust_outliers", 20, 4, seed=11)
    obj = QuadraticObjective(ds.features, ds.labels)
    trace = run(obj, L1(0.05),
                SolverConfig(max_iters=6, stepsize_mode="theory", scheme=FixedRestart(3), seed=1),
                np.zeros(4))
    for line, k in zip(lines, range(6)):
        parts = line.split(",")
        assert float(parts[1]) == trace.F[k]           # exact round-trip
        assert float(parts[2]) == trace.grad_map_norm[k]


def test_libsvm_source_through_cli(tmp_path):
    doc = base_config()
    doc["problem"]["dataset"] = {"source": "libsvm", "path": str(fixture_path("logistic_sep"))}
    doc["problem"]["objective"] = "logistic_ncvx"
    doc["problem"]["alpha"] = 0.01
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "demo_seed1.csv").exists()


def test_seed_override(tmp_path):
    doc = base_config()
    doc["solvers"][0]["seeds"] = [1, 2, 3]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--seed-override", "9", "--quiet"]) == 0
    assert sorted(f for f in os.listdir(out) if f.startswith("demo")) == ["demo_seed9.csv"]
    for bad in ("-1", "x"):
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", cfg, "--out", str(out), "--seed-override", bad, "--quiet"])
        assert info.value.code == 2


def libsvm_config(tmp_path, path, objective="logistic_ncvx", seeds=(1,), **solver):
    doc = base_config()
    doc["problem"]["dataset"] = {"source": "libsvm", "path": str(path)}
    doc["problem"]["objective"] = objective
    doc["solvers"][0].update({"max_iters": 30, "seeds": list(seeds)}, **solver)
    return write_config(tmp_path, doc)


# --- config validation ----------------------------------------------------------

@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("schema_version"), "schema_version"),
    (lambda d: d.update(schema_version=99), "schema_version"),
    (lambda d: d.update(solvers=[]), "at least one solver"),
    (lambda d: d["solvers"][0].pop("max_iters"), "solvers[0].max_iters"),
    (lambda d: d["solvers"][0].update(seeds=[]), "solvers[0].seeds"),
    (lambda d: d["solvers"][0].update(algorithm="sgd"), "solvers[0].algorithm"),
    (lambda d: d["solvers"][0]["scheme"].update(kind="sometimes"), "solvers[0].scheme.kind"),
    (lambda d: d["solvers"][0]["scheme"].update(q=0), "solvers[0].scheme"),
    (lambda d: d["solvers"][0].update(stepsize_mode="custom", beta="fast"), "solvers[0].beta"),
    (lambda d: d["solvers"][0].update(stepsize_mode="custom", beta=True), "solvers[0].beta"),
    (lambda d: d["solvers"][0].update(scheme={"kind": "function_value", "rho": "fast"}),
     "solvers[0].scheme.rho"),
    (lambda d: d["solvers"][0]["scheme"].update(min_period="x"), "solvers[0].scheme.min_period"),
    (lambda d: d["solvers"][0].update(seeds=[True]), "solvers[0].seeds: must be"),
    (lambda d: d["solvers"][0].update(seeds=[1, -1]), "solvers[0].seeds: must be a nonempty"),
    (lambda d: d["problem"]["dataset"].update(seed=-3), "problem.dataset.seed"),
    (lambda d: d["problem"].update(objective="logistic_ncvx", alpha=-1.0), "problem.alpha"),
    (lambda d: d["problem"].update(objective="hinge"), "problem.objective"),
    (lambda d: d["problem"]["regularizer"].pop("mu"), "problem.regularizer.mu"),
    (lambda d: d["problem"]["dataset"].update(kind="surprise"), "problem.dataset.kind"),
    (lambda d: d["problem"]["dataset"].update(n=0), "problem.dataset"),
    (lambda d: d["problem"].update(dataset={"source": "libsvm", "path": "/nope.libsvm"}),
     "file not found"),
    (lambda d: d["solvers"][0].update(scheme={"kind": "fixed"}), "solvers[0].scheme.q"),
    (lambda d: d["problem"].update(regularizer={}), "problem.regularizer.kind"),
])
def test_config_errors_name_the_field(tmp_path, mutate, fragment):
    doc = base_config()
    mutate(doc)
    cfg = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match=None) as info:
        load_config(cfg)
    message = str(info.value)
    assert fragment in message
    # the message opens with the field path and does not repeat it
    path = message.split(":")[0]
    assert message.count(path) == 1, message


def test_config_sections_take_the_library_defaults(tmp_path):
    doc = base_config()
    doc["problem"]["regularizer"] = None
    doc["solvers"] = [
        {"name": "fv", "scheme": {"kind": "function_value"}, "max_iters": 1, "seeds": [0]},
        {"name": "gm", "scheme": {"kind": "gradient_mapping", "tau": 0}, "max_iters": 1,
         "seeds": [0]},
        {"name": "never", "scheme": {"kind": "never", "q": "ignored"}, "max_iters": 1,
         "seeds": [0]},
    ]
    config = load_config(write_config(tmp_path, doc))
    assert config.problem.regularizer == Zero()
    assert [s.scheme for s in config.solvers] == [
        FunctionValueRestart(), GradientMappingRestart(tau=0), NeverRestart()]


def test_alpha_is_checked_only_where_it_is_read(tmp_path):
    doc = base_config()
    doc["problem"]["alpha"] = -1.0  # the quadratic objective ignores alpha
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0


def test_invalid_config_exit_code(tmp_path, capsys):
    doc = base_config()
    doc["solvers"] = []
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err


ZERO_LIPSCHITZ = "gradient Lipschitz estimate is 0.0; solver 'demo' needs a positive one"


@pytest.mark.parametrize("text,objective,solver,fragment", [
    ("1 1:0.5\n-1 2:a\n", "quadratic", {}, "line 2: nonnumeric value in token '2:a'"),
    ("1 1:0.5\n0 2:1.0\n", "logistic_ncvx", {}, "logistic labels must be -1 or +1"),
    (None, "quadratic", {}, "Is a directory"),
    ("1 1:0\n-1 2:0\n", "quadratic", {}, ZERO_LIPSCHITZ),
    ("1 1:0\n-1 2:0\n", "quadratic", {"algorithm": "prox_grad", "stepsize_mode": "experiment"},
     ZERO_LIPSCHITZ),
], ids=["bad_token", "wrong_labels", "directory", "zero_lipschitz_theory",
        "zero_lipschitz_prox_grad"])
def test_bad_data_exit_code(tmp_path, capsys, text, objective, solver, fragment):
    path = tmp_path / "bad.libsvm"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text, encoding="utf-8")
    cfg = libsvm_config(tmp_path, path, objective=objective, **solver)
    # check runs theory-mode solvers only
    commands = ("run", "check") if solver.get("stepsize_mode", "theory") == "theory" else ("run",)
    for command in commands:
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and err.count("\n") == 1
        assert fragment in err


def test_duplicate_solver_names_rejected(tmp_path):
    doc = base_config()
    doc["solvers"] = [doc["solvers"][0], dict(doc["solvers"][0])]
    cfg = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="unique"):
        load_config(cfg)


# --- check subcommand ------------------------------------------------------------

def check_config(tmp_path):
    doc = base_config()
    doc["solvers"][0].update({"max_iters": 120, "seeds": [1, 2]})
    return write_config(tmp_path, doc)


def test_check_passes_on_theory_grid(tmp_path):
    cfg = check_config(tmp_path)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    report = (out / "report.csv").read_text(encoding="utf-8")
    assert report.splitlines()[0] == "solver,seed,check,worst_margin,passed,location"
    assert ",period_descent," in report
    assert (out / "path_lengths.csv").exists()


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


@pytest.mark.parametrize("seed", ["13", "21"])
def test_check_passes_on_shipped_grid_at_seed(tmp_path, capsys, seed):
    # seeds where an iterate rebuilt as x - lam * G left 1e-20 residues in
    # coordinates the prox had zeroed, failing subdiff_bound
    cfg = os.path.join(CONFIGS, "check.yaml")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--seed-override", seed,
                 "--quiet"]) == 0, capsys.readouterr().err
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(report) == 5 * 4 and all(row.split(",")[4] == "1" for row in report)


def test_check_passes_on_seed_sweep(tmp_path, capsys):
    # 200 theory cells; the carried products A y and A z must not cost a check
    cfg = os.path.join(CONFIGS, "check_seeds.yaml")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 0, \
        capsys.readouterr().err
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(report) == 200 * 4 and all(row.split(",")[4] == "1" for row in report)


def test_module_runs_as_a_script():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    result = subprocess.run([sys.executable, "-m", "proxrestart", "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: proxrestart")


def test_check_refuses_experiment_mode(tmp_path, capsys):
    doc = base_config()
    doc["solvers"][0]["stepsize_mode"] = "experiment"
    cfg = write_config(tmp_path, doc)
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "theory" in err and "descent" in err


def test_check_detects_injected_fault(tmp_path, monkeypatch, capsys):
    cfg = check_config(tmp_path)
    out = tmp_path / "out"

    clean_run = cli.run

    def corrupted_run(*args, **kwargs):
        trace = clean_run(*args, **kwargs)
        if len(trace.periods) > 3:
            trace.F[trace.periods[2].checkpoint] += 10.0
        return trace

    monkeypatch.setattr(cli, "run", corrupted_run)
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = (out / "report.csv").read_text(encoding="utf-8")
    rows = [r for r in report.splitlines() if ",period_descent," in r]
    assert any(",0," in r for r in rows)  # a failed descent row
    assert any("period 2" in r or "period 3" in r for r in rows)


# --- compare subcommand -----------------------------------------------------------

def compare_config(tmp_path):
    doc = base_config()
    solver = doc["solvers"][0]
    fast = dict(solver, name="fv", scheme={"kind": "function_value", "rho": 0.8},
                max_iters=40)
    slow = dict(solver, name="fixed", scheme={"kind": "fixed", "q": 10}, max_iters=40)
    doc["solvers"] = [fast, slow]
    return write_config(tmp_path, doc)


def test_compare_two_schemes(tmp_path):
    cfg = compare_config(tmp_path)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    compare = (out / "compare.csv").read_text(encoding="utf-8").splitlines()
    assert compare[0] == "solver,scheme,seed,k,loss_gap"
    groups = {line.split(",")[0] for line in compare[1:]}
    assert groups == {"fv", "fixed"}
    counts = (out / "restart_counts.csv").read_text(encoding="utf-8").splitlines()
    assert counts[0] == "solver,scheme,seed,restarts"
    assert len(counts) == 3


def test_compare_needs_two_solvers(tmp_path):
    cfg = write_config(tmp_path, base_config())
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


def test_function_scheme_restarts_most(tmp_path):
    # informational observation: the relaxed objective-value test fires far
    # more often than a long fixed period
    cfg = compare_config(tmp_path)
    out = tmp_path / "out"
    main(["compare", "--config", cfg, "--out", str(out), "--quiet"])
    counts = {}
    for line in (out / "restart_counts.csv").read_text(encoding="utf-8").splitlines()[1:]:
        name, _, _, restarts = line.split(",")
        counts[name] = int(restarts)
    assert counts["fv"] >= counts["fixed"]
