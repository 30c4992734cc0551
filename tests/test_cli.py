import filecmp
import hashlib
import importlib
import json
import os
import re
import stat
import subprocess
import sys
import weakref
from dataclasses import replace

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
from proxrestart import (DivergenceError, FixedRestart, FunctionValueRestart,
                         GradientMappingRestart, NeverRestart, Zero, dataio, objectives)
from proxrestart.dataio import fixture_path


CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return str(path)


def digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


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
0,4.22954865754627,0.7213729430017151,0.28925806214182886,1,0.4009826885635509,0.24058961313813057,0.6666666666666666
1,4.03448967467559,0.6465999911089991,0.2333478625740491,0,0.36088441970719587,0.24058961313813057,0.5
2,3.896569320482537,0.5804258216981614,0.19550219345683906,0,0.3368254583933828,0.24058961313813057,0.4
3,3.7939975961091292,0.4953693392856219,0.1986345294986985,1,0.4009826885635509,0.24058961313813057,0.6666666666666666
4,3.7014553381031856,0.44847486151948507,0.16184759015272435,0,0.36088441970719587,0.24058961313813057,0.5
5,3.634556178783157,0.4064884765213715,0.1369156674359387,0,0.3368254583933828,0.24058961313813057,0.4
"""

GOLDEN_SUMMARY = """\
solver,algorithm,scheme,stepsize_mode,seed,iterations,restarts,prox_calls,final_F,loss_gap,status
demo,apg_restart,fixed(q=3),theory,1,6,1,6,3.5837762897112837,0.0,ok
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



def test_equal_schemes_write_equal_tables(tmp_path):
    # rho: 1 and rho: 1.0 build equal schemes, so their tables match byte for byte
    outs = []
    for rho in (1, 1.0):
        doc = base_config()
        doc["solvers"][0]["scheme"] = {"kind": "function_value", "rho": rho}
        cfg = write_config(tmp_path, doc, name=f"cfg_{rho!r}.yaml")
        outs.append(tmp_path / f"out_{rho!r}")
        assert main(["run", "--config", cfg, "--out", str(outs[-1]), "--quiet"]) == 0
    summaries = [(out / "summary.csv").read_bytes() for out in outs]
    assert summaries[0] == summaries[1]
    assert b",function_value(rho=1.0)," in summaries[0]

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
                SolverConfig(max_iters=6, stepsize_mode="theory", scheme=FixedRestart(3)),
                np.zeros(4))
    for line, k in zip(lines, range(6)):
        parts = line.split(",")
        assert float(parts[1]) == trace.F[k]           # exact round-trip
        assert float(parts[2]) == trace.grad_map_norm[k]


def test_pinned_dataset_cells_share_one_lipschitz(tmp_path):
    # dataset.seed pins one instance, so the cell seed changes nothing:
    # not the data, and not the stepsize read off the objective's L
    doc = base_config()
    doc["solvers"][0]["seeds"] = [1, 2]
    out = tmp_path / "out"
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "demo_seed1.csv").read_bytes() == (out / "demo_seed2.csv").read_bytes()


# SHA-256 of run's outputs with the data seeded by the cell seed (no dataset.seed)
SEEDED_RUN_DIGESTS = {
    "fv_seed1.csv": "f449ec799f52047e82bc3ebb00bb3e42a68fcfd6a8c26ddbf4a5c3706e9f3498",
    "fv_seed2.csv": "c7d3508b2dfd3999a0aa57e5fa9ec447188c46c145f911f45885b92656499524",
    "pg_seed1.csv": "653971049eceaf8e06419da06e6ec2416a6ff1e070e1d961c620b1de3ecad3b7",
    "pg_seed2.csv": "eeec5ce3bdb52cfc7daf077b06b0381a59e6e2ee7e429607f0ee2860b30adf4b",
    "summary.csv": "ce046f29a4471c44428b660875cb6066ad6a170428a64041d9d22e0eb6e9379e",
}


def test_seeded_data_outputs_are_pinned(tmp_path):
    # two solvers share each seed's instance; the pins predate the sharing
    doc = base_config()
    del doc["problem"]["dataset"]["seed"]
    doc["solvers"] = [
        {"name": "fv", "algorithm": "apg_restart", "scheme": {"kind": "function_value", "rho": 0.8},
         "stepsize_mode": "theory", "max_iters": 40, "seeds": [1, 2]},
        {"name": "pg", "algorithm": "prox_grad", "stepsize_mode": "experiment",
         "max_iters": 40, "seeds": [1, 2]},
    ]
    out = tmp_path / "out"
    assert main(["run", "--config", write_config(tmp_path, doc), "--out", str(out),
                 "--quiet"]) == 0
    assert sorted(os.listdir(out)) == sorted(SEEDED_RUN_DIGESTS)
    assert digests(out, SEEDED_RUN_DIGESTS) == SEEDED_RUN_DIGESTS


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls; return the count list."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_check_builds_each_instance_once(tmp_path, monkeypatch):
    # 15 cells on 3 data seeds: one instance and one Lipschitz estimate per seed
    generated = count_calls(monkeypatch, dataio, "generate_synthetic")
    estimated = count_calls(monkeypatch, objectives, "spectral_norm_sq")
    cfg = os.path.join(CONFIGS, "check.yaml")
    assert main(["check", "--config", cfg, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert (len(generated), len(estimated)) == (3, 3)


def test_run_builds_each_instance_once(tmp_path, monkeypatch):
    # 30 cells on 5 data seeds; the instances, not the iterations, are counted
    clean_run = cli.run
    monkeypatch.setattr(cli, "run", lambda objective, regularizer, cfg, x_init: clean_run(
        objective, regularizer, replace(cfg, max_iters=20), x_init))
    generated = count_calls(monkeypatch, dataio, "generate_synthetic")
    estimated = count_calls(monkeypatch, objectives, "spectral_norm_sq")
    cfg = os.path.join(CONFIGS, "example.yaml")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (len(generated), len(estimated)) == (5, 5)
    assert len(os.listdir(out)) == 30 + 1


def test_instance_is_dropped_after_its_last_cell(tmp_path, monkeypatch):
    # solver a runs seeds 1..3, then b runs seed 1: only seed 1's instance outlives its cell
    built, alive_at_build = [], []
    build = cli.ProblemSpec.instance

    def tracked(self, seed):
        alive_at_build.append(sorted(s for s, ref in built if ref() is not None))
        pair = build(self, seed)
        built.append((seed, weakref.ref(pair[1])))
        return pair

    monkeypatch.setattr(cli.ProblemSpec, "instance", tracked)
    doc = base_config()
    del doc["problem"]["dataset"]["seed"]
    doc["solvers"][0].update(max_iters=5, seeds=[1, 2, 3])
    doc["solvers"].append(dict(doc["solvers"][0], name="b", seeds=[1]))
    assert main(["run", "--config", write_config(tmp_path, doc), "--out",
                 str(tmp_path / "out"), "--quiet"]) == 0
    assert alive_at_build == [[], [1], [1]]
    assert all(ref() is None for _, ref in built)


@pytest.mark.parametrize("command,code", [("run", 0), ("compare", 0), ("check", 1)])
def test_trace_is_dropped_before_the_next_cell(tmp_path, monkeypatch, command, code):
    # 2 solvers x 3 seeds, the second cell diverging: no earlier trace outlives its cell
    traces, alive_at_start = [], []
    clean_run = cli.run

    def tracked(objective, regularizer, cfg, x_init):
        alive_at_start.append(sum(ref() is not None for ref in traces))
        trace = clean_run(objective, regularizer, cfg, x_init)
        traces.append(weakref.ref(trace))
        if len(traces) == 2:
            raise DivergenceError("objective diverged", trace)
        return trace

    monkeypatch.setattr(cli, "run", tracked)
    doc = base_config()
    doc["solvers"][0]["seeds"] = [1, 2, 3]
    doc["solvers"].append(dict(doc["solvers"][0], name="b"))
    assert main([command, "--config", write_config(tmp_path, doc), "--out",
                 str(tmp_path / "out"), "--quiet"]) == code
    assert alive_at_start == [0] * 6
    assert all(ref() is None for ref in traces)


def test_failed_write_leaves_no_partial_file(tmp_path):
    # the block generator raises after one block: the earlier file stays, no .tmp is left
    def blocks():
        yield ([1], [0.5])
        raise RuntimeError("row 2 failed")

    path = tmp_path / "table.csv"
    with pytest.raises(RuntimeError, match="row 2 failed"):
        cli._write_atomic(str(path), cli._csv_lines(("a", "b"), blocks()))
    assert os.listdir(tmp_path) == []
    path.write_bytes(b"a,b\n7,8\n")
    with pytest.raises(RuntimeError, match="row 2 failed"):
        cli._write_atomic(str(path), cli._csv_lines(("a", "b"), blocks()))
    assert os.listdir(tmp_path) == ["table.csv"]
    assert path.read_bytes() == b"a,b\n7,8\n"


@pytest.mark.parametrize("command, table", [("run", "summary.csv"), ("check", "report.csv")])
@pytest.mark.parametrize("blocked", ["out_is_a_file", "table_is_a_directory"])
def test_unwritable_output_exit_code(tmp_path, capsys, command, table, blocked):
    # exit 1 means failed invariants only; an output that cannot be written exits 4 with one line
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    if blocked == "out_is_a_file":
        out.write_bytes(b"")
    else:
        (out / table).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("command, table, extra", [
    ("run", "fixed_seed1.csv", []),
    ("run", "fv_seed7.csv", ["--seed-override", "7"]),
    ("run", "summary.csv", []),
    ("check", "report.csv", []),
    ("check", "path_lengths.csv", []),
    ("compare", "compare.csv", []),
    ("compare", "restart_counts.csv", []),
])
def test_table_taken_by_a_directory_fails_before_any_cell(tmp_path, capsys, monkeypatch,
                                                          command, table, extra):
    calls = []

    def no_cell(*args):
        calls.append(args)
        raise RuntimeError("a cell ran")

    monkeypatch.setattr(cli, "run", no_cell)
    cfg = compare_config(tmp_path)
    out = tmp_path / "out"
    (out / table).mkdir(parents=True)
    assert main([command, "--config", cfg, "--out", str(out), "--quiet", *extra]) == 4
    assert calls == []
    assert capsys.readouterr().err == f"error: output table {str(out / table)!r} is a directory\n"


def test_failed_rename_names_the_table(tmp_path, capsys, monkeypatch):
    # the directory appears after the check that precedes the first cell, so the rename fails
    cfg = write_config(tmp_path, base_config())
    out = tmp_path / "out"
    clean_run = cli.run

    def blocking_run(*args):
        (out / "summary.csv").mkdir(exist_ok=True)
        return clean_run(*args)

    monkeypatch.setattr(cli, "run", blocking_run)
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 4
    summary = str(out / "summary.csv")
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {summary!r}\n"
    assert sorted(os.listdir(out)) == ["demo_seed1.csv", "summary.csv"]


@pytest.mark.parametrize("command", ["run", "check", "compare"])
def test_outputs_get_the_mode_the_umask_gives(tmp_path, command):
    cfg = compare_config(tmp_path)
    out = tmp_path / "out"
    umask = os.umask(0o022)  # a umask under which the outputs must not be 0600
    try:
        assert main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0
        with open(out / "reference", "w"):
            pass
    finally:
        os.umask(umask)
    want = stat.S_IMODE((out / "reference").stat().st_mode)
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in out.iterdir()}
    assert len(modes) > 2 and set(modes.values()) == {want}


def test_columns_format_as_each_value_would():
    # repeats send every float through the shared-string path; 0.0 and -0.0
    # compare equal, so keying those strings on float equality would merge them
    values = [0.0, -0.0, np.nan, np.inf, -np.inf, 1e-05, 1e16, 0.1]
    floats = np.array(values * 3 + [-0.0, 0.0])
    assert cli._format_column(floats) == [repr(float(v)) for v in floats]
    flags = np.array([True, False, False, True])
    assert cli._format_column(flags) == ["1", "0", "0", "1"]
    assert cli._format_column(np.arange(3)) == ["0", "1", "2"]
    # row tables arrive as tuples of one Python type per column
    assert cli._format_column((np.float64(-0.0), 0.5)) == ["-0.0", "0.5"]
    assert cli._format_column((True, False)) == ["1", "0"]
    assert cli._format_column(("a", "bb")) == ["a", "bb"]
    # seeds on both sides of 2**63 stay integers, not float64
    assert cli._format_column((7, 2**63, 2**70)) == ["7", str(2**63), str(2**70)]
    # a block longer than a chunk, then an empty one
    k = np.arange(2 * cli._CHUNK_ROWS + 1)
    x = np.resize(floats, len(k))
    lines = "".join(cli._csv_lines(("k", "x"), [(k, x), [(), ()]]))
    assert lines == "k,x\n" + "".join(f"{i},{v!r}\n" for i, v in zip(k.tolist(), x.tolist()))


def test_libsvm_source_through_cli(tmp_path, monkeypatch):
    # 2 solvers x 2 seeds on one file: it is parsed once
    loaded = count_calls(monkeypatch, dataio, "load_libsvm")
    doc = base_config()
    doc["problem"]["dataset"] = {"source": "libsvm", "path": str(fixture_path("logistic_sep"))}
    doc["problem"]["objective"] = "logistic_ncvx"
    doc["problem"]["alpha"] = 0.01
    doc["solvers"][0]["seeds"] = [1, 2]
    doc["solvers"].append(dict(doc["solvers"][0], name="never", scheme={"kind": "never"}))
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert sorted(os.listdir(out)) == ["demo_seed1.csv", "demo_seed2.csv", "never_seed1.csv",
                                       "never_seed2.csv", "summary.csv"]
    assert len(loaded) == 1


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
    """Config of one solver on a LIBSVM file; a ``solver`` field set to None is left out."""
    doc = base_config()
    doc["problem"]["dataset"] = {"source": "libsvm", "path": str(path)}
    doc["problem"]["objective"] = objective
    entry = doc["solvers"][0]
    entry.update({"max_iters": 30, "seeds": list(seeds)}, **solver)
    for key in [key for key, value in entry.items() if value is None]:
        del entry[key]
    return write_config(tmp_path, doc)


# --- config validation ----------------------------------------------------------

@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("schema_version"), "schema_version"),
    (lambda d: d.update(schema_version=99), "schema_version"),
    # the version is read before any field it might not know
    (lambda d: d.update(schema_version=2, future_key=1), "schema_version: expected 1, got 2"),
    (lambda d: d.update(solvers=[]), "at least one solver"),
    (lambda d: d.update(solvers=[5]), "solvers[0]: expected a mapping, got int"),
    (lambda d: d["solvers"].append(None), "solvers[1]: expected a mapping, got NoneType"),
    (lambda d: d["solvers"][0].pop("max_iters"), "solvers[0].max_iters"),
    (lambda d: d["solvers"][0].update(seeds=[]), "solvers[0].seeds"),
    (lambda d: d["solvers"][0].update(algorithm="sgd"), "solvers[0].algorithm"),
    (lambda d: d["solvers"][0]["scheme"].update(kind="sometimes"), "solvers[0].scheme.kind"),
    (lambda d: d["solvers"][0]["scheme"].update(q=0), "solvers[0].scheme"),
    (lambda d: d["solvers"][0].update(stepsize_mode="custom", beta="fast"), "solvers[0].beta"),
    (lambda d: d["solvers"][0].update(stepsize_mode="custom", beta=True), "solvers[0].beta"),
    (lambda d: d["solvers"][0].update(scheme={"kind": "function_value", "rho": "fast"}),
     "solvers[0].scheme.rho"),
    (lambda d: d["solvers"][0].update(scheme={"kind": "function_value", "min_period": "x"}),
     "solvers[0].scheme.min_period"),
    (lambda d: d["solvers"][0].update(seeds=[True]), "solvers[0].seeds: must be"),
    (lambda d: d["solvers"][0].update(seeds=[1, -1]), "solvers[0].seeds: must be a nonempty"),
    (lambda d: d["solvers"][0].update(seeds=[0, 3, 0, 3]), "solvers[0].seeds: seed 0 is repeated"),
    (lambda d: d["solvers"][0]["scheme"].update(kind="Fixed"), "unknown kind 'Fixed'; expected one "
     "of ('fixed', 'function_value', 'gradient_mapping', 'non_monotone', 'never')"),
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
    # never restarting is apg_restart's `never` scheme, not an algorithm
    (lambda d: d["solvers"][0].update(algorithm="apg_never"),
     "solvers[0].algorithm: unknown algorithm 'apg_never'"),
    (lambda d: d["solvers"][0].update(algorithm="prox_grad"),
     "solvers[0].scheme: prox_grad never restarts"),
    (lambda d: d["solvers"][0].update(algorithm="ag", scheme={"kind": "never"}),
     "solvers[0].scheme: ag never restarts"),
    (lambda d: d["solvers"][0].update(beta=0.5), "solvers[0]: beta applies in custom"),
    (lambda d: d["problem"].update(dataset={"source": "libsvm", "expected_dim": -5,
                                            "path": str(fixture_path("logistic_sep"))}),
     "problem.dataset.expected_dim: must be nonnegative"),
    # a key no section reads is refused, not ignored
    (lambda d: d.update(extra_root=1), "<root>.extra_root: unknown field"),
    (lambda d: d["problem"].update(alpha=0.01), "problem.alpha: unknown field"),
    (lambda d: d["problem"].update(loss="l2"), "problem.loss: unknown field"),
    (lambda d: d["problem"]["dataset"].update(sedd=3), "problem.dataset.sedd: unknown field"),
    (lambda d: d["problem"].update(dataset={"source": "libsvm", "seed": 3,
                                            "path": str(fixture_path("logistic_sep"))}),
     "problem.dataset.seed: unknown field"),
    (lambda d: d["problem"]["regularizer"].update(muu=0.1), "problem.regularizer.muu: unknown"),
    (lambda d: d["solvers"][0]["scheme"].update(min_period=2),
     "solvers[0].scheme.min_period: unknown field"),
    (lambda d: d["solvers"][0].update(scheme={"kind": "never", "q": 10}),
     "solvers[0].scheme.q: unknown field"),
    (lambda d: d["solvers"][0].update(stepsize_mod="experiment"),
     "solvers[0].stepsize_mod: unknown field; expected one of ('name', "),
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
        {"name": "never", "max_iters": 1, "seeds": [0]},
    ]
    config = load_config(write_config(tmp_path, doc))
    assert config.problem.regularizer == Zero()
    assert [s.config.scheme for s in config.solvers] == [
        FunctionValueRestart(), GradientMappingRestart(tau=0), NeverRestart()]


def test_alpha_is_checked_only_where_it_is_read(tmp_path, capsys):
    doc = base_config()
    doc["problem"]["alpha"] = -1.0  # the quadratic objective has no alpha
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: problem.alpha: unknown field")


def test_keys_nothing_reads_are_refused(tmp_path, capsys):
    # eleven keys in six sections, none of which the run would read
    doc = base_config(extra_root=1)
    doc["problem"].update(alpha=-3)
    doc["problem"]["regularizer"]["muu"] = 0.1
    doc["problem"]["dataset"] = {"source": "libsvm", "path": str(fixture_path("logistic_sep")),
                                 "seed": 3, "kind": "logistic_sep", "expected_dim": -5}
    doc["solvers"][0]["scheme"].update(min_period=11, tua=0.5)
    doc["solvers"][0].update(stepsize_mod="experiment", max_iter=5, beta=0.5)
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: <root>.extra_root: unknown field") and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


def test_invalid_config_exit_code(tmp_path, capsys):
    doc = base_config()
    doc["solvers"] = []
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("schema_version: 1\nproblem: [\n",
     r'config is not valid YAML: .* in ".*cfg\.yaml", line 3, column 1'),
    (None, r"cannot read config: .*No such file.*cfg\.yaml'"),
    (lambda d: d["solvers"][0].update(name="../x"), r"solvers\[0\]\.name: must be .*'\.\./x'\)"),
    (lambda d: d["solvers"][0].update(seeds=[0, 0]), r"solvers\[0\]\.seeds: seed 0 is repeated"),
], ids=["yaml_syntax", "missing_file", "name_outside_out", "repeated_seed"])
def test_refused_config_exits_2_on_one_line_and_writes_nothing(tmp_path, capsys, text, message):
    cfg = tmp_path / "cfg.yaml"
    if isinstance(text, str):
        cfg.write_text(text, encoding="utf-8")
    elif text is not None:
        doc = base_config()
        text(doc)
        write_config(tmp_path, doc)
    before = sorted(os.listdir(tmp_path))
    # a solver named ../x would write its trace into tmp_path/"runs"
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "runs" / "o"),
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(f"config error: {message}\n", err), err
    assert sorted(os.listdir(tmp_path)) == before


# each number field, set to v in a config that reads it
NUMBER_FIELDS = {
    "alpha": lambda d, v: d["problem"].update(objective="logistic_ncvx", alpha=v),
    "mu": lambda d, v: d["problem"]["regularizer"].update(mu=v),
    "mu1": lambda d, v: d["problem"].update(regularizer={"kind": "elastic_net", "mu1": v,
                                                         "mu2": 0.1}),
    "mu2": lambda d, v: d["problem"].update(regularizer={"kind": "elastic_net", "mu1": 0.1,
                                                         "mu2": v}),
    "beta": lambda d, v: d["solvers"][0].update(stepsize_mode="custom", beta=v),
    "tolerance": lambda d, v: d["solvers"][0].update(tolerance=v),
    "lambda_factor": lambda d, v: d["solvers"][0].update(lambda_factor=v),
    "rho": lambda d, v: d["solvers"][0].update(scheme={"kind": "function_value", "rho": v}),
    "tau": lambda d, v: d["solvers"][0].update(scheme={"kind": "gradient_mapping", "tau": v}),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_nonfinite_numbers_are_config_errors(tmp_path, capsys, field, value):
    doc = base_config()
    doc["problem"]["dataset"].update(kind="logistic_sep")  # labels the logistic loss takes
    NUMBER_FIELDS[field](doc, value)
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f".{field}: must be a finite number" in err
    assert not (tmp_path / "o").exists()


POSITIVE_LIPSCHITZ = "solver 'demo': {} stepsizes need a positive finite Lipschitz estimate, got {}"
INF_LIPSCHITZ_EXPERIMENT = "solver 'demo': experiment stepsizes need a finite Lipschitz estimate, got inf"
OVERFLOW = "1 1:1e308 2:1e308\n-1 1:-1e308 2:5e307\n"
# a baseline takes no restart scheme, so base_config()'s is left out
PROX_GRAD_EXPERIMENT = {"algorithm": "prox_grad", "stepsize_mode": "experiment", "scheme": None}


@pytest.mark.parametrize("text,objective,solver,fragment", [
    ("1 1:0.5\n-1 2:a\n", "quadratic", {}, "line 2: nonnumeric value in token '2:a'"),
    ("1 1:0.5\n0 2:1.0\n", "logistic_ncvx", {}, "logistic labels must be -1 or +1"),
    ("1 1:0.5\nnan 2:1.0\n", "quadratic", {}, "line 2: nonfinite label 'nan'"),
    ("1 1:0.5\n-1 2:nan\n", "quadratic", {}, "line 2: nonfinite value in token '2:nan'"),
    (None, "quadratic", {}, "Is a directory"),
    ("1 1:0\n-1 2:0\n", "quadratic", {}, POSITIVE_LIPSCHITZ.format("theory", "0.0")),
    ("1 1:0\n-1 2:0\n", "quadratic", PROX_GRAD_EXPERIMENT,
     POSITIVE_LIPSCHITZ.format("prox_grad", "0.0")),
    ("", "quadratic", {}, "matrix has no rows"),
    (OVERFLOW, "quadratic", {}, POSITIVE_LIPSCHITZ.format("theory", "inf")),
    (OVERFLOW, "quadratic", PROX_GRAD_EXPERIMENT, POSITIVE_LIPSCHITZ.format("prox_grad", "inf")),
    (OVERFLOW, "quadratic", {"stepsize_mode": "experiment"}, INF_LIPSCHITZ_EXPERIMENT),
], ids=["bad_token", "wrong_labels", "nonfinite_label", "nonfinite_value", "directory",
        "zero_lipschitz_theory", "zero_lipschitz_prox_grad", "empty_file",
        "inf_lipschitz_theory", "inf_lipschitz_prox_grad", "inf_lipschitz_experiment"])
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


def test_index_beyond_int64_exit_code(tmp_path, capsys):
    path = tmp_path / "big.libsvm"
    path.write_text("1 1:1\n-1 12345678901234567890:2\n", encoding="utf-8")
    cfg = libsvm_config(tmp_path, path)
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert capsys.readouterr().err == (f"data error: {path}: line 2: feature index beyond int64 "
                                       "in token '12345678901234567890:2'\n")


def test_zero_lipschitz_runs_at_experiment_stepsizes(tmp_path):
    # beta = 1 does not divide by L, so an all-zero matrix is usable there
    path = tmp_path / "zero.libsvm"
    path.write_text("1 1:0\n-1 2:0\n", encoding="utf-8")
    cfg = libsvm_config(tmp_path, path, objective="quadratic", stepsize_mode="experiment")
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1].endswith(",ok")


@pytest.mark.parametrize("command", ["run", "check", "compare"])
def test_unexpected_cell_error_exit_code(tmp_path, capsys, monkeypatch, command):
    # exit 1 means failed invariants only; any other error in a cell exits 4 with one line
    def broken(objective, regularizer, cfg, x_init):
        raise RuntimeError("solver blew up\nsecond line")

    monkeypatch.setattr(cli, "run", broken)
    doc = base_config()
    doc["solvers"] = [doc["solvers"][0], {**doc["solvers"][0], "name": "other"}]
    cfg = write_config(tmp_path, doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
    assert capsys.readouterr().err == "error: demo seed=1: RuntimeError: solver blew up second line\n"


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


# SHA-256 of check's outputs on configs/check.yaml at seed 0
CHECK_SEED0_DIGESTS = {
    "report.csv": "d59cf0e6f1232a80e4248a4899064a984e1cd4ebd03a23187b17bd3db95949b9",
    "path_lengths.csv": "98085b60e538c6d8cbf7d0dd2c430d3fd441d478e34f9b4f3bd1fe8eae1ab6cc",
}


def test_check_outputs_are_pinned(tmp_path):
    cfg = os.path.join(CONFIGS, "check.yaml")
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out), "--seed-override", "0",
                 "--quiet"]) == 0
    assert digests(out, CHECK_SEED0_DIGESTS) == CHECK_SEED0_DIGESTS


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


def test_only_logistic_runs_import_scipy_special(tmp_path):
    # scipy.special costs about 5 MB and 50 ms of start-up, so a fresh
    # interpreter loads it on the first logistic gradient and not before
    quadratic = write_config(tmp_path, base_config(), "quadratic.yaml")
    logistic_doc = base_config()
    logistic_doc["problem"].update(objective="logistic_ncvx", alpha=0.01)
    logistic_doc["problem"]["dataset"]["kind"] = "logistic_sep"
    logistic = write_config(tmp_path, logistic_doc, "logistic.yaml")
    code = f"""if True:
        import sys
        import proxrestart, proxrestart.cli
        assert 'scipy.special' not in sys.modules, 'import'
        out = {str(tmp_path)!r}
        assert proxrestart.cli.main(['check', '--config', {quadratic!r},
                                     '--out', out + '/check', '--quiet']) == 0
        assert 'scipy.special' not in sys.modules, 'quadratic check'
        assert proxrestart.cli.main(['run', '--config', {logistic!r},
                                     '--out', out + '/run', '--quiet']) == 0
        assert 'scipy.special' in sys.modules, 'logistic run'
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


BENCH = os.path.join(os.path.dirname(CONFIGS), "perfbench")
TRACED_LAYERS = ("linalg.spmv", "linalg.spmv_transpose", "linalg.CsrMatrix",
                 "objectives.value", "objectives.gradient",
                 "regularizers.value", "regularizers.prox", "regularizers.subdiff_distance",
                 "regularizers.gradient_mapping", "restart.should_restart", "solver.run")


def test_bench_tracer_sees_every_layer(tmp_path):
    # perfbench/tracing.py wraps package names from outside the package; a
    # renamed or bypassed one would read as a layer that costs nothing. The
    # wrappers patch classes for the whole interpreter, hence the subprocess.
    # A method wrapped twice (say through a base class the public classes
    # share) would show as a span directly inside a span of its own name.
    cfg = write_config(tmp_path, base_config())
    code = f"""if True:
        import collections, json, sys
        sys.path.insert(0, {BENCH!r})
        import tracing
        from proxrestart import cli
        tracer = tracing.Tracer()
        tracing.instrument(tracer, full=True)
        code = cli.main(['check', '--config', {cfg!r}, '--out', {str(tmp_path / "o")!r},
                         '--quiet'])
        names = [tracer.names[i] for i in tracer.name_id]
        spans = collections.Counter(names)
        nested = collections.Counter(name for name, p in zip(names, tracer.parent)
                                     if p != tracing.ROOT and names[p] == name)
        print(json.dumps({{'exit': code, 'spans': spans, 'nested': nested}}))
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["exit"] == 0
    assert [name for name in TRACED_LAYERS if not report["spans"].get(name)] == [], report
    assert report["nested"] == {}, report["nested"]


def test_bench_cell_labels_use_the_cli_names(monkeypatch):
    # perfbench/tracing.py labels each solver cell <objective>.<regularizer>.<scheme>
    # through its own tables, keyed by class name; a kind renamed here, or a
    # class added here, must be taught to it
    monkeypatch.syspath_prepend(BENCH)
    tracing = importlib.import_module("tracing")

    def names(table):
        return {cls.__name__: kind for kind, (cls, _) in table.items()}

    assert tracing._OBJECTIVE_NAMES == names(cli._OBJECTIVES)
    assert tracing._REGULARIZER_NAMES == names(cli._REGULARIZERS)
    schemes = names(cli._SCHEMES)
    assert schemes.pop("FixedRestart") == "fixed"
    assert tracing._scheme_name(FixedRestart(10)) == "fixed_10"
    assert tracing._SCHEME_NAMES == schemes


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
        if len(trace.checkpoints) > 3:
            trace.F[trace.checkpoints[2]] += 10.0
        return trace

    monkeypatch.setattr(cli, "run", corrupted_run)
    assert main(["check", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    report = (out / "report.csv").read_text(encoding="utf-8")
    rows = [r for r in report.splitlines() if ",period_descent," in r]
    assert any(",0," in r for r in rows)  # a failed descent row
    assert any("period 2" in r or "period 3" in r for r in rows)


def test_check_reports_a_diverged_cell(tmp_path, monkeypatch, capsys):
    cfg = check_config(tmp_path)
    out = tmp_path / "out"

    clean_run = cli.run
    calls = []

    def diverging_run(objective, regularizer, cfg, x_init):
        # the first cell gives up after 10 iterations with its partial trace
        calls.append(None)
        if len(calls) > 1:
            return clean_run(objective, regularizer, cfg, x_init)
        partial = clean_run(objective, regularizer, replace(cfg, max_iters=10), x_init)
        raise DivergenceError("objective diverged", partial)

    monkeypatch.setattr(cli, "run", diverging_run)
    assert main(["check", "--config", cfg, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "FAIL demo seed=1: diverged after 10 iterations\n"
    assert captured.out == "demo seed=1: FAIL\ndemo seed=2: pass\n"
    report = (out / "report.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert [row.split(",")[1] for row in report] == ["1"] * 4 + ["2"] * 4
    paths = (out / "path_lengths.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert {row.split(",")[1] for row in paths} == {"1", "2"}


# --- compare subcommand -----------------------------------------------------------

def compare_config(tmp_path, **solver_fields):
    doc = base_config()
    solver = dict(doc["solvers"][0], **solver_fields)
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


# SHA-256 of compare's outputs on compare_config at experiment stepsizes
COMPARE_EXPERIMENT_DIGESTS = {
    "compare.csv": "4b44af1eb6f021b3035bd6037bced5dfaaf1e69f4194043fc3fbbbe17c4c99ca",
    "restart_counts.csv": "6ea6ed3cdca2f687a80616ddc5a80de1ee21174dc04adb4578ee156808da960c",
}


def test_compare_outputs_are_pinned(tmp_path):
    cfg = compare_config(tmp_path, stepsize_mode="experiment")
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert digests(out, COMPARE_EXPERIMENT_DIGESTS) == COMPARE_EXPERIMENT_DIGESTS


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
