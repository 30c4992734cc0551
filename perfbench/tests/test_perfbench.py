"""Tests of the bench's own code: span arithmetic, inputs, metric catalog.

Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _hand_built_tree():
    """Two cells, one reference solve, a lazy Lipschitz set-up, layer children.

    ::

        0 dataio.generate_synthetic       [0, 10]
        1   solver.run_baseline (ref)     [1, 9]    20 iterations
        2     objectives.lipschitz        [1, 2]
        3       linalg.spectral_norm_sq   [1, 2]
        4 objectives.init                 [10, 11]
        5 solver.run (cell A)             [12, 20]  4 iterations
        6   objectives.lipschitz          [12, 14]
        7     linalg.spmv                 [12, 13]
        8   objectives.gradient           [15, 17]
        9     linalg.spmv                 [15, 16]
       10     linalg.spmv_transpose       [16, 16.5]
       11   regularizers.prox             [17, 18]
       12 solver.run_baseline (cell B)    [21, 25]  2 iterations
       13   solver.run (nested)           [21, 24]  2 iterations
       14     objectives.value            [22, 23]
       15       linalg.spmv               [22, 22.5]
    """
    t = tracing.Tracer()
    t.add("dataio.generate_synthetic", -1, 0, 10)
    t.add("solver.run_baseline", 0, 1, 9, value=20)
    t.add("objectives.lipschitz", 1, 1, 2)
    t.add("linalg.spectral_norm_sq", 2, 1, 2)
    t.add("objectives.init", -1, 10, 11)
    t.add("solver.run", -1, 12, 20, value=4)
    t.add("objectives.lipschitz", 5, 12, 14)
    t.add("linalg.spmv", 6, 12, 13, value=100)
    t.add("objectives.gradient", 5, 15, 17)
    t.add("linalg.spmv", 8, 15, 16, value=100)
    t.add("linalg.spmv_transpose", 8, 16, 16.5, value=100)
    t.add("regularizers.prox", 5, 17, 18)
    t.add("solver.run_baseline", -1, 21, 25, value=2)
    t.add("solver.run", 12, 21, 24, value=2)
    t.add("objectives.value", 13, 22, 23)
    t.add("linalg.spmv", 14, 22, 22.5, value=100)
    t.labels.update({1: "quadratic.l1.prox_grad", 5: "quadratic.l1.fixed_10",
                     12: "logistic_ncvx.l1.ag", 13: "logistic_ncvx.l1.never"})
    return t


def test_self_time_is_duration_minus_children():
    table = metrics.SpanTable(_hand_built_tree())
    expected = [2, 7, 0, 1, 1, 3, 1, 1, 0.5, 1, 0.5, 1, 1, 2, 0.5, 0.5]
    assert table.self_time.tolist() == pytest.approx(expected)
    # Self times of all spans add up to the time the root spans cover.
    assert table.self_time.sum() == pytest.approx(10 + 1 + 8 + 4)


def test_cells_exclude_reference_solves_and_lipschitz_setup():
    table = metrics.SpanTable(_hand_built_tree())
    rows = table.cell_rows
    assert [(r["label"], r["iters"], r["run_s"], r["matvecs"]) for r in rows] == [
        ("quadratic.l1.fixed_10", 4, 6.0, 2),
        ("logistic_ncvx.l1.ag", 2, 4.0, 1),
    ]
    e2e = metrics.end_to_end_from_spans(table)
    # generate_synthetic (10) + objectives.init (1) + the cell's lazy Lipschitz (2);
    # the Lipschitz call inside the reference solve is already inside generation.
    assert e2e["setup_s"] == pytest.approx(13.0)
    assert e2e["us_per_iter"] == pytest.approx(1e6 * 10.0 / 6)


def test_per_layer_metrics_and_layer_self_sum():
    table = metrics.SpanTable(_hand_built_tree())
    out = metrics.per_layer_from_spans(table)
    assert out["linalg.spmv.calls"] == 3
    assert out["linalg.matvecs_per_iter"] == pytest.approx(3 / 6)
    assert out["linalg.computed_bytes_per_iter"] == pytest.approx(300 / 6)
    assert out["dataio.reference_solve.s"] == pytest.approx(8.0)
    assert out["dataio.generate_synthetic.self_s"] == pytest.approx(2.0)
    assert out["solver.iters"] == 6
    assert out["solver.s"] == pytest.approx(12.0)
    assert out["solver.us_per_iter.quadratic.l1.fixed_10"] == pytest.approx(1e6 * 6.0 / 4)
    assert out["solver.us_per_iter.logistic_ncvx.l1.ag"] == pytest.approx(1e6 * 4.0 / 2)
    assert out["solver.us_per_iter.quadratic.l1.never"] == 0.0
    # cell spans' own time: 3 (run A) + 1 (run_baseline B) + 2 (nested run)
    assert out["solver.self_us_per_iter"] == pytest.approx(1e6 * 6.0 / 6)
    assert metrics.layer_self_total(out) == pytest.approx(table.self_time.sum())
    assert set(out) <= set(metrics.PER_LAYER)


def test_tracer_wrap_records_nesting_and_values():
    t = tracing.Tracer()
    inner = t.wrap(lambda x: x + 1, "linalg.spmv")
    outer = t.wrap(lambda x: inner(x) * 2, "objectives.value",
                   on_exit=lambda tr, i, args, kwargs, result: tr.value.__setitem__(i, result))
    assert outer(1) == 4
    assert list(t.parent) == [-1, 0]
    assert [t.names[i] for i in t.name_id] == ["objectives.value", "linalg.spmv"]
    assert t.value[0] == 4
    assert t.end[0] >= t.end[1] >= t.start[1] >= t.start[0]


def test_sparse_instance_is_deterministic_per_seed():
    small = {"n": 400, "d": 50, "nnz": 2000}
    a = workloads.sparse_instance_text(3, **small)
    assert a == workloads.sparse_instance_text(3, **small)
    assert a != workloads.sparse_instance_text(4, **small)
    lines = a.splitlines()
    assert len(lines) == 400
    assert sum(len(line.split()) - 1 for line in lines) == 2000
    assert {line.split()[0] for line in lines} == {"1.0", "-1.0"}


def test_sparse_instance_is_scaled_to_unit_lipschitz():
    sys.path.insert(0, str(HERE.parent / "src"))
    from proxrestart import LogisticObjective, parse_libsvm

    ds = parse_libsvm(workloads.sparse_instance_text(0, n=2000, d=200, nnz=4000).splitlines())
    L = LogisticObjective(ds.features, ds.labels, alpha=workloads.SPARSE_ALPHA).lipschitz()
    assert L == pytest.approx(workloads.SPARSE_L_TARGET, rel=0.05)


def test_metric_names_match_benchmark_json_and_carry_units():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    catalog = {**metrics.END_TO_END, **metrics.PER_LAYER}
    assert declared == catalog
    assert len(bench["end_to_end"]) + len(bench["per_layer"]) == len(declared)
    for name, unit in declared.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), (name, unit)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_bench_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check_small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
