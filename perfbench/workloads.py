"""The three bench workloads: input generation, one repeat, output checks.

Every repeat returns ``(cells, failed, digest, notes)``. A cell counts as
failed when it raised, ended with a status other than ``ok``, produced a
non-finite trace, or failed an invariant check; nothing here asserts.
``digest`` is the SHA-256 of the repeat's deterministic outputs, so two
repeats of the same code on the same seed must agree.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np
import yaml

WORKLOADS = ("check_small", "run_small", "sparse_large")

#: shipped config of each CLI workload
CONFIGS = {"check_small": "configs/check.yaml", "run_small": "configs/example.yaml"}

# sparse_large instance: 50 000 x 5 000 at density 0.002, logistic + L1.
SPARSE_ROWS = 50_000
SPARSE_COLS = 5_000
SPARSE_NNZ = 500_000
SPARSE_LABEL_NOISE = 0.1
SPARSE_ALPHA = 0.01
SPARSE_L1 = 1e-3
SPARSE_ITERS = 200
SPARSE_L_TARGET = 1.0
_SCALE_POWER_ITERS = 30


# ---------------------------------------------------------------------------
# inputs

def sparse_instance_text(seed: int, n: int = SPARSE_ROWS, d: int = SPARSE_COLS,
                         nnz: int = SPARSE_NNZ) -> str:
    """LIBSVM text of a seeded sparse logistic instance.

    Exactly ``nnz`` uniformly placed Gaussian entries; labels are the
    signs of a planted separator with ``SPARSE_LABEL_NOISE`` of them
    flipped. Values are scaled so the logistic objective's Lipschitz
    bound ``||A||^2 / (4 n) + 2 alpha`` is close to ``SPARSE_L_TARGET``,
    as in the bundled kinds.
    """
    import scipy.sparse as sp

    rng = np.random.default_rng(seed)
    flat = np.sort(rng.choice(n * d, size=nnz, replace=False))
    rows, cols = np.divmod(flat, d)
    A = sp.csr_matrix((rng.standard_normal(nnz), (rows, cols)), shape=(n, d))
    margins = A @ rng.standard_normal(d)
    labels = np.where(margins >= 0.0, 1.0, -1.0)
    labels = np.where(rng.random(n) < SPARSE_LABEL_NOISE, -labels, labels)

    v = rng.standard_normal(d)
    for _ in range(_SCALE_POWER_ITERS):
        v = A.T @ (A @ (v / np.linalg.norm(v)))
    spec_sq = float(np.linalg.norm(v))
    A.data *= math.sqrt(4.0 * n * (SPARSE_L_TARGET - 2.0 * SPARSE_ALPHA) / spec_sq)

    out = []
    data, indices, indptr = A.data.tolist(), (A.indices + 1).tolist(), A.indptr.tolist()
    for i, label in enumerate(labels.tolist()):
        lo, hi = indptr[i], indptr[i + 1]
        out.append(" ".join([repr(label)] + [f"{j}:{x!r}" for j, x in zip(indices[lo:hi], data[lo:hi])]))
    return "\n".join(out) + "\n"


def sparse_working_set_bytes(n: int = SPARSE_ROWS, d: int = SPARSE_COLS, nnz: int = SPARSE_NNZ) -> int:
    """Computed working set of one sparse_large iteration.

    The CSR arrays as :class:`proxrestart.CsrMatrix` holds them (float64
    values, int64 indices), the labels, four row-length temporaries of
    the logistic value/gradient and eight column-length solver vectors.
    """
    return 16 * nnz + 8 * (n + 1) + 8 * n + 4 * 8 * n + 8 * 8 * d


# ---------------------------------------------------------------------------
# one repeat of each workload

def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cli(command: str, config_path: str, out_dir: str, notes: list):
    from proxrestart import cli

    try:
        return cli.main([command, "--config", config_path, "--out", out_dir, "--quiet"])
    except Exception as exc:  # the bench reports, it does not stop
        notes.append(f"proxrestart {command} raised {type(exc).__name__}: {exc}")
        return None


def _output_digest(out_dir: str) -> str:
    names = sorted(os.listdir(out_dir))
    chunks = []
    for name in names:
        with open(os.path.join(out_dir, name), "rb") as fh:
            chunks += [name.encode(), b"\0", fh.read()]
    return _sha(chunks)


def _config_cells(config_path: str):
    with open(config_path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return [(spec["name"], seed, spec["max_iters"]) for spec in doc["solvers"] for seed in spec["seeds"]]


def run_check_small(config_path: str, out_dir: str, clock):
    """``proxrestart check``: exit 0 and every report row passed."""
    notes: list[str] = []
    with clock.timed():
        code = _cli("check", config_path, out_dir, notes)
    expected = _config_cells(config_path)
    report_path = os.path.join(out_dir, "report.csv")
    rows = _read_csv(report_path) if os.path.exists(report_path) else []
    failed_cells = {(r["solver"], int(r["seed"])) for r in rows if r["passed"] != "1"}
    seen = {(r["solver"], int(r["seed"])) for r in rows}
    failed_cells |= {(name, seed) for name, seed, _ in expected if (name, seed) not in seen}
    if code != 0:
        notes.append(f"proxrestart check exited {code}")
    failed = len(failed_cells) if code == 0 else max(len(failed_cells), 1)
    notes += [f"cell {name} seed={seed} failed a check" for name, seed in sorted(failed_cells)]
    return len(expected), failed, _output_digest(out_dir), notes


def _finite_trace_rows(path: str) -> int:
    """Number of data rows, or -1 if any value is not a finite number."""
    rows = _read_csv(path)
    for row in rows:
        for value in row.values():
            try:
                if not math.isfinite(float(value)):
                    return -1
            except ValueError:
                return -1
    return len(rows)


def run_run_small(config_path: str, out_dir: str, clock):
    """``proxrestart run``: every summary row ``ok``, full finite traces."""
    notes: list[str] = []
    with clock.timed():
        code = _cli("run", config_path, out_dir, notes)
    expected = _config_cells(config_path)
    summary_path = os.path.join(out_dir, "summary.csv")
    status = {(r["solver"], int(r["seed"])): r["status"]
              for r in (_read_csv(summary_path) if os.path.exists(summary_path) else [])}
    failed = 0
    for name, seed, max_iters in expected:
        trace_path = os.path.join(out_dir, f"{name}_seed{seed}.csv")
        rows = _finite_trace_rows(trace_path) if os.path.exists(trace_path) else -1
        if status.get((name, seed)) != "ok" or rows != max_iters:
            failed += 1
            notes.append(f"cell {name} seed={seed}: status {status.get((name, seed))}, {rows} finite rows")
    if code != 0:
        notes.append(f"proxrestart run exited {code}")
        failed = max(failed, 1)
    if len(status) != len(expected):
        notes.append(f"summary.csv has {len(status)} rows, expected {len(expected)}")
        failed = max(failed, 1)
    return len(expected), failed, _output_digest(out_dir), notes


def run_sparse_large(lines: list, clock):
    """Library path on the generated instance: parse, three cells, checks.

    Cells (all logistic_ncvx + L1 on one parsed dataset and objective):
    ``apg_restart`` with gradient-mapping restarts at experiment stepsizes,
    ``apg_restart`` with fixed q=10 at theory stepsizes (invariants
    checked), and the two-prox ``ag`` baseline at experiment stepsizes.
    """
    from proxrestart import (L1, DivergenceError, FixedRestart, GradientMappingRestart,
                             LogisticObjective, SolverConfig, check_invariants, parse_libsvm,
                             run, run_baseline)

    notes: list[str] = []
    cells = (
        ("gradient_mapping", None, "experiment", GradientMappingRestart()),
        ("fixed_10", None, "theory", FixedRestart(10)),
        ("ag", "ag", "experiment", None),
    )
    chunks = []
    failed = 0
    with clock.timed():
        dataset = parse_libsvm(lines, name="sparse_large")
        objective = LogisticObjective(dataset.features, dataset.labels, alpha=SPARSE_ALPHA)
        regularizer = L1(SPARSE_L1)
        x0 = np.zeros(dataset.n_cols)
        for name, baseline, mode, scheme in cells:
            kwargs = {"scheme": scheme} if scheme is not None else {}
            cfg = SolverConfig(max_iters=SPARSE_ITERS, stepsize_mode=mode, **kwargs)
            try:
                if baseline is None:
                    trace = run(objective, regularizer, cfg, x0)
                else:
                    trace = run_baseline(baseline, objective, regularizer, cfg, x0)
                problems = []
                if mode == "theory":
                    report = check_invariants(trace, trace.lipschitz)
                    problems += [f"{c.name} at {c.location}" for c in report.checks if not c.passed]
            except DivergenceError as exc:
                trace, problems = exc.trace, ["diverged"]
            except Exception as exc:  # the bench reports, it does not stop
                failed += 1
                notes.append(f"cell {name} raised {type(exc).__name__}: {exc}")
                continue
            if not np.all(np.isfinite(trace.F)) or not trace.final_F <= trace.F[0]:
                problems.append(f"F not finite or final_F > F[0] ({trace.final_F!r} vs {trace.F[0]!r})")
            if problems:
                failed += 1
                notes.append(f"cell {name}: " + "; ".join(problems))
            chunks += [name.encode(), trace.F.tobytes(), trace.final_x.tobytes()]
    return len(cells), failed, _sha(chunks), notes


def read_lines(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()
