"""Metric catalog and the arithmetic that turns spans into metrics.

``END_TO_END`` and ``PER_LAYER`` are the names the bench prints, with
their units; ``BENCHMARK.json`` lists the same names. Everything here is
pure: it reads a :class:`tracing.Tracer` and returns numbers.
"""

from __future__ import annotations

import functools

import numpy as np

LAYERS = ("cli", "dataio", "linalg", "objectives", "regularizers", "restart", "solver", "diagnostics")

#: solver specs of the three workloads, as <objective>.<regularizer>.<scheme>
SPECS = (
    "quadratic.l1.fixed_10", "quadratic.l1.function_value", "quadratic.l1.gradient_mapping",
    "quadratic.l1.non_monotone", "quadratic.l1.never",
    "logistic_ncvx.none.function_value", "logistic_ncvx.none.gradient_mapping",
    "logistic_ncvx.none.non_monotone", "logistic_ncvx.none.fixed_10",
    "logistic_ncvx.none.fixed_30", "logistic_ncvx.none.fixed_50",
    "logistic_ncvx.l1.gradient_mapping", "logistic_ncvx.l1.fixed_10", "logistic_ncvx.l1.ag",
)

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "us_per_iter": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "linalg.spmv.calls": "count",
    "linalg.spmv.s": "s",
    "linalg.spmv_transpose.calls": "count",
    "linalg.spmv_transpose.s": "s",
    "linalg.matvecs_per_iter": "count",
    "linalg.computed_bytes_per_iter": "B",
    "linalg.CsrMatrix.s": "s",
    "linalg.spectral_norm_sq.calls": "count",
    "linalg.spectral_norm_sq.s": "s",
    "objectives.value.calls": "count",
    "objectives.value.s": "s",
    "objectives.gradient.calls": "count",
    "objectives.gradient.s": "s",
    "objectives.lipschitz.s": "s",
    "regularizers.prox.calls": "count",
    "regularizers.prox.s": "s",
    "regularizers.prox_per_iter": "count",
    "regularizers.subdiff_distance.calls": "count",
    "regularizers.subdiff_distance.s": "s",
    "restart.should_restart.calls": "count",
    "restart.should_restart.s": "s",
    "restart.fire_rate": "ratio",
    "solver.iters": "count",
    "solver.s": "s",
    "solver.self_us_per_iter": "us",
    **{f"solver.us_per_iter.{spec}": "us" for spec in SPECS},
    "diagnostics.check_invariants.calls": "count",
    "diagnostics.check_invariants.s": "s",
    "diagnostics.path_length_summary.s": "s",
    "dataio.generate_synthetic.calls": "count",
    "dataio.generate_synthetic.s": "s",
    "dataio.generate_synthetic.self_s": "s",
    "dataio.reference_solve.s": "s",
    "dataio.parse_libsvm.s": "s",
    "dataio.parse_libsvm.MB_per_s": "MB/s",
    "cli.load_config.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

_SETUP = ("dataio.generate_synthetic", "dataio.parse_libsvm", "objectives.init", "objectives.lipschitz")
_RUNS = ("solver.run", "solver.run_baseline")
_MATVECS = ("linalg.spmv", "linalg.spmv_transpose")


def _propagate(parent: np.ndarray, seed: np.ndarray, fill) -> np.ndarray:
    """Carry each span's nearest ancestor-or-self value down the tree.

    ``seed[i]`` is kept where it differs from ``fill``; other spans take
    their parent's result. Parents precede children, so iterating to a
    fixed point takes at most the tree depth.
    """
    out = seed.copy()
    has_parent = parent >= 0
    own = seed != fill
    while True:
        inherited = np.where(has_parent, out[np.maximum(parent, 0)], fill)
        nxt = np.where(own, seed, inherited)
        if np.array_equal(nxt, out):
            return out
        out = nxt


class SpanTable:
    """Vectorised view of a tracer with the ancestry facts the metrics need."""

    def __init__(self, tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32).astype(np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
        self.value = np.frombuffer(tracer.value, dtype=np.float64)
        self.labels = dict(tracer.labels)
        start = np.frombuffer(tracer.start, dtype=np.float64)
        self.duration = np.frombuffer(tracer.end, dtype=np.float64) - start
        n = len(self.duration)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.duration[has_parent], minlength=n)
        self.self_time = self.duration - child_time[:n]

        idx = np.arange(n)
        parent_or_self = np.where(has_parent, self.parent, idx)

        def strictly_under(mask):
            # True where some proper ancestor satisfies ``mask``.
            under = _propagate(self.parent, mask.astype(np.int8), 0).astype(bool)
            return np.where(has_parent, under[parent_or_self], False)

        self.in_setup = strictly_under(self.is_(*_SETUP))
        self.in_generation = strictly_under(self.is_("dataio.generate_synthetic"))
        self.in_lipschitz = strictly_under(self.is_("objectives.lipschitz"))
        runs = self.is_(*_RUNS)
        self.in_run = strictly_under(runs)
        #: a cell is a solver run called by the workload, not nested in
        #: another run or in dataset generation (reference solves)
        self.cell_root = runs & ~self.in_run & ~self.in_generation
        self.cell = _propagate(self.parent, np.where(self.cell_root, idx, -1), -1)

    def is_(self, *names) -> np.ndarray:
        ids = [i for i, name in enumerate(self.names) if name in names]
        return np.isin(self.name_id, ids)

    def in_layer(self, layer: str) -> np.ndarray:
        ids = [i for i, name in enumerate(self.names) if name.split(".", 1)[0] == layer]
        return np.isin(self.name_id, ids)

    def total(self, mask) -> float:
        return float(self.duration[mask].sum())

    def count(self, mask) -> int:
        return int(np.count_nonzero(mask))


    @functools.cached_property
    def cell_rows(self) -> list:
        """Per cell: label, iterations, run seconds without Lipschitz set-up, matvecs."""
        lipschitz_in_cell = self.is_("objectives.lipschitz") & (self.cell >= 0) & ~self.in_lipschitz
        matvecs = self.is_(*_MATVECS) & (self.cell >= 0) & ~self.in_lipschitz
        rows = []
        for i in np.flatnonzero(self.cell_root):
            in_cell = self.cell == i
            rows.append({
                "label": self.labels.get(int(i), "?"),
                "iters": int(self.value[i]),
                "run_s": float(self.duration[i]) - self.total(lipschitz_in_cell & in_cell),
                "matvecs": self.count(matvecs & in_cell),
            })
        return rows


def end_to_end_from_spans(table: SpanTable) -> dict:
    """``setup_s`` and ``us_per_iter`` of one repeat."""
    setup = table.is_(*_SETUP) & ~table.in_setup
    rows = table.cell_rows
    iters = sum(r["iters"] for r in rows)
    run_s = sum(r["run_s"] for r in rows)
    return {"setup_s": table.total(setup), "us_per_iter": 1e6 * run_s / iters if iters else 0.0}


def per_layer_from_spans(table: SpanTable) -> dict:
    """Every per-layer metric that the spans alone determine."""
    out = {}
    for name in ("linalg.spmv", "linalg.spmv_transpose", "linalg.spectral_norm_sq",
                 "objectives.value", "objectives.gradient", "regularizers.prox",
                 "regularizers.subdiff_distance", "restart.should_restart",
                 "diagnostics.check_invariants", "dataio.generate_synthetic"):
        mask = table.is_(name)
        out[f"{name}.calls"] = table.count(mask)
        out[f"{name}.s"] = table.total(mask)
    for name in ("linalg.CsrMatrix", "objectives.lipschitz", "diagnostics.path_length_summary",
                 "dataio.parse_libsvm", "cli.load_config"):
        out[f"{name}.s"] = table.total(table.is_(name))

    rows = table.cell_rows
    iters = sum(r["iters"] for r in rows)
    in_cells = (table.cell >= 0) & ~table.in_lipschitz
    matvecs = table.is_(*_MATVECS) & in_cells

    def per_iter(x):
        return x / iters if iters else 0.0

    out["linalg.matvecs_per_iter"] = per_iter(table.count(matvecs))
    out["linalg.computed_bytes_per_iter"] = per_iter(float(table.value[matvecs].sum()))
    out["regularizers.prox_per_iter"] = per_iter(table.count(table.is_("regularizers.prox") & in_cells))

    restarts = table.is_("restart.should_restart")
    calls = table.count(restarts)
    out["restart.fire_rate"] = float(table.value[restarts].sum()) / calls if calls else 0.0

    out["solver.iters"] = iters
    out["solver.s"] = table.total(table.cell_root)
    solver_in_cells = table.is_(*_RUNS) & (table.cell >= 0)
    out["solver.self_us_per_iter"] = per_iter(1e6 * float(table.self_time[solver_in_cells].sum()))
    by_spec: dict[str, list] = {}
    for r in rows:
        acc = by_spec.setdefault(r["label"], [0.0, 0])
        acc[0] += r["run_s"]
        acc[1] += r["iters"]
    for spec in SPECS:
        run_s, n = by_spec.get(spec, (0.0, 0))
        out[f"solver.us_per_iter.{spec}"] = 1e6 * run_s / n if n else 0.0

    generation = table.is_("dataio.generate_synthetic")
    out["dataio.generate_synthetic.self_s"] = float(table.self_time[generation].sum())
    reference = table.is_(*_RUNS) & table.in_generation & ~table.in_run
    out["dataio.reference_solve.s"] = table.total(reference)
    parse = table.is_("dataio.parse_libsvm")
    parse_s = table.total(parse)
    out["dataio.parse_libsvm.MB_per_s"] = float(table.value[parse].sum()) / 1e6 / parse_s if parse_s else 0.0

    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(table.self_time[table.in_layer(layer)].sum())
    return out


def layer_self_total(metrics: dict) -> float:
    return sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
