"""Benchmark front end: run experiment grids, verify traces, compare schemes.

Subcommands
-----------
``run``      execute every (solver, seed) cell of a config, writing one
             iteration-trace CSV per cell plus ``summary.csv``.
``check``    run the cells and verify the theory-mode trace inequalities;
             exit 0 only if every check passes (``report.csv`` +
             ``path_lengths.csv`` are written either way).
``compare``  emit a long-format CSV of per-iteration loss gaps across
             solvers (plot-ready) plus a restart-count table.

Configs are YAML with a ``schema_version`` key; see the README for the
full schema. All CSV output is UTF-8 with LF line endings, and floats are
written in shortest round-trip form, so reruns of the same config produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import numpy as np
import yaml

from . import dataio, objectives, regularizers, restart
from .diagnostics import check_invariants, path_length_summary
from .solver import BASELINES, DivergenceError, SolverConfig, run, run_baseline

__all__ = ["ConfigError", "DataError", "load_config", "run_experiment", "check_experiment",
           "compare_experiment", "main"]

SCHEMA_VERSION = 1

TRACE_COLUMNS = ("k", "F", "grad_map_norm", "step_norm", "restart", "lambda", "beta", "alpha_next")
SUMMARY_COLUMNS = ("solver", "algorithm", "scheme", "stepsize_mode", "seed",
                   "iterations", "restarts", "prox_calls", "final_F", "loss_gap", "status")


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


class DataError(ValueError):
    """Unusable problem data (malformed file, wrong labels); the message names the source."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_atomic(path, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_text(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# config parsing

_ALGORITHMS = ("apg_restart",) + BASELINES
_OBJECTIVES = ("logistic_ncvx", "robust", "quadratic")


def _require(mapping, key, path, types, default=None, required=True):
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    value = mapping[key]
    # YAML booleans pass isinstance(value, int), and no field takes one
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {types}, got {type(value).__name__}")
    return value

_NUM = (int, float)

# kind -> (class, {field: (types, required)}); an optional field the config
# leaves out is not passed, so the class's own default applies
_SCHEMES = {
    "fixed": (restart.FixedRestart, {"q": (int, True), "min_period": (int, False)}),
    "function_value": (restart.FunctionValueRestart,
                       {"rho": (_NUM, False), "min_period": (int, False)}),
    "gradient_mapping": (restart.GradientMappingRestart,
                         {"tau": (_NUM, False), "min_period": (int, False)}),
    "non_monotone": (restart.NonMonotoneRestart,
                     {"tau": (_NUM, False), "min_period": (int, False)}),
    "never": (restart.NeverRestart, {}),
}
_REGULARIZERS = {
    "none": (regularizers.Zero, {}),
    "l1": (regularizers.L1, {"mu": (_NUM, True)}),
    "squared_l2": (regularizers.SquaredL2, {"mu": (_NUM, True)}),
    "elastic_net": (regularizers.ElasticNet, {"mu1": (_NUM, True), "mu2": (_NUM, True)}),
}


def _build(node, path, table, what):
    """Construct the ``table`` entry that ``node['kind']`` names from ``node``'s fields."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'kind' key")
    kind = _require(node, "kind", path, str)
    if kind not in table:
        raise ConfigError(f"{path}.kind: unknown {what} {kind!r}; expected one of {tuple(table)}")
    cls, fields = table[kind]
    kwargs = {key: _require(node, key, path, types)
              for key, (types, required) in fields.items() if required or key in node}
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


class SolverSpec:
    def __init__(self, node, path):
        self.name = _require(node, "name", path, str)
        if not self.name or not all(c.isalnum() or c in "_-" for c in self.name):
            raise ConfigError(f"{path}.name: must be nonempty alphanumeric/_/- (got {self.name!r})")
        self.algorithm = _require(node, "algorithm", path, str, default="apg_restart", required=False)
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"{path}.algorithm: unknown algorithm {self.algorithm!r}")
        self.scheme = _build(node.get("scheme", {"kind": "never"}), f"{path}.scheme",
                             _SCHEMES, "scheme")
        self.stepsize_mode = _require(node, "stepsize_mode", path, str, default="theory", required=False)
        self.lambda_factor = float(_require(node, "lambda_factor", path, _NUM, default=1.0, required=False))
        self.beta = _require(node, "beta", path, _NUM, default=None, required=False)
        self.max_iters = _require(node, "max_iters", path, int)
        self.tolerance = float(_require(node, "tolerance", path, _NUM, default=0.0, required=False))
        seeds = _require(node, "seeds", path, list)
        # numpy generators take nonnegative seeds only
        if not seeds or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                                for s in seeds):
            raise ConfigError(f"{path}.seeds: must be a nonempty list of nonnegative integers")
        self.seeds = list(seeds)
        try:
            self.solver_config(seeds[0])
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None

    def solver_config(self, seed) -> SolverConfig:
        return SolverConfig(
            max_iters=self.max_iters, stepsize_mode=self.stepsize_mode,
            lambda_factor=self.lambda_factor, beta=self.beta,
            tolerance=self.tolerance, seed=seed, scheme=self.scheme,
        )


class ProblemSpec:
    def __init__(self, node, path="problem"):
        self.objective = _require(node, "objective", path, str)
        if self.objective not in _OBJECTIVES:
            raise ConfigError(f"{path}.objective: unknown objective {self.objective!r}")
        self.alpha = float(_require(node, "alpha", path, _NUM, default=0.01, required=False))
        # only the logistic objective reads alpha
        if self.objective == "logistic_ncvx" and self.alpha < 0:
            raise ConfigError(f"{path}.alpha: must be nonnegative (got {self.alpha!r})")
        reg = node.get("regularizer")
        self.regularizer = (regularizers.Zero() if reg is None else
                            _build(reg, f"{path}.regularizer", _REGULARIZERS, "regularizer"))
        ds = _require(node, "dataset", path, dict)
        dpath = f"{path}.dataset"
        self.source = _require(ds, "source", dpath, str)
        if self.source == "synthetic":
            self.kind = _require(ds, "kind", dpath, str)
            if self.kind not in dataio.SYNTHETIC_KINDS:
                raise ConfigError(f"{dpath}.kind: unknown kind {self.kind!r}")
            self.n = _require(ds, "n", dpath, int)
            self.d = _require(ds, "d", dpath, int)
            self.dataset_seed = _require(ds, "seed", dpath, int, default=None, required=False)
            if self.dataset_seed is not None and self.dataset_seed < 0:
                raise ConfigError(f"{dpath}.seed: must be nonnegative (got {self.dataset_seed})")
            if self.n < 1 or self.d < 1:
                raise ConfigError(f"{dpath}: n and d must be >= 1")
        elif self.source == "libsvm":
            self.path = _require(ds, "path", dpath, str)
            self.expected_dim = _require(ds, "expected_dim", dpath, int, default=None, required=False)
            if not os.path.exists(self.path):
                raise ConfigError(f"{dpath}.path: file not found: {self.path}")
        else:
            raise ConfigError(f"{dpath}.source: expected 'synthetic' or 'libsvm'")

    def _data_seed(self, seed: int) -> int:
        return self.dataset_seed if self.dataset_seed is not None else seed

    def describe(self, seed: int) -> str:
        """Name the data a cell with this seed runs on, for error messages."""
        if self.source == "libsvm":
            return self.path
        return f"synthetic {self.kind} {self.n}x{self.d} seed {self._data_seed(seed)}"

    def instance(self, seed: int):
        """Build the ``(dataset, objective)`` pair for a cell.

        A libsvm source is parsed from its file; a synthetic one is
        generated at the config's ``dataset.seed`` if set, else at the cell
        seed. Each call builds a fresh instance.

        Raises :class:`DataError` naming the source when the data cannot
        be read or does not suit the objective.
        """
        try:
            if self.source == "libsvm":
                ds = dataio.load_libsvm(self.path, expected_dim=self.expected_dim)
            else:
                ds = dataio.generate_synthetic(self.kind, self.n, self.d, self._data_seed(seed))
            return ds, self.build_objective(ds)
        except (OSError, ValueError) as exc:
            raise DataError(f"{self.describe(seed)}: {exc}") from None

    def build_objective(self, dataset: dataio.Dataset):
        if self.objective == "logistic_ncvx":
            return objectives.LogisticObjective(dataset.features, dataset.labels, alpha=self.alpha)
        if self.objective == "robust":
            return objectives.RobustRegressionObjective(dataset.features, dataset.labels)
        return objectives.QuadraticObjective(dataset.features, dataset.labels)


class ExperimentConfig:
    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ConfigError("config root must be a mapping")
        version = _require(doc, "schema_version", "<root>", int)
        if version != SCHEMA_VERSION:
            raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
        self.problem = ProblemSpec(_require(doc, "problem", "<root>", dict))
        solver_nodes = _require(doc, "solvers", "<root>", list)
        if not solver_nodes:
            raise ConfigError("solvers: at least one solver is required")
        self.solvers = [SolverSpec(node, f"solvers[{i}]") for i, node in enumerate(solver_nodes)]
        names = [s.name for s in self.solvers]
        if len(set(names)) != len(names):
            raise ConfigError("solvers: names must be unique")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    return ExperimentConfig(doc)


# ---------------------------------------------------------------------------
# execution

def _run_cell(config: ExperimentConfig, spec: SolverSpec, seed: int):
    dataset, objective = config.problem.instance(seed)
    x_init = np.zeros(dataset.n_cols)
    cfg = spec.solver_config(seed)
    # theory stepsizes and prox_grad divide by L; an all-zero matrix under
    # the quadratic or robust loss gives L = 0 (cached, so no extra work)
    if spec.stepsize_mode == "theory" or spec.algorithm == "prox_grad":
        L = objective.lipschitz(seed)
        if L <= 0:
            raise DataError(f"{config.problem.describe(seed)}: gradient Lipschitz estimate "
                            f"is {L!r}; solver {spec.name!r} needs a positive one")
    if spec.algorithm == "apg_restart":
        return run(objective, config.problem.regularizer, cfg, x_init)
    return run_baseline(spec.algorithm, objective, config.problem.regularizer, cfg, x_init)


def _trace_rows(trace):
    for k in range(len(trace)):
        yield (k, trace.F[k], trace.grad_map_norm[k], trace.step_norm[k],
               trace.restart_flags[k], trace.lam[k], trace.beta[k], trace.alpha_next[k])


def _trace_filename(spec: SolverSpec, seed: int) -> str:
    return f"{spec.name}_seed{seed}.csv"


def _iter_cells(config: ExperimentConfig, seed_override):
    for spec in config.solvers:
        seeds = [seed_override] if seed_override is not None else spec.seeds
        for seed in seeds:
            yield spec, seed


def run_experiment(config: ExperimentConfig, out_dir, seed_override=None, quiet=False):
    """Execute all cells; write per-cell traces and a summary. Returns 0/1."""
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for spec, seed in _iter_cells(config, seed_override):
        try:
            trace = _run_cell(config, spec, seed)
            status = "ok"
        except DivergenceError as exc:
            trace = exc.trace
            status = "diverged"
        _write_atomic(os.path.join(out_dir, _trace_filename(spec, seed)),
                      _csv_text(TRACE_COLUMNS, _trace_rows(trace)))
        results.append((spec, seed, trace, status))
        if not quiet:
            print(f"{spec.name} seed={seed}: {status}, {len(trace)} iterations, "
                  f"{trace.num_restarts} restarts, final F={trace.final_F!r}")

    f_ref = min(min(float(t.F.min()) if len(t) else t.final_F, t.final_F)
                for _, _, t, _ in results)
    summary_rows = [
        (spec.name, spec.algorithm, spec.scheme.label, spec.stepsize_mode, seed,
         len(trace), trace.num_restarts, trace.prox_calls, trace.final_F,
         trace.final_F - f_ref, status)
        for spec, seed, trace, status in results
    ]
    _write_atomic(os.path.join(out_dir, "summary.csv"), _csv_text(SUMMARY_COLUMNS, summary_rows))
    return 0


def check_experiment(config: ExperimentConfig, out_dir, seed_override=None, quiet=False):
    """Run cells and verify the theory-mode invariants. Returns 0 iff all pass."""
    for i, spec in enumerate(config.solvers):
        if spec.stepsize_mode != "theory":
            raise ConfigError(
                f"solvers[{i}].stepsize_mode: invariant checks require 'theory' "
                f"(got {spec.stepsize_mode!r}; experiment stepsizes carry no descent guarantee)"
            )
    os.makedirs(out_dir, exist_ok=True)
    report_rows = []
    path_rows = []
    all_passed = True
    for spec, seed in _iter_cells(config, seed_override):
        trace = _run_cell(config, spec, seed)
        report = check_invariants(trace, trace.lipschitz)
        for c in report.checks:
            report_rows.append((spec.name, seed, c.name, c.worst_margin, c.passed, c.location))
            if not c.passed:
                all_passed = False
                if not quiet:
                    print(f"FAIL {spec.name} seed={seed}: {c.name} at {c.location} "
                          f"(margin {c.worst_margin:.3e})", file=sys.stderr)
        lengths = path_length_summary(trace)
        path_rows.extend((spec.name, seed, t, l, cum) for t, l, cum in lengths.rows)
        if not quiet:
            print(f"{spec.name} seed={seed}: {'pass' if report.passed else 'FAIL'}")
    _write_atomic(os.path.join(out_dir, "report.csv"),
                  _csv_text(("solver", "seed", "check", "worst_margin", "passed", "location"),
                            report_rows))
    _write_atomic(os.path.join(out_dir, "path_lengths.csv"),
                  _csv_text(("solver", "seed", "period", "path_length", "cumulative"), path_rows))
    return 0 if all_passed else 1


def compare_experiment(config: ExperimentConfig, out_dir, seed_override=None, quiet=False):
    """Emit long-format loss-gap curves and restart counts across solvers."""
    if len(config.solvers) < 2:
        raise ConfigError("solvers: compare needs at least two solvers")
    os.makedirs(out_dir, exist_ok=True)
    cells = []
    for spec, seed in _iter_cells(config, seed_override):
        try:
            trace = _run_cell(config, spec, seed)
        except DivergenceError as exc:
            trace = exc.trace
        cells.append((spec, seed, trace))
    f_ref = min(min(float(t.F.min()) if len(t) else t.final_F, t.final_F) for _, _, t in cells)
    long_rows = []
    count_rows = []
    for spec, seed, trace in cells:
        long_rows.extend(
            (spec.name, spec.scheme.label, seed, k, trace.F[k] - f_ref)
            for k in range(len(trace))
        )
        count_rows.append((spec.name, spec.scheme.label, seed, trace.num_restarts))
    _write_atomic(os.path.join(out_dir, "compare.csv"),
                  _csv_text(("solver", "scheme", "seed", "k", "loss_gap"), long_rows))
    _write_atomic(os.path.join(out_dir, "restart_counts.csv"),
                  _csv_text(("solver", "scheme", "seed", "restarts"), count_rows))
    if not quiet:
        for name, scheme, seed, count in count_rows:
            print(f"{name} ({scheme}) seed={seed}: {count} restarts")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxrestart",
        description="Benchmark and verification front end for the restart solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the configured cells and write trace/summary CSVs"),
        ("check", "run cells and verify the theory-mode trace inequalities"),
        ("compare", "emit loss-gap curves and restart counts across solvers"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML experiment config")
        p.add_argument("--out", default="./results", help="output directory (default ./results)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="run every solver with this single seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    if args.seed_override is not None and args.seed_override < 0:
        parser.error(f"--seed-override: must be nonnegative (got {args.seed_override})")

    try:
        config = load_config(args.config)
        command = {"run": run_experiment, "check": check_experiment,
                   "compare": compare_experiment}[args.command]
        return command(config, args.out, seed_override=args.seed_override, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
