"""Benchmark front end: run experiment grids, verify traces, compare schemes.

Subcommands
-----------
``run``      execute every (solver, seed) cell of a config, writing one
             iteration-trace CSV per cell plus ``summary.csv``.
``check``    run the cells and verify the theory-mode trace inequalities;
             exit 0 only if no cell diverges and every check passes, 1
             otherwise (``report.csv`` + ``path_lengths.csv`` are written
             either way).
``compare``  emit a long-format CSV of per-iteration loss gaps across
             solvers (plot-ready) plus a restart-count table.

Configs are YAML with a ``schema_version`` key; see the README for the
full schema. Exit codes: 0 success, 1 failed invariants in ``check``, 2
invalid config, 3 unusable data, 4 any other error raised inside a cell
(one line naming the solver, the seed and the exception). All CSV output
is UTF-8 with LF line endings, and floats are written in shortest
round-trip form, so reruns of the same config produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from collections import Counter

import numpy as np
import yaml

from . import dataio, objectives, regularizers, restart
from .diagnostics import check_invariants, path_length_summary
from .solver import BASELINES, DivergenceError, SolverConfig, run, run_baseline

__all__ = ["ConfigError", "DataError", "CellError", "load_config", "run_experiment",
           "check_experiment", "compare_experiment", "main"]

SCHEMA_VERSION = 1

TRACE_COLUMNS = ("k", "F", "grad_map_norm", "step_norm", "restart", "lambda", "beta", "alpha_next")
SUMMARY_COLUMNS = ("solver", "algorithm", "scheme", "stepsize_mode", "seed",
                   "iterations", "restarts", "prox_calls", "final_F", "loss_gap", "status")


class ConfigError(ValueError):
    """Invalid experiment config; the message names the offending field."""


class DataError(ValueError):
    """Unusable problem data (malformed file, wrong labels); the message names the source."""


class CellError(RuntimeError):
    """An unexpected error inside a cell; the message names the solver, seed and exception."""


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _format_column(column) -> list:
    """Format one column's values as strings, as :func:`_fmt` would each value.

    Numpy columns are formatted by dtype in one pass: bools as ``0``/``1``,
    integers with ``str``, and float64 values with ``repr`` once per
    distinct bit pattern, since stepsize and momentum columns repeat a few
    values. Keying on bits, not on float equality, keeps ``0.0`` and
    ``-0.0`` apart.
    """
    if isinstance(column, np.ndarray):
        if column.dtype == bool:
            return list(map(("0", "1").__getitem__, column.tolist()))
        if column.dtype.kind in "iu":
            return list(map(str, column.tolist()))
        if column.dtype == np.float64:
            bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
            text = list(map(float.__repr__, bits.view(np.float64).tolist()))
            return [text[i] for i in inverse.tolist()]
    return list(map(_fmt, column))


def _write_atomic(path, lines) -> None:
    """Write the ``lines`` iterable to ``path`` through a temporary file.

    The file is renamed into place only once every line is written, so a
    failure partway, in the line generator included, leaves no temporary
    file and any earlier file at ``path`` as it was.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


#: rows formatted at a time; formatting ``check``'s 4 800-row path-length
#: table whole held about 2 MB of strings at once
_CHUNK_ROWS = 512


def _csv_lines(header, blocks):
    """Yield the header line, then each block's lines a chunk of rows at a time.

    A block is an iterable of equal-length columns, such as one trace's
    arrays or ``zip(*rows)`` of a row table. Blocks are formatted one at
    a time, so a generator of blocks is never held whole.
    """
    yield ",".join(header) + "\n"
    for block in blocks:
        columns = list(block)
        for start in range(0, len(columns[0]) if columns else 0, _CHUNK_ROWS):
            text = [_format_column(c[start:start + _CHUNK_ROWS]) for c in columns]
            yield "\n".join(map(",".join, zip(*text))) + "\n"


# ---------------------------------------------------------------------------
# config parsing

_ALGORITHMS = ("apg_restart",) + BASELINES
_OBJECTIVES = {"logistic_ncvx": objectives.LogisticObjective,
               "robust": objectives.RobustRegressionObjective,
               "quadratic": objectives.QuadraticObjective}


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


# SolverConfig fields a solver entry may set besides its scheme
_SOLVER_FIELDS = {"max_iters": (int, True), "stepsize_mode": (str, False),
                  "lambda_factor": (_NUM, False), "beta": (_NUM, False),
                  "tolerance": (_NUM, False)}


def _construct(cls, fields, node, path, **extra):
    """Call ``cls`` with ``node``'s ``fields`` (read before the call) plus ``extra``."""
    kwargs = {key: _require(node, key, path, types)
              for key, (types, required) in fields.items() if required or key in node}
    try:
        return cls(**kwargs, **extra)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _build(node, path, table, what):
    """Construct the ``table`` entry that ``node['kind']`` names from ``node``'s fields."""
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping with a 'kind' key")
    kind = _require(node, "kind", path, str)
    if kind not in table:
        raise ConfigError(f"{path}.kind: unknown {what} {kind!r}; expected one of {tuple(table)}")
    return _construct(*table[kind], node, path)


class SolverSpec:
    """One solver entry: its name, algorithm, seeds and the one config every cell runs."""

    def __init__(self, node, path):
        if not isinstance(node, dict):
            raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
        self.name = _require(node, "name", path, str)
        if not self.name or not all(c.isalnum() or c in "_-" for c in self.name):
            raise ConfigError(f"{path}.name: must be nonempty alphanumeric/_/- (got {self.name!r})")
        self.algorithm = _require(node, "algorithm", path, str, default="apg_restart", required=False)
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"{path}.algorithm: unknown algorithm {self.algorithm!r}")
        scheme = _build(node.get("scheme", {"kind": "never"}), f"{path}.scheme",
                        _SCHEMES, "scheme")
        # a field the entry leaves out takes SolverConfig's default
        self.config = _construct(SolverConfig, _SOLVER_FIELDS, node, path, scheme=scheme)
        seeds = _require(node, "seeds", path, list)
        # numpy generators take nonnegative seeds only
        if not seeds or not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0
                                for s in seeds):
            raise ConfigError(f"{path}.seeds: must be a nonempty list of nonnegative integers")
        self.seeds = list(seeds)


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
        """Name the data a cell with this seed runs on.

        The name heads data error messages and is the key under which a
        command shares one instance among its cells, so it must name every
        input of :meth:`instance`: the path, or the kind, size and data seed.
        """
        if self.source == "libsvm":
            return self.path
        return f"synthetic {self.kind} {self.n}x{self.d} seed {self._data_seed(seed)}"

    def instance(self, seed: int):
        """Build the ``(dataset, objective)`` pair for a cell.

        A libsvm source is parsed from its file; a synthetic one is
        generated at the config's ``dataset.seed`` if set, else at the cell
        seed. :meth:`describe` names the data, so two seeds it describes
        alike give equal instances.

        Raises :class:`DataError` naming the source when the data cannot
        be read or does not suit the objective.
        """
        try:
            if self.source == "libsvm":
                ds = dataio.load_libsvm(self.path, expected_dim=self.expected_dim)
            else:
                ds = dataio.generate_synthetic(self.kind, self.n, self.d, self._data_seed(seed))
            kwargs = {"alpha": self.alpha} if self.objective == "logistic_ncvx" else {}
            return ds, _OBJECTIVES[self.objective](ds.features, ds.labels, **kwargs)
        except (OSError, ValueError) as exc:
            raise DataError(f"{self.describe(seed)}: {exc}") from None


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

def _run_cell(config: ExperimentConfig, spec: SolverSpec, seed: int, instance):
    dataset, objective = instance
    cfg = spec.config
    # every mode but custom computes L (cached, so no extra work), and
    # entries near the float range's end overflow it to inf; theory
    # stepsizes and prox_grad also divide by it, and an all-zero matrix
    # under the quadratic or robust loss gives L = 0
    if cfg.stepsize_mode != "custom" or spec.algorithm == "prox_grad":
        L = objective.lipschitz()
        divides = cfg.stepsize_mode == "theory" or spec.algorithm == "prox_grad"
        if not 0.0 <= L < math.inf or (divides and L == 0.0):
            raise DataError(f"{config.problem.describe(seed)}: gradient Lipschitz estimate "
                            f"is {L!r}; solver {spec.name!r} needs a "
                            f"{'positive finite' if divides else 'finite'} one")
    x_init = np.zeros(dataset.n_cols)
    if spec.algorithm == "apg_restart":
        return run(objective, config.problem.regularizer, cfg, x_init)
    return run_baseline(spec.algorithm, objective, config.problem.regularizer, cfg, x_init)


def _cells(config: ExperimentConfig, seed_override):
    """Run every (solver, seed) cell; yield ``(spec, seed, trace, status)``.

    A cell whose objective diverged yields its partial trace and status ``"diverged"``.
    Cells on the same data share one instance, and with it the objective's
    cached Lipschitz bound: the first of them builds it, and it is
    dropped once the last of them has run. The generator lets go of each
    trace before the next cell runs, so a caller that does the same holds
    one trace at a time. Any other error than a
    :class:`ConfigError` or :class:`DataError` raised in a cell, building
    its instance included, is raised again as a :class:`CellError`.
    """
    cells = [(spec, seed) for spec in config.solvers
             for seed in ([seed_override] if seed_override is not None else spec.seeds)]
    keys = [config.problem.describe(seed) for _, seed in cells]
    cells_left = Counter(keys)
    instances = {}  # key -> (dataset, objective), while cells on it remain
    for (spec, seed), key in zip(cells, keys):
        try:
            if key not in instances:
                instances[key] = config.problem.instance(seed)
            cells_left[key] -= 1
            trace = _run_cell(config, spec, seed,
                              instances[key] if cells_left[key] else instances.pop(key))
            status = "ok"
        except DivergenceError as exc:
            trace, status = exc.trace, "diverged"
        except (ConfigError, DataError):
            raise
        except Exception as exc:
            message = " ".join(str(exc).splitlines())
            raise CellError(f"{spec.name} seed={seed}: {type(exc).__name__}: {message}") from exc
        yield spec, seed, trace, status
        del trace  # before the next cell runs


def _lowest_F(trace) -> float:
    """Lowest objective value the trace reached; the loss-gap reference is the least of these."""
    return min(float(trace.F.min()) if len(trace) else trace.final_F, trace.final_F)


def run_experiment(config: ExperimentConfig, out_dir, seed_override=None, quiet=False):
    """Execute all cells; write per-cell traces and a summary. Returns 0."""
    os.makedirs(out_dir, exist_ok=True)
    results = []  # what summary.csv reads of each cell, without its trace
    for spec, seed, trace, status in _cells(config, seed_override):
        columns = (np.arange(len(trace)), trace.F, trace.grad_map_norm, trace.step_norm,
                   trace.restart_flags, trace.lam, trace.beta, trace.alpha_next)
        _write_atomic(os.path.join(out_dir, f"{spec.name}_seed{seed}.csv"),
                      _csv_lines(TRACE_COLUMNS, [columns]))
        results.append((spec, seed, len(trace), trace.num_restarts, trace.prox_calls,
                        trace.final_F, _lowest_F(trace), status))
        if not quiet:
            print(f"{spec.name} seed={seed}: {status}, {len(trace)} iterations, "
                  f"{trace.num_restarts} restarts, final F={trace.final_F!r}")
        del trace  # before the next cell runs

    f_ref = min(lowest for *_, lowest, _ in results)
    summary_rows = (
        (spec.name, spec.algorithm, spec.config.scheme.label, spec.config.stepsize_mode, seed,
         iterations, restarts, prox_calls, final_F, final_F - f_ref, status)
        for spec, seed, iterations, restarts, prox_calls, final_F, _, status in results
    )
    _write_atomic(os.path.join(out_dir, "summary.csv"),
                  _csv_lines(SUMMARY_COLUMNS, [zip(*summary_rows)]))
    return 0


def check_experiment(config: ExperimentConfig, out_dir, seed_override=None, quiet=False):
    """Run cells and verify the theory-mode invariants. Returns 0 iff all pass."""
    for i, spec in enumerate(config.solvers):
        mode = spec.config.stepsize_mode
        if mode != "theory":
            raise ConfigError(f"solvers[{i}].stepsize_mode: invariant checks require 'theory' "
                              f"(got {mode!r}; experiment stepsizes carry no descent guarantee)")
    os.makedirs(out_dir, exist_ok=True)
    report_rows = []
    path_rows = []
    all_passed = True
    for spec, seed, trace, status in _cells(config, seed_override):
        report = check_invariants(trace, trace.lipschitz)
        report_rows.extend((spec.name, seed, c.name, c.worst_margin, c.passed, c.location)
                           for c in report.checks)
        path_rows.extend((spec.name, seed, t, l, cum) for t, l, cum in path_length_summary(trace))
        # a diverged cell fails whatever its partial trace's checks say
        failures = [] if status == "ok" else [f"{status} after {len(trace)} iterations"]
        failures += [f"{c.name} at {c.location} (margin {c.worst_margin:.3e})"
                     for c in report.checks if not c.passed]
        all_passed = all_passed and not failures
        if not quiet:
            for failure in failures:
                print(f"FAIL {spec.name} seed={seed}: {failure}", file=sys.stderr)
            print(f"{spec.name} seed={seed}: {'FAIL' if failures else 'pass'}")
        del trace  # before the next cell runs
    _write_atomic(os.path.join(out_dir, "report.csv"),
                  _csv_lines(("solver", "seed", "check", "worst_margin", "passed", "location"),
                             [zip(*report_rows)]))
    _write_atomic(os.path.join(out_dir, "path_lengths.csv"),
                  _csv_lines(("solver", "seed", "period", "path_length", "cumulative"),
                             [zip(*path_rows)]))
    return 0 if all_passed else 1


def compare_experiment(config: ExperimentConfig, out_dir, seed_override=None, quiet=False):
    """Emit long-format loss-gap curves and restart counts across solvers."""
    if len(config.solvers) < 2:
        raise ConfigError("solvers: compare needs at least two solvers")
    os.makedirs(out_dir, exist_ok=True)
    results = []  # each cell's F column, lowest F and restart count, without its trace
    for spec, seed, trace, _ in _cells(config, seed_override):
        results.append((spec.name, spec.config.scheme.label, seed, trace.F, _lowest_F(trace),
                        trace.num_restarts))
        del trace  # before the next cell runs
    f_ref = min(lowest for *_, lowest, _ in results)
    long_blocks = (([name] * len(F), [scheme] * len(F), [seed] * len(F), np.arange(len(F)),
                    F - f_ref)
                   for name, scheme, seed, F, _, _ in results)
    count_rows = [(name, scheme, seed, restarts) for name, scheme, seed, _, _, restarts in results]
    _write_atomic(os.path.join(out_dir, "compare.csv"),
                  _csv_lines(("solver", "scheme", "seed", "k", "loss_gap"), long_blocks))
    _write_atomic(os.path.join(out_dir, "restart_counts.csv"),
                  _csv_lines(("solver", "scheme", "seed", "restarts"), [zip(*count_rows)]))
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
    except CellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
