"""Benchmark front end: run experiment grids and verify traces.

Subcommands
-----------
``run``      execute every (solver, seed) cell of a config, writing one
             iteration-trace CSV per cell plus ``summary.csv``.
``check``    run the cells and verify the theory-mode trace inequalities;
             exit 0 only if no cell diverges and every check passes, 1
             otherwise (``report.csv`` + ``path_lengths.csv`` are written
             either way).

Configs are YAML with a ``schema_version`` key; see the README for the
full schema. Exit codes: 0 success, 1 failed invariants in ``check``, 2
invalid config, 3 unusable data, 4 any other error raised inside a cell
(one line naming the solver, the seed and the exception) or an output
that cannot be written (one line naming the exception). All CSV output
is UTF-8 with LF line endings, and floats are written in shortest
round-trip form, so reruns of the same config produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

import numpy as np
import yaml

from . import dataio, objectives, regularizers, restart
from ._checks import number
from .diagnostics import check_invariants, path_length_summary
from .solver import (BASELINES, DivergenceError, LipschitzError, SolverConfig, run,
                     run_baseline)

__all__ = ["ConfigError", "DataError", "CellError", "load_config", "run_experiment",
           "check_experiment", "main"]

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


def _format_column(column) -> list:
    """Format one column of values of one type as strings, by its numpy dtype.

    Bools are written as ``0``/``1``, integers and strings with ``str``,
    and float64 values with ``repr`` once per distinct bit pattern, since
    stepsize and momentum columns repeat a few values. Keying on bits, not
    on float equality, keeps ``0.0`` and ``-0.0`` apart.
    """
    if not isinstance(column, np.ndarray):
        # numpy would widen ints that span int64 and uint64 (seeds may) to float64
        column = np.array(column, dtype=object if column and type(column[0]) is int else None)
    if column.dtype == bool:
        return list(map(("0", "1").__getitem__, column.tolist()))
    if column.dtype == np.float64:
        bits, inverse = np.unique(column.view(np.uint64), return_inverse=True)
        text = list(map(float.__repr__, bits.view(np.float64).tolist()))
        return [text[i] for i in inverse.tolist()]
    return list(map(str, column.tolist()))


def _write_atomic(path, lines) -> None:
    """Write the ``lines`` iterable to ``path`` through a temporary file.

    The file is renamed into place only once every line is written, so a
    failure partway, in the line generator included, leaves no temporary
    file and any earlier file at ``path`` as it was. Created with mode
    0666 less the umask, the file gets the mode ``open(path, "w")`` gives.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the table, not tmp
            raise OSError(exc.errno, exc.strerror, path) from None
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
#
# Each section is read through a table {field: (types, required)}. A field
# the config leaves out is not passed on, so the library's own default
# applies, and a key outside the table is refused. A tagged section's tag
# picks its table: tag value -> (what the section builds, table).

_ALGORITHMS = ("apg_restart",) + BASELINES
_NUM = (int, float)
_TYPE_NAMES = {int: "an integer", _NUM: "a number", str: "a string", list: "a list",
               dict: "a mapping", (dict, type(None)): "a mapping or null"}

_ROOT = {"schema_version": (int, True), "problem": (dict, True), "solvers": (list, True)}
_PROBLEM = {"regularizer": ((dict, type(None)), False), "dataset": (dict, True)}
_OBJECTIVES = {
    "logistic_ncvx": (objectives.LogisticObjective, {**_PROBLEM, "alpha": (_NUM, False)}),
    "robust": (objectives.RobustRegressionObjective, _PROBLEM),
    "quadratic": (objectives.QuadraticObjective, _PROBLEM),
}
# a cell builds its dataset from the source's name and fields
_DATASETS = {
    "synthetic": ("synthetic", {"kind": (str, True), "n": (int, True), "d": (int, True),
                                "seed": (int, False)}),
    "libsvm": ("libsvm", {"path": (str, True), "expected_dim": (int, False)}),
}
_MIN_PERIOD = {"min_period": (int, False)}  # the adaptive schemes only
_SCHEMES = {cls.kind: (cls, table) for cls, table in (
    (restart.FixedRestart, {"q": (int, True)}),
    (restart.FunctionValueRestart, {"rho": (_NUM, False), **_MIN_PERIOD}),
    (restart.GradientMappingRestart, {"tau": (_NUM, False), **_MIN_PERIOD}),
    (restart.NonMonotoneRestart, {"tau": (_NUM, False), **_MIN_PERIOD}),
    (restart.NeverRestart, {}),
)}
_REGULARIZERS = {
    "none": (regularizers.Zero, {}),
    "l1": (regularizers.L1, {"mu": (_NUM, True)}),
    "squared_l2": (regularizers.SquaredL2, {"mu": (_NUM, True)}),
    "elastic_net": (regularizers.ElasticNet, {"mu1": (_NUM, True), "mu2": (_NUM, True)}),
}
_SOLVER = {"name": (str, True), "algorithm": (str, False), "scheme": (dict, False),
           "seeds": (list, True), "max_iters": (int, True), "stepsize_mode": (str, False),
           "lambda_factor": (_NUM, False), "beta": (_NUM, False), "tolerance": (_NUM, False)}


def _require(mapping, key, path, types):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}: missing required field")
    value = mapping[key]
    # YAML booleans pass isinstance(value, int), and no field takes one
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}: expected {_TYPE_NAMES[types]}, "
                          f"got {type(value).__name__}")
    return value


def _read(node, fields, path, tag=None):
    """Return the values of ``fields`` that the config section ``node`` sets.

    With ``tag``, ``node[tag]`` picks ``(target, table)`` from ``fields``
    and the result is ``(target, values of table)``.
    """
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    if tag is not None:
        value = _require(node, tag, path, str)
        if value not in fields:
            raise ConfigError(f"{path}.{tag}: unknown {tag} {value!r}; "
                              f"expected one of {tuple(fields)}")
        target, fields = fields[value]
    for key in node:
        if key != tag and key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field; expected one of {tuple(fields)}")
    values = {key: _require(node, key, path, types)
              for key, (types, required) in fields.items() if required or key in node}
    return values if tag is None else (target, values)


def _make(build, kwargs, path):
    """Return ``build(**kwargs)``, a ``ValueError`` it raises being a config error at ``path``.

    A message ``"<name> must be ..."`` that names one of ``kwargs``, the
    form of the library's parameter checks, is filed under that field.
    """
    try:
        return build(**kwargs)
    except ValueError as exc:
        name, _, rule = str(exc).partition(" must be ")
        raise ConfigError(f"{path}.{name}: must be {rule}" if name in kwargs
                          else f"{path}: {exc}") from None


def _check_seed(seed, path) -> None:
    """Check ``seed`` by dataio's rule: numpy generators take nonnegative integers only."""
    try:
        number("seed", seed, 0, integer=True)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


class SolverSpec:
    """One solver entry: its name, algorithm, seeds and the one config every cell runs."""

    def __init__(self, node, path):
        fields = _read(node, _SOLVER, path)
        self.name = fields.pop("name")
        if not self.name or not all(c.isalnum() or c in "_-" for c in self.name):
            raise ConfigError(f"{path}.name: must be nonempty alphanumeric/_/- (got {self.name!r})")
        self.algorithm = fields.pop("algorithm", "apg_restart")
        if self.algorithm not in _ALGORITHMS:
            raise ConfigError(f"{path}.algorithm: unknown algorithm {self.algorithm!r}; "
                              f"expected one of {_ALGORITHMS}")
        if self.algorithm in BASELINES and "scheme" in fields:
            raise ConfigError(f"{path}.scheme: {self.algorithm} never restarts and takes no scheme")
        scheme = _make(*_read(fields.pop("scheme", {"kind": "never"}), _SCHEMES,
                              f"{path}.scheme", tag="kind"), f"{path}.scheme")
        self.seeds = fields.pop("seeds")
        if not self.seeds:
            raise ConfigError(f"{path}.seeds: must be a nonempty list")
        for seed in self.seeds:
            _check_seed(seed, f"{path}.seeds")
        repeated = [seed for seed, count in Counter(self.seeds).items() if count > 1]
        if repeated:  # the cell would run, and write its trace, twice
            raise ConfigError(f"{path}.seeds: seed {repeated[0]} is repeated")
        # a field the entry leaves out takes SolverConfig's default
        self.config = _make(SolverConfig, {**fields, "scheme": scheme}, path)


class ProblemSpec:
    def __init__(self, node, path="problem"):
        self.objective, fields = _read(node, _OBJECTIVES, path, tag="objective")
        reg, dataset = fields.pop("regularizer", None), fields.pop("dataset")
        self.objective_args = fields  # such as the logistic loss's alpha
        # the library's own checks, so that a bad value fails before any cell runs
        if "alpha" in fields:
            _make(objectives._check_alpha, fields, path)
        self.regularizer = _make(*_read({"kind": "none"} if reg is None else reg, _REGULARIZERS,
                                        f"{path}.regularizer", tag="kind"), f"{path}.regularizer")
        dpath = f"{path}.dataset"
        self.source, self.data = _read(dataset, _DATASETS, dpath, tag="source")
        if self.source == "synthetic":  # a seed left out is the cell's, checked with its solver
            _make(dataio._check_synthetic, {"seed": 0, **self.data}, dpath)
        elif not os.path.exists(self.data["path"]):
            raise ConfigError(f"{dpath}.path: file not found: {self.data['path']}")
        elif "expected_dim" in self.data:
            _make(dataio._check_expected_dim, {"expected_dim": self.data["expected_dim"]}, dpath)

    def describe(self, seed: int) -> str:
        """Name the data a cell with this seed runs on.

        The name heads data error messages and is the key under which a
        command shares one instance among its cells, so it must name every
        input of :meth:`instance`: the path, or the kind, size and data seed.
        """
        if self.source == "libsvm":
            return self.data["path"]
        # a pinned dataset seed overrides the cell seed
        return "synthetic {kind} {n}x{d} seed {seed}".format(**{"seed": seed, **self.data})

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
                ds = dataio.load_libsvm(**self.data)
            else:
                ds = dataio.generate_synthetic(**{"seed": seed, **self.data})
            return ds, self.objective(ds.features, ds.labels, **self.objective_args)
        except (OSError, ValueError) as exc:
            raise DataError(f"{self.describe(seed)}: {exc}") from None


class ExperimentConfig:
    def __init__(self, doc):
        # checked first: a document of another version may hold fields this one does not know
        if isinstance(doc, dict) and "schema_version" in doc:
            version = _require(doc, "schema_version", "<root>", int)
            if version != SCHEMA_VERSION:
                raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
        fields = _read(doc, _ROOT, "<root>")
        self.problem = ProblemSpec(fields["problem"])
        if not fields["solvers"]:
            raise ConfigError("solvers: at least one solver is required")
        self.solvers = [SolverSpec(node, f"solvers[{i}]")
                        for i, node in enumerate(fields["solvers"])]
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
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"config is not valid YAML: {message}") from None
    return ExperimentConfig(doc)


# ---------------------------------------------------------------------------
# execution

def _run_cell(config: ExperimentConfig, spec: SolverSpec, instance):
    dataset, objective = instance
    x_init = np.zeros(dataset.n_cols)
    if spec.algorithm == "apg_restart":
        return run(objective, config.problem.regularizer, spec.config, x_init)
    return run_baseline(spec.algorithm, objective, config.problem.regularizer, spec.config, x_init)


def _grid(config: ExperimentConfig, seed_override):
    return [(spec, seed) for spec in config.solvers
            for seed in ([seed_override] if seed_override is not None else spec.seeds)]


def _open_out(out_dir, tables) -> None:
    """Create ``out_dir``; refuse, before any cell runs, a table name a directory holds."""
    os.makedirs(out_dir, exist_ok=True)
    for path in (os.path.join(out_dir, name) for name in tables):
        if os.path.isdir(path):
            raise IsADirectoryError(f"output table {path!r} is a directory")


def _cells(config: ExperimentConfig, seed_override):
    """Run every (solver, seed) cell; yield ``(spec, seed, trace, status)``.

    A cell whose objective diverged yields its partial trace and status ``"diverged"``.
    Cells on the same data share one instance, and with it the objective's
    cached Lipschitz bound: the first of them builds it, and it is
    dropped once the last of them has run. The generator lets go of each
    trace before the next cell runs, so a caller that does the same holds
    one trace at a time. A :class:`~proxrestart.solver.LipschitzError` is
    raised again as a :class:`DataError`, and any other error than a
    :class:`ConfigError` or :class:`DataError` raised in a cell, building
    its instance included, as a :class:`CellError`.
    """
    cells = _grid(config, seed_override)
    keys = [config.problem.describe(seed) for _, seed in cells]
    cells_left = Counter(keys)
    instances = {}  # key -> (dataset, objective), while cells on it remain
    for (spec, seed), key in zip(cells, keys):
        try:
            if key not in instances:
                instances[key] = config.problem.instance(seed)
            cells_left[key] -= 1
            trace = _run_cell(config, spec,
                              instances[key] if cells_left[key] else instances.pop(key))
            status = "ok"
        except DivergenceError as exc:
            trace, status = exc.trace, "diverged"
        except LipschitzError as exc:
            raise DataError(f"{key}: solver {spec.name!r}: {exc}") from None
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
    _open_out(out_dir, [*(f"{spec.name}_seed{seed}.csv"
                          for spec, seed in _grid(config, seed_override)), "summary.csv"])
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
    """Run cells and verify the theory-mode invariants. Returns 0 iff all pass.

    Each cell is checked against its own trace's ``lipschitz``, the bound
    its stepsizes were set from, so a verdict holds relative to that
    bound: a wrong bound would not be noticed here.

    ``path_lengths.csv`` is written as the cells finish: each cell's rows
    go out as one block while the grid runs, in a temporary file
    ``path_lengths.csv.<pid>.tmp`` that is renamed into place after the
    last cell, so only one cell's path-length rows are held at a time.
    ``report.csv`` is written after the last cell. A cell that raises
    writes neither table and leaves no temporary file.
    """
    for i, spec in enumerate(config.solvers):
        mode = spec.config.stepsize_mode
        if mode != "theory":
            raise ConfigError(f"solvers[{i}].stepsize_mode: invariant checks require 'theory' "
                              f"(got {mode!r}; experiment stepsizes carry no descent guarantee)")
    _open_out(out_dir, ["report.csv", "path_lengths.csv"])
    report_rows = []
    all_passed = True

    def path_blocks():
        nonlocal all_passed
        for spec, seed, trace, status in _cells(config, seed_override):
            report = check_invariants(trace, trace.lipschitz)
            report_rows.extend((spec.name, seed, c.name, c.worst_margin, c.passed, c.location)
                               for c in report.checks)
            # a diverged cell fails whatever its partial trace's checks say
            failures = [] if status == "ok" else [f"{status} after {len(trace)} iterations"]
            failures += [f"{c.name} at {c.location} (margin {c.worst_margin:.3e})"
                         for c in report.checks if not c.passed]
            all_passed = all_passed and not failures
            if not quiet:
                for failure in failures:
                    print(f"FAIL {spec.name} seed={seed}: {failure}", file=sys.stderr)
                print(f"{spec.name} seed={seed}: {'FAIL' if failures else 'pass'}")
            rows = path_length_summary(trace)
            del trace  # before the next cell runs
            yield zip(*((spec.name, seed, t, l, cum) for t, l, cum in rows))

    _write_atomic(os.path.join(out_dir, "path_lengths.csv"),
                  _csv_lines(("solver", "seed", "period", "path_length", "cumulative"),
                             path_blocks()))
    _write_atomic(os.path.join(out_dir, "report.csv"),
                  _csv_lines(("solver", "seed", "check", "worst_margin", "passed", "location"),
                             [zip(*report_rows)]))
    return 0 if all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="proxrestart",
        description="Benchmark and verification front end for the restart solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run", "execute the configured cells and write trace/summary CSVs"),
        ("check", "run cells and verify the theory-mode trace inequalities"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the YAML experiment config")
        p.add_argument("--out", default="./results", help="output directory (default ./results)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="run every solver with this single seed")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)
    if args.seed_override is not None:
        try:
            _check_seed(args.seed_override, "--seed-override")
        except ConfigError as exc:
            parser.error(str(exc))

    try:
        config = load_config(args.config)
        command = {"run": run_experiment, "check": check_experiment}[args.command]
        return command(config, args.out, seed_override=args.seed_override, quiet=args.quiet)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (CellError, OSError) as exc:  # an OSError here failed to write an output
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
