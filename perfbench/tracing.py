"""In-memory span recorder and the wrappers that attach it to proxrestart.

A span is one call of a wrapped public function or method: its name
(``<module>.<function>``), start and end on ``time.perf_counter``, the
span that was open when it began (its parent), and one number the
wrapper may attach (iterations of a solver run, bytes a matvec computed
over, whether a restart fired). Spans are kept in flat arrays and only
analysed after the workload ends.

Wrapping happens from outside the package: :func:`instrument` replaces a
function in every loaded ``proxrestart`` module that binds it, because
names are bound where they are imported (``objectives`` holds its own
``spmv``, ``cli`` its own ``run``), and replaces methods on the public
classes.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

ROOT = -1


class Tracer:
    """Flat span store; parents always precede their children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.labels: dict[int, str] = {}
        self._stack = [ROOT]

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, parent: int, start: float, end: float, value: float = 0.0) -> int:
        """Append a finished span (used by tests to build trees by hand)."""
        i = len(self.start)
        self.name_id.append(self.name_index(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.value.append(value)
        return i

    def wrap(self, fn, name: str, on_exit=None):
        """Return ``fn`` recording one span per call.

        ``on_exit(tracer, index, args, kwargs, result)`` runs after the
        span is closed, so its cost is not charged to the span. For a
        solver run that raised ``DivergenceError`` it receives the
        partial trace the exception carries.
        """
        nid = self.name_index(name)
        name_id, parent, start, end, value = self.name_id, self.parent, self.start, self.end, self.value
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            value.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[i] = clock()
                stack.pop()
                if on_exit is not None and hasattr(exc, "trace"):
                    on_exit(self, i, args, kwargs, exc.trace)
                raise
            end[i] = clock()
            stack.pop()
            if on_exit is not None:
                on_exit(self, i, args, kwargs, result)
            return result

        return span


# ---------------------------------------------------------------------------
# solver-cell labels: <objective>.<regularizer>.<scheme or baseline>

_OBJECTIVE_NAMES = {"LogisticObjective": "logistic_ncvx", "RobustRegressionObjective": "robust",
                    "QuadraticObjective": "quadratic"}
_REGULARIZER_NAMES = {"Zero": "none", "L1": "l1", "SquaredL2": "squared_l2",
                      "ElasticNet": "elastic_net"}
_SCHEME_NAMES = {"FunctionValueRestart": "function_value",
                 "GradientMappingRestart": "gradient_mapping",
                 "NonMonotoneRestart": "non_monotone", "NeverRestart": "never"}


def _kind(obj, table) -> str:
    cls = type(obj).__name__
    return table.get(cls, cls.lower())


def _scheme_name(scheme) -> str:
    if type(scheme).__name__ == "FixedRestart":
        return f"fixed_{scheme.q}"
    return _kind(scheme, _SCHEME_NAMES)


def _solver_exit(fn):
    signature = inspect.signature(fn)

    def on_exit(tracer, i, args, kwargs, trace):
        bound = signature.bind(*args, **kwargs).arguments
        method = bound["kind"] if "kind" in bound else _scheme_name(bound["cfg"].scheme)
        tracer.labels[i] = ".".join((_kind(bound["objective"], _OBJECTIVE_NAMES),
                                     _kind(bound["regularizer"], _REGULARIZER_NAMES), method))
        tracer.value[i] = len(trace)
    return on_exit


def _matvec_exit(tracer, i, args, kwargs, result):
    # Computed traffic of one CSR product: the three CSR arrays, the input
    # and the output vector, each touched once.
    A = args[0]
    tracer.value[i] = (A.vals.nbytes + A.col_idx.nbytes + A.row_ptr.nbytes
                       + 8 * (A.n_rows + A.n_cols))


def _fired_exit(tracer, i, args, kwargs, result):
    tracer.value[i] = 1.0 if result else 0.0


def _text_bytes_exit(tracer, i, args, kwargs, result):
    lines = args[0] if args else kwargs["lines"]
    tracer.value[i] = sum(len(line) for line in lines) if isinstance(lines, list) else 0.0


# ---------------------------------------------------------------------------
# instrumentation

def _replace_function(tracer, original, name, on_exit=None):
    wrapped = tracer.wrap(original, name, on_exit)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("proxrestart"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _replace_method(tracer, cls, method, name, on_exit=None):
    setattr(cls, method, tracer.wrap(getattr(cls, method), name, on_exit))


def instrument(tracer: Tracer, full: bool) -> None:
    """Wrap proxrestart's public entry points.

    With ``full=False`` only the set-up calls and the solver runs are
    wrapped: a few spans per cell, enough for ``setup_s`` and
    ``us_per_iter``. With ``full=True`` every layer boundary the
    per-layer metrics need is wrapped too.
    """
    from proxrestart import cli, dataio, diagnostics, linalg, objectives, regularizers, restart, solver

    objective_classes = (objectives.LogisticObjective, objectives.RobustRegressionObjective,
                         objectives.QuadraticObjective)
    for cls in objective_classes:
        _replace_method(tracer, cls, "__init__", "objectives.init")
        _replace_method(tracer, cls, "lipschitz", "objectives.lipschitz")
    _replace_function(tracer, dataio.generate_synthetic, "dataio.generate_synthetic")
    _replace_function(tracer, dataio.parse_libsvm, "dataio.parse_libsvm",
                      _text_bytes_exit if full else None)
    _replace_function(tracer, solver.run, "solver.run", _solver_exit(solver.run))
    _replace_function(tracer, solver.run_baseline, "solver.run_baseline",
                      _solver_exit(solver.run_baseline))
    if not full:
        return

    _replace_function(tracer, linalg.spmv, "linalg.spmv", _matvec_exit)
    _replace_function(tracer, linalg.spmv_transpose, "linalg.spmv_transpose", _matvec_exit)
    _replace_function(tracer, linalg.spectral_norm_sq, "linalg.spectral_norm_sq")
    _replace_method(tracer, linalg.CsrMatrix, "__init__", "linalg.CsrMatrix")
    for cls in objective_classes:
        _replace_method(tracer, cls, "value", "objectives.value")
        _replace_method(tracer, cls, "gradient", "objectives.gradient")
    for cls in (regularizers.Zero, regularizers.L1, regularizers.SquaredL2, regularizers.ElasticNet):
        _replace_method(tracer, cls, "value", "regularizers.value")
        _replace_method(tracer, cls, "prox", "regularizers.prox")
        _replace_method(tracer, cls, "subdiff_distance", "regularizers.subdiff_distance")
    _replace_function(tracer, regularizers.gradient_mapping, "regularizers.gradient_mapping")
    for cls in (restart.FixedRestart, restart.FunctionValueRestart, restart.GradientMappingRestart,
                restart.NonMonotoneRestart, restart.NeverRestart):
        _replace_method(tracer, cls, "should_restart", "restart.should_restart", _fired_exit)
    _replace_function(tracer, diagnostics.check_invariants, "diagnostics.check_invariants")
    _replace_function(tracer, diagnostics.path_length_summary, "diagnostics.path_length_summary")
    _replace_function(tracer, cli.load_config, "cli.load_config")
    _replace_function(tracer, cli.run_experiment, "cli.run_experiment")
    _replace_function(tracer, cli.check_experiment, "cli.check_experiment")
