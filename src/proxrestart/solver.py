"""Momentum-accelerated proximal gradient with parameter restart, plus baselines.

The main iteration maintains three sequences ``x_k`` (the iterate),
``y_k`` (an auxiliary anchor) and ``z_k`` (the extrapolated query point).
One iteration, with ``Q`` the checkpoint that opened the current period:

    restart branch (iff this iteration starts a period):  y_k = x_k, Q = k
    alpha = 2 / (k - Q + 3)            # momentum weight used at this step
    z_k   = y_k + alpha * (x_k - y_k)
    G     = (x_k - prox(x_k - lam * grad_f(z_k), lam)) / lam
    x_{k+1} = x_k - lam * G
    y_{k+1} = z_k - beta * G

Both updates share the single proximal/gradient evaluation ``G`` -- one
prox call and one gradient call per iteration, which is the efficiency
edge over the classical accelerated method (``run_baseline("ag")``) that
performs two independent proximal updates.

Restart scheduling is decided online: the configured scheme inspects each
finished iteration and, when it fires, the next iteration executes the
restart branch. Restarting re-synchronizes ``y`` with the newest iterate
and resets the momentum weight, which suppresses extrapolation overshoot;
no computed step is ever discarded.

Stepsize modes:

* ``"theory"``     -- ``beta = 1/(8 L)`` with ``L`` the objective's
  gradient-Lipschitz bound. Every trace produced in this mode satisfies
  checkable per-period descent and stationarity inequalities (see
  :mod:`proxrestart.diagnostics`).
* ``"experiment"`` -- ``beta = 1``, the aggressive practical choice. No
  descent certificate; the divergence guard may trip.
* ``"custom"``     -- caller-provided ``beta``.

In every mode ``lam = beta * (1 + lambda_factor * alpha)``; the factor
sweeps the admissible interval ``[beta, (1 + alpha) * beta]`` and defaults
to its upper end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .regularizers import gradient_mapping
from .restart import NeverRestart, RestartObservation

__all__ = [
    "SolverConfig",
    "SolverState",
    "StepRecord",
    "PeriodRecord",
    "SolverTrace",
    "DivergenceError",
    "momentum_coefficient",
    "apg_restart_step",
    "run",
    "run_baseline",
    "BASELINES",
]

_MODES = ("theory", "experiment", "custom")
BASELINES = ("prox_grad", "ag", "apg_never")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the restart solver and the baselines."""

    max_iters: int
    stepsize_mode: str = "theory"
    lambda_factor: float = 1.0
    beta: float | None = None
    tolerance: float = 0.0
    seed: int = 0
    scheme: object = field(default_factory=NeverRestart)

    def __post_init__(self):
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.stepsize_mode not in _MODES:
            raise ValueError(f"stepsize_mode must be one of {_MODES}")
        if not 0.0 <= self.lambda_factor <= 1.0:
            raise ValueError("lambda_factor must lie in [0, 1]")
        if self.stepsize_mode == "custom" and (self.beta is None or self.beta <= 0):
            raise ValueError("custom stepsize mode requires beta > 0")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")


@dataclass(frozen=True)
class PeriodRecord:
    """Per-period summary row.

    ``path_length`` is sqrt(sum of squared step norms) over the period's
    iterations and ``subdiff_dist`` the exact distance from zero to the
    composite subdifferential at the checkpoint iterate.
    """

    t: int
    checkpoint: int
    F: float
    path_length: float
    subdiff_dist: float


class SolverTrace:
    """Complete per-iteration and per-period record of one solver run.

    Iteration arrays (one entry per iteration ``k``):

    ``F``              objective value at the start-of-iteration iterate
    ``grad_map_norm``  norm of the gradient mapping at the query point
                       ``z_k`` (the solver's stationarity measure)
    ``step_norm``      ``||x_{k+1} - x_k||``
    ``restart_flags``  True where the restart branch ran
    ``lam``, ``beta``, ``alpha_next``  stepsizes and momentum weight used

    ``periods`` holds one :class:`PeriodRecord` per (possibly partial)
    period; ``checkpoint_points`` the corresponding iterates. Traces are
    immutable once built and safe to share.
    """

    def __init__(self, algorithm, stepsize_mode, seed, lipschitz, F, grad_map_norm,
                 step_norm, restart_flags, lam, beta, alpha_next, periods,
                 checkpoint_points, final_x, final_F, prox_calls, gradient_calls,
                 iterates=None):
        self.algorithm = algorithm
        self.stepsize_mode = stepsize_mode
        self.seed = seed
        self.lipschitz = lipschitz
        self.F = np.asarray(F, dtype=np.float64)
        self.grad_map_norm = np.asarray(grad_map_norm, dtype=np.float64)
        self.step_norm = np.asarray(step_norm, dtype=np.float64)
        self.restart_flags = np.asarray(restart_flags, dtype=bool)
        self.lam = np.asarray(lam, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)
        self.alpha_next = np.asarray(alpha_next, dtype=np.float64)
        self.periods = tuple(periods)
        self.checkpoint_points = tuple(np.asarray(p, dtype=np.float64) for p in checkpoint_points)
        self.final_x = np.asarray(final_x, dtype=np.float64)
        self.final_F = float(final_F)
        self.prox_calls = int(prox_calls)
        self.gradient_calls = int(gradient_calls)
        self.iterates = None if iterates is None else tuple(iterates)

    def __len__(self):
        return len(self.F)

    @property
    def num_restarts(self) -> int:
        """Restarts after the initial checkpoint at iteration 0."""
        if len(self.restart_flags) == 0:
            return 0
        return int(self.restart_flags[1:].sum())

    def checkpoints(self) -> np.ndarray:
        return np.array([p.checkpoint for p in self.periods], dtype=np.int64)

    def period_step_sq_sum(self, t: int) -> float:
        """Sum of squared step norms over period ``t``, from iteration rows."""
        start = self.periods[t].checkpoint
        end = self.periods[t + 1].checkpoint if t + 1 < len(self.periods) else len(self)
        seg = self.step_norm[start:end]
        return float(np.dot(seg, seg))


class DivergenceError(RuntimeError):
    """Objective blew up; ``.trace`` holds the partial record."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, with the bits of ``np.linalg.norm``.

    ``np.linalg.norm`` computes ``sqrt(v.dot(v))`` too, and both square
    roots are correctly rounded; this form skips its dispatch overhead.
    """
    return math.sqrt(v.dot(v))


def momentum_coefficient(k: int, checkpoint: int) -> float:
    """Momentum weight 2 / (k - checkpoint + 2); equals 1 at the checkpoint."""
    if k < checkpoint:
        raise ValueError(f"iteration {k} precedes checkpoint {checkpoint}")
    return 2.0 / (k - checkpoint + 2.0)


@dataclass
class SolverState:
    """Position of a solver between iterations.

    ``pending_restart`` marks that the next call to
    :func:`apg_restart_step` must execute the restart branch; it starts
    True so iteration 0 opens the first period. The baselines use only
    ``x``, ``y``, ``F`` and ``k``.
    """

    x: np.ndarray
    y: np.ndarray
    F: float
    k: int = 0
    checkpoint: int = 0
    period: int = -1
    pending_restart: bool = True


class StepRecord(NamedTuple):
    """Everything one iteration produced, ready for trace assembly.

    ``F`` is the objective at the iterate the step started from and
    ``F_new`` at the one it produced. ``checkpoint_subdiff`` is only set
    when the step opened a period (it is the exact subdifferential
    distance at the fresh checkpoint, a free by-product of the gradient
    evaluation there). The first seven fields are the trace's iteration
    columns, in :class:`SolverTrace` order.
    """

    F: float
    grad_map_norm: float
    step_norm: float
    restarted: bool
    lam: float
    beta: float
    alpha_next: float
    F_new: float
    fire_restart: bool
    checkpoint_subdiff: float | None


def apg_restart_step(state: SolverState, objective, regularizer,
                     cfg: SolverConfig, beta: float | None = None):
    """Execute one iteration of the restart solver.

    Performs the (possible) restart branch, the extrapolation, and both
    variable updates through one shared gradient-mapping evaluation:
    exactly one proximal call and one gradient call drive the update (a
    second, purely diagnostic proximal call computes the recorded
    gradient-mapping norm at the query point). Returns
    ``(next_state, record)`` without mutating ``state``. ``beta``
    defaults to the configured stepsize mode's value.
    """
    if beta is None:
        beta = _resolve_beta(objective, cfg)[0]
    k = state.k
    x, y, F_x = state.x, state.y, state.F
    if state.pending_restart:
        y = x.copy()          # re-synchronize: x_k = y_k exactly
        checkpoint = k
        period = state.period + 1
        restarted = True
    else:
        checkpoint = state.checkpoint
        period = state.period
        restarted = False
    alpha = momentum_coefficient(k + 1, checkpoint)
    lam = beta * (1.0 + cfg.lambda_factor * alpha)
    z = y + alpha * (x - y)   # equals x bit-exactly right after a restart
    grad_z = objective.gradient(z)
    G = gradient_mapping(regularizer, lam, x, grad_z)
    if restarted:
        # z == x at a checkpoint, so grad_z doubles as the gradient at the
        # checkpoint iterate and the stationarity diagnostics come free.
        gnorm = _norm(G)
        subdiff = regularizer.subdiff_distance(grad_z, x)
    else:
        gnorm = _norm(gradient_mapping(regularizer, lam, z, grad_z))
        subdiff = None

    x_new = x - lam * G
    y_new = z - beta * G
    F_new = objective.value(x_new) + regularizer.value(x_new)
    step = _norm(x_new - x)

    fire = cfg.scheme.should_restart(RestartObservation(
        k=k, since_restart=k - checkpoint, F_curr=F_new, F_prev=F_x,
        x_k=x, y_k=y, z_k=z, y_next=y_new,
    ))
    record = StepRecord(F_x, gnorm, step, restarted, lam, beta, alpha,
                        F_new, fire, subdiff)
    next_state = SolverState(x=x_new, y=y_new, F=F_new, k=k + 1,
                             checkpoint=checkpoint, period=period,
                             pending_restart=fire)
    return next_state, record


class _TraceBuilder:
    def __init__(self, algorithm, mode, seed, lipschitz, prox_per_iter, record_iterates):
        self.algorithm = algorithm
        self.mode = mode
        self.seed = seed
        self.lipschitz = lipschitz
        self.prox_per_iter = prox_per_iter
        self.rows = []
        self.openings = []  # (checkpoint, F, subdiff) of each period
        self.checkpoint_points = []
        self.iterates = [] if record_iterates else None

    def open_period(self, k, F, subdiff, point):
        self.openings.append((k, F, subdiff))
        self.checkpoint_points.append(np.array(point, copy=True))

    def build(self, final_x, final_F):
        n = len(self.rows)
        columns = list(zip(*self.rows))[:7] if n else [()] * 7
        ends = [k for k, _, _ in self.openings[1:]] + [n]
        periods = []
        for t, ((checkpoint, F, subdiff), end) in enumerate(zip(self.openings, ends)):
            sq_sum = 0.0  # summed in row order, not by np.dot, so the bits stay fixed
            for step in columns[2][checkpoint:end]:
                sq_sum += step * step
            periods.append(PeriodRecord(t, checkpoint, F, float(np.sqrt(sq_sum)), subdiff))
        return SolverTrace(
            self.algorithm, self.mode, self.seed, self.lipschitz, *columns, periods,
            self.checkpoint_points, final_x, final_F,
            self.prox_per_iter * n, n, self.iterates,
        )


def _resolve_beta(objective, cfg: SolverConfig):
    """Return (beta, lipschitz-or-None) for the configured stepsize mode."""
    if cfg.stepsize_mode == "theory":
        L = objective.lipschitz(cfg.seed)
        if L <= 0:
            raise ValueError("theory stepsizes need a positive Lipschitz estimate")
        return 1.0 / (8.0 * L), L
    if cfg.stepsize_mode == "experiment":
        return 1.0, objective.lipschitz(cfg.seed)
    return float(cfg.beta), None


def _drive(algorithm, step, prox_per_iter, beta, lipschitz, objective, regularizer,
           cfg: SolverConfig, x_init, record_iterates) -> SolverTrace:
    """Iterate ``step`` from ``x_init`` and assemble the trace.

    ``step(state, objective, regularizer, cfg, beta)`` returns
    ``(next_state, record)`` like :func:`apg_restart_step`. Everything
    outside the update lives here: the divergence guard, the tolerance
    stop, period bookkeeping and the recorded iterates.
    """
    x = np.array(x_init, dtype=np.float64, copy=True)
    F_0 = objective.value(x) + regularizer.value(x)
    F_cap = 1e12 * (1.0 + abs(F_0))
    state = SolverState(x, x.copy(), F_0)
    builder = _TraceBuilder(algorithm, cfg.stepsize_mode, cfg.seed, lipschitz, prox_per_iter,
                            record_iterates)

    for k in range(cfg.max_iters):
        x = state.x
        state, rec = step(state, objective, regularizer, cfg, beta)
        if rec.restarted:
            builder.open_period(k, rec.F, rec.checkpoint_subdiff, x)
        if record_iterates:
            builder.iterates.append(x.copy())
        builder.rows.append(rec)
        if not (math.isfinite(rec.F_new) and rec.F_new <= F_cap):
            raise DivergenceError(
                f"objective diverged: objective reached {rec.F_new!r}, "
                "aborting with partial trace",
                builder.build(x, rec.F_new),
            )
        if cfg.tolerance > 0.0 and rec.grad_map_norm <= cfg.tolerance:
            break

    if record_iterates:
        builder.iterates.append(state.x.copy())
    if cfg.max_iters == 0:
        # record the initial checkpoint anyway
        builder.open_period(0, state.F,
                            regularizer.subdiff_distance(objective.gradient(state.x), state.x),
                            state.x)
    return builder.build(state.x, state.F)


def run(objective, regularizer, cfg: SolverConfig, x_init,
        record_iterates: bool = False) -> SolverTrace:
    """Run the momentum-restart proximal gradient solver.

    Iterates ``cfg.max_iters`` times from ``x_init`` (or stops earlier
    once the gradient-mapping norm falls to ``cfg.tolerance``, if that is
    positive). The run is deterministic given the inputs; rerunning with
    the same configuration reproduces the trace bit for bit.

    Parameters
    ----------
    objective : objective with ``value``/``gradient``/``lipschitz``
    regularizer : regularizer with ``value``/``prox``/``subdiff_distance``
    cfg : SolverConfig
    x_init : array of shape (dim,)
    record_iterates : bool
        Also store every iterate on the trace (memory grows with the
        iteration count; meant for tests and small studies).

    Raises
    ------
    DivergenceError
        If the objective exceeds ``1e12 * (1 + |F(x_init)|)`` or turns
        nonfinite. The partial trace rides on the exception.
    """
    beta, L = _resolve_beta(objective, cfg)
    return _drive("apg_restart", apg_restart_step, 1, beta, L, objective, regularizer, cfg,
                  x_init, record_iterates)


def _prox_grad_step(state, objective, regularizer, cfg, eta):
    """One proximal gradient step with stepsize ``eta`` (the unaccelerated baseline)."""
    x, k = state.x, state.k
    grad = objective.gradient(x)
    subdiff = regularizer.subdiff_distance(grad, x) if k == 0 else None
    x_new = regularizer.prox(x - eta * grad, eta)
    step = _norm(x_new - x)
    F_new = objective.value(x_new) + regularizer.value(x_new)
    return (SolverState(x_new, x_new, F_new, k + 1),
            StepRecord(state.F, step / eta, step, k == 0, eta, eta, 0.0, F_new, False, subdiff))


def _ag_step(state, objective, regularizer, cfg, beta):
    """Classical accelerated gradient: two proximal updates per iteration.

    Same extrapolation and momentum schedule as the restart solver with
    restarts disabled, but ``x`` and ``y`` are updated through separate
    proximal steps instead of sharing one gradient-mapping evaluation.
    """
    x, y, k = state.x, state.y, state.k
    alpha = momentum_coefficient(k + 1, 0)
    lam = beta * (1.0 + cfg.lambda_factor * alpha)
    z = y + alpha * (x - y)
    grad_z = objective.gradient(z)
    subdiff = regularizer.subdiff_distance(grad_z, x) if k == 0 else None
    gnorm = _norm(gradient_mapping(regularizer, lam, z, grad_z))
    x_new = regularizer.prox(x - lam * grad_z, lam)
    y_new = regularizer.prox(z - beta * grad_z, lam)
    F_new = objective.value(x_new) + regularizer.value(x_new)
    step = _norm(x_new - x)
    return (SolverState(x_new, y_new, F_new, k + 1),
            StepRecord(state.F, gnorm, step, k == 0, lam, beta, alpha, F_new, False, subdiff))


def run_baseline(kind: str, objective, regularizer, cfg: SolverConfig, x_init,
                 record_iterates: bool = False) -> SolverTrace:
    """Run a comparison baseline: ``"prox_grad"``, ``"ag"`` or ``"apg_never"``.

    ``apg_never`` is the restart solver with restarts disabled (a single
    momentum period); ``ag`` is the classical accelerated method with two
    proximal updates per iteration; ``prox_grad`` is unaccelerated
    proximal gradient with stepsize 1/L.
    """
    if kind == "prox_grad":
        L = objective.lipschitz(cfg.seed)
        if L <= 0:
            raise ValueError("proximal gradient baseline needs a positive Lipschitz estimate")
        return _drive(kind, _prox_grad_step, 1, 1.0 / L, L, objective, regularizer, cfg,
                      x_init, record_iterates)
    if kind == "ag":
        beta, L = _resolve_beta(objective, cfg)
        return _drive(kind, _ag_step, 2, beta, L, objective, regularizer, cfg,
                      x_init, record_iterates)
    if kind == "apg_never":
        cfg = replace(cfg, scheme=NeverRestart())
        beta, L = _resolve_beta(objective, cfg)
        return _drive(kind, apg_restart_step, 1, beta, L, objective, regularizer, cfg,
                      x_init, record_iterates)
    raise ValueError(f"unknown baseline {kind!r}; expected one of {BASELINES}")
