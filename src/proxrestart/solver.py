"""Momentum-accelerated proximal gradient with parameter restart, plus baselines.

The main iteration maintains three sequences ``x_k`` (the iterate),
``y_k`` (an auxiliary anchor) and ``z_k`` (the extrapolated query point).
One iteration, with ``Q`` the checkpoint that opened the current period:

    restart branch (iff this iteration starts a period):  y_k = x_k, Q = k
    alpha = 2 / (k - Q + 3)            # momentum weight used at this step
    z_k   = y_k + alpha * (x_k - y_k)  # is x_k itself on the restart branch
    x_{k+1} = prox(x_k - lam * grad_f(z_k), lam)
    G     = (x_k - x_{k+1}) / lam
    y_{k+1} = z_k - beta * G

Both updates share the single proximal/gradient evaluation ``G`` -- one
prox call and one gradient call per iteration, which is the efficiency
edge over the classical accelerated method (``run_baseline("ag")``) that
performs two independent proximal updates. The next iterate is the prox
output itself, not ``x_k - lam * G``: in floating point the latter turns
coordinates the prox set to exactly zero into residues such as 1e-20,
which the exact subdifferential distance then charges as nonzero.

Every bundled loss is a function of ``A x``, so the solver carries the
products ``A x_k`` and ``A y_k`` instead of forming them again:

    A z_k     = A y_k + alpha * (A x_k - A y_k)
    A x_{k+1} = A @ x_{k+1}               # also gives F(x_{k+1})
    A y_{k+1} = A z_k - beta * (A x_k - A x_{k+1}) / lam   # if no restart follows

That is one forward product and one transposed product (in the gradient
at ``z_k``) per iteration. ``A x`` is always an exact product, and the
restart branch sets ``A y = A x`` exactly, so a step whose restart test
fires skips ``A y_{k+1}`` and hands on ``Ay = None``. ``A y`` and
``A z`` are linear combinations that collect rounding error, but each
step scales the error already in ``A y`` by ``1 - alpha``, so it stays
damped without a periodic refresh: over 5 000 steps without a restart
on the quadratic, robust and logistic 200x30 instances the carried
``A z`` stayed within 1.5e-14 (relative, max-norm) of a fresh
``A @ z_k``.

Each iteration calls ``objective.gradient``, ``spmv`` (for ``A x_{k+1}``),
``objective.value``, ``regularizer.value``, the update ``prox`` and the
scheme's ``should_restart`` once; then either ``subdiff_distance`` (on a
period's first iteration) or ``gradient_mapping`` with its own ``prox``.
At small sizes numpy's per-call dispatch, not arithmetic, sets the cost,
so the step saves calls and temporaries where it can. It updates in place
only arrays it allocated itself, never the state it was given, and each
in-place form does the same IEEE operations on the same operands as the
formula above; negation is exact and ``+`` and ``*`` commute exactly, so
no bit moves.

Restart scheduling is decided online: the configured scheme inspects each
finished iteration and, when it fires, the next iteration executes the
restart branch. Restarting re-synchronizes ``y`` with the newest iterate
and resets the momentum weight, which suppresses extrapolation overshoot;
no computed step is ever discarded.

A run returns a :class:`SolverTrace`: per-iteration and per-period
arrays, and of the iterates only the last; runs are deterministic, so
any other iterate is the last one of a shorter run.

Stepsize modes:

* ``"theory"``     -- ``beta = 1/(8 L)`` with ``L`` the objective's
  gradient-Lipschitz bound. Every trace produced in this mode satisfies
  checkable per-period descent and stationarity inequalities (see
  :mod:`proxrestart.diagnostics`).
* ``"experiment"`` -- ``beta = 1``, the aggressive practical choice. No
  descent certificate; the divergence guard may trip.
* ``"custom"``     -- caller-provided ``beta``; no ``L`` is computed.

The ``prox_grad`` baseline ignores the mode and steps by ``1/L``. Every
rule that computes ``L`` needs it finite and nonnegative (entries near the
float range's end overflow it), and a stepsize that divides by it needs it
positive (an all-zero matrix gives ``L = 0``); otherwise the run raises
:class:`LipschitzError` before step 0. In every mode
``lam = beta * (1 + lambda_factor * alpha)``; the factor sweeps the
admissible interval ``[beta, (1 + alpha) * beta]`` and defaults to its
upper end.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import _norm, _row_pass, spmv
from .regularizers import gradient_mapping
from .restart import NeverRestart, RestartObservation, _is_integer

__all__ = [
    "SolverConfig",
    "SolverState",
    "StepRecord",
    "SolverTrace",
    "DivergenceError",
    "LipschitzError",
    "momentum_coefficient",
    "apg_restart_step",
    "run",
    "run_baseline",
    "BASELINES",
]

_MODES = ("theory", "experiment", "custom")


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by the restart solver and the baselines; nothing in a run is random."""

    max_iters: int
    stepsize_mode: str = "theory"
    lambda_factor: float = 1.0
    beta: float | None = None
    tolerance: float = 0.0
    scheme: object = field(default_factory=NeverRestart)

    def __post_init__(self):
        if not _is_integer(self.max_iters):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if self.stepsize_mode not in _MODES:
            raise ValueError(f"stepsize_mode must be one of {_MODES}")
        if not 0.0 <= self.lambda_factor <= 1.0:
            raise ValueError("lambda_factor must lie in [0, 1]")
        if self.stepsize_mode == "custom" and (self.beta is None or self.beta <= 0):
            raise ValueError("custom stepsize mode requires beta > 0")
        if self.stepsize_mode != "custom" and self.beta is not None:
            raise ValueError(f"beta applies in custom stepsize mode only, not {self.stepsize_mode}")
        if self.beta is not None and not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        if not math.isfinite(self.tolerance):
            raise ValueError(f"tolerance must be finite, got {self.tolerance!r}")


class SolverTrace:
    """Complete per-iteration and per-period record of one solver run.

    Iteration arrays (one entry per iteration ``k``):

    ``F``              objective value at the start-of-iteration iterate
    ``grad_map_norm``  norm of the gradient mapping at the query point
                       ``z_k`` (the solver's stationarity measure)
    ``step_norm``      ``||x_{k+1} - x_k||``
    ``restart_flags``  True where the restart branch ran
    ``lam``, ``beta``, ``alpha_next``  stepsizes and momentum weight used

    Period arrays (one entry per period, the last possibly partial):

    ``checkpoints``    iteration that opened the period; the first is 0
    ``subdiff_dist``   exact distance from zero to the composite
                       subdifferential at that iteration's iterate

    Period ``t``'s path length is ``sqrt(period_step_sq_sum(t))``. Of the
    iterates the trace keeps only the last, ``final_x``: rerun with a
    smaller ``max_iters`` (runs are deterministic) or step
    :func:`apg_restart_step` by hand to see others, a checkpoint's
    included. The solver never touches a trace after returning it; its
    arrays are ordinary writable numpy arrays, so a caller that writes
    into one changes it for every holder. ``final_F`` is the objective at
    ``final_x``, except after a divergence (see :class:`DivergenceError`).

    A run's arrays view the buffers it appended to, so recording costs 49
    bytes per iteration plus 16 per period, and up to 1/16 more while a
    buffer grows. A 200 000-iteration run on a 200x30 instance grows peak
    RSS by 13 MB (logistic, ``fixed(q=10)``) or 12 MB (lasso in theory
    mode, ``fixed(q=2)``, 100 000 periods).
    """

    def __init__(self, algorithm, stepsize_mode, lipschitz, F, grad_map_norm,
                 step_norm, restart_flags, lam, beta, alpha_next, checkpoints,
                 subdiff_dist, final_x, final_F, prox_calls):
        self.algorithm = algorithm
        self.stepsize_mode = stepsize_mode
        self.lipschitz = lipschitz
        self.F = np.asarray(F, dtype=np.float64)
        self.grad_map_norm = np.asarray(grad_map_norm, dtype=np.float64)
        self.step_norm = np.asarray(step_norm, dtype=np.float64)
        self.restart_flags = np.asarray(restart_flags, dtype=bool)
        self.lam = np.asarray(lam, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)
        self.alpha_next = np.asarray(alpha_next, dtype=np.float64)
        self.checkpoints = np.asarray(checkpoints, dtype=np.int64)
        self.subdiff_dist = np.asarray(subdiff_dist, dtype=np.float64)
        self.final_x = np.asarray(final_x, dtype=np.float64)
        self.final_F = float(final_F)
        self.prox_calls = int(prox_calls)

    def __len__(self):
        return len(self.F)

    @property
    def num_restarts(self) -> int:
        """Restarts after the initial checkpoint at iteration 0."""
        return int(self.restart_flags[1:].sum())

    def period_step_sq_sum(self, t: int) -> float:
        """Sum of squared step norms over period ``t``, ``0 <= t < len(checkpoints)``."""
        if not 0 <= t < len(self.checkpoints):
            raise IndexError(f"period {t} out of range for {len(self.checkpoints)} periods")
        end = self.checkpoints[t + 1] if t + 1 < len(self.checkpoints) else len(self)
        seg = self.step_norm[self.checkpoints[t]:end]
        return float(np.dot(seg, seg))


class DivergenceError(RuntimeError):
    """Objective blew up; ``.trace`` holds the partial record.

    Its ``final_x`` is the last iterate with a row, so ``F(final_x) == trace.F[-1]``;
    its ``final_F`` is the value one step further that tripped the guard.
    """

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class LipschitzError(ValueError):
    """The objective's gradient Lipschitz estimate cannot set the configured stepsize."""


def momentum_coefficient(k: int, checkpoint: int) -> float:
    """Momentum weight 2 / (k - checkpoint + 2); equals 1 at the checkpoint.

    Iteration ``k`` of a solver calls it with ``k + 1``, so the weight a
    step uses is ``2 / (k - checkpoint + 3)``, 2/3 on a period's first
    iteration; the value 1 is never used.
    """
    if k < checkpoint:
        raise ValueError(f"iteration {k} precedes checkpoint {checkpoint}")
    return 2.0 / (k - checkpoint + 2.0)


@dataclass
class SolverState:
    """Position of a solver between iterations.

    ``Ax`` and ``Ay`` are the products ``A @ x`` and ``A @ y`` with the
    objective's data matrix; the restart step carries them instead of
    forming them again. ``pending_restart`` marks that the next call to
    :func:`apg_restart_step` must execute the restart branch (``A y = A x``);
    it starts True so iteration 0 opens the first period, and a step that
    sets it leaves ``Ay`` None. The baselines use only ``x``, ``y``, ``F``,
    ``Ax`` and ``k``; ``ag`` leaves ``Ay`` as None.
    """

    x: np.ndarray
    y: np.ndarray
    F: float
    Ax: np.ndarray
    Ay: np.ndarray | None
    k: int = 0
    checkpoint: int = 0
    pending_restart: bool = True


class StepRecord(NamedTuple):
    """Everything one iteration produced, ready for trace assembly.

    ``F`` is the objective at the iterate the step started from; the
    next state carries the one at the iterate it produced.
    ``checkpoint_subdiff`` is only set when the step opened a period (it
    is the exact subdifferential distance at the fresh checkpoint, a free
    by-product of the gradient evaluation there). The first seven fields
    are the trace's iteration columns, in :class:`SolverTrace` order.
    """

    F: float
    grad_map_norm: float
    step_norm: float
    restarted: bool
    lam: float
    beta: float
    alpha_next: float
    checkpoint_subdiff: float | None


def apg_restart_step(state: SolverState, objective, regularizer,
                     cfg: SolverConfig, beta: float | None = None):
    """Execute one iteration of the restart solver.

    Performs the (possible) restart branch, the extrapolation, and both
    variable updates through one shared gradient-mapping evaluation:
    exactly one proximal call and one gradient call drive the update (a
    second, purely diagnostic proximal call computes the recorded
    gradient-mapping norm at the query point). The gradient's transposed
    product and ``A @ x_{k+1}`` are the step's only matrix products;
    ``state.Ax`` must hold ``A @ x`` and, unless a restart is pending,
    ``state.Ay`` ``A @ y``; if the scheme fires, the next state's ``Ay``
    is None. Returns ``(next_state, record)`` without mutating ``state``.
    ``beta`` defaults to the configured stepsize mode's value.
    """
    if beta is None:
        beta = _resolve_beta("apg_restart", objective, cfg)[0]
    k = state.k
    x, y, F_x, Ax, Ay = state.x, state.y, state.F, state.Ax, state.Ay
    restarted = state.pending_restart
    if restarted:
        y, Ay = x, Ax         # re-synchronize: x_k = y_k exactly
    checkpoint = k if restarted else state.checkpoint
    alpha = momentum_coefficient(k + 1, checkpoint)
    lam = beta * (1.0 + cfg.lambda_factor * alpha)
    if restarted:
        # z is x itself, signed zeros included
        z, Az = x, Ax
    else:
        z = x - y             # z = y + alpha * (x - y)
        z *= alpha
        z += y
        Az = _row_pass(objective.A, _carried_Az, alpha, Ax, Ay)
    grad_z = objective.gradient(z, Az)
    x_new = regularizer.prox(x - lam * grad_z, lam)
    G = x - x_new             # x_new - x is exactly -G: the step norm is G's
    step = _norm(G)
    G /= lam
    if restarted:
        # z == x at a checkpoint, so grad_z doubles as the gradient at the
        # checkpoint iterate and the stationarity diagnostics come free.
        gnorm = _norm(G)
        subdiff = regularizer.subdiff_distance(grad_z, x)
    else:
        gnorm = _norm(gradient_mapping(regularizer, lam, z, grad_z))
        subdiff = None

    y_new = z - beta * G
    Ax_new = spmv(objective.A, x_new)
    F_new = objective.value(x_new, Ax_new) + regularizer.value(x_new)
    # positional arguments: keywords cost more than a small ufunc here
    fire = cfg.scheme.should_restart(RestartObservation(k, k - checkpoint, F_new, F_x,
                                                        x, y, z, y_new))
    Ay_new = None if fire else _row_pass(objective.A, _carried_Ay, lam, beta, Ax, Ax_new, Az)
    record = StepRecord(F_x, gnorm, step, restarted, lam, beta, alpha, subdiff)
    return SolverState(x_new, y_new, F_new, Ax_new, Ay_new, k + 1, checkpoint, fire), record


# The carried products' row passes, outputs positional as in objectives.

def _carried_Az(alpha, Ax, Ay, Az=None):
    Az = np.subtract(Ax, Ay, Az)
    Az *= alpha
    Az += Ay
    return Az


def _carried_Ay(lam, beta, Ax, Ax_new, Az, Ay_new=None):
    Ay_new = np.subtract(Ax, Ax_new, Ay_new)
    Ay_new /= lam
    Ay_new *= beta
    return np.subtract(Az, Ay_new, Ay_new)


def _resolve_beta(algorithm, objective, cfg: SolverConfig):
    """Return ``(beta, lipschitz-or-None)``, ``algorithm``'s base stepsize (see module doc)."""
    rule = "prox_grad" if algorithm == "prox_grad" else cfg.stepsize_mode
    if rule == "custom":
        return float(cfg.beta), None
    L = objective.lipschitz()
    if not 0.0 <= L < math.inf or (L == 0.0 and rule != "experiment"):
        need = "finite" if rule == "experiment" else "positive finite"
        raise LipschitzError(f"{rule} stepsizes need a {need} Lipschitz estimate, got {L!r}")
    if rule == "experiment":
        return 1.0, L
    return (1.0 / L if rule == "prox_grad" else 1.0 / (8.0 * L)), L


def _drive(algorithm, step, prox_per_iter, objective, regularizer, cfg: SolverConfig,
           x_init) -> SolverTrace:
    """Iterate ``step`` from ``x_init`` and assemble the trace.

    ``step(state, objective, regularizer, cfg, beta)`` returns
    ``(next_state, record)`` like :func:`apg_restart_step`, with ``beta``
    resolved once per run for ``algorithm``. Everything outside the
    update lives here: the divergence guard, the tolerance stop and
    period bookkeeping. Each record's seven trace values are appended to
    typed ``array.array`` columns (float64, and int8 for the restart
    flag; 49 bytes an iteration) and each period's checkpoint and
    subdifferential distance to int64/float64 ones (16 bytes); the trace
    views them through ``np.asarray``, without a copy. So a 200 000-step
    200x30 run grows peak RSS by 11-13 MB (see :class:`SolverTrace`).
    """
    beta, lipschitz = _resolve_beta(algorithm, objective, cfg)
    x = np.array(x_init, dtype=np.float64, copy=True)
    Ax = spmv(objective.A, x)
    F_0 = objective.value(x, Ax) + regularizer.value(x)
    F_cap = 1e12 * (1.0 + abs(F_0))
    state = SolverState(x, x.copy(), F_0, Ax, Ax)
    F, gnorms, steps, lams, betas, alphas = (array("d") for _ in range(6))
    flags = array("b")
    checkpoints, subdiffs = array("q"), array("d")

    def build(final_x, final_F):
        # views, not copies; a viewed buffer cannot grow, and none is appended to after
        return SolverTrace(algorithm, cfg.stepsize_mode, lipschitz, F, gnorms, steps,
                           np.asarray(flags).view(bool), lams, betas, alphas,
                           checkpoints, subdiffs, final_x, final_F, prox_per_iter * len(F))

    for k in range(cfg.max_iters):
        x = state.x
        state, (F_x, gnorm, step_norm, restarted, lam, step_beta, alpha, subdiff) = step(
            state, objective, regularizer, cfg, beta)
        F.append(F_x)
        gnorms.append(gnorm)
        steps.append(step_norm)
        if restarted:
            flags.append(1)
            checkpoints.append(k)
            subdiffs.append(subdiff)
        else:
            flags.append(0)
        lams.append(lam)
        betas.append(step_beta)
        alphas.append(alpha)
        if not (math.isfinite(state.F) and state.F <= F_cap):
            raise DivergenceError(
                f"objective diverged: objective reached {state.F!r}, "
                "aborting with partial trace",
                build(x, state.F),
            )
        if cfg.tolerance > 0.0 and gnorm <= cfg.tolerance:
            break

    if cfg.max_iters == 0:
        # record the initial checkpoint anyway
        grad = objective.gradient(state.x, state.Ax)
        checkpoints.append(0)
        subdiffs.append(regularizer.subdiff_distance(grad, state.x))
    return build(state.x, state.F)


def run(objective, regularizer, cfg: SolverConfig, x_init) -> SolverTrace:
    """Run the momentum-restart proximal gradient solver.

    Iterates ``cfg.max_iters`` times from ``x_init`` (or stops earlier
    once the gradient-mapping norm falls to ``cfg.tolerance``, if that is
    positive). The run is deterministic given the inputs; rerunning with
    the same configuration reproduces the trace bit for bit. Of the
    iterates, the trace keeps only the last one.

    Parameters
    ----------
    objective : objective with a data matrix ``A``, ``value(x, Ax)``,
        ``gradient(x, Ax)`` and ``lipschitz``
    regularizer : regularizer with ``value``/``prox``/``subdiff_distance``
    cfg : SolverConfig
    x_init : array of shape (dim,)

    Raises
    ------
    LipschitzError
        Before step 0, if the stepsize needs the objective's Lipschitz
        estimate and it is not usable there (see the module doc).
    DivergenceError
        If the objective exceeds ``1e12 * (1 + |F(x_init)|)`` or turns
        nonfinite. The partial trace rides on the exception.
    ValueError
        If the relaxed function-value test (``rho < 1``) meets a negative
        objective value, where it would not detect a rise.
    """
    return _drive("apg_restart", apg_restart_step, 1, objective, regularizer, cfg, x_init)


def _prox_grad_step(state, objective, regularizer, cfg, eta):
    """One proximal gradient step with stepsize ``eta`` (the unaccelerated baseline)."""
    x, k = state.x, state.k
    grad = objective.gradient(x, state.Ax)
    subdiff = regularizer.subdiff_distance(grad, x) if k == 0 else None
    x_new = regularizer.prox(x - eta * grad, eta)
    step = _norm(x_new - x)
    Ax_new = spmv(objective.A, x_new)
    F_new = objective.value(x_new, Ax_new) + regularizer.value(x_new)
    return (SolverState(x_new, x_new, F_new, Ax_new, Ax_new, k + 1),
            StepRecord(state.F, step / eta, step, k == 0, eta, eta, 0.0, subdiff))


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
    grad_z = objective.gradient(z, spmv(objective.A, z))
    subdiff = regularizer.subdiff_distance(grad_z, x) if k == 0 else None
    gnorm = _norm(gradient_mapping(regularizer, lam, z, grad_z))
    x_new = regularizer.prox(x - lam * grad_z, lam)
    y_new = regularizer.prox(z - beta * grad_z, lam)
    Ax_new = spmv(objective.A, x_new)
    F_new = objective.value(x_new, Ax_new) + regularizer.value(x_new)
    step = _norm(x_new - x)
    return (SolverState(x_new, y_new, F_new, Ax_new, None, k + 1),
            StepRecord(state.F, gnorm, step, k == 0, lam, beta, alpha, subdiff))


# baseline -> (step, proximal calls per iteration)
_BASELINE_STEPS = {"prox_grad": (_prox_grad_step, 1), "ag": (_ag_step, 2)}
BASELINES = tuple(_BASELINE_STEPS)


def run_baseline(kind: str, objective, regularizer, cfg: SolverConfig, x_init) -> SolverTrace:
    """Run a comparison baseline: ``"prox_grad"`` or ``"ag"``.

    ``prox_grad`` is unaccelerated proximal gradient with stepsize 1/L in
    every mode; ``ag`` is the classical accelerated method with two
    proximal updates per iteration. Neither reads ``cfg.scheme``; the
    restart solver without restarts is :func:`run` with
    ``scheme=NeverRestart()``. The trace is the same kind :func:`run`
    returns, and the errors are those :func:`run` raises, a
    :class:`LipschitzError` included, plus ``ValueError`` for an unknown
    ``kind``.
    """
    if kind not in _BASELINE_STEPS:
        raise ValueError(f"unknown baseline {kind!r}; expected one of {BASELINES}")
    return _drive(kind, *_BASELINE_STEPS[kind], objective, regularizer, cfg, x_init)
