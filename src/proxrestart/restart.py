"""Restart schedules: online predicates that end the current momentum period.

The solver evaluates the active scheme at the end of every iteration; when
the predicate fires, the next iteration begins a new period (the momentum
coefficient resets and the two solver sequences are re-synchronized). Each
scheme is an immutable descriptor; all per-run state lives in the solver.

The adaptive predicates read the solver's sequences at iteration ``k``:
``x`` and ``y`` (``x_k``, ``y_k``), the query point ``z = y + alpha (x - y)``
at which the gradient is taken, the prox iterate ``x_next = prox(x - lam
grad f(z))``, the gradient mapping ``G = (x - x_next) / lam`` and the new
anchor ``y_next = z - beta G``; ``F_prev = F(x)`` and ``F_curr = F(x_next)``.

* function value -- fire when ``F_curr > rho * F_prev``. With ``rho = 1``
  this is the function scheme of O'Donoghue and Candes, "Adaptive restart
  for accelerated gradient schemes" (2015): restart when the objective
  went up. ``rho < 1`` (the default 0.8 fires unless the value dropped by
  at least 20%) is this package's own relaxation. It assumes nonnegative
  objective values, which all bundled objectives and regularizers have:
  for ``F_prev < 0`` it would let ``F`` rise by up to ``(1 - rho)
  |F_prev|`` without a restart, so the relaxed test raises ``ValueError``
  when it meets a negative ``F_prev``.
* gradient mapping -- fire when
  ``<z - y, y_next - z> >= tau * ||z - y|| * ||y_next - z||``, i.e. when
  the momentum ``z - y`` and the step ``y_next - z = -beta G`` make an
  angle of at most ``arccos(tau)``. It is modelled on O'Donoghue and
  Candes's gradient scheme; ``tau = 0`` is the strict test and ``tau <
  0`` (default -0.2) this package's own relaxation.
* non-monotone -- the same cosine test with ``y_next - (z + x) / 2`` in
  place of ``y_next - z``. It resembles the tests studied by Giselsson and
  Boyd, "Monotonicity and restart in fast gradient methods" (2014).

``PAPER.md`` holds only the source paper's abstract, so the paper's own
restart conditions cannot be checked here. The sense of the cosine tests is not the one a
reading of O'Donoghue and Candes suggests. They restart when the
momentum points uphill, ``grad f(y_k)^T (x_{k+1} - x_k) > 0``; with ``G``
for the gradient and ``y_next`` for their ``x_{k+1}`` that reads
``<y_next - z, y_next - y> < 0``, a step that opposes the momentum,
whereas the coded test fires when the step and the momentum agree. The
coded sense is pinned by ``test_gradient_mapping_boundary_fires_at_right_angle``
and ``test_non_monotone_uses_midpoint_target`` (``tests/test_restart.py``),
so a flip is a visible change.

The adaptive schemes do not fire before a period has ``min_period``
iterations (default 2: right after a restart ``z - y`` vanishes and the
cosine tests are degenerate). At theory stepsizes they do not adapt: on
the lasso instances of ``configs/check.yaml`` all three restart every
``min_period`` iterations, and the function-value test with ``rho = 1``
never fires. A scheme's ``label`` names it in the CLI's CSVs by one rule:
``kind(field=value; ...)`` over its fields, such as
``gradient_mapping(tau=-0.2; min_period=5)``, leaving out a ``min_period``
of 2 (the default), or its ``kind`` alone if it has no fields. ``rho`` and
``tau`` are stored as floats, so equal schemes carry equal labels:
``rho=1`` and ``rho=1.0`` both label as ``function_value(rho=1.0)``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .linalg import _norm

__all__ = [
    "RestartObservation",
    "FixedRestart",
    "FunctionValueRestart",
    "GradientMappingRestart",
    "NonMonotoneRestart",
    "NeverRestart",
]


class RestartObservation(NamedTuple):
    """End-of-iteration snapshot the predicates look at.

    ``F_curr`` is the objective at the just-computed iterate and ``F_prev``
    at the one before it; the vectors are the current iteration's momentum
    quantities (``y_next`` is the freshly updated extrapolation anchor).
    """

    k: int
    since_restart: int
    F_curr: float
    F_prev: float
    x_k: np.ndarray
    y_k: np.ndarray
    z_k: np.ndarray
    y_next: np.ndarray


def _is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one (``True`` would count as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _cosine_fire(a: np.ndarray, b: np.ndarray, tau: float) -> bool:
    """True iff <a, b> >= tau * ||a|| * ||b|| with nonzero factors.

    A zero factor leaves the angle undefined; that must not trigger a
    reset, so the predicate returns False.
    """
    na = _norm(a)
    nb = _norm(b)
    if na == 0.0 or nb == 0.0:
        return False
    return float(np.dot(a, b)) >= tau * na * nb


class _Scheme:
    """A restart scheme, named by its ``kind`` (its name in a CLI config) and its fields."""

    @property
    def label(self) -> str:
        # "; " and not ", ": the label is a field of the CLI's unquoted CSVs
        args = "; ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self)
                         if f.name != "min_period" or self.min_period != 2)
        return f"{self.kind}({args})" if args else self.kind


class _Adaptive(_Scheme):
    """An adaptive test ``_fire``, asked once a period has ``min_period`` iterations."""

    min_period: int

    def __post_init__(self):
        if not _is_integer(self.min_period):
            raise ValueError(f"min_period must be an integer, got {self.min_period!r}")
        if self.min_period < 1:
            raise ValueError("min_period must be >= 1")

    def should_restart(self, obs: RestartObservation) -> bool:
        """Decide whether the next iteration begins a new period."""
        if obs.since_restart + 1 < self.min_period:
            return False
        return self._fire(obs)


@dataclass(frozen=True)
class FixedRestart(_Scheme):
    """Restart every ``q`` iterations, giving periods of exactly ``q``."""

    kind = "fixed"
    q: int

    def __post_init__(self):
        if not _is_integer(self.q):
            raise ValueError(f"period length q must be an integer, got {self.q!r}")
        if self.q < 1:
            raise ValueError("period length q must be >= 1")

    def should_restart(self, obs: RestartObservation) -> bool:
        return obs.since_restart + 1 == self.q


@dataclass(frozen=True)
class FunctionValueRestart(_Adaptive):
    kind = "function_value"
    rho: float = 0.8
    min_period: int = 2

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        object.__setattr__(self, "rho", float(self.rho))  # rho=1 labels as rho=1.0
        super().__post_init__()

    def _fire(self, obs: RestartObservation) -> bool:
        if self.rho < 1.0 and obs.F_prev < 0.0:
            raise ValueError(f"{self.label} needs a nonnegative objective "
                             f"(F = {obs.F_prev!r} at iteration {obs.k}); use rho=1")
        return obs.F_curr > self.rho * obs.F_prev


@dataclass(frozen=True)
class _Cosine(_Adaptive):
    """A cosine test against the momentum direction, with slack ``tau``."""

    tau: float = -0.2
    min_period: int = 2

    def __post_init__(self):
        if not -1.0 <= self.tau <= 0.0:
            raise ValueError("tau must be in [-1, 0]")
        object.__setattr__(self, "tau", float(self.tau))  # tau=0 labels as tau=0.0
        super().__post_init__()


@dataclass(frozen=True)
class GradientMappingRestart(_Cosine):
    kind = "gradient_mapping"

    def _fire(self, obs: RestartObservation) -> bool:
        return _cosine_fire(obs.z_k - obs.y_k, obs.y_next - obs.z_k, self.tau)


@dataclass(frozen=True)
class NonMonotoneRestart(_Cosine):
    kind = "non_monotone"

    def _fire(self, obs: RestartObservation) -> bool:
        target = obs.y_next - 0.5 * (obs.z_k + obs.x_k)
        return _cosine_fire(obs.z_k - obs.y_k, target, self.tau)


@dataclass(frozen=True)
class NeverRestart(_Scheme):
    """Single period: plain accelerated proximal gradient."""

    kind = "never"

    def should_restart(self, obs: RestartObservation) -> bool:
        return False
