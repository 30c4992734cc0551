"""Restart schedules: online predicates that end the current momentum period.

The solver evaluates the active scheme at the end of every iteration; when
the predicate fires, the next iteration begins a new period (the momentum
coefficient resets and the two solver sequences are re-synchronized). Each
scheme is an immutable descriptor; all per-run state lives in the solver.

The adaptive predicates come in a strict and a relaxed form:

* function value -- fire when ``F_curr > rho * F_prev``; ``rho = 1`` is the
  strict "the objective went up" test, ``rho = 0.8`` the relaxed default
  (fire unless the value dropped by at least 20%). The relaxed comparison
  assumes nonnegative objective values, which all bundled objectives and
  regularizers have: for ``F_prev < 0`` it would let ``F`` rise by up to
  ``(1 - rho) |F_prev|`` without a restart, so the relaxed test raises
  ``ValueError`` when it meets a negative ``F_prev``.
* gradient mapping -- fire when the momentum direction ``z - y`` and the
  proximal step ``y_next - z`` make an angle of at most 90 degrees
  (``tau = 0``), or at most ``arccos(tau)`` with the relaxed slack
  ``tau = -0.2``.
* non-monotone -- same cosine test against ``y_next - (z + x)/2``.

The adaptive schemes do not fire before a period has ``min_period``
iterations (default 2: right after a restart ``z - y`` vanishes and the
cosine tests are degenerate). ``label`` names a scheme in the CLI's CSVs.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class _Adaptive:
    """An adaptive test ``_fire``, asked once a period has ``min_period`` iterations."""

    min_period: int

    def __post_init__(self):
        if self.min_period < 1:
            raise ValueError("min_period must be >= 1")

    def should_restart(self, obs: RestartObservation) -> bool:
        """Decide whether the next iteration begins a new period."""
        if obs.since_restart + 1 < self.min_period:
            return False
        return self._fire(obs)


@dataclass(frozen=True)
class FixedRestart:
    """Restart every ``q`` iterations, giving periods of exactly ``q``."""

    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("period length q must be >= 1")

    @property
    def label(self) -> str:
        return f"fixed(q={self.q})"

    def should_restart(self, obs: RestartObservation) -> bool:
        return obs.since_restart + 1 == self.q


@dataclass(frozen=True)
class FunctionValueRestart(_Adaptive):
    rho: float = 0.8
    min_period: int = 2

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError("rho must be in (0, 1]")
        super().__post_init__()

    @property
    def label(self) -> str:
        return f"function_value(rho={self.rho})"

    def _fire(self, obs: RestartObservation) -> bool:
        if self.rho < 1.0 and obs.F_prev < 0.0:
            raise ValueError(f"{self.label} needs a nonnegative objective "
                             f"(F = {obs.F_prev!r} at iteration {obs.k}); use rho=1")
        return obs.F_curr > self.rho * obs.F_prev


class _Cosine(_Adaptive):
    """A cosine test against the momentum direction, with slack ``tau``."""

    tau: float

    def __post_init__(self):
        if not -1.0 <= self.tau <= 0.0:
            raise ValueError("tau must be in [-1, 0]")
        super().__post_init__()


@dataclass(frozen=True)
class GradientMappingRestart(_Cosine):
    tau: float = -0.2
    min_period: int = 2

    @property
    def label(self) -> str:
        return f"gradient_mapping(tau={self.tau})"

    def _fire(self, obs: RestartObservation) -> bool:
        return _cosine_fire(obs.z_k - obs.y_k, obs.y_next - obs.z_k, self.tau)


@dataclass(frozen=True)
class NonMonotoneRestart(_Cosine):
    tau: float = -0.2
    min_period: int = 2

    @property
    def label(self) -> str:
        return f"non_monotone(tau={self.tau})"

    def _fire(self, obs: RestartObservation) -> bool:
        target = obs.y_next - 0.5 * (obs.z_k + obs.x_k)
        return _cosine_fire(obs.z_k - obs.y_k, target, self.tau)


@dataclass(frozen=True)
class NeverRestart:
    """Single period: plain accelerated proximal gradient."""

    label = "never"

    def should_restart(self, obs: RestartObservation) -> bool:
        return False
