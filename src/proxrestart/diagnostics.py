"""Post-hoc trace analysis: invariant verdicts and path lengths.

``check_invariants`` re-derives, from trace data alone, the four
guarantees a theory-mode run of the restart solver must satisfy:

* ``period_descent``   -- between consecutive checkpoints the objective
  drops by at least ``(L/4) * sum ||x_{k+1} - x_k||^2``.
* ``subdiff_bound``    -- the squared subdifferential distance at each
  checkpoint is at most ``162 L^2`` times that same squared path sum.
* ``cumulative_rate``  -- over the whole run,
  ``(1/(256 L)) * sum_k ||G_k||^2 <= F(x_0) - F(x_K)``, the telescoped
  form of the solver's global sublinear stationarity rate.
* ``stepsize_interval`` -- every recorded ``lam`` lies in
  ``[beta, (1 + alpha) * beta]``.

``path_length_summary`` lists the per-period path lengths, with their
running sum, whose summability certifies that the iterates converge to a
single critical point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import number
from .solver import SolverTrace

__all__ = [
    "CheckResult",
    "InvariantReport",
    "check_invariants",
    "path_length_summary",
]

#: absolute slack used by the inequality checks (relative for descent)
CHECK_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst_margin: float
    passed: bool
    location: str


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of all invariant checks on one trace.

    ``worst_margin`` is violation minus allowed slack; positive means the
    check failed and ``location`` points at the first offending period or
    iteration.
    """

    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name:18s} worst margin {c.worst_margin:.3e}  ({c.location})")
        return "\n".join(lines)


def _worst(name, margins, locate) -> CheckResult:
    """Reduce per-item margins to one result, located by ``locate(index)``.

    A failing check points at its first violation, a passing one at its
    largest margin.
    """
    margins = np.asarray(margins, dtype=np.float64)
    if len(margins) == 0:
        return CheckResult(name, float("-inf"), True, "no data")
    failing = np.flatnonzero(margins > 0.0)
    at = int(failing[0]) if len(failing) else int(np.argmax(margins))
    return CheckResult(name, float(margins.max()), len(failing) == 0, locate(at))


def check_invariants(trace: SolverTrace, lipschitz: float) -> InvariantReport:
    """Evaluate the theory-mode inequalities on a finished trace.

    A pure function of ``(trace, lipschitz)``. Refuses experiment-mode
    traces: with ``beta = 1`` the stepsize premise behind the guarantees
    does not hold, so a verdict would be meaningless.

    Each verdict holds relative to the ``lipschitz`` passed in, not to the
    objective's true gradient-Lipschitz constant: given the same wrong
    bound the solver's stepsizes were set from (``trace.lipschitz``), the
    checks cannot tell that it is wrong. A ``lipschitz`` that is not a
    positive finite number (or is a bool) raises a ``ValueError``.
    """
    if trace.stepsize_mode != "theory":
        raise ValueError(
            f"invariant checks need a theory-mode trace; this one was produced "
            f"with stepsize_mode={trace.stepsize_mode!r}, whose stepsizes carry "
            "no descent certificate"
        )
    L = number("lipschitz", lipschitz, 0.0, low_open=True)

    # checkpoint objectives come from the iteration rows: the verdict reads trace columns only
    cp = trace.checkpoints
    F_prev, F_curr = trace.F[cp[:-1]], trace.F[cp[1:]]
    path_sq = trace.period_step_sq_sums()[:-1]
    slack = CHECK_TOL * np.maximum(1.0, np.abs(F_prev))
    descent_m = F_curr - (F_prev - 0.25 * L * path_sq) - slack
    dist = trace.subdiff_dist[1:]
    subdiff_m = dist * dist - 162.0 * L * L * path_sq - CHECK_TOL

    rate_lhs = float(np.dot(trace.grad_map_norm, trace.grad_map_norm)) / (256.0 * L)
    rate_margin = rate_lhs - (trace.F[0] - trace.final_F) - CHECK_TOL if len(trace) else float("-inf")

    step_lo = trace.beta - trace.lam
    step_hi = trace.lam - (1.0 + trace.alpha_next) * trace.beta
    step_m = np.maximum(step_lo, step_hi) - CHECK_TOL * np.maximum(1.0, trace.beta)

    def period(i):  # margin i compares period i with period i + 1
        return f"period {i + 1}"

    checks = (
        _worst("period_descent", descent_m, period),
        _worst("subdiff_bound", subdiff_m, period),
        CheckResult("cumulative_rate", float(rate_margin), bool(rate_margin <= 0.0),
                    f"iterations 0..{max(len(trace) - 1, 0)}"),
        _worst("stepsize_interval", step_m, lambda i: f"iteration {i}"),
    )
    return InvariantReport(checks)


def path_length_summary(trace: SolverTrace) -> tuple[tuple[int, float, float], ...]:
    """Per-period ``(t, length, cumulative)`` rows, recomputed from the iteration rows.

    A running sum that stops growing is the empirical signature of a
    finite total path, and hence of iterate convergence.
    """
    lengths = np.sqrt(trace.period_step_sq_sums())
    return tuple((t, float(length), float(total))
                 for t, (length, total) in enumerate(zip(lengths, np.cumsum(lengths))))
