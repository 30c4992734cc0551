"""Post-hoc trace analysis: invariant verdicts, path lengths, rate fits.

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

``path_length_summary`` aggregates the per-period path lengths whose
summability certifies that the iterates converge to a single critical
point; ``fit_rate`` classifies checkpoint gap sequences into the
finite / linear / sublinear regimes that the local sharpness exponent of
the objective induces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import SolverTrace

__all__ = [
    "CheckResult",
    "InvariantReport",
    "check_invariants",
    "PathLengthSummary",
    "path_length_summary",
    "RateFit",
    "fit_rate",
    "checkpoint_value_gaps",
    "checkpoint_distances",
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
    """
    if trace.stepsize_mode != "theory":
        raise ValueError(
            f"invariant checks need a theory-mode trace; this one was produced "
            f"with stepsize_mode={trace.stepsize_mode!r}, whose stepsizes carry "
            "no descent certificate"
        )
    L = float(lipschitz)

    descent_m, subdiff_m = [], []
    for t in range(1, len(trace.periods)):
        # checkpoint objective values come from the iteration rows, so the
        # verdict depends on the trace columns alone
        F_prev = trace.F[trace.periods[t - 1].checkpoint]
        F_curr = trace.F[trace.periods[t].checkpoint]
        path_sq = trace.period_step_sq_sum(t - 1)
        slack = CHECK_TOL * max(1.0, abs(F_prev))
        descent_m.append(F_curr - (F_prev - 0.25 * L * path_sq) - slack)
        subdiff_m.append(trace.periods[t].subdiff_dist ** 2 - 162.0 * L * L * path_sq - CHECK_TOL)

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


@dataclass(frozen=True)
class PathLengthSummary:
    """Per-period path lengths with their running sum.

    ``rows`` holds ``(t, length, cumulative)``. ``tail_increment``
    is how much the cumulative sum grew over the last ``tail_window``
    periods; ``tail_converged`` flags an increment below 1e-8, the
    empirical signature of a finite total path (and hence of iterate
    convergence).
    """

    rows: tuple[tuple[int, float, float], ...]
    tail_window: int
    tail_increment: float
    tail_converged: bool

    @property
    def total(self) -> float:
        return self.rows[-1][2] if self.rows else 0.0


def path_length_summary(trace: SolverTrace, tail_window: int = 50) -> PathLengthSummary:
    """Recompute per-period path lengths from the iteration rows."""
    lengths = [np.sqrt(trace.period_step_sq_sum(t)) for t in range(len(trace.periods))]
    cumulative = np.cumsum(lengths) if lengths else np.array([])
    rows = tuple((t, float(lengths[t]), float(cumulative[t])) for t in range(len(lengths)))
    if len(lengths) > tail_window:
        increment = float(cumulative[-1] - cumulative[-1 - tail_window])
    else:
        increment = float(cumulative[-1]) if len(lengths) else 0.0
    return PathLengthSummary(rows, tail_window, increment, increment < 1e-8)


@dataclass(frozen=True)
class RateFit:
    """Asymptotic regime of a checkpoint gap sequence.

    ``regime`` is one of ``"finite"``, ``"linear"``, ``"sublinear"`` or
    ``"inconclusive"``. For the linear regime ``rate`` is the decay
    constant in ``gap_t ~ exp(-rate * t)``; for the sublinear regime
    ``exponent`` is ``p`` in ``gap_t ~ t^(-p)``. ``r_squared`` is the
    winning fit's goodness on the tail window.
    """

    regime: str
    rate: float | None
    exponent: float | None
    r_squared: float
    window: tuple[int, int]


def _least_squares_line(u: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Fit v ~ a + b u; return (slope, r_squared)."""
    A = np.column_stack([np.ones_like(u), u])
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    resid = v - A @ coef
    ss_res = float(np.dot(resid, resid))
    centered = v - v.mean()
    ss_tot = float(np.dot(centered, centered))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(coef[1]), float(min(max(r2, 0.0), 1.0))


def fit_rate(gaps, tail_fraction: float = 0.5) -> RateFit:
    """Classify how a nonnegative gap sequence decays.

    Gaps below -1e-12 are rejected; small negative noise is clipped to
    zero. If any gap reaches 1e-14 the sequence terminated for practical
    purposes and the regime is ``"finite"``. Otherwise a geometric decay
    (log-gap against t) and a power-law decay (log-gap against log t)
    are fitted by least squares on the trailing ``tail_fraction`` of the
    sequence, and the regime with the higher goodness of fit wins; if
    neither reaches 0.9, or fewer than 5 tail points exist, the verdict
    is ``"inconclusive"``.
    """
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    r = np.asarray(gaps, dtype=np.float64)
    if r.ndim != 1:
        raise ValueError("gap sequence must be 1-D")
    if np.any(r < -1e-12):
        raise ValueError("gap sequence has negative entries beyond noise level")
    r = np.maximum(r, 0.0)

    hits = np.flatnonzero(r <= 1e-14)
    if len(hits):
        t0 = int(hits[0])
        return RateFit("finite", None, None, 1.0, (t0, len(r) - 1))

    start = len(r) - max(int(np.ceil(tail_fraction * len(r))), 1)
    t = np.arange(len(r), dtype=np.float64)[start:]
    tail = r[start:]
    window = (start, len(r) - 1)
    if len(tail) < 5:
        return RateFit("inconclusive", None, None, 0.0, window)

    log_tail = np.log(tail)
    lin_slope, lin_r2 = _least_squares_line(t, log_tail)
    positive = t > 0
    if positive.sum() >= 5:
        sub_slope, sub_r2 = _least_squares_line(np.log(t[positive]), log_tail[positive])
    else:
        sub_slope, sub_r2 = 0.0, -1.0

    if max(lin_r2, sub_r2) < 0.9:
        return RateFit("inconclusive", None, None, max(lin_r2, sub_r2, 0.0), window)
    if lin_r2 >= sub_r2:
        return RateFit("linear", -lin_slope, None, lin_r2, window)
    return RateFit("sublinear", None, -sub_slope, sub_r2, window)


def checkpoint_value_gaps(trace: SolverTrace, f_star: float) -> np.ndarray:
    """Objective gaps ``F(checkpoint_t) - f_star`` for rate fitting.

    ``f_star`` is usually taken from a reference run roughly 10x longer
    than the analyzed one, the standard surrogate when the true optimum
    is unknown.
    """
    return np.array([p.F - f_star for p in trace.periods], dtype=np.float64)


def checkpoint_distances(trace: SolverTrace, x_star) -> np.ndarray:
    """Distances from each checkpoint iterate to ``x_star``.

    Feeding these to :func:`fit_rate` classifies the variable sequence's
    regime; since ``x_star`` is itself a surrogate (for example a
    reference run's final iterate), treat the result as indicative.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    return np.array(
        [float(np.linalg.norm(p - x_star)) for p in trace.checkpoint_points],
        dtype=np.float64,
    )
