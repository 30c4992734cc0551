"""Independent numerical oracles the tests check library code against.

Nothing here reuses the closed forms under test: the prox oracle minimizes
the defining objective by golden-section search, and the gradient oracle
uses central finite differences. ``prefix_iterates`` recovers a run's
iterates from the solver's determinism alone, ``same_dataset``
compares two datasets bit for bit, and ``fit_rate`` classifies checkpoint
gap sequences into the finite / linear / sublinear regimes that the local
sharpness exponent of the objective induces.
"""

from dataclasses import dataclass, replace

import numpy as np

from proxrestart import ElasticNet, L1, SquaredL2, Zero

_INV_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def coordinate_penalty(reg, z):
    """Per-coordinate penalty value of a separable regularizer (vectorized)."""
    z = np.asarray(z, dtype=np.float64)
    if isinstance(reg, Zero):
        return np.zeros_like(z)
    if isinstance(reg, L1):
        return reg.mu * np.abs(z)
    if isinstance(reg, SquaredL2):
        return 0.5 * reg.mu * z * z
    if isinstance(reg, ElasticNet):
        return reg.mu1 * np.abs(z) + 0.5 * reg.mu2 * z * z
    raise TypeError(f"unsupported regularizer {reg!r}")


def prox_oracle(reg, x, eta, iters=90):
    """Golden-section minimizer of g(z) + (z - x)^2 / (2 eta), coordinatewise.

    The bracket [-(|x|+1), |x|+1] always contains the minimizer for the
    supported penalties (they all shrink toward zero). 90 shrink steps
    leave the bracket below 1e-9 for any |x| up to ~1e8, far inside the
    1e-6 comparison tolerance.
    """
    x = np.asarray(x, dtype=np.float64)
    lo = -(np.abs(x) + 1.0)
    hi = np.abs(x) + 1.0

    def h(z):
        return coordinate_penalty(reg, z) + (z - x) ** 2 / (2.0 * eta)

    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    hc, hd = h(c), h(d)
    for _ in range(iters):
        move_right = hc > hd
        a = np.where(move_right, c, a)
        b = np.where(move_right, b, d)
        c_new = b - _INV_GOLDEN * (b - a)
        d_new = a + _INV_GOLDEN * (b - a)
        hc_new = np.where(move_right, hd, h(c_new))
        hd_new = np.where(move_right, h(d_new), hc)
        c, d, hc, hd = c_new, d_new, hc_new, hd_new
    return 0.5 * (a + b)


def fd_gradient(value_fn, x, h=1e-5):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.empty_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        grad[j] = (value_fn(x + e) - value_fn(x - e)) / (2.0 * h)
    return grad


def prefix_iterates(solve, cfg):
    """Iterates ``x_0 .. x_N`` of the run ``solve(cfg)``, ``N = cfg.max_iters``.

    Runs are deterministic, so ``x_k`` is exactly the ``final_x`` of the
    same run cut to ``k`` iterations. That costs O(N^2) steps, which is
    fine for N up to a few hundred. The run must not stop early.
    """
    return [solve(replace(cfg, max_iters=k)).final_x for k in range(cfg.max_iters + 1)]


def same_dataset(a, b):
    """True when ``a`` and ``b`` have the same name and shape, and bit-identical
    CSR arrays and labels (so ``-0.0`` differs from ``0.0`` and a NaN equals itself)."""
    A, B = a.features, b.features
    pairs = ((A.row_ptr, B.row_ptr), (A.col_idx, B.col_idx), (A.vals, B.vals),
             (a.labels, b.labels))
    return (a.name == b.name and A.shape == B.shape
            and all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in pairs))


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


#: share of a gap sequence, at its end, on which :func:`fit_rate` fits the decay
_TAIL_FRACTION = 0.5


def fit_rate(gaps) -> RateFit:
    """Classify how a nonnegative gap sequence decays.

    Gaps below -1e-12 are rejected; small negative noise is clipped to
    zero. If any gap reaches 1e-14 the sequence terminated for practical
    purposes and the regime is ``"finite"``. Otherwise a geometric decay
    (log-gap against t) and a power-law decay (log-gap against log t)
    are fitted by least squares on the trailing half of the sequence, and
    the regime with the higher goodness of fit wins; if neither reaches
    0.9, or fewer than 5 tail points exist, the verdict is
    ``"inconclusive"``.
    """
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

    start = len(r) - max(int(np.ceil(_TAIL_FRACTION * len(r))), 1)
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
