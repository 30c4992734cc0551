"""Independent numerical oracles the tests check library code against.

Nothing here reuses the closed forms under test: the prox oracle minimizes
the defining objective by golden-section search, and the gradient oracle
uses central finite differences. ``prefix_iterates`` recovers a run's
iterates from the solver's determinism alone.
"""

from dataclasses import replace

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
