"""Smooth objective terms: value, analytic gradient, and a Lipschitz bound.

Three families cover the benchmark problems:

* ``LogisticObjective`` -- averaged logistic loss over labeled rows plus a
  bounded nonconvex penalty ``alpha * sum_j x_j^2 / (1 + x_j^2)`` (a smooth
  Geman-McClure--style term that caps each coordinate's contribution).
* ``RobustRegressionObjective`` -- averaged Cauchy-type loss
  ``log(s^2/2 + 1)`` of the residuals, which flattens out for gross
  outliers.
* ``QuadraticObjective`` -- averaged least squares, mainly for rate tests
  and lasso-style composite instances.

Losses are averaged with ``1/n`` so the gradient-Lipschitz constant does
not grow with the number of rows. The Lipschitz estimates combine
curvature bounds of each loss with a power-iteration estimate of
``||A||_2^2``. That estimate approaches the true value from below, so
``lipschitz`` is an estimate, not a proven upper bound, even though the
solver's theory stepsizes assume one. Certifying it is an open item in
``ROADMAP.md``.

Each objective remembers the last product ``A @ x`` it computed, keyed by
the exact bytes of ``x``. The solvers ask for the gradient at the point
whose value they just computed (every restart and every proximal-gradient
iteration), and the memo then saves that forward product. A hit returns
the same bits the product would, so results do not depend on it.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit

from .linalg import CsrMatrix, spectral_norm_sq, spmv, spmv_transpose

__all__ = [
    "LogisticObjective",
    "RobustRegressionObjective",
    "QuadraticObjective",
]


class _DataObjective:
    """Shared plumbing: dimension checks, the ``A @ x`` memo and cached Lipschitz estimates."""

    def __init__(self, A: CsrMatrix, b):
        b = np.ascontiguousarray(b, dtype=np.float64)
        if len(b) != A.n_rows:
            raise ValueError(f"matrix has {A.n_rows} rows but got {len(b)} labels/targets")
        self.A = A
        self.b = b
        self.n = A.n_rows
        self.dim = A.n_cols
        self._lipschitz_cache: dict[int, float] = {}
        self._ax_key: bytes | None = None
        self._ax: np.ndarray | None = None

    def _check_x(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dim,):
            raise ValueError(f"objective expects dimension {self.dim}, got shape {x.shape}")
        return x

    def _Ax(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``, reusing the previous product when ``x`` has the same bytes.

        The key is a snapshot of the bytes, so ``-0.0`` and ``0.0`` differ
        and changing the caller's array in place cannot return a stale
        product. The result is shared with the memo: callers must not
        change it in place.
        """
        key = x.tobytes()
        if key != self._ax_key:
            self._ax = spmv(self.A, x)
            self._ax_key = key
        return self._ax

    def lipschitz(self, seed: int = 0) -> float:
        """Estimate of the gradient's Lipschitz constant (cached per seed).

        Built on the power-iteration estimate of ``||A||_2^2``, which
        approaches the true value from below, so it may fall slightly
        short of the true constant.
        """
        L = self._lipschitz_cache.get(seed)
        if L is None:
            L = self._lipschitz_from_spectrum(spectral_norm_sq(self.A, iters=200, seed=seed))
            self._lipschitz_cache[seed] = L
        return L

    def _lipschitz_from_spectrum(self, spec_sq: float) -> float:
        raise NotImplementedError


class LogisticObjective(_DataObjective):
    """Averaged logistic loss with a bounded nonconvex coordinate penalty.

    f(x) = (1/n) sum_i log(1 + exp(-b_i <a_i, x>))
           + alpha * sum_j x_j^2 / (1 + x_j^2)

    Labels must be -1/+1. ``alpha`` is the nonconvex penalty weight; with
    ``alpha = 0`` this is plain averaged logistic regression.
    """

    def __init__(self, A: CsrMatrix, labels, alpha: float = 0.01):
        super().__init__(A, labels)
        if not np.all(np.isin(self.b, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        self.alpha = float(alpha)

    def value(self, x) -> float:
        x = self._check_x(x)
        margins = self.b * self._Ax(x)
        # log(1 + exp(-m)) evaluated stably for both signs of m.
        loss = float(np.logaddexp(0.0, -margins).sum()) / self.n
        xsq = x * x
        return loss + self.alpha * float((xsq / (1.0 + xsq)).sum())

    def gradient(self, x) -> np.ndarray:
        x = self._check_x(x)
        margins = self.b * self._Ax(x)
        w = -self.b * expit(-margins)
        grad = spmv_transpose(self.A, w) / self.n
        grad += self.alpha * 2.0 * x / (1.0 + x * x) ** 2
        return grad

    def _lipschitz_from_spectrum(self, spec_sq: float) -> float:
        # Logistic curvature <= 1/4; the penalty's second derivative is
        # 2 * (1 - 3 x^2) / (1 + x^2)^3, bounded by 2 in magnitude.
        return spec_sq / (4.0 * self.n) + 2.0 * self.alpha


class RobustRegressionObjective(_DataObjective):
    """Averaged Cauchy-type robust loss of the residuals.

    f(x) = (1/n) sum_i log((<a_i, x> - b_i)^2 / 2 + 1)
    """

    def value(self, x) -> float:
        x = self._check_x(x)
        s = self._Ax(x) - self.b
        return float(np.log1p(0.5 * s * s).sum()) / self.n

    def gradient(self, x) -> np.ndarray:
        x = self._check_x(x)
        s = self._Ax(x) - self.b
        return spmv_transpose(self.A, s / (0.5 * s * s + 1.0)) / self.n

    def _lipschitz_from_spectrum(self, spec_sq: float) -> float:
        # |d^2/ds^2 log(s^2/2 + 1)| = |1 - s^2/2| / (s^2/2 + 1)^2 <= 1.
        return spec_sq / self.n


class QuadraticObjective(_DataObjective):
    """Averaged least squares: f(x) = ||A x - b||^2 / (2 n)."""

    def value(self, x) -> float:
        x = self._check_x(x)
        r = self._Ax(x) - self.b
        return 0.5 * float(np.dot(r, r)) / self.n

    def gradient(self, x) -> np.ndarray:
        x = self._check_x(x)
        return spmv_transpose(self.A, self._Ax(x) - self.b) / self.n

    def _lipschitz_from_spectrum(self, spec_sq: float) -> float:
        return spec_sq / self.n
