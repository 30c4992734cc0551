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
not grow with the number of rows. ``lipschitz`` combines a curvature
bound of each loss with the upper bound on ``||A||_2^2`` from
:func:`~proxrestart.linalg.spectral_norm_sq`, so it is an upper bound on
the gradient's Lipschitz constant, as the solver's theory stepsizes
assume: exact up to a stated rounding margin when ``min(n, d) <= 256``,
and with probability at least ``1 - 1e-6`` over a fixed random start (the
Kuczynski-Wozniakowski Lanczos bound) above that.

The logistic loss is evaluated as ``log(1 + e^t) = max(t, 0) +
log1p(e^(-|t|))`` with ``t = -b * (A x)``, which is stable for both signs
of ``t`` and runs on numpy's vectorised ``exp`` and ``log1p`` loops
(``np.logaddexp`` computes the same identity one scalar at a time through
libm). Its value may differ from ``np.logaddexp`` by a few ulps, and which
SIMD loop numpy dispatches to depends on the CPU: ``F`` is the same across
reruns on one machine but not across CPUs. The robust loss value runs on
numpy's SIMD ``log1p`` too, so its ``F`` depends on the CPU in the same
way. Neither gradient depends on that dispatch: the logistic one goes
through ``scipy.special.expit``, the robust one takes no ``log1p``.
``scipy.special`` is imported by the first logistic gradient, not by this
module: it costs about 5 MB resident and 60-75 ms, which quadratic and
robust runs and ``check`` on the lasso grid never use. Its first import
also loads scipy's bundled ``libscipy_openblas`` unless the Lanczos
branch of :func:`~proxrestart.linalg.spectral_norm_sq` has (through
``scipy.sparse.linalg``): in set-up on input that large, else here.

Every loss has the form ``h(A x)``, so each objective offers one pair,
``value(x, Ax)`` and ``gradient(x, Ax)``, which start from the product
``Ax = spmv(A, x)`` the caller holds: the value then costs no matrix
product and the gradient one transposed product (``x`` is passed for the
logistic penalty). The solver carries ``A x`` and ``A y``, so the ``A z``
it passes can differ from a fresh product in the last bits;
:mod:`proxrestart.solver` states why that error stays damped.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .linalg import CsrMatrix, _row_pass, spectral_norm_sq, spmv_transpose

__all__ = [
    "LogisticObjective",
    "RobustRegressionObjective",
    "QuadraticObjective",
]


class _DataObjective:
    """Shared plumbing: the data checks and the cached Lipschitz bound.

    Each subclass defines ``value(x, Ax)`` and ``gradient(x, Ax)``, which
    trust ``Ax`` to be ``spmv(A, x)`` (``spmv`` refuses an ``x`` of the
    wrong length), and ``_lipschitz_from_spectrum(||A||_2^2)``.
    """

    def __init__(self, A: CsrMatrix, b):
        if A.n_rows == 0:
            raise ValueError("matrix has no rows; the averaged loss needs at least one")
        b = np.ascontiguousarray(b, dtype=np.float64)
        if len(b) != A.n_rows:
            raise ValueError(f"matrix has {A.n_rows} rows but got {len(b)} labels/targets")
        self.A = A
        self.b = b
        self.n = A.n_rows
        self._lipschitz: float | None = None

    def lipschitz(self) -> float:
        """Upper bound on the gradient's Lipschitz constant, computed once per objective.

        Built on :func:`~proxrestart.linalg.spectral_norm_sq`'s upper bound
        on ``||A||_2^2``, which is deterministic, so every run on this
        objective reads the same value. See that function for what is
        certified: up to a rounding margin when ``min(n, d) <= 256``, with
        probability at least ``1 - 1e-6`` above that.
        """
        if self._lipschitz is None:
            self._lipschitz = self._lipschitz_from_spectrum(spectral_norm_sq(self.A))
        return self._lipschitz


# The pairwise-summing kernel ndarray.sum ends in, without its Python frame.
_sum = np.add.reduce


@functools.cache
def _expit():
    from scipy.special import expit

    return expit


# The logistic row passes (linalg._row_pass). Outputs go positionally where
# numpy allows it (not np.maximum): at 200 rows ``out=`` costs a tenth of a
# ufunc call. In place, never in Ax, with the out-of-place formula's bits.

def _logistic_loss_terms(neg_b, Ax, loss=None):
    t = neg_b * Ax
    loss = np.absolute(t, loss)
    np.negative(loss, loss)
    np.exp(loss, loss)
    np.log1p(loss, loss)
    loss += np.maximum(t, 0.0, out=t)
    return loss


def _logistic_weights(expit, neg_b, Ax, w=None):
    w = np.multiply(neg_b, Ax, w)
    expit(w, w)
    w *= neg_b
    return w


class LogisticObjective(_DataObjective):
    """Averaged logistic loss with a bounded nonconvex coordinate penalty.

    f(x) = (1/n) sum_i log(1 + exp(-b_i <a_i, x>))
           + alpha * sum_j x_j^2 / (1 + x_j^2)

    Labels must be -1/+1. ``alpha`` is the nonconvex penalty weight; with
    ``alpha = 0`` this is plain averaged logistic regression.

    Each loss term is computed as ``max(t, 0) + log1p(exp(-|t|))`` with
    ``t = -b_i <a_i, x>``. The value can differ from ``np.logaddexp`` by a
    few ulps and depends on numpy's SIMD dispatch for ``exp``/``log1p``, so
    it is reproducible on one machine but not across CPUs; the gradient
    (``expit``) does not depend on it.
    """

    def __init__(self, A: CsrMatrix, labels, alpha: float = 0.01):
        super().__init__(A, labels)
        if not np.all(np.isin(self.b, (-1.0, 1.0))):
            raise ValueError("logistic labels must be -1 or +1")
        if alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not math.isfinite(alpha):
            raise ValueError(f"alpha must be finite, got {alpha!r}")
        self.alpha = float(alpha)
        self._neg_b = -self.b  # t = -b * Ax has the bits of -(b * Ax)

    def value(self, x, Ax) -> float:
        loss = _row_pass(self.A, _logistic_loss_terms, self._neg_b, Ax)
        xsq = x * x
        return float(_sum(loss)) / self.n + self.alpha * float(_sum(xsq / (1.0 + xsq)))

    def gradient(self, x, Ax) -> np.ndarray:
        w = _row_pass(self.A, _logistic_weights, _expit(), self._neg_b, Ax)
        grad = spmv_transpose(self.A, w)
        grad /= self.n
        # + alpha * 2 x / (1 + x^2)^2
        q = x * x
        q += 1.0
        np.square(q, out=q)
        penalty = self.alpha * 2.0 * x
        penalty /= q
        grad += penalty
        return grad

    def _lipschitz_from_spectrum(self, spec_sq: float) -> float:
        # Logistic curvature <= 1/4; the penalty's second derivative is
        # 2 * (1 - 3 x^2) / (1 + x^2)^3, bounded by 2 in magnitude.
        return spec_sq / (4.0 * self.n) + 2.0 * self.alpha


class RobustRegressionObjective(_DataObjective):
    """Averaged Cauchy-type robust loss of the residuals.

    f(x) = (1/n) sum_i log((<a_i, x> - b_i)^2 / 2 + 1)

    The value runs on numpy's SIMD ``log1p``, so, like the logistic value,
    it is reproducible on one machine but not across CPUs.
    """

    def value(self, x, Ax) -> float:
        s = Ax - self.b
        return float(_sum(np.log1p(0.5 * s * s))) / self.n

    def gradient(self, x, Ax) -> np.ndarray:
        s = Ax - self.b
        return spmv_transpose(self.A, s / (0.5 * s * s + 1.0)) / self.n

    def _lipschitz_from_spectrum(self, spec_sq: float) -> float:
        # |d^2/ds^2 log(s^2/2 + 1)| = |1 - s^2/2| / (s^2/2 + 1)^2 <= 1.
        return spec_sq / self.n


class QuadraticObjective(_DataObjective):
    """Averaged least squares: f(x) = ||A x - b||^2 / (2 n)."""

    def value(self, x, Ax) -> float:
        r = Ax - self.b
        return 0.5 * float(np.dot(r, r)) / self.n

    def gradient(self, x, Ax) -> np.ndarray:
        return spmv_transpose(self.A, Ax - self.b) / self.n

    def _lipschitz_from_spectrum(self, spec_sq: float) -> float:
        return spec_sq / self.n
