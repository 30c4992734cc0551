"""Convex regularizers with closed-form proximal maps.

Each regularizer bundles three things the solvers and diagnostics need:
the penalty value ``g(x)``, the proximal map

    prox(x, eta) = argmin_z { g(z) + ||z - x||^2 / (2 eta) },

and the exact Euclidean distance from zero to ``grad_f + dg(x)``, the
subdifferential of the composite objective at ``x``. The supported
penalties are separable (plus a quadratic), which is what makes the
subdifferential distance computable coordinate-wise in closed form and
turns the solver's stationarity bound into a checkable quantity rather
than an abstract one.

Nonconvex penalties (such as the bounded ``x^2/(1+x^2)`` term used by the
logistic benchmark) are smooth and belong to the objective side, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Zero",
    "L1",
    "SquaredL2",
    "ElasticNet",
    "gradient_mapping",
]


def _soft_threshold(x: np.ndarray, t: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array, with the bits of ``np.linalg.norm``.

    ``np.linalg.norm`` computes ``sqrt(v.dot(v))`` too, and both square
    roots are correctly rounded; this form skips its dispatch overhead.
    """
    return math.sqrt(v.dot(v))


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if eta <= 0.0:
        raise ValueError(f"prox stepsize eta must be positive, got {eta}")
    return eta


@dataclass(frozen=True)
class Zero:
    """No regularization: g(x) = 0, prox is the identity."""

    def value(self, x) -> float:
        return 0.0

    def prox(self, x, eta) -> np.ndarray:
        _check_eta(eta)
        return np.array(x, dtype=np.float64, copy=True)

    def subdiff_distance(self, grad_f, x) -> float:
        return _norm(np.asarray(grad_f, dtype=np.float64))


@dataclass(frozen=True)
class L1:
    """g(x) = mu * ||x||_1 (soft-threshold prox)."""

    mu: float

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    def value(self, x) -> float:
        return self.mu * float(np.abs(x).sum())

    def prox(self, x, eta) -> np.ndarray:
        eta = _check_eta(eta)
        return _soft_threshold(np.asarray(x, dtype=np.float64), eta * self.mu)

    def subdiff_distance(self, grad_f, x) -> float:
        grad_f = np.asarray(grad_f, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        # At x_i = 0 the subdifferential is the interval [-mu, mu]; elsewhere
        # it is the single point mu * sign(x_i).
        at_zero = x == 0.0
        r = np.where(
            at_zero,
            np.maximum(np.abs(grad_f) - self.mu, 0.0),
            grad_f + self.mu * np.sign(x),
        )
        return _norm(r)


@dataclass(frozen=True)
class SquaredL2:
    """g(x) = (mu/2) * ||x||^2 (multiplicative shrinkage prox)."""

    mu: float

    def __post_init__(self):
        if self.mu < 0:
            raise ValueError("mu must be nonnegative")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return 0.5 * self.mu * float(np.dot(x, x))

    def prox(self, x, eta) -> np.ndarray:
        eta = _check_eta(eta)
        return np.asarray(x, dtype=np.float64) / (1.0 + eta * self.mu)

    def subdiff_distance(self, grad_f, x) -> float:
        return _norm(np.asarray(grad_f, dtype=np.float64) + self.mu * np.asarray(x))


@dataclass(frozen=True)
class ElasticNet:
    """g(x) = mu1 * ||x||_1 + (mu2/2) * ||x||^2.

    The prox composes exactly: soft-threshold by ``eta * mu1``, then scale
    by ``1 / (1 + eta * mu2)``.
    """

    mu1: float
    mu2: float

    def __post_init__(self):
        if self.mu1 < 0 or self.mu2 < 0:
            raise ValueError("weights must be nonnegative")

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return self.mu1 * float(np.abs(x).sum()) + 0.5 * self.mu2 * float(np.dot(x, x))

    def prox(self, x, eta) -> np.ndarray:
        eta = _check_eta(eta)
        return _soft_threshold(np.asarray(x, dtype=np.float64), eta * self.mu1) / (1.0 + eta * self.mu2)

    def subdiff_distance(self, grad_f, x) -> float:
        grad_f = np.asarray(grad_f, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        at_zero = x == 0.0
        r = np.where(
            at_zero,
            np.maximum(np.abs(grad_f) - self.mu1, 0.0),
            grad_f + self.mu1 * np.sign(x) + self.mu2 * x,
        )
        return _norm(r)


def gradient_mapping(reg, eta: float, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Composite stationarity map ``(x - prox(x - eta*u, eta)) / eta``.

    With ``u = grad_f(x)`` this generalizes the gradient: it equals ``u``
    when ``g == 0`` and vanishes exactly at critical points of ``f + g``.
    """
    eta = _check_eta(eta)
    x = np.asarray(x, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if x.shape != u.shape:
        raise ValueError(f"shape mismatch: x has {x.shape}, u has {u.shape}")
    return (x - reg.prox(x - eta * u, eta)) / eta
