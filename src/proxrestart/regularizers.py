"""Convex regularizers with closed-form proximal maps.

All four are one separable penalty, ``g(x) = l1 ||x||_1 + (l2/2) ||x||^2``:
``Zero`` has neither term, ``L1`` the first, ``SquaredL2`` the second and
``ElasticNet`` both. An absent term is skipped; a zero weight is not, so
``L1(0.0)`` still soft-thresholds, by 0. Each gives the value ``g(x)``, the
proximal map (soft-threshold by ``eta * l1``, then divide by ``1 + eta * l2``)

    prox(x, eta) = argmin_z { g(z) + ||z - x||^2 / (2 eta) },

and the exact Euclidean distance from zero to ``grad_f + dg(x)``, the
subdifferential of the composite objective at ``x``. Separability makes that
distance closed-form per coordinate, so the solver's stationarity bound is checkable.

Nonconvex penalties (such as the bounded ``x^2/(1+x^2)`` term used by the
logistic benchmark) are smooth and belong to the objective side, not here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import number_field
from .linalg import _norm

__all__ = ["Zero", "L1", "SquaredL2", "ElasticNet", "gradient_mapping"]


def _check_eta(eta: float) -> float:
    eta = float(eta)
    if eta <= 0.0:
        raise ValueError(f"prox stepsize eta must be positive, got {eta}")
    return eta


class _Separable:
    """The penalty ``g`` above; a weight of None marks an absent term."""

    def _set_weights(self, l1, l2):
        object.__setattr__(self, "_l1", l1)
        object.__setattr__(self, "_l2", l2)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        v = 0.0 if self._l1 is None else self._l1 * float(np.abs(x).sum())
        if self._l2 is not None:
            v += 0.5 * self._l2 * float(np.dot(x, x))
        return v

    def prox(self, x, eta) -> np.ndarray:
        eta = _check_eta(eta)
        if self._l1 is None and self._l2 is None:
            return np.array(x, dtype=np.float64, copy=True)
        z = np.asarray(x, dtype=np.float64)
        if self._l1 is not None:
            z = np.sign(z) * np.maximum(np.abs(z) - eta * self._l1, 0.0)
        if self._l2 is not None:
            z = z / (1.0 + eta * self._l2)
        return z

    def subdiff_distance(self, grad_f, x) -> float:
        r = np.asarray(grad_f, dtype=np.float64)
        x = np.asarray(x, dtype=np.float64)
        if self._l1 is not None:
            # At x_i = 0 the subdifferential of l1 |x_i| is [-l1, l1]; elsewhere l1 sign(x_i).
            r = np.where(x == 0.0, np.maximum(np.abs(r) - self._l1, 0.0),
                         r + self._l1 * np.sign(x))
        if self._l2 is not None:
            r = r + self._l2 * x
        return _norm(r)


@dataclass(frozen=True)
class Zero(_Separable):
    """No regularization: g(x) = 0, prox is the identity."""

    def __post_init__(self):
        self._set_weights(None, None)


@dataclass(frozen=True)
class L1(_Separable):
    """g(x) = mu * ||x||_1 (soft-threshold prox)."""

    mu: float

    def __post_init__(self):
        self._set_weights(number_field(self, "mu", 0.0), None)


@dataclass(frozen=True)
class SquaredL2(_Separable):
    """g(x) = (mu/2) * ||x||^2 (multiplicative shrinkage prox)."""

    mu: float

    def __post_init__(self):
        self._set_weights(None, number_field(self, "mu", 0.0))


@dataclass(frozen=True)
class ElasticNet(_Separable):
    """g(x) = mu1 * ||x||_1 + (mu2/2) * ||x||^2."""

    mu1: float
    mu2: float

    def __post_init__(self):
        self._set_weights(number_field(self, "mu1", 0.0), number_field(self, "mu2", 0.0))


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
