"""Dataset handling: LIBSVM text format, synthetic generators, bundled fixtures.

The LIBSVM format is one sample per line, ``label idx:val idx:val ...``
with 1-based, strictly increasing feature indices. Indices are mapped to
0-based columns internally. Real benchmark datasets are not bundled (use
:func:`load_libsvm` on a downloaded copy); desk-scale synthetic stand-ins
with a similar sparse texture are generated deterministically per seed,
and one 200x30 instance per kind ships with the package.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass

import numpy as np

from .linalg import CsrMatrix

__all__ = [
    "Dataset",
    "ParseError",
    "parse_libsvm",
    "load_libsvm",
    "serialize_libsvm",
    "dump_libsvm",
    "generate_synthetic",
    "lasso_l1_weight",
    "SYNTHETIC_KINDS",
    "fixture_path",
    "fixture_dataset",
]

# Synthetic feature texture: sparse Gaussian entries, scaled so the
# objectives' Lipschitz constants land near the unit stepsizes used by
# the experiment-mode benchmarks. Logistic columns get a geometric scale
# spread (real sparse benchmark features have wildly uneven column
# frequencies), which keeps the instance unconverged long enough for
# restart schedules to separate.
_DENSITY = 0.3
_LOGISTIC_SCALE = 4.0
_LOGISTIC_COLUMN_SPREAD = 1000.0
_ROBUST_SCALE = 1.0
_LABEL_NOISE = 0.1    # share of logistic labels flipped
_MARGIN = 1.0         # weight of the planted logistic separator
_OUTLIER_FRAC = 0.1   # share of grossly corrupted robust targets
_CONDITION = 100.0    # lasso curvature spread
_NOISE = 0.01         # lasso target noise


class ParseError(ValueError):
    """Malformed LIBSVM input; the message names the offending line."""


@dataclass(frozen=True, eq=False)
class Dataset:
    features: CsrMatrix
    labels: np.ndarray
    name: str

    def __post_init__(self):
        if len(self.labels) != self.features.n_rows:
            raise ValueError("label count does not match the number of rows")

    @property
    def n_rows(self) -> int:
        return self.features.n_rows

    @property
    def n_cols(self) -> int:
        return self.features.n_cols


def parse_libsvm(lines, expected_dim: int | None = None, name: str = "libsvm") -> Dataset:
    """Parse LIBSVM-format text into a :class:`Dataset`.

    Parameters
    ----------
    lines : iterable of str
        The input, one sample per nonempty line (an open text file works).
    expected_dim : int, optional
        Nonnegative lower bound on the feature dimension; the result has
        ``max(largest index seen, expected_dim)`` columns.

    Raises
    ------
    ValueError
        If ``expected_dim`` is negative.
    ParseError
        On a nonnumeric or nonfinite label or value, a nonincreasing feature index, an index
        below 1, or a ``_`` (which Python's number syntax would read as a digit separator)
        -- the message carries the 1-based line number and token.
    """
    if expected_dim is not None and expected_dim < 0:
        raise ValueError(f"expected_dim must be nonnegative, got {expected_dim}")
    labels = []
    row_ptr = [0]
    col_idx: list[int] = []
    vals: list[float] = []
    max_index = 0

    for lineno, raw in enumerate(lines, start=1):
        tokens = raw.split()
        if not tokens:
            continue
        if "_" in raw:
            token = next(t for t in tokens if "_" in t)
            raise ParseError(f"line {lineno}: digit separator '_' in token {token!r}")
        try:
            label = float(tokens[0])
        except ValueError:
            raise ParseError(f"line {lineno}: nonnumeric label {tokens[0]!r}") from None
        if not math.isfinite(label):
            raise ParseError(f"line {lineno}: nonfinite label {tokens[0]!r}")
        labels.append(label)
        prev_index = 0
        for token in tokens[1:]:
            idx_s, sep, val_s = token.partition(":")
            if not sep:
                raise ParseError(f"line {lineno}: malformed feature token {token!r}")
            try:
                index = int(idx_s)
            except ValueError:
                raise ParseError(f"line {lineno}: nonnumeric index in token {token!r}") from None
            try:
                value = float(val_s)
            except ValueError:
                raise ParseError(f"line {lineno}: nonnumeric value in token {token!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: nonfinite value in token {token!r}")
            if index < 1:
                raise ParseError(f"line {lineno}: feature index must be >= 1 in token {token!r}")
            if index <= prev_index:
                raise ParseError(f"line {lineno}: nonincreasing feature index in token {token!r}")
            prev_index = index
            col_idx.append(index - 1)
            vals.append(value)
        row_ptr.append(len(vals))
        max_index = max(max_index, prev_index)

    dim = max(max_index, expected_dim or 0)
    features = CsrMatrix(len(labels), dim, row_ptr, col_idx, vals)
    return Dataset(features, np.array(labels, dtype=np.float64), name)


def load_libsvm(path, expected_dim: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, expected_dim=expected_dim, name=str(path))


def serialize_libsvm(dataset: Dataset) -> str:
    """Render a dataset back to LIBSVM text (1-based indices, exact floats)."""
    A = dataset.features
    out = []
    for i in range(A.n_rows):
        parts = [repr(float(dataset.labels[i]))]
        for p in range(A.row_ptr[i], A.row_ptr[i + 1]):
            parts.append(f"{A.col_idx[p] + 1}:{float(A.vals[p])!r}")
        out.append(" ".join(parts))
    return "\n".join(out) + ("\n" if out else "")


def dump_libsvm(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_libsvm(dataset))


def _sparse_gaussian(rng, n, d, density, scale) -> np.ndarray:
    mask = rng.random((n, d)) < density
    return np.where(mask, rng.standard_normal((n, d)) * scale, 0.0)


def _make_logistic(rng, n, d):
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    labels = rng.choice((-1.0, 1.0), size=n)
    features = _sparse_gaussian(rng, n, d, _DENSITY, _LOGISTIC_SCALE)
    # Plant the separator on each row's support so the sparse texture stays.
    support = features != 0.0
    features += support * (_MARGIN * labels[:, None] * w[None, :])
    features *= np.geomspace(1.0 / np.sqrt(_LOGISTIC_COLUMN_SPREAD), 1.0, d)[None, :]
    flips = rng.random(n) < _LABEL_NOISE
    return features, np.where(flips, -labels, labels)


def _make_robust(rng, n, d):
    w = rng.standard_normal(d)
    features = _sparse_gaussian(rng, n, d, _DENSITY, _ROBUST_SCALE)
    targets = features @ w + 0.05 * rng.standard_normal(n)
    n_out = int(round(_OUTLIER_FRAC * n))
    rows = rng.choice(n, size=n_out, replace=False)
    targets[rows] += rng.choice((-1.0, 1.0), size=n_out) * rng.uniform(5.0, 15.0, size=n_out)
    return features, targets


def _make_lasso(rng, n, d):
    # Controlled spectrum: singular values of A/sqrt(n) geometric in
    # [1/sqrt(_CONDITION), 1], so the quadratic term has curvature in
    # [1/_CONDITION, 1]. The planted solution is dense, which keeps the
    # active set large enough to see the spectrum's low end; the resulting
    # linear convergence regime then stays observable over a desk-scale
    # run instead of terminating at machine precision within a few dozen
    # periods.
    gu = rng.standard_normal((n, d))
    gv = rng.standard_normal((d, d))
    U, _ = np.linalg.qr(gu)
    V, _ = np.linalg.qr(gv)
    sigma = np.sqrt(np.geomspace(1.0 / _CONDITION, 1.0, d)) * np.sqrt(n)
    A = (U * sigma) @ V.T
    x_true = rng.choice((-1.0, 1.0), size=d) * rng.uniform(0.5, 1.5, size=d)
    b = A @ x_true + _NOISE * rng.standard_normal(n)
    return A, b


# each maker returns a dense feature matrix and its labels or targets
_MAKERS = {"logistic_sep": _make_logistic, "robust_outliers": _make_robust,
           "lasso_known": _make_lasso}
SYNTHETIC_KINDS = tuple(_MAKERS)


def generate_synthetic(kind: str, n: int, d: int, seed: int) -> Dataset:
    """Generate a desk-scale synthetic dataset, deterministic per seed.

    Kinds
    -----
    ``"logistic_sep"``
        Sparse Gaussian features with a planted separator and 10% of the
        labels flipped (classification).
    ``"robust_outliers"``
        Sparse linear data where 10% of the targets are grossly
        corrupted -- the setting the robust regression loss is made for
        (regression).
    ``"lasso_known"``
        A least-squares + L1 instance with spectrum spread over
        ``[1/100, 1]`` (regression); :func:`lasso_l1_weight` gives its
        default L1 weight.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be >= 1")
    rng = np.random.default_rng(seed)
    if kind not in _MAKERS:
        raise ValueError(f"unknown synthetic kind {kind!r}; expected one of {SYNTHETIC_KINDS}")
    features, labels = _MAKERS[kind](rng, n, d)
    return Dataset(CsrMatrix.from_dense(features), labels, f"{kind}-{n}x{d}-seed{seed}")


def lasso_l1_weight(dataset: Dataset) -> float:
    """Default L1 weight of a least-squares + L1 instance.

    ``0.05 * max|A.T b| / n``: 5% of the smallest weight ``mu`` at which
    zero solves ``min (1/2n) ||A x - b||^2 + mu ||x||_1``.
    """
    A = dataset.features.to_dense()
    return 0.05 * float(np.max(np.abs(A.T @ dataset.labels))) / dataset.n_rows


def fixture_path(kind: str):
    """Path to the bundled 200x30 fixture file for ``kind``."""
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}")
    return importlib.resources.files("proxrestart").joinpath(f"data/{kind}.libsvm")


def fixture_dataset(kind: str) -> Dataset:
    """Load the bundled fixture for ``kind`` (parsed from LIBSVM text)."""
    with fixture_path(kind).open("r", encoding="utf-8") as fh:
        return parse_libsvm(fh, name=kind)
