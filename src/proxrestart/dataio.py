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

    The input is read in blocks of whole lines, about 1 MiB of text each,
    so memory grows with one block plus the output arrays. numpy parses a
    block when all of it is in the common grammar:

    - ASCII text of ``0-9 + - . e E :``, spaces, tabs, ``\\r`` and line
      ends, with each item of ``lines`` one line;
    - labels and values decimal floats, ``[+-](d+[.d*]|.d+)[(e|E)[+-]d+]``;
    - indices of 1 to 15 digits and nothing else.

    Any other block goes through a per-line reader, which takes whatever
    Python's ``float`` and ``int`` take (``+3`` as an index, Unicode digits
    and spaces, ...). Either way the dataset, or the error and its line
    number, is the one that reader gives for the whole input.

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
    # a tuple is true, so the reader runs only where the vectorised parse gives up
    parts = [_parse_block(block) or _parse_lines(block, first) for first, block in _blocks(lines)]
    labels, lengths, col_idx, vals = (
        np.concatenate(arrays) for arrays in zip(*(parts or [_parse_lines((), 1)])))
    del parts
    row_ptr = np.zeros(len(labels) + 1, dtype=np.int64)
    np.cumsum(lengths, out=row_ptr[1:])
    dim = max(int(col_idx.max(initial=-1)) + 1, expected_dim or 0)
    return Dataset(CsrMatrix(len(labels), dim, row_ptr, col_idx, vals), labels, name)


# Text is parsed in blocks of whole lines of about this many characters.
_BLOCK_CHARS = 1 << 20

# Byte classes of the vectorised grammar, as a ``bytes.translate`` table;
# class 0 sends the block to the per-line reader.
_WS, _DIGIT, _COLON, _DOT, _EXP, _SIGN = 1, 2, 3, 4, 5, 6
_CLASSES = bytearray(256)
for _chars, _cls in ((b" \t\r\n", _WS), (b"0123456789", _DIGIT), (b":", _COLON), (b".", _DOT),
                     (b"eE", _EXP), (b"+-", _SIGN)):
    for _c in _chars:
        _CLASSES[_c] = _cls
_CLASSES = bytes(_CLASSES)
_MAX_INDEX_DIGITS = 15  # far inside int64; a longer index goes to the per-line reader
_MAX_INDEX = int(np.iinfo(np.int64).max)  # the per-line reader refuses a larger index


def _symbol_ok(prev, kind, nxt):
    """Whether a sign, point or exponent mark between bytes of these classes can be in a float."""
    first = prev in (_WS, _COLON)
    if kind == _SIGN:
        return (first or prev == _EXP) and (nxt == _DIGIT or (first and nxt == _DOT))
    if kind == _DOT:
        return _DIGIT in (prev, nxt)
    return kind != _EXP or (prev in (_DIGIT, _DOT) and nxt in (_DIGIT, _SIGN))


_SYMBOL_OK = np.array([[[_symbol_ok(p, k, n) for n in range(7)] for k in range(7)]
                       for p in range(7)])


def _blocks(lines):
    """Yield ``(number of the first line, list of lines)``, ``_BLOCK_CHARS`` at a time."""
    block, size, first = [], 0, 1
    for line in lines:
        block.append(line)
        size += len(line)
        if size >= _BLOCK_CHARS:
            yield first, block
            first += len(block)
            block, size = [], 0
    if block:
        yield first, block


def _parse_lines(lines, first_lineno):
    """The per-line reader: parse ``lines`` token by token, or raise :class:`ParseError`.

    Returns the labels, the entries per row, the 0-based columns and the values.
    """
    labels, lengths, col_idx, vals = [], [], [], []
    for lineno, raw in enumerate(lines, start=first_lineno):
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
            if index > _MAX_INDEX:
                raise ParseError(f"line {lineno}: feature index beyond int64 in token {token!r}")
            if index <= prev_index:
                raise ParseError(f"line {lineno}: nonincreasing feature index in token {token!r}")
            prev_index = index
            col_idx.append(index - 1)
            vals.append(value)
        lengths.append(len(tokens) - 1)
    return (np.array(labels, dtype=np.float64), np.array(lengths, dtype=np.int64),
            np.array(col_idx, dtype=np.int64), np.array(vals, dtype=np.float64))


def _parse_block(lines):
    """Parse ``lines`` as :func:`_parse_lines` does, or return None if any of it is outside
    the fast grammar.

    Each check refuses what the per-line reader would refuse or read
    differently, so a block that passes gives that reader's result.
    """
    # A newline before and after each line; every field then has whitespace on both sides.
    text = "\n" + "\n".join(lines) + "\n"
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    classes = raw.translate(_CLASSES)
    if b"\0" in classes:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    cls = np.frombuffer(classes, dtype=np.uint8)
    # An item of ``lines`` is one line to the reader, so its only newline may be its last byte.
    newlines = np.flatnonzero(buf == 10)
    lens = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    joins = np.cumsum(lens + 1)
    if len(newlines) != len(lines) + 1 + np.count_nonzero(buf[joins[lens > 0] - 1] == 10):
        return None

    # Fields are maximal runs of non-whitespace; the first on each line is its label.
    solid = cls > _WS
    starts = np.flatnonzero(solid[1:] > solid[:-1]) + 1
    if not len(starts):
        return None  # blank lines only; np.fromstring would read that text as [-1.0]
    is_label = np.zeros(len(starts) + 1, dtype=bool)
    is_label[np.searchsorted(starts, newlines)] = True
    is_label = is_label[:-1]
    feature = np.flatnonzero(~is_label)

    # Exactly one colon in each feature field and none in a label (the k-th colon lies
    # in the k-th feature field), with 1 to 15 index bytes before it and a value after it.
    colon = np.flatnonzero(cls == _COLON)
    if len(colon) != len(feature):
        return None
    digits = colon - starts[feature]
    if (np.any((digits < 1) | (digits > _MAX_INDEX_DIGITS)) or np.any(cls[colon + 1] == _WS)
            or np.any(colon >= np.append(starts, len(buf))[feature + 1])):
        return None

    # Each label and value is a decimal float, ``[+-](d+[.d*]|.d+)[(e|E)[+-]d+]``: checked
    # from the neighbours of its signs, points and exponent marks ...
    sym = np.flatnonzero(cls >= _DOT)
    kind = cls[sym]
    if not _SYMBOL_OK[cls[sym - 1], kind, cls[sym + 1]].all():
        return None
    # ... and from the order of its points and exponent marks: at most one of each, the
    # point first. (A symbol before a colon fails the index's digit check below.)
    marks = kind != _SIGN
    mark_kind = kind[marks]
    mark_field = np.searchsorted(starts, sym[marks], side="right")
    if np.any((mark_field[1:] == mark_field[:-1])
              & ((mark_kind[:-1] != _DOT) | (mark_kind[1:] != _EXP))):
        return None

    # Indices from their digits, cut out of the text: row k of ``at`` holds the positions
    # of the ``width`` bytes before colon k, of which the last ``digits[k]`` are its index
    # (the others are ignored, and may wrap around to the end of the block).
    width = int(digits.max(initial=0))
    at = colon[:, None] - np.arange(width, 0, -1)
    in_index = np.arange(width) >= width - digits[:, None]
    if not np.all((cls[at] == _DIGIT) | ~in_index):
        return None
    col_idx = np.where(in_index, buf[at] - 48, 0) @ 10 ** np.arange(width - 1, -1, -1)
    cut = buf.copy()
    cut[colon] = 32
    cut[at[in_index]] = 32
    new_row = is_label[feature - 1]
    if np.any(col_idx < 1) or np.any((col_idx[1:] <= col_idx[:-1]) & ~new_row[1:]):
        return None
    col_idx -= 1

    # Each label and value is now one whitespace-separated decimal float.
    numbers = np.fromstring(cut.tobytes(), dtype=np.float64, sep=" ")
    if len(numbers) != len(starts) or not np.all(np.isfinite(numbers)):
        return None
    lengths = np.diff(np.append(np.flatnonzero(is_label), len(starts))) - 1
    return numbers[is_label], lengths, col_idx, numbers[feature]


def load_libsvm(path, expected_dim: int | None = None) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_libsvm(fh, expected_dim=expected_dim, name=str(path))


def serialize_libsvm(dataset: Dataset) -> str:
    """Render a dataset back to LIBSVM text (1-based indices, exact floats)."""
    A = dataset.features
    row_ptr, col_idx, vals = A.row_ptr.tolist(), A.col_idx.tolist(), A.vals.tolist()
    out = []
    for i, label in enumerate(np.asarray(dataset.labels, dtype=np.float64).tolist()):
        lo, hi = row_ptr[i], row_ptr[i + 1]
        entries = [f"{j + 1}:{x!r}" for j, x in zip(col_idx[lo:hi], vals[lo:hi])]
        out.append(" ".join([repr(label)] + entries))
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
