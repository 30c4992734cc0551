"""CSR sparse matrices with the few kernels the solvers need.

Everything is 64-bit float throughout: the solver diagnostics compare
inequalities at tolerances (1e-9 and tighter) that single precision would
break. All operations here are pure and deterministic, so repeated runs with
the same seed produce bit-identical results.

Both products run scipy's compiled CSR kernel directly, which sums each
output entry over its row in ascending column order, starting from zero.
The transposed product uses a CSR copy of ``A.T`` that the matrix builds
once, on first use. Row ``j`` of that copy is column ``j`` of ``A`` in
ascending row order, the same order in which a column sweep over ``A``
accumulates ``(A.T @ y)[j]``; so the copy saves a transpose per call
without moving an output bit.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = [
    "CsrMatrix",
    "spmv",
    "spmv_transpose",
    "spectral_norm_sq",
]


class CsrMatrix:
    """Immutable row-compressed sparse matrix over a scipy CSR matrix.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape.
    row_ptr : array of int, length ``n_rows + 1``
        Nondecreasing offsets into ``col_idx``/``vals``; ``row_ptr[0] == 0``
        and ``row_ptr[-1] == len(vals)``.
    col_idx : array of int
        Column indices, strictly increasing within each row and ``< n_cols``.
    vals : array of float
        Nonzero values (finite).

    ``row_ptr``, ``col_idx`` and ``vals`` are the scipy matrix's own arrays
    (int32 indices whenever they fit). The CSR copy of the transpose that
    :func:`spmv_transpose` uses is built on its first call, not here, so a
    matrix that is only parsed, validated or multiplied forward never
    holds it.
    """

    __slots__ = ("_csr", "_csr_t")

    def __init__(self, n_rows, n_cols, row_ptr, col_idx, vals):
        if n_rows < 0 or n_cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        row_ptr = np.asarray(row_ptr, dtype=np.int64)
        if row_ptr.shape != (n_rows + 1,):
            raise ValueError("row_ptr must have length n_rows + 1")
        # Checked before scipy sees the arrays: it would silently drop the
        # entries past a short row_ptr[-1].
        if row_ptr[0] != 0 or row_ptr[-1] != len(vals) or len(vals) != len(col_idx):
            raise ValueError("row_ptr endpoints inconsistent with data length")
        # Converting lists with a fixed dtype is faster than scipy's dtype
        # discovery; scipy then downcasts the indices to int32 if they fit.
        col_idx = np.asarray(col_idx, dtype=np.int64)
        vals = np.ascontiguousarray(vals, dtype=np.float64)
        # scipy backs the actual products; its CSR matvec walks each row in
        # ascending column order, which fixes the accumulation order.
        self._csr = sp.csr_matrix((vals, col_idx, row_ptr), shape=(n_rows, n_cols))
        self._csr_t = None
        row_ptr, col_idx = self.row_ptr, self.col_idx
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be nondecreasing")
        if len(col_idx) and (col_idx.min() < 0 or col_idx.max() >= n_cols):
            raise ValueError("column index out of range")
        # One pass over all neighbouring pairs; a pair that straddles a row
        # boundary (entry p + 1 starts a row) may decrease.
        bad = np.diff(col_idx) <= 0
        starts = row_ptr[1:-1]
        bad[starts[(starts > 0) & (starts < len(col_idx))] - 1] = False
        if bad.any():
            i = int(np.searchsorted(row_ptr, int(np.argmax(bad)) + 1, side="right")) - 1
            raise ValueError(f"row {i}: column indices not strictly increasing")
        if not np.all(np.isfinite(self.vals)):
            raise ValueError("matrix values contain NaN or Inf")

    @property
    def n_rows(self) -> int:
        return self._csr.shape[0]

    @property
    def n_cols(self) -> int:
        return self._csr.shape[1]

    @property
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self) -> int:
        return len(self._csr.data)

    @property
    def row_ptr(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def col_idx(self) -> np.ndarray:
        return self._csr.indices

    @property
    def vals(self) -> np.ndarray:
        return self._csr.data

    @classmethod
    def from_dense(cls, dense) -> "CsrMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        a = np.asarray(dense, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        csr = sp.csr_matrix(a)  # built row by row, so its indices are sorted
        return cls(a.shape[0], a.shape[1], csr.indptr, csr.indices, csr.data)

    def _transpose_csr(self) -> sp.csr_matrix:
        """CSR copy of ``A.T`` with sorted indices, built once on first use."""
        if self._csr_t is None:
            csr_t = self._csr.T.tocsr()
            csr_t.sort_indices()
            self._csr_t = csr_t
        return self._csr_t

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def __eq__(self, other):
        if not isinstance(other, CsrMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.col_idx, other.col_idx)
            and np.array_equal(self.vals, other.vals)
        )

    def __repr__(self):
        return f"CsrMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array, with the bits of ``np.linalg.norm``.

    ``np.linalg.norm`` computes ``sqrt(v.dot(v))`` too, and both square
    roots are correctly rounded; this form skips its dispatch overhead.
    """
    return math.sqrt(v.dot(v))


def _csr_matvec(M: sp.csr_matrix, x: np.ndarray) -> np.ndarray:
    """``M @ x`` by scipy's compiled CSR kernel, without its dispatch layer.

    This is the kernel ``M.dot(x)`` ends in for a float64 vector, with the
    same zero-initialised output, so the result is bit-identical to it.
    The caller has checked that ``x`` is a float64 vector of length
    ``M.shape[1]``.
    """
    n_rows, n_cols = M.shape
    out = np.zeros(n_rows)
    _sparsetools.csr_matvec(n_rows, n_cols, M.indptr, M.indices, M.data, x, out)
    return out


def spmv(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``A @ x``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n_cols,):
        raise ValueError(f"dimension mismatch: matrix has {A.n_cols} columns, "
                         f"vector has shape {x.shape}")
    return _csr_matvec(A._csr, x)


def spmv_transpose(A: CsrMatrix, y: np.ndarray) -> np.ndarray:
    """Transposed product ``A.T @ y`` through the cached CSR copy of ``A.T``.

    Each output entry sums its column of ``A`` in ascending row order,
    exactly as a column sweep over ``A`` would.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (A.n_rows,):
        raise ValueError(f"dimension mismatch: matrix has {A.n_rows} rows, "
                         f"vector has shape {y.shape}")
    return _csr_matvec(A._transpose_csr(), y)


def spectral_norm_sq(A: CsrMatrix, iters: int = 100, seed: int = 0) -> float:
    """Estimate ``||A||_2^2`` by power iteration on ``A.T A``.

    Starts from a seeded Gaussian vector and stops early once the Rayleigh
    quotient changes by less than 1e-10 relatively. The estimate approaches
    the true value from below, so it never exceeds the squared Frobenius
    norm.

    Returns 0.0 for a matrix with no nonzeros (or one annihilating the
    start vector).
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if A.nnz == 0:
        return 0.0
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.n_cols)
    estimate = 0.0
    for _ in range(iters):
        norm_v = float(np.linalg.norm(v))
        if norm_v == 0.0:
            return 0.0
        v /= norm_v
        av = spmv(A, v)
        new_estimate = float(np.dot(av, av))
        if estimate > 0.0 and abs(new_estimate - estimate) <= 1e-10 * estimate:
            return new_estimate
        estimate = new_estimate
        v = spmv_transpose(A, av)
    return estimate
