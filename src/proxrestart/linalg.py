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

In a process allowed to run on two or more CPUs, some passes run on two
threads: this one and a worker thread, each over one range of rows
(:func:`_split_rows`). The rows are cut once per matrix, where ``indptr``
crosses ``nnz / 2``. Two kinds of pass split:

* a forward or transposed product over at least ``_SPLIT_MIN_NNZ``
  (2**17) stored entries, the products inside :func:`spectral_norm_sq`'s
  Lanczos branch included;
* on a matrix of at least ``_SPLIT_MIN_ROWS`` (2**15) rows, the
  elementwise passes over the rows in each iteration: the logistic loss
  terms and gradient weights (:mod:`proxrestart.objectives`) and the
  restart step's carried ``A z`` and ``A y`` (:mod:`proxrestart.solver`).
  Those passes cut at the forward product's cut, so each thread reads
  the half of ``A x`` it wrote.

Each row pass is one part function, which returns its output and
allocates it when given none; :func:`_row_pass` alone decides whether it
runs whole (below ``_SPLIT_MIN_ROWS`` rows) or split.

The worker runs on a CPU other than the caller's: at each split the
caller pins it to the caller's usable CPUs but its own, if the worker may
run on the caller's CPU. Left alone, the scheduler of a 2-vCPU guest kept
a woken worker on its waker's CPU, so the two halves took turns on one
CPU and every split pass ran slower than whole. And the worker runs its
half only if it claims it first: the caller, done with its own half,
runs the worker's half too if the worker has not started it, and waits
only for a half the worker is running. A second CPU that is busy or slow
to wake then costs one handoff, not a wait.

Each output entry is still computed by one thread, from the same
operands in the same order, so the bits do not depend on the split, on
which thread ran a half, or on the CPU count. Reductions (sums, norms,
dot products) never split: each stays one call over the whole array, on
the caller's thread.

:func:`spectral_norm_sq` gives the objectives their upper bound on
``||A||_2^2``: a dense LAPACK SVD for small matrices, Lanczos with the
Kuczynski-Wozniakowski random-start bound for large ones.
"""

from __future__ import annotations

import math
import os
import threading

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
    holds it. Beside each CSR matrix sits the row at which its products
    and the row passes split (:func:`_row_cut`).
    """

    __slots__ = ("_csr", "_csr_t", "_cut", "_cut_t")

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
        self._csr_t = self._cut_t = None
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
        self._cut = _row_cut(self._csr)

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
        """Build from a dense 2-D array, dropping exact zeros (``-0.0`` included).

        One numpy pass builds the CSR arrays: the row-major positions of
        the nonzeros give each entry's column (so columns ascend within a
        row) and value, and the per-row nonzero counts, summed, give
        ``row_ptr``. They are the arrays ``scipy.sparse.csr_matrix(dense)``
        holds, and ``__init__`` validates them as it does any others.
        """
        a = np.asarray(dense, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        n_rows, n_cols = a.shape
        pos = np.flatnonzero(a)
        row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(a, axis=1), out=row_ptr[1:])
        # pos is empty whenever n_cols is 0, so the remainder never divides by it
        return cls(n_rows, n_cols, row_ptr, pos % n_cols, a.ravel()[pos])

    def _transpose_csr(self) -> sp.csr_matrix:
        """CSR copy of ``A.T`` with sorted indices, built once on first use."""
        if self._csr_t is None:
            csr_t = self._csr.T.tocsr()
            csr_t.sort_indices()
            self._cut_t = _row_cut(csr_t)
            self._csr_t = csr_t
        return self._csr_t

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float array, with the bits of ``np.linalg.norm``.

    ``np.linalg.norm`` computes ``sqrt(v.dot(v))`` too, and both square
    roots are correctly rounded; this form skips its dispatch overhead.
    """
    return math.sqrt(v.dot(v))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# A product over at least this many stored entries is split over two
# threads. Timed on a 2-vCPU x86 guest (numpy 2.4, scipy 1.17) with the
# worker on the other CPU: both products of random matrices at aspect
# ratios 10 : 1 (5 entries per row), 1 : 1 (10% dense) and 1 : 10 (5 per
# column), median of 60 alternating calls, three sweeps. The
# split won on 4, 6 and 6 of the six products at 2**18 entries (up to
# 42% faster; 2-7% slower on the other two once), on 5, 6 and 6 at 2**17
# (4-33% faster; one product 6% slower once), on 2, 4 and 3 at 2**16 (the
# two 1 : 1 products 7-36% slower in every sweep), and on 2, 2 and 1 at
# 2**15 (up to 88% slower). Below that a product is mostly handoff: a
# request wakes the worker on an idle CPU in 37 us (median; 20-218 us
# from the 10th to the 90th percentile).
_SPLIT_MIN_NNZ = 1 << 17

# An elementwise pass over the rows of a matrix with at least this many
# rows is split over two threads. Timed on the same guest, worker on the
# other CPU: 100 restart-solver iterations on logistic instances with 2
# and 10 stored entries per row, every row pass split against none, six
# alternating repeats, median per iteration, two sweeps:
#
#   rows     2 per row       10 per row
#   2**13    +83%, +81%      +58%, +41%
#   2**14    +41%, +33%       +1%, +19%
#   2**15     +8%, -11%      -14%, -12%
#   46 341    -5%, -10%      -14%, -11%
#   2**16    -25%, -27%      -27%, -15%
#
# (split against none; negative is faster). At 2**14 rows the split lost
# in all four runs, at 2**15 it won in three of four, and above in all.
_SPLIT_MIN_ROWS = 1 << 15

# The worker thread that runs the lower rows of each split pass, a
# _Worker; started on the first split. ``_busy`` is held by the one caller
# using it, so each reply answers that caller.
_worker = None
_busy = threading.Lock()


class _Worker:
    """The worker thread's request and reply queues, its native thread id,
    and the CPUs it may run on, as this module last set them."""

    __slots__ = ("requests", "replies", "native_id", "cpus")

    def __init__(self, requests, replies, native_id, cpus):
        self.requests, self.replies, self.native_id, self.cpus = requests, replies, native_id, cpus


def _cpu_reader():
    """glibc's ``sched_getcpu`` (the CPU the calling thread is on, 0.13 us a
    call; reading ``/proc/thread-self/stat`` takes 15 us), or, where it or
    ``os.sched_setaffinity`` is missing, a stand-in that returns -1, no
    CPU, so that the worker is never pinned."""
    if hasattr(os, "sched_setaffinity"):
        import ctypes  # numpy has imported it already

        try:
            getcpu = ctypes.CDLL(None).sched_getcpu
        except (OSError, AttributeError):
            pass
        else:
            getcpu.argtypes, getcpu.restype = (), ctypes.c_int
            return getcpu
    return lambda: -1


_sched_getcpu = _cpu_reader()


def _serve(requests, replies) -> None:
    """The worker's loop: run the lower rows of each pass it claims.

    Each request carries a fresh lock, its claim. The worker runs the part
    only if it takes the claim; a request whose claim the caller already
    holds is stale (the caller ran those rows itself), and the worker skips
    it without a reply. So the caller waits for a reply only when the
    worker has started its half, and each reply answers the pass it
    claimed.

    The worker runs on a CPU other than the caller's (:func:`_keep_off`).
    A part calls only compiled code (numpy and scipy ufuncs, scipy's CSR
    kernel), never a Python entry point of this package, so a profiler
    that wraps those entry points sees each split pass once, on the
    caller's thread.
    """
    while True:
        claim, part, args = requests.get()
        if not claim.acquire(blocking=False):
            continue
        try:
            part(*args)
        except BaseException as exc:  # handed to the caller, which re-raises it
            replies.put(exc)
        else:
            replies.put(None)


def _start_worker() -> _Worker:
    global _worker
    if _worker is None:
        import queue  # here, so that a process that never splits does not load it

        requests, replies = queue.SimpleQueue(), queue.SimpleQueue()
        thread = threading.Thread(target=_serve, args=(requests, replies),
                                  name="proxrestart-rows", daemon=True)
        thread.start()
        # a new thread may run wherever its creator may
        cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        _worker = _Worker(requests, replies, thread.native_id, cpus)
    return _worker


def _keep_off(worker: _Worker) -> None:
    """Pin the worker to this thread's CPUs but the one it is on, if the
    worker may run there.

    The scheduler of a guest with few vCPUs can leave a woken thread on its
    waker's CPU and migrate neither: two threads then take turns on one
    CPU, and a split pass costs more than the whole one. This thread's own
    affinity never changes.
    """
    cpu = _sched_getcpu()
    if cpu in worker.cpus:
        others = os.sched_getaffinity(0) - {cpu}
        try:
            os.sched_setaffinity(worker.native_id, others)
        except OSError:  # no other CPU: leave the worker where it may run
            pass
        worker.cpus = others


def _reply(worker: _Worker):
    """Wait for the worker's reply to the pass it claimed."""
    global _worker
    try:
        return worker.replies.get()
    except BaseException:
        # interrupted while the worker still owes this reply: a later
        # caller must not take it for its own
        _worker = None
        raise


def _forget_worker() -> None:
    """In a forked child: the worker thread did not survive the fork, and
    ``_busy`` may have been held by a thread that did not either. The
    child's worker starts unpinned: its pin state goes with ``_worker``."""
    global _worker, _busy
    _worker = None
    _busy = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _row_cut(M: sp.csr_matrix) -> int:
    """The row where ``M``'s passes split: the first whose ``indptr`` entry
    reaches ``nnz // 2``. The key takes ``indptr``'s dtype, so numpy does
    not first copy an int32 ``indptr`` to int64."""
    ip = M.indptr
    return int(np.searchsorted(ip, ip.dtype.type(len(M.data) // 2)))


def _split_rows(cut: int, part, *args) -> None:
    """Run ``part(*args)``, split at row ``cut`` over two threads if it can.

    The last argument is the output array. The lower half gets ``a[:cut]``
    of each array argument and the upper half ``a[cut:]``; each half writes
    its own rows of the output. An array one entry longer than the output
    (an ``indptr``) gives the lower half ``a[:cut + 1]``, so both halves
    hold the entry at the cut. Other arguments (scalars, a ufunc) go to
    both halves as they are. ``part`` must compute each row's outputs from
    that row's inputs alone, so the bits do not depend on the split, and
    must call only compiled code (see :func:`_serve`).

    This thread first moves the worker off its own CPU if the worker may
    run there (:func:`_keep_off`), hands it the lower half with a fresh
    claim, and runs the upper half. Then, if the worker has not claimed the
    lower half, this thread claims it and runs it too; otherwise it waits
    for the worker's reply. A worker that is slow to be scheduled thus
    costs one handoff, not a wait. If the upper half raises, this thread
    claims the lower half if it can, so that the worker never starts it,
    and otherwise waits for the worker before re-raising.

    ``part`` runs once over the whole arrays, on this thread, when the cut
    leaves a half without rows, when the process may use only one CPU, or
    when the worker is busy with another thread's pass.
    """
    n_rows = len(args[-1])
    if not 0 < cut < n_rows or _usable_cpus() < 2 or not _busy.acquire(blocking=False):
        part(*args)
        return
    try:
        worker = _start_worker()
        _keep_off(worker)
        claim = threading.Lock()
        lower = [a[:cut + len(a) - n_rows] if isinstance(a, np.ndarray) else a for a in args]
        worker.requests.put((claim, part, lower))
        try:
            part(*[a[cut:] if isinstance(a, np.ndarray) else a for a in args])
        except BaseException:
            if not claim.acquire(blocking=False):
                _reply(worker)
            raise
        if claim.acquire(blocking=False):
            part(*lower)
            return
        error = _reply(worker)
    finally:
        _busy.release()
    if error is not None:
        raise error


def _row_pass(A: CsrMatrix, part, *args) -> np.ndarray:
    """``part(*args)``, a pass over the rows of ``A`` whose last argument has
    one entry per row: whole below ``_SPLIT_MIN_ROWS`` rows, else into an
    output allocated here and passed last, split at ``A``'s cut."""
    n_rows = len(args[-1])  # a tenth of A.n_rows's cost
    if n_rows < _SPLIT_MIN_ROWS:
        return part(*args)
    out = np.empty(n_rows)
    _split_rows(A._cut, part, *args, out)
    return out


def _csr_matvec(M: sp.csr_matrix, cut: int, x: np.ndarray, n_rows: int,
                n_cols: int) -> np.ndarray:
    """``M @ x`` by scipy's compiled CSR kernel, without its dispatch layer.

    This is the kernel ``M.dot(x)`` ends in for a float64 vector, with the
    same zero-initialised output, so the result is bit-identical to it.
    The caller passes ``M.shape`` as ``n_rows, n_cols`` and has checked
    that ``x`` is a float64 vector of length ``n_cols``. A product over at
    least ``_SPLIT_MIN_NNZ`` entries may run split at row ``cut``
    (:func:`_split_rows`): every output entry is still one row's sum in
    the same order.
    """
    out = np.zeros(n_rows)
    if len(M.data) < _SPLIT_MIN_NNZ:
        _sparsetools.csr_matvec(n_rows, n_cols, M.indptr, M.indices, M.data, x, out)
    else:
        indices, data = M.indices, M.data
        x = np.ascontiguousarray(x)  # one copy of a strided x, not one per half
        _split_rows(cut, lambda ip, rows: _sparsetools.csr_matvec(
            len(rows), n_cols, ip, indices, data, x, rows), M.indptr, out)
    return out


def spmv(A: CsrMatrix, x: np.ndarray) -> np.ndarray:
    """Sparse matrix-vector product ``A @ x``."""
    x = np.asarray(x, dtype=np.float64)
    M = A._csr
    n_rows, n_cols = M.shape
    if x.shape != (n_cols,):
        raise ValueError(f"dimension mismatch: matrix has {n_cols} columns, "
                         f"vector has shape {x.shape}")
    return _csr_matvec(M, A._cut, x, n_rows, n_cols)


def spmv_transpose(A: CsrMatrix, y: np.ndarray) -> np.ndarray:
    """Transposed product ``A.T @ y`` through the cached CSR copy of ``A.T``.

    Each output entry sums its column of ``A`` in ascending row order,
    exactly as a column sweep over ``A`` would.
    """
    y = np.asarray(y, dtype=np.float64)
    M = A._transpose_csr()
    n_out, n_in = M.shape  # A.T's
    if y.shape != (n_in,):
        raise ValueError(f"dimension mismatch: matrix has {n_in} rows, "
                         f"vector has shape {y.shape}")
    return _csr_matvec(M, A._cut_t, y, n_out, n_in)


# spectral_norm_sq takes the SVD for m = min(n, d) <= _EXACT_MAX_ORDER while
# the dense copy has at most _DENSE_MAX_ENTRIES entries (8 MB). The SVD costs
# about n * d * m whatever the density. Timed on a 2-core x86 host (numpy
# 2.4, scipy 1.17): up to 200 x 200 it beats Lanczos at every density; from
# 283 x 283 on, Lanczos wins at 30% density and below; at the corners
# 4096 x 256 and 256 x 4096 it takes 100-150 ms. A dense input with m > 256
# takes 80-step Lanczos although the SVD is faster there (57 against 190 ms
# at 2000 x 300): the rule looks at the shape only.
_EXACT_MAX_ORDER = 256
_DENSE_MAX_ENTRIES = 1 << 20
# Lanczos length (ARPACK's ncv) for m > _EXACT_MAX_ORDER, and the failure
# probability delta of the Kuczynski-Wozniakowski bound there.
_LANCZOS_NCV = 80
_LANCZOS_DELTA = 1e-6
_EPS = float(np.finfo(np.float64).eps)


def _round_up(value: float, terms: int) -> float:
    """``value`` times ``1 + 2 (terms + 1) eps``.

    Room for the rounding of a float64 computation whose relative error
    grows like ``terms`` unit roundoffs, so an upper bound stays one.
    """
    return value * (1.0 + 2.0 * (terms + 1) * _EPS)


def _kw_epsilon(m: int) -> float:
    """Relative shortfall of ``_LANCZOS_NCV`` Lanczos steps on an ``m x m``
    PSD matrix, exceeded with probability at most ``_LANCZOS_DELTA``.

    Kuczynski and Wozniakowski (1992): from a uniformly random start, the
    largest Ritz value of the ``q``-dimensional Krylov space falls below
    ``(1 - eps) lambda_max`` with probability at most
    ``1.648 sqrt(m) exp(-sqrt(eps) (2 q - 1))``. Solved for ``eps``.
    """
    return (math.log(1.648 * math.sqrt(m) / _LANCZOS_DELTA) / (2 * _LANCZOS_NCV - 1)) ** 2


def _abs_norms(A: CsrMatrix) -> tuple[float, float]:
    """``(||A||_1, ||A||_inf)``: the largest column and row sums of ``|A|``.

    Read from ``|vals|`` and the index arrays, without the copy of the
    matrix that ``abs(A)`` builds, by the reductions scipy's
    ``abs(A).sum(axis=0)`` and ``.sum(axis=1)`` run, in the same order, so
    the bits are theirs: a ``bincount`` over ``col_idx`` and an
    ``add.reduceat`` over the nonempty rows. ``A`` stores an entry.
    """
    w = np.abs(A.vals)
    starts, ends = A.row_ptr[:-1], A.row_ptr[1:]
    col_sums = np.bincount(A.col_idx, weights=w, minlength=A.n_cols)
    row_sums = np.add.reduceat(w, starts[starts < ends])
    return float(col_sums.max()), float(row_sums.max())


def spectral_norm_sq(A: CsrMatrix) -> float:
    """Upper bound on ``||A||_2^2``, the largest eigenvalue of ``A.T A``.

    Two branches, chosen by the order ``m = min(n, d)`` and the size
    ``n * d`` of a dense copy:

    * **Dense**, for ``m <= 256`` and ``n * d <= 2**20`` (an 8 MB copy):
      the exact ``np.linalg.norm(A.to_dense(), 2) ** 2`` times the
      rounding margin ``1 + 2 (max(n, d) + 1) eps``. LAPACK's SVD returns
      ``sigma_1`` to within ``p(n, d) eps sigma_1`` for a modestly growing
      ``p`` (LAPACK Users' Guide, sec. 4.9); the margin takes
      ``p = max(n, d)``, doubled for the square.
    * **Lanczos**, otherwise: ``scipy.sparse.linalg.eigsh`` on the
      smaller of ``A.T A`` and ``A A.T`` (order ``m``; both have the same
      nonzero spectrum) as a ``LinearOperator`` over :func:`spmv` and
      :func:`spmv_transpose`, from a Gaussian start drawn from seed 0.

      - For ``m <= 256`` (a tall or wide input too large to copy) the
        Lanczos length ``ncv`` is ``m``: the Krylov space is all of
        ``R^m`` (ARPACK reorthogonalizes in full), so the Ritz value is
        the largest eigenvalue up to rounding and the dense branch's
        margin applies.
      - For ``m > 256``, ``ncv = 80`` and the largest Ritz value is
        divided by ``1 - eps`` from the Kuczynski-Wozniakowski bound at
        failure probability ``delta = 1e-6`` (:func:`_kw_epsilon`;
        ``eps`` is 0.0116 at ``m = 257`` and 0.0136 at ``m = 5 000``), so
        the result is an upper bound with probability at least
        ``1 - 1e-6`` over the start vector. The bound is stated for the
        first ``ncv``-step Krylov space, and it covers ARPACK's implicitly
        restarted Lanczos as well: a restart keeps the wanted Ritz vector
        in the next Krylov space, so the largest Ritz value never drops
        below the one from the first space.
      - The result is capped by ``min(||A||_F^2, ||A||_1 ||A||_inf)``,
        rounded up by ``1 + 2 (nnz + 1) eps``. The cap reads ``|vals|``
        without copying the matrix (:func:`_abs_norms`). It is returned
        outright for a single row or column, where it is exact, and when
        ARPACK fails (no convergence to ``tol = 1e-6`` within 10
        restarts), so this branch never raises.

      This branch builds the CSR copy of ``A.T`` that the gradients then
      reuse, and it alone imports ``scipy.sparse.linalg``. It runs slower
      with two OpenBLAS threads than with one: on a 50 000 x 5 000 matrix
      with 5e5 nonzeros on 2 vCPUs, ``eigsh`` took 0.16-0.18 s against
      0.10-0.11 s, its 81 Gram products 0.13-0.15 s against 0.08-0.09 s.

    Deterministic: the same matrix gives the same bits on every call.
    Returns exactly ``0.0`` (a Python float) for a matrix whose stored
    values are all zero, or that stores none.
    """
    n_rows, n_cols = A.shape
    if not A.vals.any():
        return 0.0
    m = min(n_rows, n_cols)
    if m <= _EXACT_MAX_ORDER and n_rows * n_cols <= _DENSE_MAX_ENTRIES:
        sigma = float(np.linalg.norm(A.to_dense(), 2))
        return _round_up(sigma * sigma, max(n_rows, n_cols))

    norm_1, norm_inf = _abs_norms(A)
    cap = _round_up(min(float(A.vals.dot(A.vals)), norm_1 * norm_inf), A.nnz)
    if m == 1:
        return cap
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

    first, second = (spmv, spmv_transpose) if n_cols <= n_rows else (spmv_transpose, spmv)
    gram = LinearOperator((m, m), matvec=lambda v: second(A, first(A, v)), dtype=np.float64)
    rng = np.random.default_rng(0)
    ncv = m if m <= _EXACT_MAX_ORDER else _LANCZOS_NCV
    try:
        # far tighter than the inflation below: one ncv-step pass usually
        # meets it, and each further pass can only raise the Ritz value
        ritz = float(eigsh(gram, k=1, which="LA", v0=rng.standard_normal(m), ncv=ncv,
                           tol=1e-6, maxiter=10, return_eigenvectors=False, rng=rng)[0])
    except ArpackError:
        return cap
    if ncv < m:
        return min(ritz / (1.0 - _kw_epsilon(m)), cap)
    return min(_round_up(ritz, max(n_rows, n_cols)), cap)
