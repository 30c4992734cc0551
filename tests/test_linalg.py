import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import _sparsetools

from proxrestart import (L1, CsrMatrix, FixedRestart, LogisticObjective, SolverConfig, SolverState,
                         apg_restart_step, generate_synthetic, linalg, objectives,
                         run, solver, spectral_norm_sq, spmv, spmv_transpose)


def test_spmv_identity():
    A = CsrMatrix.from_dense(np.eye(2))
    assert np.array_equal(spmv(A, np.array([3.0, -1.0])), [3.0, -1.0])


def test_spmv_hand_dense_multiply():
    A = CsrMatrix.from_dense([[1.0, 2.0], [0.0, 4.0]])
    assert np.array_equal(spmv(A, np.array([1.0, 1.0])), [3.0, 4.0])


def test_spmv_empty_row_gives_zero():
    A = CsrMatrix(2, 2, [0, 0, 1], [1], [5.0])
    out = spmv(A, np.array([7.0, 2.0]))
    assert out[0] == 0.0 and out[1] == 10.0


def test_spmv_transpose_identity_and_hand():
    I = CsrMatrix.from_dense(np.eye(2))
    assert np.array_equal(spmv_transpose(I, np.array([3.0, -1.0])), [3.0, -1.0])
    A = CsrMatrix.from_dense([[1.0, 2.0], [0.0, 4.0]])
    assert np.array_equal(spmv_transpose(A, np.array([1.0, 1.0])), [1.0, 6.0])
    assert np.array_equal(spmv_transpose(A, np.zeros(2)), np.zeros(2))


def test_dimension_mismatch_raises():
    A = CsrMatrix.from_dense([[1.0, 2.0], [0.0, 4.0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        spmv(A, np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        spmv_transpose(A, np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        spmv(A, np.ones((2, 1)))


@pytest.mark.parametrize("bad, message", [
    pytest.param(dict(n_rows=2, n_cols=2, row_ptr=[0, 1], col_idx=[0], vals=[1.0]),
                 "row_ptr must have length", id="bad0"),
    pytest.param(dict(n_rows=2, n_cols=2, row_ptr=[0, 2, 1], col_idx=[0], vals=[1.0]),
                 "nondecreasing", id="bad1"),
    pytest.param(dict(n_rows=1, n_cols=2, row_ptr=[0, 2], col_idx=[1, 0], vals=[1.0, 2.0]),
                 "row 0: column indices not strictly increasing", id="bad2"),  # unsorted
    pytest.param(dict(n_rows=1, n_cols=2, row_ptr=[0, 2], col_idx=[0, 0], vals=[1.0, 2.0]),
                 "row 0: column indices not strictly increasing", id="bad3"),  # duplicate
    pytest.param(dict(n_rows=1, n_cols=2, row_ptr=[0, 1], col_idx=[2], vals=[1.0]),
                 "column index out of range", id="bad4"),
    pytest.param(dict(n_rows=1, n_cols=1, row_ptr=[0, 1], col_idx=[0], vals=[np.nan]),
                 "NaN or Inf", id="bad5"),
    # rows 0-2 are fine (row 1 empty, and indices drop across each row
    # boundary); rows 3 and 4 are both bad, and the first one is named
    pytest.param(dict(n_rows=5, n_cols=3, row_ptr=[0, 2, 2, 3, 5, 7],
                      col_idx=[1, 2, 0, 2, 1, 0, 0], vals=np.ones(7)),
                 "^row 3: column indices not strictly increasing$", id="bad6"),
    # scipy alone would drop the entry past row_ptr[-1] without a word
    pytest.param(dict(n_rows=1, n_cols=2, row_ptr=[0, 1], col_idx=[0, 1], vals=[1.0, 2.0]),
                 "endpoints inconsistent", id="bad7"),
    pytest.param(dict(n_rows=1, n_cols=2, row_ptr=[0, 2], col_idx=[0], vals=[1.0, 2.0]),
                 "endpoints inconsistent", id="bad8"),
    pytest.param(dict(n_rows=-1, n_cols=2, row_ptr=[], col_idx=[], vals=[]),
                 "dimensions must be nonnegative", id="negative_rows"),
    pytest.param(dict(n_rows=1, n_cols=-2, row_ptr=[0, 0], col_idx=[], vals=[]),
                 "dimensions must be nonnegative", id="negative_cols"),
])
def test_csr_invariants_rejected(bad, message):
    with pytest.raises(ValueError, match=message):
        CsrMatrix(**bad)


def test_from_dense_refuses_a_1d_array():
    with pytest.raises(ValueError, match="2-D"):
        CsrMatrix.from_dense(np.ones(3))


def test_csr_accepts_decrease_across_rows_and_empty_rows():
    A = CsrMatrix(5, 3, [0, 0, 2, 2, 3, 3], [1, 2, 0], [1.0, 2.0, 3.0])
    assert np.array_equal(A.to_dense(), [[0, 0, 0], [0, 1, 2], [0, 0, 0], [3, 0, 0], [0, 0, 0]])


def _random_csr(rng, n, d, density):
    dense = np.where(rng.random((n, d)) < density, rng.standard_normal((n, d)), 0.0)
    if n > 1:
        dense[rng.integers(n)] = 0.0     # an empty row
    if d > 1:
        dense[:, rng.integers(d)] = 0.0  # an empty column
    return CsrMatrix.from_dense(dense)


@pytest.mark.parametrize("n, d, density", [
    (1, 1, 1.0), (1, 1, 0.0), (3, 4, 0.0), (1, 9, 0.5), (9, 1, 0.5),
    (17, 6, 0.3), (6, 17, 0.3), (40, 25, 0.1), (25, 40, 0.9),
])
def test_products_match_scipy_bytes(n, d, density):
    rng = np.random.default_rng(n * 1000 + d)
    for _ in range(5):
        A = _random_csr(rng, n, d, density)
        x = rng.standard_normal(d)
        y = rng.standard_normal(n)
        y[rng.random(n) < 0.3] = -0.0
        assert spmv(A, x).tobytes() == (A._csr @ x).tobytes()
        assert spmv_transpose(A, y).tobytes() == (A._csr.T @ y).tobytes()
        # the cached transpose serves repeated calls unchanged
        assert spmv_transpose(A, y).tobytes() == (A._csr.T @ y).tobytes()
        strided = rng.standard_normal(2 * d)[::2]
        assert spmv(A, strided).tobytes() == (A._csr @ strided).tobytes()


EPS = np.finfo(np.float64).eps


@pytest.fixture(params=["by_size", "lanczos"])
def branch(request, monkeypatch):
    """Run a test with the branch chosen by size, then with every matrix sent to Lanczos."""
    if request.param == "lanczos":
        monkeypatch.setattr(linalg, "_DENSE_MAX_ENTRIES", 0)


def allowance(shape):
    """Largest factor spectral_norm_sq may put on sigma_1^2, as its docstring states."""
    n, d = shape
    m = min(n, d)
    if m > linalg._EXACT_MAX_ORDER:
        return 1.0 / (1.0 - linalg._kw_epsilon(m))
    return 1.0 + 2.0 * (max(n, d) + 1) * EPS


def assert_certified(dense, bound):
    dense = np.asarray(dense, dtype=np.float64)
    sigma_sq = float(np.linalg.svd(dense, compute_uv=False)[0]) ** 2
    assert type(bound) is float
    assert sigma_sq < bound <= sigma_sq * allowance(dense.shape) * (1.0 + 16 * EPS)


def with_spectrum(rng, n, d, s):
    """An n x d matrix with singular values s, in random orthogonal bases."""
    U, _ = np.linalg.qr(rng.standard_normal((n, len(s))))
    V, _ = np.linalg.qr(rng.standard_normal((d, len(s))))
    return (U * s) @ V.T


def spectra_cases():
    rng = np.random.default_rng(7)
    close = np.linspace(1.0, 0.1, 30)
    close[1] = 1.0 - 1e-6  # sigma_1 ~ sigma_2, where power iteration stalls below sigma_1^2
    wide_gap = np.linspace(1.0, 0.1, 120)
    wide_gap[1] = 1.0 - 1e-6
    sparse = np.where(rng.random((40, 25)) < 0.2, rng.standard_normal((40, 25)), 0.0)
    sparse[3] = 0.0      # an empty row
    sparse[:, 7] = 0.0   # an empty column
    return {
        "close_top_pair": with_spectrum(rng, 60, 40, close),
        "close_top_pair_150": with_spectrum(rng, 300, 150, wide_gap),
        "close_top_pair_kw": with_spectrum(rng, 400, 260, wide_gap),
        "rank1": np.outer(rng.standard_normal(30), rng.standard_normal(20)),
        "rank1_kw": np.outer(rng.standard_normal(400), rng.standard_normal(260)),
        "1x1": np.array([[-3.0]]),
        "tall": rng.standard_normal((50, 3)),
        "wide": rng.standard_normal((3, 50)),
        "column": rng.standard_normal((40, 1)),
        "row": rng.standard_normal((1, 40)),
        "empty_rows_and_columns": sparse,
        "gaussian_kw": rng.standard_normal((270, 400)),
    }


SPECTRA = spectra_cases()


@pytest.mark.parametrize("name", sorted(SPECTRA))
def test_spectral_norm_is_certified_bound(name, branch):
    dense = SPECTRA[name]
    assert_certified(dense, spectral_norm_sq(CsrMatrix.from_dense(dense)))


@pytest.mark.parametrize("kind", ["logistic_sep", "robust_outliers", "lasso_known"])
def test_spectral_norm_certified_on_fixtures_and_generated(kind):
    for ds in [generate_synthetic(kind, 200, 30, seed) for seed in range(5)]:
        assert_certified(ds.features.to_dense(), spectral_norm_sq(ds.features))


def test_spectral_norm_just_above_exact_order_runs_lanczos():
    # m = 257 is just over _EXACT_MAX_ORDER, so the Kuczynski-Wozniakowski
    # inflation applies
    rng = np.random.default_rng(3)
    dense = np.where(rng.random((300, 257)) < 0.3, rng.standard_normal((300, 257)), 0.0)
    assert linalg._EXACT_MAX_ORDER == 256
    bound = spectral_norm_sq(CsrMatrix.from_dense(dense))
    assert_certified(dense, bound)
    sigma_sq = float(np.linalg.svd(dense, compute_uv=False)[0]) ** 2
    assert bound > sigma_sq * (1.0 + 1e-3)  # the inflation is there, not just the margin


@pytest.mark.parametrize("shape", [(2000, 200), (4100, 256), (256, 4100)])
def test_spectral_norm_is_exact_up_to_order_256(shape):
    # 2000 x 200 takes the SVD; 4100 x 256 has more than _DENSE_MAX_ENTRIES
    # entries, so Lanczos runs over all of R^256 and no inflation is needed
    rng = np.random.default_rng(4)
    dense = np.where(rng.random(shape) < 0.01, rng.standard_normal(shape), 0.0)
    assert_certified(dense, spectral_norm_sq(CsrMatrix.from_dense(dense)))


@pytest.mark.parametrize("matrix", [
    CsrMatrix.from_dense(np.zeros((3, 3))),
    CsrMatrix(2, 3, [0, 2, 3], [0, 2, 1], [0.0, -0.0, 0.0]),  # explicit stored zeros
    CsrMatrix(300, 200, [0] * 301, [], []),
    CsrMatrix(0, 4, [0], [], []),
], ids=["zero", "stored_zeros", "zero_large", "no_rows"])
def test_spectral_norm_of_zero_matrix_is_python_zero(matrix, branch):
    bound = spectral_norm_sq(matrix)
    assert type(bound) is float and bound == 0.0 and repr(bound) == "0.0"


def test_spectral_norm_is_deterministic(branch):
    rng = np.random.default_rng(11)
    A = CsrMatrix.from_dense(np.where(rng.random((120, 100)) < 0.2,
                                      rng.standard_normal((120, 100)), 0.0))
    first = spectral_norm_sq(A)
    assert np.float64(spectral_norm_sq(A)).tobytes() == np.float64(first).tobytes()
    B = CsrMatrix(A.n_rows, A.n_cols, A.row_ptr.copy(), A.col_idx.copy(), A.vals.copy())
    assert np.float64(spectral_norm_sq(B)).tobytes() == np.float64(first).tobytes()


def test_spectral_norm_falls_back_to_cap_without_convergence(monkeypatch):
    import scipy.sparse.linalg as sla

    def no_convergence(*args, **kwargs):
        raise sla.ArpackNoConvergence("no convergence", np.array([]), np.array([]))

    monkeypatch.setattr(sla, "eigsh", no_convergence)
    rng = np.random.default_rng(5)
    dense = np.where(rng.random((400, 300)) < 0.1, rng.standard_normal((400, 300)), 0.0)
    A = CsrMatrix.from_dense(dense)
    fro_sq = float(np.sum(dense * dense))
    norm_product = np.abs(dense).sum(axis=0).max() * np.abs(dense).sum(axis=1).max()
    cap = min(fro_sq, norm_product) * (1.0 + 2.0 * (A.nnz + 1) * EPS)
    assert spectral_norm_sq(A) == pytest.approx(cap, rel=1e-12)
    assert spectral_norm_sq(A) >= float(np.linalg.svd(dense, compute_uv=False)[0]) ** 2


def test_dense_branch_does_not_import_sparse_linalg():
    # the import costs about 0.1 s, which small-instance commands must not pay
    code = ("import sys; from proxrestart import generate_synthetic, spectral_norm_sq; "
            "spectral_norm_sq(generate_synthetic('lasso_known', 200, 30, seed=0).features); "
            "assert 'scipy.sparse.linalg' not in sys.modules")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_spectral_norm_identity():
    for n in (1, 3, 7):
        assert spectral_norm_sq(CsrMatrix.from_dense(np.eye(n))) == pytest.approx(1.0, abs=1e-9)


def test_spectral_norm_diag():
    A = CsrMatrix.from_dense(np.diag([1.0, 3.0]))
    assert spectral_norm_sq(A) == pytest.approx(9.0, rel=1e-12)


def test_spectral_norm_zero_matrix():
    assert spectral_norm_sq(CsrMatrix.from_dense(np.zeros((3, 3)))) == 0.0


def test_spectral_norm_bounds_random(rng):
    # between the largest squared row norm and the Frobenius bound
    for _ in range(20):
        n, d = rng.integers(2, 12, size=2)
        A = CsrMatrix.from_dense(rng.standard_normal((n, d)))
        bound = spectral_norm_sq(A)
        assert bound <= A.vals.dot(A.vals) * allowance((n, d))
        max_row_sq = max(
            float(np.dot(A.vals[s:e], A.vals[s:e]))
            for s, e in zip(A.row_ptr[:-1], A.row_ptr[1:])
        )
        assert bound >= max_row_sq


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_adjoint_identity(seed):
    # <A x, A x> == <x, A^T (A x)> for random A, x
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(1, 10)), int(rng.integers(1, 10))
    A = CsrMatrix.from_dense(np.where(rng.random((n, d)) < 0.6, rng.standard_normal((n, d)), 0.0))
    x = rng.standard_normal(d)
    ax = spmv(A, x)
    lhs = float(np.dot(spmv_transpose(A, ax), x))
    rhs = float(np.dot(ax, ax))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


def test_csr_immutable():
    A = CsrMatrix.from_dense(np.eye(2))
    for name in ("n_rows", "n_cols", "shape", "nnz", "row_ptr", "col_idx", "vals", "extra"):
        with pytest.raises(AttributeError):
            setattr(A, name, 5)


def test_csr_keeps_only_scipys_arrays():
    A = CsrMatrix(3, 4, [0, 2, 2, 3], [1, 3, 0], [1.0, -2.0, 5.0])
    assert CsrMatrix.__slots__ == ("_csr", "_csr_t", "_cut", "_cut_t")
    assert A.vals is A._csr.data
    assert A.col_idx is A._csr.indices and A.col_idx.dtype == np.int32
    assert A.row_ptr is A._csr.indptr and A.row_ptr.dtype == np.int32
    assert (A.n_rows, A.n_cols, A.shape, A.nnz) == (3, 4, (3, 4), 3)
    assert list(A.row_ptr) == [0, 2, 2, 3] and list(A.col_idx) == [1, 3, 0]
    assert list(A.vals) == [1.0, -2.0, 5.0]


# --- products split over two threads ----------------------------------------------

SPLIT = linalg._SPLIT_MIN_NNZ
WORKER = "proxrestart-rows"


class WorkerFirst:
    """Lets the worker begin first: while ``await_worker`` is set, the caller's half
    of each split pass starts only once the worker has begun its half (within 60 s),
    so the worker, not the caller, runs the lower rows. Without it the caller may
    claim them first, and which thread ran them would be left to the scheduler."""

    def __init__(self):
        self.await_worker = False
        self._began = threading.Event()

    def enter(self):
        """Called as a half begins; returns "worker" or "caller"."""
        if threading.current_thread().name == WORKER:
            self._began.set()
            return "worker"
        if self.await_worker:
            assert self._began.wait(60), "the worker did not begin its half"
            self._began.clear()
        return "caller"


class KernelCalls(WorkerFirst):
    """Stands in for scipy's ``_sparsetools`` in ``linalg``: runs the real kernel and
    records the thread and row count of each call; ``fail_on`` is "worker" or "caller"."""

    def __init__(self):
        super().__init__()
        self.calls = []
        self.fail_on = None

    def csr_matvec(self, n_rows, *args):
        thread = self.enter()
        self.calls.append((threading.get_ident(), n_rows))
        if self.fail_on == thread:
            raise RuntimeError(f"kernel failed in the {self.fail_on}")
        _sparsetools.csr_matvec(n_rows, *args)

    def threads(self):
        return len({ident for ident, _ in self.calls})


@pytest.fixture
def kernel(monkeypatch):
    """Record linalg's kernel calls, on a host taken to have two CPUs."""
    calls = KernelCalls()
    monkeypatch.setattr(linalg, "_sparsetools", calls)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
    return calls


def one_kernel_call(M, v):
    out = np.zeros(M.shape[0])
    _sparsetools.csr_matvec(M.shape[0], M.shape[1], M.indptr, M.indices, M.data, v, out)
    return out.tobytes()


def with_row_counts(rng, counts, d):
    """A matrix whose row ``i`` stores ``counts[i]`` entries at random columns."""
    counts = np.asarray(counts)
    row_ptr = np.concatenate(([0], np.cumsum(counts)))
    cols = np.concatenate([np.sort(rng.choice(d, c, replace=False)) for c in counts])
    vals = rng.standard_normal(int(row_ptr[-1]))
    vals[rng.random(len(vals)) < 0.05] = -0.0
    return CsrMatrix(len(counts), d, row_ptr, cols, vals)


def with_nnz(rng, n, d, nnz):
    return with_row_counts(rng, np.bincount(rng.choice(n * d, nnz, replace=False) // d,
                                            minlength=n), d)


def one_row(n, d, row):
    counts = np.zeros(n, dtype=np.int64)
    counts[row] = d
    return lambda rng: with_row_counts(rng, counts, d)


# (builder, whether the forward product splits, whether the transposed one does)
SPLIT_CASES = {
    "tall_below": (lambda rng: with_nnz(rng, 4096, 512, SPLIT - 1), False, False),
    "tall_at": (lambda rng: with_nnz(rng, 4096, 512, SPLIT), True, True),
    "wide_below": (lambda rng: with_nnz(rng, 512, 4096, SPLIT - 1), False, False),
    "wide_at": (lambda rng: with_nnz(rng, 512, 4096, SPLIT), True, True),
    # nnz / 2 is reached at row 250; rows 250-449 are empty and start the second half
    "empty_rows_at_cut": (lambda rng: with_row_counts(
        rng, [SPLIT // 500 + 1] * 250 + [0] * 200 + [SPLIT // 500 + 1] * 250, 1024), True, True),
    # one row stores every entry: its transpose has one entry per row
    "one_row_first": (one_row(8, SPLIT, 0), True, True),
    "one_row_middle": (one_row(8, SPLIT, 3), True, True),
    "one_row_last": (one_row(8, SPLIT, 7), False, True),  # nothing after it to split off
}


@pytest.mark.parametrize("case", SPLIT_CASES)
def test_split_products_match_one_kernel_call(kernel, case):
    build, forward_splits, transposed_splits = SPLIT_CASES[case]
    rng = np.random.default_rng(sum(map(ord, case)))
    A = build(rng)
    A_t = A._transpose_csr()
    x = rng.standard_normal(2 * A.n_cols)[::2]  # strided
    y = rng.standard_normal(A.n_rows)
    y[rng.random(A.n_rows) < 0.3] = -0.0
    for product, M, v, splits in ((spmv, A._csr, x, forward_splits),
                                  (spmv, A._csr, np.ascontiguousarray(x), forward_splits),
                                  (spmv_transpose, A_t, y, transposed_splits)):
        kernel.calls.clear()
        kernel.await_worker = splits
        assert product(A, v).tobytes() == one_kernel_call(M, v)
        assert (len(kernel.calls), kernel.threads()) == ((2, 2) if splits else (1, 1))
        assert sum(rows for _, rows in kernel.calls) == M.shape[0]


def test_small_products_and_one_cpu_run_whole(kernel, monkeypatch):
    small = generate_synthetic("lasso_known", 200, 30, seed=0).features
    spmv(small, np.ones(small.n_cols))
    spmv_transpose(small, np.ones(small.n_rows))
    A = with_nnz(np.random.default_rng(1), 4096, 512, SPLIT)
    x = np.random.default_rng(2).standard_normal(512)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 1)
    assert spmv(A, x).tobytes() == one_kernel_call(A._csr, x)
    assert len(kernel.calls) == 3 and kernel.threads() == 1


def test_busy_worker_runs_the_product_whole(kernel):
    A = with_nnz(np.random.default_rng(2), 4096, 512, SPLIT)
    x = np.random.default_rng(3).standard_normal(512)
    with linalg._busy:  # another thread's split product holds the worker
        assert spmv(A, x).tobytes() == one_kernel_call(A._csr, x)
    assert kernel.calls == [(threading.get_ident(), A.n_rows)]


@pytest.mark.parametrize("fail_on", ["worker", "caller"])
def test_kernel_error_reaches_the_caller(kernel, fail_on):
    A = with_nnz(np.random.default_rng(4), 4096, 512, SPLIT)
    x = np.random.default_rng(5).standard_normal(512)
    kernel.fail_on = fail_on
    kernel.await_worker = True
    with pytest.raises(RuntimeError, match=f"kernel failed in the {fail_on}"):
        spmv(A, x)
    # the worker has answered, so the next split product gets its own reply
    kernel.fail_on = None
    kernel.calls.clear()
    assert spmv(A, x).tobytes() == one_kernel_call(A._csr, x)
    assert kernel.threads() == 2


class InterruptedReplies:
    def get(self):
        raise KeyboardInterrupt


def test_interrupted_wait_retires_the_worker(kernel, monkeypatch):
    # a reply still owed to an interrupted caller must not answer the next one
    A = with_nnz(np.random.default_rng(9), 4096, 512, SPLIT)
    x = np.random.default_rng(10).standard_normal(512)
    monkeypatch.setattr(linalg, "_worker", None)  # this test's worker, retired below
    worker = linalg._start_worker()
    worker.replies = InterruptedReplies()
    kernel.await_worker = True  # the worker claims its half before the caller waits
    with pytest.raises(KeyboardInterrupt):
        spmv(A, x)
    assert linalg._worker is None and not linalg._busy.locked()
    kernel.calls.clear()
    assert spmv(A, x).tobytes() == one_kernel_call(A._csr, x)
    assert linalg._worker is not worker and kernel.threads() == 2


def hold_worker():
    """Keep the worker busy with a request of this test's own, once it has begun: returns
    the event that releases the worker and the one it sets when it has finished."""
    began, release, finished = threading.Event(), threading.Event(), threading.Event()

    def hold():
        began.set()
        release.wait(60)
        finished.set()

    linalg._start_worker().requests.put((threading.Lock(), hold, []))
    assert began.wait(60), "the worker did not take the holding request"
    return release, finished


def test_caller_runs_both_halves_while_the_worker_is_held(kernel):
    A = with_nnz(np.random.default_rng(12), 4096, 512, SPLIT)
    x = np.random.default_rng(13).standard_normal(512)
    release, finished = hold_worker()
    try:
        assert spmv(A, x).tobytes() == one_kernel_call(A._csr, x)
        # the pass returned while the worker still held its request
        assert not finished.is_set()
        assert [ident for ident, _ in kernel.calls] == [threading.get_ident()] * 2
        assert sum(rows for _, rows in kernel.calls) == A.n_rows
    finally:
        release.set()
        assert linalg._worker.replies.get(timeout=60) is None  # the holding request's


def test_stale_request_never_answers_a_later_caller(kernel):
    A = with_nnz(np.random.default_rng(14), 4096, 512, SPLIT)
    x = np.random.default_rng(15).standard_normal(512)
    want = one_kernel_call(A._csr, x)
    release, _ = hold_worker()
    try:
        assert spmv(A, x).tobytes() == want  # leaves its claimed request in the queue
    finally:
        release.set()
        assert linalg._worker.replies.get(timeout=60) is None
    kernel.calls.clear()
    kernel.await_worker = True
    assert spmv(A, x).tobytes() == want
    assert kernel.threads() == 2
    # the worker skipped the stale request: it owes nothing, and nothing waits to answer
    assert linalg._worker.replies.empty() and linalg._worker.requests.empty()


def test_concurrent_callers_get_the_reference_bytes(kernel):
    rng = np.random.default_rng(6)
    A = with_nnz(rng, 4096, 512, 2 * SPLIT)
    x, y = rng.standard_normal(512), rng.standard_normal(4096)
    objective, v = rows_instance()  # its row passes split, its products do not
    Av = spmv(objective.A, v)
    want = (one_kernel_call(A._csr, x), one_kernel_call(A._transpose_csr(), y),
            objective.gradient(v, Av).tobytes())

    def rounds(_):
        return [(spmv(A, x).tobytes(), spmv_transpose(A, y).tobytes(),
                 objective.gradient(v, Av).tobytes()) for _ in range(100)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(3) as pool:  # more callers than CPUs
            results = [r for thread_results in pool.map(rounds, range(3)) for r in thread_results]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 300 and all(r == want for r in results)
    assert not linalg._busy.locked()


def _product_in_child(A, x, conn):
    linalg._sparsetools.calls.clear()
    conn.send((spmv(A, x).tobytes(), linalg._sparsetools.threads()))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_split_product_in_forked_child(kernel):
    A = with_nnz(np.random.default_rng(7), 4096, 512, SPLIT)
    x = np.random.default_rng(8).standard_normal(512)
    kernel.await_worker = True  # here and in the child
    want = spmv(A, x).tobytes()  # the worker thread now runs in this process only
    assert linalg._worker is not None and kernel.threads() == 2
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_product_in_child, args=(A, x, sender))
    child.start()
    try:
        assert receiver.poll(60), "the forked child's split product did not finish"
        assert receiver.recv() == (want, 2)
    finally:
        child.kill()
        child.join()


PINNING = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and two usable CPUs")


@PINNING
def test_worker_runs_off_the_callers_cpu(kernel, monkeypatch):
    A = with_nnz(np.random.default_rng(16), 4096, 512, SPLIT)
    x = np.random.default_rng(17).standard_normal(512)
    want = one_kernel_call(A._csr, x)
    usable = os.sched_getaffinity(0)
    kernel.await_worker = True
    assert spmv(A, x).tobytes() == want
    pinned = os.sched_getaffinity(linalg._worker.native_id)
    assert len(usable - pinned) == 1 and pinned < usable
    assert linalg._sched_getcpu() in usable  # the CPU this thread is on
    # the caller reported on each CPU in turn: each time on one the worker may use
    first, second = sorted(usable)[:2]
    for cpu in (first, second, first):
        monkeypatch.setattr(linalg, "_sched_getcpu", lambda: cpu)
        kernel.calls.clear()
        assert spmv(A, x).tobytes() == want
        assert kernel.threads() == 2
        assert os.sched_getaffinity(linalg._worker.native_id) == usable - {cpu}
    assert os.sched_getaffinity(0) == usable  # the caller's own affinity never changes


def _pin_state_in_child(A, x, cpu, conn):
    fresh = linalg._worker is None
    linalg._sched_getcpu = lambda: cpu
    spmv(A, x)
    conn.send((fresh, os.sched_getaffinity(linalg._worker.native_id)))


@PINNING
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_unpinned(kernel, monkeypatch):
    A = with_nnz(np.random.default_rng(18), 4096, 512, SPLIT)
    x = np.random.default_rng(19).standard_normal(512)
    usable = os.sched_getaffinity(0)
    first, second = sorted(usable)[:2]
    monkeypatch.setattr(linalg, "_sched_getcpu", lambda: first)
    kernel.await_worker = True  # here and in the child
    spmv(A, x)
    pinned = os.sched_getaffinity(linalg._worker.native_id)
    assert pinned == usable - {first}
    ctx = multiprocessing.get_context("fork")
    receiver, sender = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_pin_state_in_child, args=(A, x, second, sender))
    child.start()
    try:
        assert receiver.poll(60), "the forked child's split product did not finish"
        # a worker of its own, started on every usable CPU and pinned off the child's
        assert receiver.recv() == (True, usable - {second})
    finally:
        child.kill()
        child.join()
    # the child pinned its own worker, not this process's
    assert os.sched_getaffinity(linalg._worker.native_id) == pinned


# --- row passes split over two threads ---------------------------------------------

ROW_PARTS = ((objectives, "_logistic_loss_terms"), (objectives, "_logistic_weights"),
             (solver, "_carried_Az"), (solver, "_carried_Ay"))


class RowParts(WorkerFirst):
    """Records each call of the row-pass parts: (part, thread, rows); ``fail_in`` names
    the thread ("worker" or "caller") in which the parts raise."""

    def __init__(self, monkeypatch):
        super().__init__()
        self.calls = []
        self.fail_in = None
        for module, name in ROW_PARTS:
            monkeypatch.setattr(module, name, self._recording(name, getattr(module, name)))

    def _recording(self, name, part):
        def recorded(*args):
            thread = self.enter()
            self.calls.append((name, thread, len(args[-1])))
            if self.fail_in == thread:
                raise RuntimeError(f"row part failed in the {thread}")
            part(*args)
        return recorded


def rows_instance():
    """An odd number of rows above the row threshold, cut at a row that is not a
    multiple of 8, with too few entries for the products to split."""
    rng = np.random.default_rng(11)
    n = linalg._SPLIT_MIN_ROWS + 3
    A = with_row_counts(rng, rng.integers(1, 6, n), 20)
    assert n % 2 == 1 and A._cut % 8 != 0 and A.nnz < SPLIT
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    return LogisticObjective(A, labels, alpha=0.01), rng.standard_normal(20)


def logistic_bytes(objective, x):
    Ax = spmv(objective.A, x)
    cfg = SolverConfig(max_iters=20, stepsize_mode="experiment", scheme=FixedRestart(7))
    trace = run(objective, L1(1e-3), cfg, x)
    # the carried A y, whose last bits the trace need not show
    state = SolverState(x, x, trace.F[0], Ax, Ax)
    for _ in range(3):
        state, _ = apg_restart_step(state, objective, L1(1e-3), cfg)
    return [np.float64(objective.value(x, Ax)).tobytes(), objective.gradient(x, Ax).tobytes(),
            *(a.tobytes() for a in (trace.F, trace.grad_map_norm, trace.step_norm,
                                     trace.restart_flags, trace.final_x, state.Ay))]


def test_split_row_passes_give_the_same_bits(monkeypatch):
    objective, x = rows_instance()
    n, cut = objective.n, objective.A._cut
    parts = RowParts(monkeypatch)
    with monkeypatch.context() as inline:  # below the threshold: the inline ufuncs
        inline.setattr(objectives, "_SPLIT_MIN_ROWS", n + 1)
        inline.setattr(solver, "_SPLIT_MIN_ROWS", n + 1)
        want = logistic_bytes(objective, x)
    assert parts.calls == []
    for cpus, halves in ((1, [("caller", n)]), (2, [("worker", cut), ("caller", n - cut)])):
        monkeypatch.setattr(linalg, "_usable_cpus", lambda: cpus)
        parts.calls.clear()
        parts.await_worker = cpus > 1
        assert logistic_bytes(objective, x) == want
        # every part ran, each call on the rows its thread owns
        assert {name for name, _, _ in parts.calls} == {name for _, name in ROW_PARTS}
        assert sorted({(thread, rows) for _, thread, rows in parts.calls}) == sorted(halves)


@pytest.mark.parametrize("fail_in", ["worker", "caller"])
def test_row_part_error_reaches_the_caller(monkeypatch, fail_in):
    objective, x = rows_instance()
    Ax = spmv(objective.A, x)
    want = objective.value(x, Ax)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
    parts = RowParts(monkeypatch)
    parts.fail_in = fail_in
    parts.await_worker = True
    with pytest.raises(RuntimeError, match=f"row part failed in the {fail_in}"):
        objective.value(x, Ax)
    # the worker has answered, so the next split pass gets its own reply
    parts.fail_in = None
    parts.calls.clear()
    assert objective.value(x, Ax) == want
    assert sorted(thread for _, thread, _ in parts.calls) == ["caller", "worker"]


def test_busy_worker_runs_the_row_pass_whole(monkeypatch):
    objective, x = rows_instance()
    Ax = spmv(objective.A, x)
    want = objective.value(x, Ax)
    monkeypatch.setattr(linalg, "_usable_cpus", lambda: 2)
    parts = RowParts(monkeypatch)
    with linalg._busy:  # another thread's split pass holds the worker
        assert objective.value(x, Ax) == want
    assert parts.calls == [("_logistic_loss_terms", "caller", objective.n)]


AFFINITY_RUN = """
import os, sys
if {cpu} is not None:
    os.sched_setaffinity(0, {{{cpu}}})
from proxrestart import linalg
from proxrestart.cli import main
code = main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"])
print(linalg._usable_cpus(), linalg._worker is not None)
sys.exit(code)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_trace_bytes_do_not_depend_on_the_cpus(tmp_path):
    import yaml

    cpus = os.sched_getaffinity(0)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    # at density 0.3: 2000 x 300 stores about 1.8e5 entries, so both products split on
    # two CPUs; 40 000 x 10 stores about 1.2e5, so only the row passes split
    for n, d in ((2000, 300), (40000, 10)):
        config = tmp_path / f"large_{n}.yaml"
        config.write_text(yaml.safe_dump({
            "schema_version": 1,
            "problem": {"objective": "logistic_ncvx", "alpha": 0.01,
                        "regularizer": {"kind": "l1", "mu": 1e-3},
                        "dataset": {"source": "synthetic", "kind": "logistic_sep", "n": n, "d": d}},
            "solvers": [{"name": "fixed_10", "algorithm": "apg_restart",
                         "scheme": {"kind": "fixed", "q": 10}, "max_iters": 30, "seeds": [0]}],
        }), encoding="utf-8")
        traces = {}
        for cpu in (None, min(cpus)):
            out = tmp_path / f"out_{n}_{cpu}"
            done = subprocess.run([sys.executable, "-c", AFFINITY_RUN.format(cpu=cpu), str(config),
                                   str(out)], check=True, capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": src})
            usable, split = done.stdout.split()
            assert (int(usable), split) == ((len(cpus), str(len(cpus) > 1)) if cpu is None
                                            else (1, "False"))
            traces[cpu] = (out / "fixed_10_seed0.csv").read_bytes()
        assert traces[None] == traces[min(cpus)], (n, d)
