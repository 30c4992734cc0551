import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxrestart import CsrMatrix, spectral_norm_sq, spmv, spmv_transpose


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
])
def test_csr_invariants_rejected(bad, message):
    with pytest.raises(ValueError, match=message):
        CsrMatrix(**bad)


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


def test_spectral_norm_identity():
    for n in (1, 3, 7):
        assert spectral_norm_sq(CsrMatrix.from_dense(np.eye(n)), iters=50, seed=0) == pytest.approx(1.0, abs=1e-9)


def test_spectral_norm_diag():
    A = CsrMatrix.from_dense(np.diag([1.0, 3.0]))
    assert spectral_norm_sq(A, iters=100, seed=0) == pytest.approx(9.0, abs=1e-6)


def test_spectral_norm_zero_matrix():
    assert spectral_norm_sq(CsrMatrix.from_dense(np.zeros((3, 3))), iters=10, seed=0) == 0.0


def test_spectral_norm_requires_positive_iters():
    with pytest.raises(ValueError):
        spectral_norm_sq(CsrMatrix.from_dense(np.eye(2)), iters=0, seed=0)


def test_spectral_norm_bounds_random(rng):
    # never above the Frobenius bound, and convergent from below on generic input
    for _ in range(20):
        n, d = rng.integers(2, 12, size=2)
        A = CsrMatrix.from_dense(rng.standard_normal((n, d)))
        est = spectral_norm_sq(A, iters=60, seed=3)
        assert est <= A.vals.dot(A.vals) + 1e-9
        max_row_sq = max(
            float(np.dot(A.vals[s:e], A.vals[s:e]))
            for s, e in zip(A.row_ptr[:-1], A.row_ptr[1:])
        )
        assert est >= max_row_sq - 1e-6 * max_row_sq


def test_spectral_norm_monotone_in_iters():
    rng = np.random.default_rng(0)
    A = CsrMatrix.from_dense(rng.standard_normal((15, 8)))
    estimates = [spectral_norm_sq(A, iters=i, seed=5) for i in (1, 2, 5, 20, 80)]
    for lo, hi in zip(estimates, estimates[1:]):
        assert hi >= lo - 1e-12 * abs(lo)


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


def test_csr_equality_and_repr():
    A = CsrMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
    B = CsrMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
    C = CsrMatrix.from_dense([[1.0, 0.0], [0.0, 3.0]])
    assert A == B and A != C
    assert "2x2" in repr(A)


def test_csr_immutable():
    A = CsrMatrix.from_dense(np.eye(2))
    for name in ("n_rows", "n_cols", "shape", "nnz", "row_ptr", "col_idx", "vals", "extra"):
        with pytest.raises(AttributeError):
            setattr(A, name, 5)


def test_csr_keeps_only_scipys_arrays():
    A = CsrMatrix(3, 4, [0, 2, 2, 3], [1, 3, 0], [1.0, -2.0, 5.0])
    assert CsrMatrix.__slots__ == ("_csr", "_csr_t")
    assert A.vals is A._csr.data
    assert A.col_idx is A._csr.indices and A.col_idx.dtype == np.int32
    assert A.row_ptr is A._csr.indptr and A.row_ptr.dtype == np.int32
    assert (A.n_rows, A.n_cols, A.shape, A.nnz) == (3, 4, (3, 4), 3)
    assert list(A.row_ptr) == [0, 2, 2, 3] and list(A.col_idx) == [1, 3, 0]
    assert list(A.vals) == [1.0, -2.0, 5.0]
