import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from proxrestart import (CsrMatrix, QuadraticObjective, generate_synthetic,  # noqa: E402
                         serialize_libsvm)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def small_quadratic(rng):
    """A tiny well-posed least-squares instance for solver tests."""
    A = rng.standard_normal((24, 6))
    x_true = rng.standard_normal(6)
    b = A @ x_true + 0.1 * rng.standard_normal(24)
    return QuadraticObjective(CsrMatrix.from_dense(A), b)


@pytest.fixture
def libsvm_file(tmp_path):
    """The 200x30 logistic_sep instance at seed 0, written to ``tmp_path`` as LIBSVM text."""
    path = tmp_path / "logistic_sep.libsvm"
    path.write_text(serialize_libsvm(generate_synthetic("logistic_sep", 200, 30, seed=0)),
                    encoding="utf-8")
    return path
