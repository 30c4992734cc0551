import hashlib
import io

import numpy as np
import pytest

from oracles import same_dataset
from proxrestart import (
    CsrMatrix,
    Dataset,
    FunctionValueRestart,
    L1,
    LogisticObjective,
    ParseError,
    QuadraticObjective,
    SolverConfig,
    Zero,
    generate_synthetic,
    lasso_l1_weight,
    parse_libsvm,
    run,
    run_baseline,
    serialize_libsvm,
)
from proxrestart.dataio import SYNTHETIC_KINDS, fixture_dataset, fixture_path, load_libsvm


def parse_text(text, **kw):
    return parse_libsvm(io.StringIO(text), **kw)


def test_parse_basic_line():
    ds = parse_text("+1 1:0.5 3:-2\n")
    assert ds.labels[0] == 1.0
    assert ds.n_cols == 3
    row = ds.features.to_dense()[0]
    assert np.array_equal(row, [0.5, 0.0, -2.0])


def test_parse_empty_file():
    ds = parse_text("")
    assert ds.n_rows == 0
    assert ds.n_cols == 0


def test_parse_skips_blank_lines():
    ds = parse_text("1 1:2.0\n\n-1 2:3.0\n")
    assert ds.n_rows == 2


def test_parse_expected_dim_is_a_floor():
    ds = parse_text("1 1:2.0\n", expected_dim=10)
    assert ds.n_cols == 10
    ds2 = parse_text("1 1:2.0 12:1.0\n", expected_dim=10)
    assert ds2.n_cols == 12
    assert parse_text("1 1:0.5\n", expected_dim=0).n_cols == 1
    # a negative floor is a mistake, not a floor of 0
    with pytest.raises(ValueError, match="expected_dim must be nonnegative, got -5"):
        parse_text("1 1:0.5\n", expected_dim=-5)
    with pytest.raises(ValueError, match="expected_dim must be nonnegative, got -1"):
        load_libsvm(fixture_path("logistic_sep"), expected_dim=-1)


def test_parse_regression_labels():
    ds = parse_text("3.25 1:1.0\n-0.5 1:2.0\n")
    assert np.array_equal(ds.labels, [3.25, -0.5])


@pytest.mark.parametrize("text,fragment", [
    ("1 2:a\n", "line 1"),              # nonnumeric value
    ("1 2:a\n", "2:a"),                 # ... names the token
    ("abc 1:2\n", "nonnumeric label"),
    ("nan 1:2\n", "line 1: nonfinite label 'nan'"),
    ("1 1:2\n-inf 2:1\n", "line 2: nonfinite label '-inf'"),
    ("1 x:2\n", "nonnumeric index"),
    ("1 0:5\n", "must be >= 1"),
    ("1 2:1.0 2:3.0\n", "nonincreasing"),
    ("1 3:1.0 2:3.0\n", "nonincreasing"),
    ("1 23\n", "malformed feature token"),
    ("1 1:1.0\n-1 0:2.0\n", "line 2"),
    # a nonfinite value is refused where it is read, not later by the matrix
    ("1 1:nan\n", "line 1: nonfinite value in token '1:nan'"),
    ("1 1:1\n1 2:inf\n", "line 2: nonfinite value in token '2:inf'"),
    ("1 1:1e400\n", "line 1: nonfinite value in token '1:1e400'"),
    # Python's number syntax reads '_' as a digit separator: 1_0 would be 10
    ("1 1_0:2\n", "line 1: digit separator '_' in token '1_0:2'"),
    ("1 1:1\n1_0 1:2\n", "line 2: digit separator '_' in token '1_0'"),
    ("1 1:2_5\n", "line 1: digit separator '_' in token '1:2_5'"),
])
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_text(text)


@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_roundtrip_on_fixtures(kind):
    first = fixture_dataset(kind)
    text = serialize_libsvm(first)
    second = parse_libsvm(io.StringIO(text), name=kind)
    assert same_dataset(first, second)


def test_roundtrip_preserves_awkward_floats():
    ds = parse_text("1 1:0.1 2:1e-300 3:123456789.123456789\n-1 1:-0.0\n")
    again = parse_text(serialize_libsvm(ds))
    assert same_dataset(ds, again)


@pytest.mark.parametrize("kind", SYNTHETIC_KINDS)
def test_generation_deterministic(kind):
    a = generate_synthetic(kind, 40, 8, seed=9)
    b = generate_synthetic(kind, 40, 8, seed=9)
    assert same_dataset(a, b)
    assert not same_dataset(a, generate_synthetic(kind, 40, 8, seed=10))


def test_fixtures_match_generator_output():
    # drift guard: the committed files are exactly what the generator emits
    for kind in SYNTHETIC_KINDS:
        dataset = generate_synthetic(kind, 200, 30, seed=0)
        with fixture_path(kind).open("r", encoding="utf-8") as fh:
            assert fh.read() == serialize_libsvm(dataset)


def test_generated_kinds_and_shapes():
    log = generate_synthetic("logistic_sep", 50, 7, seed=2)
    assert set(np.unique(log.labels)) <= {-1.0, 1.0}
    rob = generate_synthetic("robust_outliers", 50, 7, seed=2)
    assert rob.features.shape == (50, 7)
    lasso = generate_synthetic("lasso_known", 50, 7, seed=2)
    assert isinstance(lasso, Dataset)
    assert lasso.features.shape == (50, 7)
    with pytest.raises(ValueError):
        generate_synthetic("mystery", 10, 2, seed=0)
    with pytest.raises(ValueError):
        generate_synthetic("logistic_sep", 0, 2, seed=0)


def test_robust_outliers_present():
    ds = generate_synthetic("robust_outliers", 100, 10, seed=3)
    spread = np.abs(ds.labels - np.median(ds.labels))
    assert np.sum(spread > 4.0) >= 5  # the gross corruptions


def _prox_grad_reference(ds, weight):
    # a long proximal gradient run to machine precision
    cfg = SolverConfig(max_iters=100_000, stepsize_mode="theory", tolerance=1e-14)
    objective = QuadraticObjective(ds.features, ds.labels)
    return run_baseline("prox_grad", objective, L1(weight), cfg, np.zeros(ds.n_cols)).final_x


def test_lasso_reference_is_stationary():
    ds = generate_synthetic("lasso_known", 80, 10, seed=5)
    reg = L1(lasso_l1_weight(ds))
    x_ref = _prox_grad_reference(ds, reg.mu)
    obj = QuadraticObjective(ds.features, ds.labels)
    assert reg.subdiff_distance(obj.gradient(x_ref), x_ref) <= 1e-8


def test_lasso_reference_bits_are_pinned():
    # the default weight and the reference solution at it, bit for bit
    ds = generate_synthetic("lasso_known", 200, 30, seed=0)
    weight = lasso_l1_weight(ds)
    assert weight == float.fromhex("0x1.1528925de34d3p-5")
    assert hashlib.sha256(_prox_grad_reference(ds, weight).tobytes()).hexdigest() == (
        "84d418cf0bf86e68ac529b3c5876b017f21810b4b18e41320f416e66ef389501")


def test_load_libsvm_reads_files(tmp_path):
    path = tmp_path / "tiny.libsvm"
    path.write_text("1 1:2.0\n-1 2:-1.0\n", encoding="utf-8")
    ds = load_libsvm(path)
    assert ds.n_rows == 2 and ds.n_cols == 2


def test_separable_instance_is_easy_to_fit():
    # no label noise and a wide margin: the logistic loss falls below 0.1
    rng = np.random.default_rng(7)
    w = rng.standard_normal(30)
    labels = rng.choice((-1.0, 1.0), size=200)
    features = np.where(rng.random((200, 30)) < 0.3, rng.standard_normal((200, 30)), 0.0)
    features += (features != 0.0) * (12.0 / np.linalg.norm(w) * labels[:, None] * w)
    obj = LogisticObjective(CsrMatrix.from_dense(features), labels, alpha=0.0)
    cfg = SolverConfig(max_iters=2000, stepsize_mode="experiment", scheme=FunctionValueRestart())
    trace = run(obj, Zero(), cfg, np.zeros(30))
    assert trace.final_F < 0.1
