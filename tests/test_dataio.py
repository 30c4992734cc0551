import hashlib
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    spmv,
)
from proxrestart import dataio
from proxrestart.dataio import SYNTHETIC_KINDS, fixture_dataset, fixture_path, load_libsvm


def parse_text(text, **kw):
    return parse_libsvm(io.StringIO(text), **kw)


def parse_by_lines(source, **kw):
    """``parse_libsvm`` with every block sent to the per-line reader."""
    with mock.patch.object(dataio, "_parse_block", return_value=None):
        return parse_libsvm(source, **kw)


# Filler text and the number of its lines in each block, to place lines around block ends.
_FILLER = "1 1:1\n"
_BLOCK_LINES = -(-dataio._BLOCK_CHARS // len(_FILLER))


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
    # line numbers run on across blocks, whichever path each block took
    pytest.param(_FILLER * (_BLOCK_LINES - 1) + "1 1:x\n" + _FILLER,
                 f"line {_BLOCK_LINES}: nonnumeric value in token '1:x'", id="last-line-of-a-block"),
    pytest.param(_FILLER * _BLOCK_LINES + "1 1:x\n" + _FILLER,
                 f"line {_BLOCK_LINES + 1}: nonnumeric value in token '1:x'",
                 id="first-line-of-a-block"),
    pytest.param("1 +1:1\n" + _FILLER * (_BLOCK_LINES - 1) + "1 0:1\n",
                 f"line {_BLOCK_LINES + 1}: feature index must be >= 1", id="after-a-per-line-block"),
    pytest.param(_FILLER * (_BLOCK_LINES - 3) + "\n" * 40 + "1 1:x\n",
                 f"line {_BLOCK_LINES + 38}: nonnumeric value", id="blank-lines-across-blocks"),
])
def test_parse_errors_name_the_line(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_text(text)


def test_index_beyond_int64_is_a_parse_error():
    # int() reads any length of digits; the matrix's index array is int64
    big = "12345678901234567890"
    with pytest.raises(ParseError, match=f"^line 2: feature index beyond int64 in token '{big}:2'$"):
        parse_text(f"1 1:1\n-1 {big}:2\n")
    with pytest.raises(ParseError, match="line 1: feature index beyond int64"):
        parse_text(f"1 {2**63}:1\n")
    assert parse_text(f"1 {2**63 - 1}:1\n").n_cols == 2**63 - 1


def test_parse_spans_blocks():
    # three blocks: the per-line reader's dataset from text or a list, and expected_dim a floor
    text = "".join(f"{i % 3 - 1} {i % 7 + 1}:{i * 0.5} 9:{-i}e-3\n" for i in range(100_000))
    assert len(text) > 2 * dataio._BLOCK_CHARS
    want = parse_by_lines(io.StringIO(text))
    assert want.n_rows == 100_000 and want.n_cols == 9
    assert same_dataset(parse_text(text), want)
    assert same_dataset(parse_libsvm(text.splitlines()), want)
    assert parse_text(text, expected_dim=5).n_cols == 9
    assert parse_text(text, expected_dim=12).n_cols == 12


def test_well_formed_text_takes_the_vectorised_path():
    # a fast path that always fell back would pass every other test here
    texts = [fixture_path(kind).read_text(encoding="utf-8") for kind in SYNTHETIC_KINDS]
    texts.append("1 1:0.1 2:1e-300 3:123456789.123456789\n-1 1:-0.0\n")
    want = [parse_by_lines(io.StringIO(text)) for text in texts]
    with mock.patch.object(dataio, "_parse_lines", side_effect=AssertionError("per-line reader")):
        for text, expected in zip(texts, want):
            assert same_dataset(parse_text(text), expected)
        for kind in SYNTHETIC_KINDS:
            assert fixture_dataset(kind).n_rows == 200


# Decimal floats in the vectorised grammar: a sign, 5 / 5. / .5 / 5.25 with any leading
# zeros, and an exponent of up to two digits; the repr of any finite double; and limits.
_SIGN = st.sampled_from(["", "+", "-"])
_DIGITS = st.text("0123456789", min_size=1, max_size=4)
_MANTISSA = st.one_of(_DIGITS, _DIGITS.map(lambda d: d + "."), _DIGITS.map(lambda d: "." + d),
                      st.tuples(_DIGITS, _DIGITS).map(".".join))
_EXPONENT = st.one_of(st.just(""), st.tuples(st.sampled_from("eE"), _SIGN,
                                             st.text("0123456789", min_size=1, max_size=2)).map("".join))
_FLOAT = st.one_of(st.tuples(_SIGN, _MANTISSA, _EXPONENT).map("".join),
                   st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from(["-0.0", "4.9e-324", "2.2250738585072009e-308", "1e-400"]))
_SPACE = st.sampled_from([" ", "\t", "  ", " \t", "\r", " \r "])
_BLANK = st.sampled_from(["", " ", "\t \r"])

# Near misses: forms the per-line reader takes but the vectorised grammar does not, and
# forms neither takes.
_FLOAT_MISS = st.sampled_from([
    "1e400", "-1e400", "inf", "-inf", "nan", "0x1p3", "1_0", "\u0663", "\u0663.5", "1e", "1e+",
    "e5", ".e1", ".", "+", "-", "--1", "+-1", "1..2", "1.2.3", "1e5.3", "1e5e3", "1-2", "5e-",
    "1:2", ":", "abc"])
_INDEX_MISS = st.sampled_from(["+3", "3.0", "1e0", "0", "00", "", "x", "-1", "1234567890123456",
                               "\u0663", "3_0", "0x1"])
_SPACE_MISS = st.sampled_from(["\u2003", "\x0b", "\x0c", "\xa0", "\x1c", "\x85"])


@st.composite
def _row(draw, floats=_FLOAT, space=_SPACE, index_miss=None):
    """A line of increasing indices, or a blank one; near misses come only from the arguments."""
    if draw(st.integers(0, 5)) == 0:
        return draw(_BLANK)
    columns = sorted(draw(st.sets(st.integers(1, 10**15 - 1), max_size=4)))
    if index_miss is not None and draw(st.booleans()):
        columns = draw(st.permutations(columns + columns[:1]))  # repeats and disorder
    tokens = [draw(floats)]
    for c in columns:
        index = "0" * draw(st.integers(0, min(2, 15 - len(str(c))))) + str(c)
        if index_miss is not None and draw(st.integers(0, 3)) == 0:
            index = draw(index_miss)
        tokens.append(f"{index}:{draw(floats)}")
    parts = [draw(st.just("") | space)]
    for token in tokens:
        parts += [token, draw(space)]
    return "".join(parts[:-1] + [draw(st.just("") | space)])


def _read(parse, source):
    try:
        return parse(source)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_row(), min_size=1, max_size=6), final_newline=st.booleans())
def test_vectorised_parse_gives_the_readers_dataset(rows, final_newline):
    # every input of the fast grammar is parsed without the per-line reader, bit for bit
    # as that reader parses it, from a file and from lists of lines with and without ends
    assume(any(row.split() for row in rows))
    text = "\n".join(rows) + ("\n" if final_newline else "")
    want = parse_by_lines(io.StringIO(text))
    with mock.patch.object(dataio, "_parse_lines", side_effect=AssertionError("per-line reader")):
        for source in (io.StringIO(text), rows, [row + "\n" for row in rows]):
            assert same_dataset(parse_libsvm(source), want)


@st.composite
def _one_near_miss(draw):
    """Lines of the fast grammar with one near miss put in: a label, value or index, a
    separator, a repeated index, or two lines in one item."""
    items = draw(st.lists(_row(), min_size=1, max_size=5))
    i = draw(st.integers(0, len(items) - 1))
    pieces = re.split(r"(\s+)", items[i])  # tokens at even positions, separators at odd
    tokens = [j for j in range(0, len(pieces), 2) if pieces[j]]
    kind = draw(st.sampled_from(["token", "space", "order", "join"]))
    if kind == "join" and i + 1 < len(items):
        items[i:i + 2] = [items[i] + "\n" + items[i + 1]]
    elif kind == "space" and len(pieces) > 1:
        pieces[draw(st.sampled_from(range(1, len(pieces), 2)))] = draw(_SPACE_MISS)
    elif kind == "order" and len(tokens) > 1:
        pieces.append(" " + pieces[tokens[-1]])
    elif tokens:
        j = draw(st.sampled_from(tokens))
        index, colon, value = pieces[j].rpartition(":")
        if colon and draw(st.booleans()):
            index = draw(_INDEX_MISS)
        else:
            value = draw(_FLOAT_MISS)
        pieces[j] = index + colon + value
    else:
        pieces = [draw(_SPACE_MISS)]
    if kind != "join":
        items[i] = "".join(pieces)
    return items


def _same_result(make_source):
    # the dataset, or the error message, of the per-line reader
    got, want = _read(parse_libsvm, make_source()), _read(parse_by_lines, make_source())
    if isinstance(want, str):
        assert got == want
    else:
        assert not isinstance(got, str) and same_dataset(got, want)


@settings(max_examples=300, deadline=None)
@given(items=_one_near_miss(), final_newline=st.booleans())
def test_one_near_miss_gives_the_readers_result(items, final_newline):
    # an item of a list that holds a newline is one line to the per-line reader
    text = "\n".join(items) + ("\n" if final_newline else "")
    _same_result(lambda: io.StringIO(text))
    _same_result(lambda: items)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(_row(_FLOAT_MISS | _FLOAT, _SPACE_MISS | _SPACE, _INDEX_MISS), max_size=5))
def test_near_misses_give_the_readers_result(rows):
    _same_result(lambda: io.StringIO("\n".join(rows)))


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


def test_unknown_fixture_and_short_labels_are_refused():
    with pytest.raises(ValueError, match="unknown fixture kind 'mystery'"):
        fixture_path("mystery")
    with pytest.raises(ValueError, match="label count"):
        Dataset(CsrMatrix.from_dense(np.eye(2)), np.zeros(1), "short")


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
    assert reg.subdiff_distance(obj.gradient(x_ref, spmv(obj.A, x_ref)), x_ref) <= 1e-8


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
