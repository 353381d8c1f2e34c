"""`fit` ingestion: the C-parsed CSV reader and the row grouping, each
checked against its reference on generated inputs."""

import os
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minimaxreg import cli
from minimaxreg.cli import (
    CliInputError,
    _read_fit_csv_strict,
    detect_replication,
    read_fit_csv,
)


def _outcome(reader, path):
    try:
        X, y = reader(path)
    except CliInputError as exc:
        return "error", str(exc)
    return "ok", X, y


def _assert_same_bits(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    # tobytes also tells -0.0 from 0.0, which np.array_equal does not.
    assert np.array_equal(a, b) and a.tobytes() == b.tobytes()


def read_strict(path):
    """The strict reader on its own handle of ``path``, opened as ``read_fit_csv`` opens it."""
    with cli._utf8_input(path, newline="") as fh:
        return _read_fit_csv_strict(path, fh)


def assert_reader_matches_strict(path):
    fast, strict = _outcome(read_fit_csv, path), _outcome(read_strict, path)
    assert fast[0] == strict[0], (fast, strict)
    if fast[0] == "error":
        assert fast[1] == strict[1]
        return fast
    for a, b in zip(fast[1:], strict[1:]):
        _assert_same_bits(a, b)
    return fast


# Cells by kind: both parsers accept, non-finite, only Python float() accepts,
# neither accepts, blank. A kind is drawn first so that no kind stays rare.
SPECIAL_CELLS = (
    ("-0", "+0", "-0.0", "0e0", ".5", "5.", "+7", "-2.5E-3", "1e-320"),
    ("nan", "-inf", "Infinity", "1e999", "-1e999"),
    ('"1"', '" 2 "', '"1,2"', "1_0", "\xa01", "1٠"),
    ("0x10", "#", "1#2", "3 #c", "abc", "1 2", "1e"),
    ("", " ", "\t"),
)
PADS = ("", " ", "\t", " \t ")


@st.composite
def fit_csv_texts(draw):
    q = draw(st.integers(1, 3))
    fmt = draw(st.sampled_from(("%.9g", "%.17g")))
    values = st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.lists(values, min_size=q + 1, max_size=q + 1), max_size=6))
    lines = [
        [draw(st.sampled_from(PADS)) + fmt % v + draw(st.sampled_from(PADS)) for v in row]
        for row in rows
    ]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("cell", "cell", "line", "trailing_comma", "drop_cell")))
        if kind == "line":
            extra = draw(st.sampled_from((
                [""], [" "], [" \t "], [""] * (q + 1), [" "] * (q + 1),
                ["1"] * q, ["1"] * (q + 2), ["# note"], ["1"] * q + ["2 # note"],
            )))
            lines.insert(draw(st.integers(0, len(lines))), extra)
        elif lines:
            i = draw(st.integers(0, len(lines) - 1))
            j = draw(st.integers(0, len(lines[i]) - 1)) if lines[i] else 0
            if kind == "cell" and lines[i]:
                lines[i][j] = draw(st.sampled_from(draw(st.sampled_from(SPECIAL_CELLS))))
            elif kind == "trailing_comma":
                lines[i] = lines[i] + [""]
            elif lines[i]:
                del lines[i][j]
    header = ",".join([f"x{i + 1}" for i in range(q)] + ["y"])
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from((
            " , ".join([f"x{i + 1}" for i in range(q)] + ["y"]),
            ",".join([f"x{i + 2}" for i in range(q)] + ["y"]),
            "a,b", "y", "",
        )))
    text = header
    for line in lines:
        text += draw(st.sampled_from(("\n", "\r\n"))) + ",".join(line)
    if draw(st.booleans()):
        text += draw(st.sampled_from(("\n", "\r\n")))
    return text


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest") / "data.csv"


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return str(path)


class TestReaderOracle:
    @settings(max_examples=1000, derandomize=True, database=None, deadline=None)
    @given(text=fit_csv_texts())
    def test_generated_texts(self, csv_path, text):
        assert_reader_matches_strict(_write(csv_path, text))

    @pytest.mark.parametrize("text, expect", [
        ("x1,y\n1,2\n3,4\n", [[1, 2], [3, 4]]),
        ("x1,y\r\n1,2\r\n3,4", [[1, 2], [3, 4]]),
        ("x1,y\n1,2\n\n  \n\t\n,\n3,4\n", [[1, 2], [3, 4]]),
        ("x1,y\n \t1 , 2\t\n", [[1, 2]]),
        ('x1,y\n"1",2\n', [[1, 2]]),
        ("x1,y\n1_0,2\n", [[10, 2]]),
        ("x1,y\n-0,2\n", [[-0.0, 2]]),
        ("x1,y\n1٠,2\n", [[10, 2]]),
        ("x1,y\n0x10,2\n", "is not numeric"),
        ("x1,y\n1,2#3\n", "is not numeric"),
        ("x1,y\n# note\n1,2\n", "expected 2 cells, got 1"),
        ("x1,y\n1,2,\n", "expected 2 cells, got 3"),
        ("x1,y\n1,2,3\n4,5,6\n", "expected 2 cells, got 3"),
        ("x1,y\n1,2\n3\n", "expected 2 cells, got 1"),
        ("x1,y\n1,nan\n", "is not finite"),
        ("x1,y\n1,nan\n2,abc\n", "is not numeric"),
        ("x1,y\n", "no data rows"),
        ("x1,y\n\n \n", "no data rows"),
        ("", "file is empty"),
        ("a,y\n1,2\n", "header must be x1,y but got a,y"),
        # Line ends csv and the body parser must count alike.
        ("x1,y\r1,2\r3,4\r", [[1, 2], [3, 4]]),
        ("x1,y\r\n1,2\r3,4\n5,6\r\n7,8\r", [[1, 2], [3, 4], [5, 6], [7, 8]]),
        # A quoted header cell spanning two lines: the body starts after both.
        ('x1,"y\n"\n1,2\n3,4\n', [[1, 2], [3, 4]]),
        ('x1,"y\r\n"\r\n1,2\r\n3,4\r\n', [[1, 2], [3, 4]]),
        # An error names the physical line, not the record, after a quoted
        # cell that spans two lines.
        ('x1,"y\n"\n1,2\n3,abc\n', "line 4, column 2: 'abc' is not numeric"),
        ('x1,y\n"1\n",2\n3,abc\n', "line 4, column 2: 'abc' is not numeric"),
        ("\ufeffx1,y\n1,2\n", "header must be x1,y but got \ufeffx1,y"),
    ])
    def test_examples(self, csv_path, text, expect):
        result = assert_reader_matches_strict(_write(csv_path, text))
        if isinstance(expect, str):
            assert result[0] == "error" and expect in result[1]
        else:
            expect = np.asarray(expect, dtype=float)
            _assert_same_bits(np.column_stack(result[1:]), expect)

    @pytest.mark.parametrize("text", (
        "x1,y\r1,2\r3,4\r",
        "x1,y\r\n1,2\r3,4\n5,6\r\n7,8\r",
        'x1,"y\n"\n1,2\n3,4\n',
        'x1,"y\r\n"\r\n1,2\r\n3,4\r\n',
    ))
    def test_line_ends_and_spanning_header_read_in_c(self, csv_path, monkeypatch, text):
        # The body parser skips exactly the lines csv read for the header,
        # so none of these needs the line-by-line reader.
        def refuse(path, fh):
            raise AssertionError("fell back to the strict reader")

        monkeypatch.setattr(cli, "_read_fit_csv_strict", refuse)
        X, y = read_fit_csv(_write(csv_path, text))
        assert X.shape == (y.size, 1) and y.size >= 2


class TestReadByPath:
    """The body is read by path; no name may reach the network, a
    decompressor or a second read of a pipe."""

    def test_url_shaped_name_is_a_local_file(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("urlopen called")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "example.invalid").mkdir(parents=True)
        _write(tmp_path / "http:" / "example.invalid" / "d.csv", "x1,y\n1,2\n3,4\n")
        result = assert_reader_matches_strict("http://example.invalid/d.csv")
        _assert_same_bits(np.column_stack(result[1:]), np.array([[1.0, 2], [3, 4]]))

    @pytest.mark.parametrize("name", ("d.csv.gz", "d.csv.bz2", "d.csv.xz", "d.csv.zip"))
    def test_archive_suffix_on_plain_text(self, tmp_path, name):
        result = assert_reader_matches_strict(_write(tmp_path / name, "x1,y\n1,2\n3,4\n"))
        _assert_same_bits(np.column_stack(result[1:]), np.array([[1.0, 2], [3, 4]]))

    def test_pipe_is_read_once(self, tmp_path):
        rng = np.random.default_rng(5)
        text = "x1,x2,y\n" + "".join("%.17g,%.17g,%.17g\n" % tuple(r)
                                       for r in rng.normal(size=(3000, 3)))
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=_write, args=(fifo, text))
        writer.start()
        try:
            X, y = read_fit_csv(str(fifo))
        finally:
            writer.join()
        want = read_strict(_write(tmp_path / "d.csv", text))
        _assert_same_bits(X, want[0])
        _assert_same_bits(y, want[1])

    def test_pipe_falls_back_to_the_strict_reader(self, tmp_path):
        # The C parser refuses the quoted cell. The strict reader must read
        # the text kept from the pipe's one read: opening the pipe again
        # finds it drained.
        text = 'x1,y\n"1",2\n3,4\n'
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            X, y = read_fit_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)
        want = read_strict(_write(tmp_path / "d.csv", text))
        _assert_same_bits(X, want[0])
        _assert_same_bits(y, want[1])


def unique_reference(X, y):
    """Row grouping as ``np.unique(X, axis=0)`` computed it."""
    levels, inverse, counts = np.unique(
        X, axis=0, return_inverse=True, return_counts=True
    )
    if levels.shape[0] == X.shape[0] or not np.all(counts == counts[0]):
        return None
    order = np.argsort(inverse, kind="stable")
    return levels, int(counts[0]), y[order]


def assert_grouping_matches(X, y):
    got, want = detect_replication(X, y), unique_reference(X, y)
    assert (got is None) == (want is None)
    if got is None:
        return False
    design, y_ordered = got
    _assert_same_bits(design.levels, want[0])
    assert design.reps == want[1]
    _assert_same_bits(y_ordered, want[2])
    return True


def _distinct_levels(rng, k, q, values):
    levels = np.unique(rng.choice(values, size=(4 * k, q)), axis=0)
    return levels[rng.permutation(len(levels))[:k]]


class TestGroupingOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_permuted_balanced_designs(self, seed):
        rng = np.random.default_rng(seed)
        replicated = 0
        for k in range(1, 31):
            q = int(rng.integers(1, 6))
            reps = int(rng.integers(1, 6))
            values = rng.normal(size=3) if seed % 2 else np.array([-1.0, 0.0, 1.0, 2.5])
            levels = _distinct_levels(rng, k, q, values)
            X = np.repeat(levels, reps, axis=0)
            perm = rng.permutation(len(X))
            replicated += assert_grouping_matches(X[perm], rng.normal(size=len(X)))
        assert replicated > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_unbalanced_designs(self, seed):
        rng = np.random.default_rng(100 + seed)
        for _ in range(20):
            levels = _distinct_levels(rng, int(rng.integers(2, 12)), int(rng.integers(1, 4)),
                                      np.arange(-2.0, 3.0))
            counts = rng.integers(1, 5, size=len(levels))
            X = np.repeat(levels, counts, axis=0)[rng.permutation(int(counts.sum()))]
            assert_grouping_matches(X, rng.normal(size=len(X)))

    def test_all_distinct_and_single_rows(self):
        rng = np.random.default_rng(7)
        for shape in ((1, 1), (1, 4), (50, 3), (1000, 5)):
            X = rng.normal(size=shape)
            assert detect_replication(X, rng.normal(size=shape[0])) is None
            assert_grouping_matches(X, rng.normal(size=shape[0]))

    @pytest.mark.parametrize("seed", range(8))
    def test_signed_zero_levels(self, seed):
        # 0.0 and -0.0 are one level; the level row must keep the same bits.
        rng = np.random.default_rng(200 + seed)
        levels = _distinct_levels(rng, int(rng.integers(2, 10)), int(rng.integers(1, 4)),
                                  np.array([-1.0, 0.0, 1.0]))
        X = np.repeat(levels, int(rng.integers(2, 9)), axis=0)
        zeros = X == 0
        X[zeros] = np.where(rng.random(int(zeros.sum())) < 0.5, 0.0, -0.0)
        X = X[rng.permutation(len(X))]
        assert assert_grouping_matches(X, rng.normal(size=len(X)))

    @pytest.mark.parametrize("seed", range(4))
    def test_every_column_repeats_but_no_row(self, seed):
        # Each column repeats its values, so no single column proves the
        # rows distinct; only the full grouping does.
        rng = np.random.default_rng(300 + seed)
        q = int(rng.integers(2, 5))
        grid = np.stack(np.meshgrid(*[rng.normal(size=3)] * q), -1).reshape(-1, q)
        X = grid[rng.permutation(len(grid))]
        assert not assert_grouping_matches(X, rng.normal(size=len(X)))

    @pytest.mark.parametrize("q", (1, 3))
    def test_signed_zeros_are_one_value_in_a_column(self, q):
        # The first column's bits are all distinct, but 0.0 == -0.0: the
        # two rows are one level observed twice.
        X = np.zeros((2, q))
        X[1, 0] = -0.0
        X[:, 1:] = 2.5
        assert assert_grouping_matches(X, np.array([1.0, -1.0]))

    @pytest.mark.parametrize("seed", range(4))
    def test_columns_that_each_repeat_a_few_values(self, seed):
        # Like a CSV of rounded regressors: a constant column, then columns
        # that repeat some values. No row repeats until every row is doubled.
        rng = np.random.default_rng(400 + seed)
        X = np.column_stack([np.ones(3000), np.round(rng.random((3000, 3)), 4)])
        assert not assert_grouping_matches(X, rng.normal(size=len(X)))
        doubled = np.repeat(X, 2, axis=0)[rng.permutation(2 * len(X))]
        assert assert_grouping_matches(doubled, rng.normal(size=len(doubled)))

    def test_fit_csv_shape(self, tmp_path):
        # The benchmark's fit-csv layout: an intercept and four uniform
        # regressors printed at %.9g, 10^5 rows. Each regressor column repeats
        # a few values by chance, yet no row repeats.
        rng = np.random.default_rng(7)
        X = np.column_stack([np.ones(100_000), rng.random((100_000, 4))])
        path = str(tmp_path / "d.csv")
        np.savetxt(path, np.column_stack([X, X @ rng.normal(size=5)]), fmt="%.9g",
                   delimiter=",", header="x1,x2,x3,x4,x5,y", comments="")
        X, y = read_fit_csv(path)
        for column in X.T[1:]:
            assert 0 < column.size - np.unique(column).size < 50
        assert detect_replication(X, y) is None
        assert not assert_grouping_matches(X, y)
