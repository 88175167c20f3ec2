"""The CSV reader against a straight reference, and the CSV writers' bytes.

``read_csv_columns`` tokenizes a file with the csv module a block of rows
at a time (the row walk) and casts each column a block at a time.  The
differential tests here damage valid files and check that it agrees with
:func:`_reference`, a plain ``csv.reader`` walk over the whole file with
the same column casts and the documented error ranking: the same line
numbers and bit-identical arrays, or the same DataFormatError text.  They
run at the reader's own block size and at a few rows
(``data_io.BLOCK_ROWS`` patched), so that damage falls on block
boundaries.  Some test names still say "bulk pass", after a second
tokenizer that split plain files at their commas and was checked against
the row walk here.
"""
import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oficast import data_io
from oficast.data_io import (
    COUNTS_COLUMNS,
    COUNTS_HEADER,
    CountSeries,
    DataFormatError,
    _PARSE_ERRORS,
    _csv_blocks,
    _quote,
    load_counts_csv,
    read_csv_columns,
    write_counts_csv,
)
from oficast.hybrid import (
    PREDICTIONS_COLUMNS,
    PREDICTIONS_HEADER,
    Predictions,
    read_predictions_csv,
    write_predictions_csv,
)
from oficast.ofi_signal import SIGNAL_ORDER, signal

FIELD_LIMIT = csv.field_size_limit()
INT64 = np.iinfo(np.int64)

#: reader name -> (header, columns) as the reader passes them
READERS = {
    "counts": (COUNTS_HEADER, COUNTS_COLUMNS),
    "predictions": (PREDICTIONS_HEADER, PREDICTIONS_COLUMNS),
}

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
#: the OFIs a predictions file may hold; -0.0 and subnormals among them
ofi_floats = st.floats(-1.0, 1.0)

#: Field texts that int(), float() or a signal parser may read otherwise
#: than they look: non-finite, out of range, spaced, signed, underscored,
#: non-ASCII digits, other enum spellings.
ODD_TOKENS = [
    "nan", "-inf", "1e999", "-0", "+7", "1_000", " 5 ", "\t5", "\u0662", "9" * 19,
    "-9223372036854775809", "0x10", "1.0", "", "BUY ", "buy", "Side.BUY", "HOLD",
]


def _outcome(path, reader):
    """(line numbers, arrays) from ``read_csv_columns``, or the DataFormatError text."""
    header, columns = READERS[reader]
    try:
        return read_csv_columns(path, header, columns)
    except DataFormatError as exc:
        return str(exc)


def _reference(path, reader):
    """What ``read_csv_columns`` documents, read straight: every row of
    the file by one ``csv.reader``, then each column cast whole.  Returns
    (line numbers, arrays) or the DataFormatError text, ranking a bad
    header, a csv-module error or text that is not UTF-8 first (where it is
    met), then the first row of the wrong field count, then the first bad
    token of the leftmost column that has one."""
    header, columns = READERS[reader]
    lines, rows = [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            walk = csv.reader(fh)
            try:
                found = next(walk, None)
                if found is None or tuple(f.strip() for f in found) != header:
                    got = "nothing" if found is None else _quote(",".join(found))
                    raise DataFormatError(
                        f"expected header {','.join(header)}, got {got}", 1, path
                    )
                for row in walk:
                    if row:
                        lines.append(walk.line_num)
                        rows.append(row)
            except csv.Error as exc:
                raise DataFormatError(str(exc), walk.line_num, path) from None
            except UnicodeDecodeError as exc:
                raise DataFormatError(f"not UTF-8 text ({exc.reason})", path=path) from None
        for line, row in zip(lines, rows):
            if len(row) != len(header):
                raise DataFormatError(
                    f"expected {len(header)} fields, got {len(row)}", line, path
                )
        tokens = list(zip(*rows)) or [()] * len(header)
        for name, column, column_tokens in zip(header, columns, tokens):
            for line, token in zip(lines, column_tokens):
                try:
                    column.cast([token])
                except _PARSE_ERRORS:
                    raise DataFormatError(
                        f"column {name}: expected {column.expected}, got {_quote(token)}",
                        line, path,
                    ) from None
    except DataFormatError as exc:
        return str(exc)
    arrays = [column.cast(list(t)) for column, t in zip(columns, tokens)]
    return np.array(lines, dtype=np.int64), arrays


def _assert_same(got, want):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    (got_lines, got_arrays), (want_lines, want_arrays) = got, want
    assert got_lines.dtype == want_lines.dtype == np.int64
    assert got_lines.tolist() == want_lines.tolist()
    assert len(got_arrays) == len(want_arrays)
    for g, w in zip(got_arrays, want_arrays):
        assert g.dtype == w.dtype and g.shape == w.shape
        if w.dtype == object:
            assert g.tolist() == w.tolist()
        else:  # bitwise, so -0.0 and 0.0 differ
            assert g.tobytes() == w.tobytes()


# ------------------------------------------------------------- valid files

def _text_of_writer(write, tmp_path_factory):
    path = tmp_path_factory.mktemp("w") / "out.csv"
    write(path)
    return path.read_bytes()


@st.composite
def counts_files(draw, tmp_path_factory):
    t0 = draw(st.integers(INT64.min, INT64.max - 20))
    pairs = draw(st.lists(st.tuples(st.integers(0, INT64.max), st.integers(0, 99)), max_size=20))
    series = CountSeries(np.array(pairs, dtype=np.int64).reshape(-1, 2), t0)
    return _text_of_writer(lambda p: write_counts_csv(p, series), tmp_path_factory)


def predictions_strategy(max_size=20):
    def build(index, rows):
        n = min(len(index), len(rows))
        signals = np.array(SIGNAL_ORDER, dtype=object)
        actual, predicted, a_sig, p_sig = zip(*rows[:n]) if n else ((), (), (), ())
        return Predictions(
            np.array(index[:n], dtype=np.int64),
            np.array(actual, dtype=float),
            np.array(predicted, dtype=float),
            signals[list(a_sig)] if n else np.array([], dtype=object),
            signals[list(p_sig)] if n else np.array([], dtype=object),
        )

    row = st.tuples(ofi_floats, ofi_floats, st.integers(0, 2), st.integers(0, 2))
    return st.builds(
        build,
        st.lists(st.integers(INT64.min, INT64.max), max_size=max_size),
        st.lists(row, max_size=max_size),
    )


@st.composite
def predictions_files(draw, tmp_path_factory):
    records = draw(predictions_strategy())
    return _text_of_writer(lambda p: write_predictions_csv(records, p), tmp_path_factory)


# ----------------------------------------------------------------- damage

@st.composite
def damaged(draw, data: bytes) -> bytes:
    """``data`` as written, with LF line ends, or with one kind of damage:
    cut short, one byte replaced, a quote, lone CR, blank line or NUL
    inserted, a field padded with a space, or a field replaced by one near
    the csv module's field limit."""
    kind = draw(st.sampled_from([
        "none", "lf", "truncate", "replace", "quote", "cr", "blank", "nul", "pad", "long",
    ]))
    pos = draw(st.integers(0, len(data)))
    if kind == "none":
        return data
    if kind == "lf":
        return data.replace(b"\r\n", b"\n")
    if kind == "truncate":
        return data[:pos]
    if kind == "replace":
        pos = min(pos, len(data) - 1)
        return data[:pos] + bytes([draw(st.integers(0, 255))]) + data[pos + 1:]
    if kind in ("quote", "cr", "nul"):
        return data[:pos] + {"quote": b'"', "cr": b"\r", "nul": b"\0"}[kind] + data[pos:]
    seps = [i for i, byte in enumerate(data) if byte in b",\n"]
    at = draw(st.sampled_from(seps))
    if kind == "blank":
        at = data.rfind(b"\n", 0, at + 1)
        return data[:at + 1] + draw(st.sampled_from([b"\n", b"\r\n"])) + data[at + 1:]
    if kind == "pad":  # a space before or after a separator
        at += draw(st.sampled_from([0, 1]))
        return data[:at] + b" " + data[at:]
    # a field of spaces ending in 1 (an integer and a number) of a length
    # just under, at or over the csv module's field limit
    length = draw(st.sampled_from([FIELD_LIMIT - 1, FIELD_LIMIT, FIELD_LIMIT + 1]))
    field = b" " * (length - 1) + b"1"
    start = max(data.rfind(b",", 0, at), data.rfind(b"\n", 0, at)) + 1
    return data[:start] + field + data[at:]


def _check_agrees_with_reference(reader, data, tmp_path_factory, block=data_io.BLOCK_ROWS):
    """Assert that the reader, ``block`` rows at a time, reads ``data`` as
    :func:`_reference` does; return the reference's outcome."""
    path = tmp_path_factory.mktemp("d") / "in.csv"
    path.write_bytes(data)
    want = _reference(path, reader)
    with mock.patch.object(data_io, "BLOCK_ROWS", block):
        _assert_same(_outcome(path, reader), want)
    return want


#: each reader with the strategy for the valid files its writer makes
reader_files = pytest.mark.parametrize(
    "reader, files",
    [("counts", counts_files), ("predictions", predictions_files)],
)
#: a block of a few rows, so that a file spans several and damage falls on boundaries
tiny_blocks = st.integers(1, 8)


def _agree_on_damaged_file(tmp_path_factory, reader, files, data, block=data_io.BLOCK_ROWS):
    clean = data.draw(files(tmp_path_factory))
    outcome = _check_agrees_with_reference(reader, clean, tmp_path_factory, block)
    assert not isinstance(outcome, str)  # a writer's file is read without error
    _check_agrees_with_reference(reader, data.draw(damaged(clean)), tmp_path_factory, block)


def _agree_on_odd_token(tmp_path_factory, reader, files, data, block=data_io.BLOCK_ROWS):
    lines = data.draw(files(tmp_path_factory)).split(b"\r\n")
    if len(lines) < 3:  # header, a row and the final line end
        return
    row = data.draw(st.integers(1, len(lines) - 2))
    fields = lines[row].split(b",")
    token = data.draw(st.sampled_from(ODD_TOKENS) | st.text("0123456789.-+e_ ", max_size=6))
    fields[data.draw(st.integers(0, len(fields) - 1))] = token.encode()
    lines[row] = b",".join(fields)
    _check_agrees_with_reference(reader, b"\r\n".join(lines), tmp_path_factory, block)


@reader_files
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_bulk_pass_and_row_walk_agree_on_damaged_files(tmp_path_factory, reader, files, data):
    _agree_on_damaged_file(tmp_path_factory, reader, files, data)


@reader_files
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_bulk_pass_and_row_walk_agree_on_damaged_files_in_tiny_chunks(
    tmp_path_factory, reader, files, data
):
    _agree_on_damaged_file(tmp_path_factory, reader, files, data, data.draw(tiny_blocks))


@reader_files
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_bulk_pass_and_row_walk_agree_on_odd_tokens(tmp_path_factory, reader, files, data):
    _agree_on_odd_token(tmp_path_factory, reader, files, data)


@reader_files
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_bulk_pass_and_row_walk_agree_on_odd_tokens_in_tiny_chunks(
    tmp_path_factory, reader, files, data
):
    _agree_on_odd_token(tmp_path_factory, reader, files, data, data.draw(tiny_blocks))


@reader_files
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_reader_agrees_with_reference_on_twice_damaged_files(
    tmp_path_factory, reader, files, data
):
    """Two faults in one file, so that the error ranking decides which is named."""
    once = data.draw(damaged(data.draw(files(tmp_path_factory))))
    if b"," in once or b"\n" in once:  # damaged() needs a separator
        once = data.draw(damaged(once))
    _check_agrees_with_reference(reader, once, tmp_path_factory, data.draw(tiny_blocks))


_COUNTS_HEAD = b"timestamp,buy_orders,sell_orders"

#: counts file -> its bytes
EDGE_FILES = {
    "crlf": _COUNTS_HEAD + b"\r\n5,1,2\r\n6,0,0\r\n",
    "lone-cr": _COUNTS_HEAD + b"\r\n5,1,2\r6,0,0\r\n",
    "cr-at-end": _COUNTS_HEAD + b"\n5,1,2\n6,0,0\r",
    "utf8-digits": _COUNTS_HEAD + "\n5,\u0662,2\n6,0,\u0663\u0664\n".encode(),
    "utf8-bad-token": _COUNTS_HEAD + "\n5,1,2\n6,\U0001f600,0\n".encode(),
    "utf8-cut-at-end": _COUNTS_HEAD + b"\n5,1,2\n\xe2\x82",
    "long-line": _COUNTS_HEAD + b"\n5," + b"0" * 100 + b"1,2\n6,0,0\n",
    "no-final-newline": _COUNTS_HEAD + b"\n5,1,2\n6,0,0",
    "header-only": _COUNTS_HEAD + b"\n",
    "header-only-no-newline": _COUNTS_HEAD,
    "empty": b"",
}


@pytest.mark.parametrize("name", sorted(EDGE_FILES))
def test_every_chunk_size_agrees_with_the_row_walk(tmp_path_factory, name):
    """Every block size from 1 row to all rows, so that each line falls
    first and last in a block once; the csv module reads whole lines."""
    data = EDGE_FILES[name]
    for block in range(1, data.count(b"\n") + 2):
        _check_agrees_with_reference("counts", data, tmp_path_factory, block)


@pytest.mark.parametrize("reader", sorted(READERS))
def test_writer_output_takes_the_bulk_pass(tmp_path, reader):
    """Rows as a writer writes them, with CRLF or LF line ends, are read on
    lines 2 and 3, as the reference reads them."""
    header, _ = READERS[reader]
    path = tmp_path / "in.csv"
    rows = {"counts": ["5,1,2", "6,0,0"],
            "predictions": ["3,-0.0,0.5,BUY,HOLD", "4,1.0,-1.0,SELL,SELL"]}[reader]
    for end in ("\r\n", "\n"):
        path.write_text(end.join([",".join(header), *rows]) + end, newline="")
        got = _outcome(path, reader)
        _assert_same(got, _reference(path, reader))
        assert got[0].tolist() == [2, 3]


@pytest.mark.parametrize("tokenizer", [_csv_blocks])
@pytest.mark.parametrize("block, sizes", [(1, [1] * 10), (3, [3, 3, 3, 1]), (10, [10]), (11, [10])])
def test_tokenizers_take_block_rows_rows_at_a_time(tmp_path, tokenizer, block, sizes):
    path = tmp_path / "in.csv"
    write_counts_csv(path, CountSeries(np.ones((10, 2), dtype=np.int64), 5))
    with mock.patch.object(data_io, "BLOCK_ROWS", block):
        got = [len(lines) for lines, _ in tokenizer(path, COUNTS_HEADER)]
    assert got == sizes


def test_quoted_fields_and_blank_lines_are_read_by_the_row_walk(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text('timestamp,buy_orders,sell_orders\n1,"5",2\n\n2,3,"4"\n')
    lines, (ts, buy, sell) = read_csv_columns(path, COUNTS_HEADER, COUNTS_COLUMNS)
    assert lines.tolist() == [2, 4]
    assert (ts.tolist(), buy.tolist(), sell.tolist()) == ([1, 2], [5, 3], [2, 4])


@pytest.mark.parametrize("length, ok", [(FIELD_LIMIT, True), (FIELD_LIMIT + 1, False)])
def test_field_at_and_over_the_limit(tmp_path, length, ok):
    path = tmp_path / "in.csv"
    path.write_text(f"timestamp,buy_orders,sell_orders\n1,{' ' * (length - 1)}1,2\n")
    if ok:
        _, (_, buy, _) = read_csv_columns(path, COUNTS_HEADER, COUNTS_COLUMNS)
        assert buy.tolist() == [1]
    else:
        with pytest.raises(DataFormatError, match="line 2: field larger than field limit"):
            read_csv_columns(path, COUNTS_HEADER, COUNTS_COLUMNS)


#: rows of the multi-fault files: several blocks of the reader
FAULT_ROWS = 30_000
EARLY, LATE = 100, 29_000


def _with_faults(faults: dict) -> list:
    """The lines of a counts file of :data:`FAULT_ROWS` good rows, with row
    ``i`` (0-based, on line ``i + 2``) replaced by ``faults[i]``."""
    rows = [f"{t},1,2" for t in range(FAULT_ROWS)]
    for i, row in faults.items():
        rows[i] = row
    return [",".join(COUNTS_HEADER), *rows]


#: multi-fault counts file -> (its lines, the error after "{path}: ");
#: each holds an early fault that a later one outranks
MULTI_FAULT_FILES = {
    "late-field-count": (
        _with_faults({EARLY: f"{EARLY},x,2", LATE: f"{LATE},1,2,3"}),
        f"line {LATE + 2}: expected 3 fields, got 4",
    ),
    "late-timestamp": (
        _with_faults({EARLY: f"{EARLY},1,y", LATE: "z,1,2"}),
        f"line {LATE + 2}: column timestamp: expected an integer, got 'z'",
    ),
    "late-field-limit": (
        _with_faults({EARLY: f"{EARLY},x,2", EARLY + 1: "1,2",
                      LATE: f"{LATE},{'1' * (FIELD_LIMIT + 1)},2"}),
        f"line {LATE + 2}: field larger than field limit ({FIELD_LIMIT})",
    ),
    "non-utf8-end": (  # a lone surrogate, written as the byte 0xff
        _with_faults({EARLY: f"{EARLY},x,2", EARLY + 1: "1,2", LATE: f"{LATE},1,2,3"})
        + ["\udcff"],
        "not UTF-8 text (invalid start byte)",
    ),
}

#: where one field is quoted, if anywhere
QUOTED_AT = {"plain": None, "quoted-early": 10, "quoted-late": FAULT_ROWS - 10}


@pytest.mark.parametrize("quoting", sorted(QUOTED_AT))
@pytest.mark.parametrize("name", sorted(MULTI_FAULT_FILES))
def test_multi_fault_file_names_the_fault_that_ranks_first(tmp_path, name, quoting):
    """A csv-module or UTF-8 error anywhere comes first, then the first row
    of the wrong field count, then the first bad token of the leftmost
    column that has one, wherever the faults fall in the blocks."""
    lines, message = MULTI_FAULT_FILES[name]
    lines = list(lines)
    if QUOTED_AT[quoting] is not None:
        row = QUOTED_AT[quoting] + 1
        ts, buy, sell = lines[row].split(",")
        lines[row] = f'{ts},"{buy}",{sell}'
    path = tmp_path / "in.csv"
    path.write_bytes("\n".join(lines).encode("utf-8", "surrogateescape"))
    with pytest.raises(DataFormatError) as exc:
        read_csv_columns(path, COUNTS_HEADER, COUNTS_COLUMNS)
    assert str(exc.value) == f"{path}: {message}"


# ---------------------------------------------------------------- writers

def _csv_writer_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


#: write block sizes: a few rows, so that files span many blocks, and the writers' own
write_blocks = st.sampled_from([1, 2, 3, 7, data_io.BLOCK_ROWS])


@given(
    t0=st.integers(INT64.min, INT64.max - 30),
    pairs=st.lists(st.tuples(st.integers(0, INT64.max), st.integers(0, INT64.max)), max_size=30),
    block=write_blocks,
)
@settings(max_examples=80, deadline=None)
def test_counts_writer_bytes_equal_csv_writer(tmp_path_factory, t0, pairs, block):
    series = CountSeries(np.array(pairs, dtype=np.int64).reshape(-1, 2), t0)
    path = tmp_path_factory.mktemp("w") / "counts.csv"
    with mock.patch.object(data_io, "BLOCK_ROWS", block):
        write_counts_csv(path, series)
    rows = [(t0 + i, buy, sell) for i, (buy, sell) in enumerate(pairs)]
    assert path.read_bytes() == _csv_writer_bytes(COUNTS_HEADER, rows)


@given(records=predictions_strategy(max_size=30), block=write_blocks)
@settings(max_examples=80, deadline=None)
def test_predictions_writer_bytes_equal_csv_writer(tmp_path_factory, records, block):
    path = tmp_path_factory.mktemp("w") / "preds.csv"
    with mock.patch.object(data_io, "BLOCK_ROWS", block):
        write_predictions_csv(records, path)
    rows = zip(
        records.index.tolist(),
        map(repr, records.actual_ofi.tolist()),
        map(repr, records.predicted_ofi.tolist()),
        (s.value for s in records.actual_signal),
        (s.value for s in records.predicted_signal),
    )
    assert path.read_bytes() == _csv_writer_bytes(PREDICTIONS_HEADER, rows)


#: a field that needs no quoting: no comma, quote or line break; nor NUL,
#: which the csv module handles differently between versions, nor a
#: surrogate, which UTF-8 cannot encode
plain_fields = st.text(
    st.characters(exclude_characters=',"\r\n\x00', exclude_categories=("Cs",)),
    max_size=6,
)


#: finite floats with the edges of their range spelled out: -0.0, the
#: subnormals and +-1.7e308
edge_floats = finite_floats | st.sampled_from([-0.0, 5e-324, -2.5e-320, 1.7e308, -1.7e308])


@given(
    rows=st.lists(
        st.tuples(plain_fields, st.integers(INT64.min, INT64.max), edge_floats, plain_fields),
        max_size=20,
    ),
    block=write_blocks,
)
@settings(max_examples=80, deadline=None)
def test_both_writers_write_the_same_bytes_for_plain_fields(tmp_path_factory, rows, block):
    """str columns as lists, int64 and float columns as arrays, as the
    long-file writers pass them."""
    header = ("a", "b", "c", "d")
    columns = [
        [row[0] for row in rows],
        np.array([row[1] for row in rows], dtype=np.int64),
        np.array([row[2] for row in rows], dtype=float),
        [row[3] for row in rows],
    ]
    folder = tmp_path_factory.mktemp("w")
    with mock.patch.object(data_io, "BLOCK_ROWS", block):
        data_io.write_csv_columns(folder / "columns.csv", header, columns)
    data_io.write_csv_rows(folder / "rows.csv", header, rows)
    assert (folder / "columns.csv").read_bytes() == (folder / "rows.csv").read_bytes()


class _WriteRecorder(io.StringIO):
    """A text file in memory that keeps the text of each ``write`` call."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("block, lines", [(1, [1] * 10), (3, [3, 3, 3, 1]), (16, [10])])
def test_writer_writes_block_rows_rows_at_a_time(block, lines):
    fh = _WriteRecorder()
    with mock.patch.object(data_io, "open", lambda *args, **kwargs: fh, create=True), \
            mock.patch.object(data_io, "BLOCK_ROWS", block):
        write_counts_csv("unused.csv", CountSeries(np.ones((10, 2), dtype=np.int64), 5))
    header, *rows = fh.writes
    assert header == ",".join(COUNTS_HEADER) + "\r\n"
    assert [text.count("\r\n") for text in rows] == lines


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predictions_io_memory_is_bounded_by_blocks(tmp_path):
    """200,000 rows: the file is about 10 MB and its tokens as str objects
    far more, so joining the text, or splitting all of it at once, goes
    past the limits; the reader's 200,000-row result alone is 8 MB."""
    n = 200_000
    rng = np.random.default_rng(0)
    actual, predicted = np.clip(rng.normal(scale=0.3, size=(2, n)), -1.0, 1.0)
    records = Predictions(np.arange(n), actual, predicted, signal(actual), signal(predicted))
    path = tmp_path / "preds.csv"
    assert _traced_peak(lambda: write_predictions_csv(records, path)) <= 8 * 2**20
    assert _traced_peak(lambda: read_predictions_csv(path)) <= 16 * 2**20


def test_quoted_counts_memory_is_bounded_by_blocks(tmp_path):
    """One quoted field in the middle of a 10^5-row counts file costs the
    reader no more than 1 MB of peak memory over the same file unquoted."""
    n = 100_000
    series = CountSeries(np.random.default_rng(0).poisson(4, size=(n, 2)), 1_700_000_000)
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    write_counts_csv(plain, series)
    lines = plain.read_bytes().split(b"\r\n")
    ts, buy, sell = lines[n // 2].split(b",")
    lines[n // 2] = b",".join([ts, b'"' + buy + b'"', sell])
    quoted.write_bytes(b"\r\n".join(lines))
    assert load_counts_csv(quoted) == series
    peaks = {
        path: _traced_peak(lambda: read_csv_columns(path, COUNTS_HEADER, COUNTS_COLUMNS))
        for path in (plain, quoted)
    }
    assert peaks[quoted] <= peaks[plain] + 2**20, peaks
