"""Loading, validating, and generating order-count series.

A count series is one :class:`CountSeries`: an ``(n, 2)`` int64 array of
buy and sell counts per unit interval plus ``t0``, the first interval's
timestamp (the stride is 1).  The counts loader, the generator and the
trade aggregator return one; the model layer (VAR, FNN, pipelines) takes its
``counts`` array and reads it through :func:`counts_to_array`.

File formats:

* counts CSV: header ``timestamp,buy_orders,sell_orders``, integer fields.
* trade tape CSV: header ``timestamp,side`` with side ``BUY`` or ``SELL``.
"""
from __future__ import annotations

import csv
import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

COUNTS_HEADER = ("timestamp", "buy_orders", "sell_orders")
TRADES_HEADER = ("timestamp", "side")

#: Largest VAR lag the sweep grid explores; synthetic series must cover it.
MAX_SUPPORTED_LAG = 10
MIN_SYNTHETIC_LENGTH = 2 * MAX_SUPPORTED_LAG + 1


class DataFormatError(ValueError):
    """Malformed input file; the message names ``line`` (1-based) and ``path`` when known."""

    def __init__(self, message: str, line: int | None = None, path: str | Path | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


class Side(enum.Enum):
    BUY = "BUY"
    SELL = "SELL"


@dataclass(frozen=True, eq=False)
class CountSeries:
    """Buy and sell order counts per unit interval: row i of ``counts`` (an
    ``(n, 2)`` int64 array, columns buy and sell) covers timestamp ``t0 + i``."""

    counts: np.ndarray
    t0: int = 0

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2 or counts.shape[1] != 2 or counts.dtype.kind not in "iu":
            raise ValueError(
                f"expected an (n, 2) integer count array, got {counts.dtype} {counts.shape}"
            )
        counts = counts.astype(np.int64, copy=False)
        if (counts < 0).any():
            raise ValueError(f"order counts must be nonnegative, got {counts.min()}")
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CountSeries)
            and self.t0 == other.t0
            and np.array_equal(self.counts, other.counts)
        )


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for the seeded synthetic order-flow generator.

    Per interval the generator draws Poisson counts for each side with

        lambda_buy  = base_intensity * (1 + drive)
        lambda_sell = base_intensity * (1 - drive)
        drive       = linear_strength * z[t-1]
                      + nonlinear_strength * tanh(z[t-1] * z[t-2])

    where ``z[t] = (buy - sell) / (buy + sell + 1)`` is the realized
    normalized imbalance.  The linear term gives the flow autoregressive
    structure a VAR can capture; the tanh interaction leaves a residual
    only a nonlinear model can pick up.  Intensities are floored at zero.

    The feedback loop saturates (z pinned near +/-1, one side starved)
    once nonlinear_strength exceeds roughly (1 - linear_strength)/tanh(1),
    because tanh(z[t-1]*z[t-2]) keeps the sign of any persistent trend.
    The defaults sit inside that bound; a low base rate keeps imbalance
    variance high enough that the tanh term moves counts materially.
    """

    length: int
    seed: int
    base_intensity: float = 4.0
    linear_strength: float = 0.2
    nonlinear_strength: float = 0.95

    def __post_init__(self) -> None:
        if self.length < MIN_SYNTHETIC_LENGTH:
            raise ValueError(
                f"length must be >= {MIN_SYNTHETIC_LENGTH} "
                f"(2 * max supported lag + 1), got {self.length}"
            )
        if self.base_intensity <= 0:
            raise ValueError("base_intensity must be positive")
        if not 0.0 <= self.linear_strength < 1.0:
            raise ValueError("linear_strength must lie in [0, 1)")
        if self.nonlinear_strength < 0.0:
            raise ValueError("nonlinear_strength must be nonnegative")


def counts_to_array(series) -> np.ndarray:
    """Return an ``(n, 2)`` count array (columns buy, sell) as float; a float
    ndarray passes through without a copy.  Any other shape raises ValueError."""
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) series, got shape {arr.shape}")
    return arr


def read_csv_rows(path: str | Path, header: tuple[str, ...]):
    """Yield (1-based line number, fields) for each non-blank row of a CSV
    file whose first line is ``header``.

    Raises:
        FileNotFoundError: missing file.
        DataFormatError: missing or different header, text that is not
            UTF-8, or a row the csv module cannot tokenize, naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found is None or tuple(f.strip() for f in found) != header:
                got = "nothing" if found is None else _quote(",".join(found))
                raise DataFormatError(f"expected header {','.join(header)}, got {got}", 1, path)
            for rec in reader:
                if rec:
                    yield reader.line_num, rec
        except csv.Error as exc:
            raise DataFormatError(str(exc), reader.line_num, path) from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text ({exc.reason})", path=path) from None


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


def _finite_floats(tokens: list[str]) -> np.ndarray:
    values = np.array(tokens, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("non-finite value")
    return values


_PARSE_ERRORS = (ValueError, KeyError, OverflowError)


def _quote(token: str) -> str:
    """``repr(token)``, cut to 40 characters plus the token's length when
    longer, so that an error line stays short."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}… ({len(token)} characters)"


class Column(NamedTuple):
    """How :func:`read_csv_columns` parses one column: ``parse`` takes one
    token, ``dtype`` is the array's, ``expected`` names a good token in
    errors, and ``cast`` (None: map ``parse``) turns the column's whole token
    list into the array ``parse`` would give, or raises."""

    parse: Callable[[str], object]
    dtype: type
    expected: str
    cast: Callable[[list[str]], np.ndarray] | None = None


# numpy parses each str element with Python's own int() and float(), so
# these casts accept the same tokens as ``parse`` and give the same values.
INT_COLUMN = Column(int, np.int64, "an integer", partial(np.array, dtype=np.int64))
#: A float column that must hold finite values.
FINITE_COLUMN = Column(_finite_float, float, "a finite number", _finite_floats)
_SIDE_COLUMN = Column(lambda tok: Side(tok.strip()), object, "BUY or SELL")

COUNTS_COLUMNS = (INT_COLUMN,) * 3
TRADES_COLUMNS = (FINITE_COLUMN, _SIDE_COLUMN)


def read_csv_columns(path: str | Path, header: tuple[str, ...], columns):
    """Return the 1-based line number of every row of a CSV file read by
    :func:`read_csv_rows`, and one array per ``header`` column, parsed by its
    :class:`Column` in ``columns``.

    A plain file is read in one whole-file pass.  Any other file, and any
    file with a bad row, is read row by row; a wrong field count or a token
    its parser rejects raises :class:`DataFormatError` naming the file and
    the first bad line.
    """
    plain = _plain_csv_columns(path, header, columns)
    return plain if plain is not None else _walk_csv_columns(path, header, columns)


#: Characters :func:`_plain_csv_columns` reads and parses at a time.
READ_CHUNK = 1 << 16


def _plain_csv_columns(path, header, columns):
    """The plain-file pass of :func:`read_csv_columns`: its result for a
    plain file, or None, and the row walk then reads the file.

    A file is plain when it is UTF-8, its first line is exactly the header,
    every line ends in LF or CRLF, every other line has exactly one comma
    fewer than the header has fields (so none is blank), and it holds no
    quote, NUL, lone CR or line longer than ``csv.field_size_limit()``: the
    csv module then splits each line at its commas and nothing else.  The
    file is checked and parsed one block of whole lines at a time, so the
    text in memory is bounded by :data:`READ_CHUNK` and the longest line.
    """
    parts = [[] for _ in columns]  # per column, its array from each block
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            for text in _line_blocks(fh, READ_CHUNK):
                arrays = _plain_block(text, header, columns, first=not parts[0])
                if arrays is None:
                    return None
                for part, array in zip(parts, arrays):
                    part.append(array)
    except (OSError, UnicodeDecodeError):
        return None
    if not parts[0]:  # an empty file
        return None
    n = sum(map(len, parts[0]))
    # each column's blocks are dropped once joined
    arrays = [np.concatenate(parts.pop(0)) for _ in columns]
    return np.arange(2, n + 2, dtype=np.int64), arrays


def _plain_block(text, header, columns, first):
    """The column arrays of one block of whole lines (the header line
    first, if ``first``), or None if the block breaks a plain-file rule or
    holds a token a column's cast rejects."""
    if '"' in text or "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    del text
    if lines[-1] == "":  # the block's last line terminator
        lines.pop()
    if first:
        if lines[0] != ",".join(header):
            return None
        del lines[0]
    width = len(header)
    if set(map(str.count, lines, repeat(","))) - {width - 1}:
        return None
    if lines and max(map(len, lines)) > csv.field_size_limit():
        return None
    tokens = ",".join(lines).split(",") if lines else []
    del lines
    arrays = []
    for k, column in enumerate(columns):
        chunk = tokens[k::width]
        try:
            if column.cast is None:
                arrays.append(np.array(list(map(column.parse, chunk)), dtype=column.dtype))
            else:
                arrays.append(column.cast(chunk))
        except _PARSE_ERRORS:
            return None
    return arrays


def _line_blocks(fh, size: int):
    """Yield the text of ``fh``, read ``size`` characters at a time, in
    non-empty blocks that each end at an LF (the file's last block
    excepted), so that no line and no CRLF is split between blocks.

    A line longer than ``csv.field_size_limit() + 1`` characters may be
    yielded in parts, to bound the text held; any part of it fails the
    plain-file checks, as the whole line would.
    """
    longest = csv.field_size_limit() + 1
    carry, carried = [], 0
    while chunk := fh.read(size):
        cut = chunk.rfind("\n") + 1
        if cut:
            carry.append(chunk[:cut])
            yield "".join(carry)
            chunk = chunk[cut:]
            carry, carried = [], 0
        carry.append(chunk)
        carried += len(chunk)
        if carried > longest:
            yield "".join(carry)
            carry, carried = [], 0
    if carried:
        yield "".join(carry)


def _walk_csv_columns(path, header, columns):
    """The row walk of :func:`read_csv_columns`, which reads any file the
    csv module reads and raises every error the readers report."""
    width = len(header)
    rows = list(read_csv_rows(path, header))
    for line, rec in rows:
        if len(rec) != width:
            raise DataFormatError(f"expected {width} fields, got {len(rec)}", line, path)
    arrays = []
    for k, (name, (parse, dtype, expected, _)) in enumerate(zip(header, columns)):
        try:
            arrays.append(np.array([parse(rec[k]) for _, rec in rows], dtype=dtype))
        except _PARSE_ERRORS:
            for line, rec in rows:  # name the first bad line
                try:
                    np.array([parse(rec[k])], dtype=dtype)
                except _PARSE_ERRORS:
                    raise DataFormatError(
                        f"column {name}: expected {expected}, got {_quote(rec[k])}", line, path
                    ) from None
    return np.array([line for line, _ in rows], dtype=np.int64), arrays


def load_counts_csv(path: str | Path) -> CountSeries:
    """Load an order-count series, validating format and invariants.

    Raises:
        FileNotFoundError: missing file.
        DataFormatError: bad header, malformed row, count outside int64,
            negative count or non-unit-stride timestamps (each naming the
            file and line), or an empty data section.
    """
    lines, (ts, buy, sell) = read_csv_columns(path, COUNTS_HEADER, COUNTS_COLUMNS)
    if not len(ts):
        raise DataFormatError("empty series (header only)", path=path)
    # a row is bad if it holds a negative count or does not follow its
    # predecessor by exactly 1 (the first test keeps ts - 1 from wrapping)
    bad = (buy < 0) | (sell < 0)
    bad[1:] |= (ts[1:] <= ts[:-1]) | (ts[1:] - 1 != ts[:-1])
    if bad.any():
        i = int(np.argmax(bad))
        if buy[i] < 0:
            message = "negative count in column buy_orders"
        elif sell[i] < 0:
            message = "negative count in column sell_orders"
        else:
            message = f"timestamps must increase with unit stride, got {ts[i]} after {ts[i - 1]}"
        raise DataFormatError(message, int(lines[i]), path)
    return CountSeries(np.column_stack([buy, sell]), int(ts[0]))


def write_counts_csv(path: str | Path, series: CountSeries) -> None:
    """Write a series in the counts CSV format (round-trips with the loader)."""
    timestamps = range(series.t0, series.t0 + len(series))
    buy, sell = series.counts.T
    write_csv_columns(path, COUNTS_HEADER, [(timestamps, str), (buy, str), (sell, str)])


#: Rows :func:`write_csv_columns` formats and writes at a time.
WRITE_BLOCK = 1 << 14


def write_csv_columns(path: str | Path, header: tuple[str, ...], columns) -> None:
    """Write a CSV file: ``header``, then one row per entry of the columns.

    Each column is a ``(values, format)`` pair: ``values`` an array or range
    with one entry per row, and ``format`` maps an entry (as a Python
    object) to its field, or is None when the entries are str fields
    already.  A field must need no quoting (no comma, quote or line break);
    the bytes are then those of ``csv.writer``: fields joined by commas,
    every line ended by CRLF.  Rows are formatted and written
    :data:`WRITE_BLOCK` at a time.
    """
    n = len(columns[0][0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, WRITE_BLOCK):
            fields = []
            for values, fmt in columns:
                block = values[lo : lo + WRITE_BLOCK]
                if isinstance(block, np.ndarray):
                    block = block.tolist()
                fields.append(block if fmt is None else map(fmt, block))
            fh.write("\r\n".join(chain(map(",".join, zip(*fields)), [""])))


def load_trades_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Load a trade tape (``timestamp,side`` with a finite timestamp and side
    BUY or SELL) as two arrays, one entry per trade: the float times (epoch
    seconds) and the aggressor :class:`Side` members (dtype object)."""
    _, (times, sides) = read_csv_columns(path, TRADES_HEADER, TRADES_COLUMNS)
    return times, sides


def aggregate_trades(times, sides, bucket: float) -> CountSeries:
    """Bucket a trade tape, given as trade times and aggressor sides (one
    :class:`Side` each), into per-interval counts.

    Buckets are ``floor(time / bucket)``; the output covers every index
    between the first and last trade's bucket, with empty interior buckets
    counted as (0, 0), and ``t0`` is the first trade's bucket index.

    Raises:
        ValueError: nonpositive bucket width, times and sides of different
            lengths, or times that are not finite or not sorted.
    """
    if bucket <= 0:
        raise ValueError("bucket width must be positive")
    times = np.asarray(times, dtype=float)
    sides = np.asarray(sides, dtype=object)
    if len(times) != len(sides):
        raise ValueError(
            f"times and sides must have the same length, got {len(times)} and {len(sides)}"
        )
    if not len(times):
        return CountSeries(np.zeros((0, 2), dtype=np.int64))
    if not np.isfinite(times).all():
        raise ValueError("event timestamps must be finite")
    unsorted = times[1:] < times[:-1]
    if unsorted.any():
        i = int(np.argmax(unsorted))
        raise ValueError(
            f"events must be sorted by timestamp, got {times[i + 1]} after {times[i]}"
        )
    buckets = np.floor(times / bucket)
    idx = (buckets - buckets[0]).astype(np.int64)
    is_sell = sides == Side.SELL
    counts = np.bincount(2 * idx + is_sell, minlength=2 * idx[-1] + 2).reshape(-1, 2)
    return CountSeries(counts, int(buckets[0]))


def generate_synthetic(spec: SyntheticSpec) -> CountSeries:
    """Generate a seeded synthetic series per :class:`SyntheticSpec`, with t0 = 0.

    Uses numpy's ``default_rng`` (PCG64); identical specs replay
    bit-identically on any platform.
    """
    rng = np.random.default_rng(spec.seed)
    z_prev = 0.0
    z_prev2 = 0.0
    counts = np.empty((spec.length, 2), dtype=np.int64)
    for t in range(spec.length):
        drive = spec.linear_strength * z_prev + spec.nonlinear_strength * math.tanh(
            z_prev * z_prev2
        )
        lam_buy = max(spec.base_intensity * (1.0 + drive), 0.0)
        lam_sell = max(spec.base_intensity * (1.0 - drive), 0.0)
        buy = int(rng.poisson(lam_buy))
        sell = int(rng.poisson(lam_sell))
        counts[t] = buy, sell
        z_prev2 = z_prev
        z_prev = (buy - sell) / (buy + sell + 1)
    return CountSeries(counts)


def chronological_split(
    series: np.ndarray, train_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split an ``(n, 2)`` count array into (train, holdout), train being the
    first floor(fraction * n) rows.

    Raises:
        ValueError: fraction outside (0, 1) or a split that leaves either
            partition empty.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    n = len(series)
    # tiny nudge so decimal fractions like 0.29 * 100 floor to the intended 29
    n_train = int(math.floor(train_fraction * n + 1e-9))
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"train_fraction={train_fraction} leaves an empty partition for n={n}"
        )
    return series[:n_train], series[n_train:]
