"""Loading, validating, and generating order-count series.

A count series is one :class:`CountSeries`: an ``(n, 2)`` int64 array of
buy and sell counts per unit interval plus ``t0``, the first interval's
timestamp (the stride is 1).  The counts loader and the generator return
one; the model layer (VAR, FNN, pipelines) takes its ``counts`` array and
reads it through :func:`counts_to_array`, which refuses the
:class:`CountSeries` itself by name.

The counts CSV has the header ``timestamp,buy_orders,sell_orders`` and
integer fields.

:class:`ParamLines` reads the bundle's parameter files.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

COUNTS_HEADER = ("timestamp", "buy_orders", "sell_orders")

#: Largest VAR lag the sweep grid explores; synthetic series must cover it.
MAX_SUPPORTED_LAG = 10
MIN_SYNTHETIC_LENGTH = 2 * MAX_SUPPORTED_LAG + 1

#: Rows every blocked stage takes at a time: the CSV reader, the CSV
#: writer, :func:`oficast.neural_net.forward` and
#: :func:`oficast.hybrid.predict`.  Each reads it at call time.
BLOCK_ROWS = 1 << 12


class DataFormatError(ValueError):
    """Malformed input file; the message names ``line`` (1-based) and ``path`` when known."""

    def __init__(self, message: str, line: int | None = None, path: str | Path | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line = line


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
        base, nonlinear = self.base_intensity, self.nonlinear_strength
        _check_settings(
            *_integer_rules("length", self.length, MIN_SYNTHETIC_LENGTH,
                            " (2 * max supported lag + 1)"),
            _seed_rule(self.seed),
            ("base_intensity", "be finite", base, math.isfinite),
            ("nonlinear_strength", "be finite", nonlinear, math.isfinite),
            ("base_intensity", "be positive", base, lambda v: v > 0),
            ("linear_strength", "lie in [0, 1)", self.linear_strength, lambda v: 0.0 <= v < 1.0),
            ("nonlinear_strength", "be nonnegative", nonlinear, lambda v: v >= 0.0),
        )


def _refuse_count_series(series, name: str = "series") -> None:
    """The model layer takes a count array, not the :class:`CountSeries`
    that holds one: one given in its place is refused by name."""
    if isinstance(series, CountSeries):
        raise ValueError(
            f"{name}: expected an (n, 2) count array, got a CountSeries; pass its .counts"
        )


def counts_to_array(series) -> np.ndarray:
    """Return an ``(n, 2)`` count array (columns buy, sell) as float; a float
    ndarray passes through without a copy.  Any other shape, or a
    :class:`CountSeries`, raises ValueError."""
    _refuse_count_series(series)
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) series, got shape {arr.shape}")
    return arr


_PARSE_ERRORS = (ValueError, KeyError, OverflowError)


def _quote(token: str) -> str:
    """``repr(token)``, cut to 40 characters plus the token's length when
    longer, so that an error line stays short."""
    return repr(token) if len(token) <= 40 else f"{token[:40]!r}… ({len(token)} characters)"


def _check_settings(*rules) -> None:
    """Refuse the first of ``rules``, each ``(name, rule, value, ok)``, whose
    ``ok(value)`` is false: ``ValueError("<name> must <rule>, got <value>")``,
    the value quoted by :func:`_quote`.  No rule after that one is tested,
    so a test may rely on the rules before it."""
    for name, rule, value, ok in rules:
        if not ok(value):
            raise ValueError(f"{name} must {rule}, got {_quote(str(value))}")


def _at_least(low):
    """The test of a ``be >= low`` rule: a value below ``low`` breaks it."""
    return lambda value: not value < low


def _is_integer(value) -> bool:
    """A Python or numpy integer (bool included), as a count or a seed must be."""
    return isinstance(value, (int, np.integer))


def _integer_rules(name: str, value, low: int, note: str = "") -> tuple:
    """An integer setting's two rules: ``be an integer``, which a NaN or 2.5
    breaks, then ``be >= low`` with ``note`` added to its text."""
    return ((name, "be an integer", value, _is_integer),
            (name, f"be >= {low}{note}", value, _at_least(low)))


def _seed_rule(seed) -> tuple:
    """The rule of a ``seed``: one that ``np.random.default_rng`` takes, a
    nonnegative integer."""
    return ("seed", "be a nonnegative integer", seed, lambda s: _is_integer(s) and s >= 0)


class Column(NamedTuple):
    """How :func:`read_csv_columns` parses one column: ``cast`` turns a
    sequence of its tokens into an array, or raises one of
    :data:`_PARSE_ERRORS` if a token is bad; ``expected`` names a good
    token in errors."""

    cast: Callable[[Sequence[str]], np.ndarray]
    expected: str


# numpy parses each str element with Python's own int() and float()
INT_COLUMN = Column(partial(np.array, dtype=np.int64), "an integer")

COUNTS_COLUMNS = (INT_COLUMN,) * 3


def read_csv_columns(path: str | Path, header: tuple[str, ...], columns):
    """Return the 1-based line number of every non-blank row of a CSV file
    whose first line is ``header``, and one array per ``header`` column,
    cast by its :class:`Column` in ``columns``.

    The csv module tokenizes the file (see :func:`_csv_blocks`), and each
    column casts one block of its tokens at a time.  A bad header, a
    csv-module error or text that is not UTF-8 raises
    :class:`DataFormatError` where it is met; else the first row with the
    wrong field count does, else the first bad token of the leftmost
    column that has one.  A missing file raises FileNotFoundError.
    """
    path = Path(path)
    parts = [[column.cast([])] for column in columns]  # per column: [no rows, *its blocks]
    line_parts = [np.empty(0, dtype=np.int64)]
    bad = [None] * len(columns)  # per column, the error and line of its first bad token
    for lines, tokens in _csv_blocks(path, header):
        line_parts.append(np.array(lines, dtype=np.int64))
        for k, (name, column) in enumerate(zip(header, columns)):
            if bad[k] is None:
                try:
                    parts[k].append(column.cast(tokens[k]))
                except _PARSE_ERRORS:  # raised after any tokenizer error
                    n, t = next((n, t) for n, t in zip(lines, tokens[k]) if not _casts(column, t))
                    bad[k] = f"column {name}: expected {column.expected}, got {_quote(t)}", n
        del tokens  # before the tokenizer reads the next block
    for message, line in filter(None, bad):  # the leftmost column's
        raise DataFormatError(message, line, path)
    # each column's blocks are dropped once joined
    arrays = [np.concatenate(parts.pop(0)) for _ in columns]
    return np.concatenate(line_parts), arrays


def _casts(column: Column, token: str) -> bool:
    try:
        column.cast([token])
    except _PARSE_ERRORS:
        return False
    return True


def _csv_blocks(path, header):
    """Yield a file's non-blank rows, tokenized by the csv module (which
    reads any CSV file), as (line numbers, token columns) blocks of
    :data:`BLOCK_ROWS` rows.  A bad header, a csv-module error or text that
    is not UTF-8 raises :class:`DataFormatError` at once, and the first
    row with the wrong field count once the file is read."""
    width = len(header)
    wrong = None  # the line and field count of the first row of the wrong width
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            if found is None or tuple(f.strip() for f in found) != header:
                got = "nothing" if found is None else _quote(",".join(found))
                raise DataFormatError(f"expected header {','.join(header)}, got {got}", 1, path)
            nonblank = filter(None, reader)
            while True:
                # each row list is freed once its fields are in one flat list:
                # a block of live row lists would keep the cyclic GC busy
                lines, fields = [], []
                for row in islice(nonblank, BLOCK_ROWS):
                    lines.append(reader.line_num)
                    if len(row) != width and wrong is None:
                        wrong = reader.line_num, len(row)
                    fields += row
                if not lines:
                    break
                if wrong is None:
                    yield lines, [fields[k::width] for k in range(width)]
        except csv.Error as exc:
            raise DataFormatError(str(exc), reader.line_num, path) from None
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"not UTF-8 text ({exc.reason})", path=path) from None
    if wrong:
        raise DataFormatError(f"expected {width} fields, got {wrong[1]}", wrong[0], path)


def json_value(value, expected: type, nullable: bool = False):
    """``value``, read from JSON, if it has type ``expected``: bool only for
    bool, int (not bool) for int, int or float for float (returned as a
    float), str for str; None only if ``nullable``.  Else a ValueError that
    says what was expected."""
    if value is None and nullable:
        return None
    accepted = (int, float) if expected is float else (expected,)
    if isinstance(value, accepted) and (expected is bool or not isinstance(value, bool)):
        try:
            return float(value) if expected is float else value
        except OverflowError:  # an int past the float range
            pass
    raise ValueError(
        f"must be {expected.__name__}, got {type(value).__name__} {_quote(str(value))}"
    )


class ParamLines:
    """The lines of a bundle's parameter file (``var.txt``, ``fnn.txt``),
    read with :class:`DataFormatError` naming the file and the 1-based line."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.lines = self.path.read_text(encoding="utf-8").splitlines()

    def line(self, idx: int) -> str:  # idx is 0-based, as in every method
        if idx >= len(self.lines):
            raise DataFormatError(f"truncated, line {idx + 1} is missing", path=self.path)
        return self.lines[idx]

    def bad(self, idx: int, what: str) -> DataFormatError:
        return DataFormatError(what, idx + 1, self.path)

    def expect(self, idx: int, key: str) -> str:
        """The text after ``key: `` on line ``idx``."""
        prefix = key + ": "
        if not self.line(idx).startswith(prefix):
            raise self.bad(idx, f"expected '{key}:', got {_quote(self.lines[idx])}")
        return self.lines[idx][len(prefix) :]

    def numbers(self, idx: int, text: str, kind=float, sep=None, count=None) -> list:
        """The ``kind`` values of ``text``, line ``idx``'s, split at ``sep``;
        there must be ``count`` of them unless it is None, and floats must
        be finite."""
        tokens = text.split(sep) if text else []
        try:
            values = [kind(tok) for tok in tokens]
        except ValueError:
            raise self.bad(idx, f"non-numeric token in {_quote(text)}") from None
        if kind is float:
            for tok, value in zip(tokens, values):
                if not math.isfinite(value):
                    raise self.bad(idx, f"non-finite value {_quote(tok)}")
        if count is not None and len(values) != count:
            raise self.bad(idx, f"expected {_quote(str(count))} values, got {len(values)}")
        return values


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
    write_csv_columns(path, COUNTS_HEADER, [timestamps, buy, sell])


def write_csv_rows(path: str | Path, header: Sequence[str], rows) -> None:
    """Write a short table: ``header``, then each of ``rows`` (iterables of
    fields), through ``csv.writer``, which quotes a field that holds a
    comma, a quote or a line break.  Long files of plain fields go through
    :func:`write_csv_columns`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_csv_columns(path: str | Path, header: tuple[str, ...], columns) -> None:
    """Write a long CSV file: ``header``, then one row per entry of the
    columns (arrays or ranges, one entry per row).

    A column of str entries is written as it is, any other entry (an int or
    a float, as a Python object) by ``repr``, as the csv module writes it.
    A field must need no quoting (no comma, quote or line break); the bytes
    are then those of :func:`write_csv_rows`: fields joined by commas, every
    line ended by CRLF.  Rows are written :data:`BLOCK_ROWS` at a time.
    """
    n = len(columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, n, BLOCK_ROWS):
            fields = []
            for values in columns:
                block = values[lo : lo + BLOCK_ROWS]
                if isinstance(block, np.ndarray):
                    block = block.tolist()
                # a column holds one kind of entry
                fields.append(block if isinstance(block[0], str) else map(repr, block))
            fh.write("\r\n".join(chain(map(",".join, zip(*fields)), [""])))


def generate_synthetic(spec: SyntheticSpec) -> CountSeries:
    """Generate a seeded synthetic series per :class:`SyntheticSpec`, with t0 = 0.

    Uses numpy's ``default_rng`` (PCG64); a spec replays bit-identically
    under the same numpy version and C math library (numpy promises no
    ``Generator`` stream across releases).  An intensity past numpy's
    Poisson limit raises ValueError naming the spec's settings.
    """
    poisson = np.random.default_rng(spec.seed).poisson
    tanh = math.tanh
    base, linear, nonlinear = spec.base_intensity, spec.linear_strength, spec.nonlinear_strength
    z_prev = z_prev2 = 0.0
    draws = []  # buy, sell, buy, sell, ...: two per row
    append = draws.append
    try:
        for _ in range(spec.length):
            drive = linear * z_prev + nonlinear * tanh(z_prev * z_prev2)
            lam_buy, lam_sell = base * (1.0 + drive), base * (1.0 - drive)
            # the floor is max(lam, 0.0) for a finite lam; a float lam draws a Python int
            append(buy := poisson(lam_buy if lam_buy > 0.0 else 0.0))
            append(sell := poisson(lam_sell if lam_sell > 0.0 else 0.0))
            z_prev2, z_prev = z_prev, (buy - sell) / (buy + sell + 1)
    except ValueError:  # numpy's "lam value too large"
        raise ValueError(
            f"row {len(draws) // 2}: intensity {max(lam_buy, lam_sell):g} is past numpy's Poisson "
            f"limit; lower base_intensity ({base}), linear_strength ({linear}) "
            f"or nonlinear_strength ({nonlinear})"
        ) from None
    return CountSeries(np.array(draws, dtype=np.int64).reshape(-1, 2))


def split_row(fraction: float, n: int) -> int:
    """The row at which a fraction of ``n`` rows ends: floor(fraction * n).
    The training split ends here and ``predict --eval-start`` starts here."""
    # tiny nudge so decimal fractions like 0.29 * 100 floor to the intended 29
    return int(math.floor(fraction * n + 1e-9))


def chronological_split(
    series: np.ndarray, train_fraction: float
) -> tuple[np.ndarray, np.ndarray]:
    """Split an ``(n, 2)`` count array into (train, holdout) at
    :func:`split_row`.

    Raises:
        ValueError: a :class:`CountSeries` in place of its array, a
            fraction outside (0, 1) or a split that leaves either partition
            empty.
    """
    _refuse_count_series(series)
    _check_settings(("train_fraction", "lie in (0, 1)", train_fraction, lambda f: 0.0 < f < 1.0))
    n = len(series)
    n_train = split_row(train_fraction, n)
    if n_train == 0 or n_train == n:
        raise ValueError(
            f"train_fraction={train_fraction} leaves an empty partition for n={n}"
        )
    return series[:n_train], series[n_train:]
