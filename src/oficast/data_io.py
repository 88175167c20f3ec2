"""Loading, validating, and generating order-count series.

The canonical in-memory representation is a list of :class:`OrderCounts`,
one row per unit interval, timestamps strictly increasing with stride 1.
Everything downstream (VAR, FNN, pipelines) consumes these rows via
:func:`counts_to_array`, the one conversion to an ``(n, 2)`` array.

File formats:

* counts CSV: header ``timestamp,buy_orders,sell_orders``, integer fields.
* trade tape CSV: header ``timestamp,side`` with side ``BUY`` or ``SELL``.
"""
from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

COUNTS_HEADER = ("timestamp", "buy_orders", "sell_orders")
TRADES_HEADER = ("timestamp", "side")

#: Largest VAR lag the sweep grid explores; synthetic series must cover it.
MAX_SUPPORTED_LAG = 10
MIN_SYNTHETIC_LENGTH = 2 * MAX_SUPPORTED_LAG + 1


class DataFormatError(ValueError):
    """Malformed input file; ``line`` is the 1-based offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Side(enum.Enum):
    BUY = "BUY"
    SELL = "SELL"


@dataclass(frozen=True)
class OrderCounts:
    """Buy and sell order counts observed over one unit interval."""

    timestamp: int
    buy: int
    sell: int

    def __post_init__(self) -> None:
        if self.buy < 0 or self.sell < 0:
            raise ValueError(
                f"order counts must be nonnegative, got buy={self.buy} sell={self.sell}"
            )


@dataclass(frozen=True)
class TradeEvent:
    """A single tape print: event time in epoch seconds plus aggressor side."""

    timestamp: float
    side: Side


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


def validate_series(series: list[OrderCounts]) -> None:
    """Check the series-level invariant: nonempty, unit-stride timestamps."""
    if not series:
        raise ValueError("empty series")
    for prev, cur in zip(series, series[1:]):
        if cur.timestamp != prev.timestamp + 1:
            raise ValueError(
                "timestamps must increase with unit stride, "
                f"got {cur.timestamp} after {prev.timestamp}"
            )


def counts_to_array(series) -> np.ndarray:
    """Return the series as a float array of shape (n, 2), columns (buy, sell).

    Accepts a list of :class:`OrderCounts` or anything array-like; a float
    ndarray passes through without a copy.  Any other shape raises ValueError.
    """
    if not isinstance(series, np.ndarray) and len(series) and isinstance(series[0], OrderCounts):
        arr = np.array([[row.buy, row.sell] for row in series], dtype=float)
    else:
        arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) series, got shape {arr.shape}")
    return arr


def _parse_int(token: str, column: str, line: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise DataFormatError(
            f"column {column}: expected an integer, got {token!r}", line
        ) from None


def load_counts_csv(path: str | Path) -> list[OrderCounts]:
    """Load an order-count series, validating format and invariants.

    Raises:
        FileNotFoundError: missing file.
        DataFormatError: bad header, malformed row (with line number),
            negative count, non-unit-stride timestamps, or empty data section.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    rows: list[OrderCounts] = []
    prev_ts: int | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(f.strip() for f in header) != COUNTS_HEADER:
            raise DataFormatError(
                f"expected header {','.join(COUNTS_HEADER)}, got {header}", line=1
            )
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 3:
                raise DataFormatError(f"expected 3 fields, got {len(rec)}", lineno)
            ts = _parse_int(rec[0], "timestamp", lineno)
            buy = _parse_int(rec[1], "buy_orders", lineno)
            sell = _parse_int(rec[2], "sell_orders", lineno)
            if buy < 0:
                raise DataFormatError("negative count in column buy_orders", lineno)
            if sell < 0:
                raise DataFormatError("negative count in column sell_orders", lineno)
            if prev_ts is not None and ts != prev_ts + 1:
                raise DataFormatError(
                    f"timestamps must increase with unit stride, got {ts} after {prev_ts}",
                    lineno,
                )
            prev_ts = ts
            rows.append(OrderCounts(ts, buy, sell))
    if not rows:
        raise DataFormatError("empty series (header only)")
    return rows


def write_counts_csv(path: str | Path, series: list[OrderCounts]) -> None:
    """Write a series in the counts CSV format (round-trips with the loader)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COUNTS_HEADER)
        for row in series:
            writer.writerow([row.timestamp, row.buy, row.sell])


def load_trades_csv(path: str | Path) -> list[TradeEvent]:
    """Load a trade tape (``timestamp,side`` with side BUY or SELL)."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    events: list[TradeEvent] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(f.strip() for f in header) != TRADES_HEADER:
            raise DataFormatError(
                f"expected header {','.join(TRADES_HEADER)}, got {header}", line=1
            )
        for lineno, rec in enumerate(reader, start=2):
            if not rec:
                continue
            if len(rec) != 2:
                raise DataFormatError(f"expected 2 fields, got {len(rec)}", lineno)
            try:
                ts = float(rec[0].strip())
            except ValueError:
                raise DataFormatError(
                    f"column timestamp: expected a number, got {rec[0]!r}", lineno
                ) from None
            token = rec[1].strip()
            try:
                side = Side(token)
            except ValueError:
                raise DataFormatError(
                    f"column side: expected BUY or SELL, got {token!r}", lineno
                ) from None
            events.append(TradeEvent(ts, side))
    return events


def aggregate_trades(events: list[TradeEvent], bucket: float) -> list[OrderCounts]:
    """Bucket a trade tape into per-interval counts.

    Buckets are ``floor(timestamp / bucket)``; the output covers every index
    between the first and last event's bucket, with empty interior buckets
    emitted as (0, 0).  Output timestamps are the bucket indices, so the
    unit-stride series invariant holds by construction.

    Raises:
        ValueError: nonpositive bucket width, or events not sorted by time.
    """
    if bucket <= 0:
        raise ValueError("bucket width must be positive")
    if not events:
        return []
    for prev, cur in zip(events, events[1:]):
        if cur.timestamp < prev.timestamp:
            raise ValueError(
                f"events must be sorted by timestamp, got {cur.timestamp} after {prev.timestamp}"
            )
    first = math.floor(events[0].timestamp / bucket)
    last = math.floor(events[-1].timestamp / bucket)
    buys = [0] * (last - first + 1)
    sells = [0] * (last - first + 1)
    for event in events:
        idx = math.floor(event.timestamp / bucket) - first
        if event.side is Side.BUY:
            buys[idx] += 1
        else:
            sells[idx] += 1
    return [
        OrderCounts(first + i, buys[i], sells[i]) for i in range(len(buys))
    ]


def generate_synthetic(spec: SyntheticSpec) -> list[OrderCounts]:
    """Generate a seeded synthetic series per :class:`SyntheticSpec`.

    Uses numpy's ``default_rng`` (PCG64); identical specs replay
    bit-identically on any platform.
    """
    rng = np.random.default_rng(spec.seed)
    z_prev = 0.0
    z_prev2 = 0.0
    rows: list[OrderCounts] = []
    for t in range(spec.length):
        drive = spec.linear_strength * z_prev + spec.nonlinear_strength * math.tanh(
            z_prev * z_prev2
        )
        lam_buy = max(spec.base_intensity * (1.0 + drive), 0.0)
        lam_sell = max(spec.base_intensity * (1.0 - drive), 0.0)
        buy = int(rng.poisson(lam_buy))
        sell = int(rng.poisson(lam_sell))
        rows.append(OrderCounts(t, buy, sell))
        z_prev2 = z_prev
        z_prev = (buy - sell) / (buy + sell + 1)
    return rows


def chronological_split(
    series: list[OrderCounts], train_fraction: float
) -> tuple[list[OrderCounts], list[OrderCounts]]:
    """Split into (train, holdout) with train = first floor(fraction * n) rows.

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
