"""Order-flow imbalance and the threshold trading signal built on it."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data_io import OrderCounts, counts_to_array

DEFAULT_THRESHOLD = 0.1
DEFAULT_WINDOW = 1


class Signal(str, enum.Enum):
    BUY = "BUY"
    SELL = "SELL"
    HOLD = "HOLD"


#: Fixed signal order: confusion-matrix axes and the positions ``signal`` indexes.
SIGNAL_ORDER = (Signal.BUY, Signal.SELL, Signal.HOLD)
_SIGNALS = np.array(SIGNAL_ORDER, dtype=object)


@dataclass(frozen=True)
class OfiParams:
    """Window width (intervals per OFI value) and signal threshold."""

    window_h: int = DEFAULT_WINDOW
    threshold: float = DEFAULT_THRESHOLD

    def __post_init__(self) -> None:
        if self.window_h < 1:
            raise ValueError(f"window_h must be >= 1, got {self.window_h}")
        if not 0.0 <= self.threshold < 1.0:
            raise ValueError(f"threshold must lie in [0, 1), got {self.threshold}")


@dataclass(frozen=True)
class OfiSeries:
    """Imbalance values aligned to the timestamp of each window's last interval."""

    timestamps: tuple[int, ...]
    values: tuple[float, ...]


def ofi(buy, sell):
    """Normalized imbalance (buy - sell) / (buy + sell), in [-1, 1].

    Takes counts or arrays of counts and works element by element; a pair
    of scalars gives a float.  An empty window (0, 0) maps to 0.0: no
    activity is treated as balance.  Negative counts raise ValueError.
    """
    buy, sell = np.asarray(buy, dtype=float), np.asarray(sell, dtype=float)
    if np.any(buy < 0) or np.any(sell < 0):
        raise ValueError(f"counts must be nonnegative, got buy={buy.min()} sell={sell.min()}")
    total = buy + sell
    out = np.divide(buy - sell, total, out=np.zeros_like(total), where=total != 0)
    return out if out.ndim else float(out)


def clamp_ofi(value):
    """Clip into [-1, 1]; model outputs pass through here before signaling.

    Takes a float or an array.  NaN has no place in [-1, 1] and raises
    ValueError.
    """
    value = np.asarray(value, dtype=float)
    if np.isnan(value).any():
        raise ValueError("predicted OFI is NaN; the model produced a non-finite output")
    out = np.clip(value, -1.0, 1.0)
    return out if out.ndim else float(out)


def window_sums(arr: np.ndarray, h: int) -> np.ndarray:
    """Sums over every h consecutive rows of ``arr``, by cumulative sum.

    Row i of the result covers input rows i .. i + h - 1, so the result has
    ``len(arr) - h + 1`` rows.  Sums of integer counts are exact.
    """
    cs = np.vstack([np.zeros((1, arr.shape[1])), np.cumsum(arr, axis=0)])
    return cs[h:] - cs[:-h]


def ofi_series(counts: list[OrderCounts], params: OfiParams) -> OfiSeries:
    """Rolling OFI over windows of ``params.window_h`` trailing intervals.

    Output has length ``len(counts) - window_h + 1``; the value at output
    position i covers input rows i .. i + window_h - 1 and carries the
    timestamp of the window's last row.
    """
    h = params.window_h
    if len(counts) < h:
        raise ValueError(
            f"series of length {len(counts)} is shorter than window_h={h}"
        )
    sums = window_sums(counts_to_array(counts), h)
    values = tuple(ofi(sums[:, 0], sums[:, 1]).tolist())
    timestamps = tuple(c.timestamp for c in counts[h - 1 :])
    return OfiSeries(timestamps=timestamps, values=values)


def signal(ofi_value, threshold: float = DEFAULT_THRESHOLD):
    """Threshold rule: BUY above +threshold, SELL below -threshold, else HOLD.

    Boundary values map to HOLD.  A float gives its :class:`Signal`, an array
    an object array of them.  The input is expected to be a valid OFI
    (already clamped to [-1, 1]); no further validation here.
    """
    value = np.asarray(ofi_value)
    return _SIGNALS[np.where(value > threshold, 0, np.where(value < -threshold, 1, 2))]
