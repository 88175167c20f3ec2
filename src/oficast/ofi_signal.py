"""Order-flow imbalance and the threshold trading signal built on it."""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .data_io import _check_settings, _integer_rules

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
        _check_settings(
            *_integer_rules("window_h", self.window_h, 1),
            ("threshold", "lie in [0, 1)", self.threshold, lambda t: 0.0 <= t < 1.0),
        )


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


def signal(ofi_value, threshold: float = DEFAULT_THRESHOLD):
    """Threshold rule: BUY above +threshold, SELL below -threshold, else HOLD.

    Boundary values map to HOLD.  A float gives its :class:`Signal`, an array
    an object array of them.  The input is expected to be a valid OFI
    (already clamped to [-1, 1]); no further validation here.
    """
    value = np.asarray(ofi_value)
    return _SIGNALS[np.where(value > threshold, 0, np.where(value < -threshold, 1, 2))]
