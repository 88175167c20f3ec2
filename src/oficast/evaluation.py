"""Forecast-quality metrics over OFI values and intensity signals."""
from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .hybrid import Predictions
from .ofi_signal import SIGNAL_ORDER

#: Position of each signal in SIGNAL_ORDER.  Signal is a str enum whose
#: names equal its values, so "BUY" finds the same entry as Signal.BUY.
_POSITION = {sig: i for i, sig in enumerate(SIGNAL_ORDER)}


def mse(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.mean((a - p) ** 2))


def mae(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def r_squared(actual, predicted) -> float:
    """1 - SS_res / SS_tot; may be negative for fits worse than the mean.

    A zero-variance actual series has no well-defined R^2 and raises
    ValueError rather than returning NaN.
    """
    a, p = _paired(actual, predicted)
    ss_tot = float(np.sum((a - a.mean()) ** 2))
    if ss_tot == 0.0:
        raise ValueError("R^2 is undefined: actual values have zero variance")
    ss_res = float(np.sum((a - p) ** 2))
    return 1.0 - ss_res / ss_tot


def _paired(actual, predicted):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.shape != p.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {p.shape}")
    if a.size == 0:
        raise ValueError("empty inputs")
    return a, p


def confusion_matrix(actual_signals, predicted_signals) -> np.ndarray:
    """3x3 counts over :data:`SIGNAL_ORDER`, rows actual, columns predicted;
    entries are :class:`Signal` members or their string values."""
    actual = _positions(actual_signals)
    predicted = _positions(predicted_signals)
    if len(actual) != len(predicted):
        raise ValueError(f"length mismatch: {len(actual)} vs {len(predicted)}")
    if not len(actual):
        raise ValueError("empty inputs")
    return np.bincount(3 * actual + predicted, minlength=9).reshape(3, 3)


def _positions(signals) -> np.ndarray:
    try:
        return np.fromiter(map(_POSITION.__getitem__, signals), dtype=np.intp)
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]!r} is not a valid Signal") from None


def intensity_metrics(actual_signals, predicted_signals, average: str = "macro"):
    """Signal accuracy, precision, and the confusion matrix.

    Precision averages per-class precision over the classes that actually
    appear in the predictions (absent classes have no precision).
    ``average`` selects macro (unweighted, the default), micro (pooled,
    equals accuracy for single-label signals), or weighted (by the actual
    count of each predicted class).
    """
    if average not in ("macro", "micro", "weighted"):
        raise ValueError(f"average must be macro, micro, or weighted, got {average!r}")
    conf = confusion_matrix(actual_signals, predicted_signals)
    total = int(conf.sum())
    correct = int(np.trace(conf))
    accuracy = correct / total
    predicted_counts = conf.sum(axis=0)
    present = predicted_counts > 0
    per_class = np.diag(conf)[present] / predicted_counts[present]
    if average == "micro":
        precision = correct / total
    elif average == "macro":
        precision = float(np.mean(per_class))
    else:
        weights = conf.sum(axis=1)[present].astype(float)
        if weights.sum() == 0.0:
            precision = 0.0
        else:
            precision = float((per_class * weights).sum() / weights.sum())
    return accuracy, precision, conf


@dataclass(frozen=True)
class EvalReport:
    dataset: str
    model: str
    mse: float
    mae: float
    r2: float
    accuracy: float
    precision: float
    confusion: tuple[tuple[int, int, int], ...]


def evaluate_records(
    records: Predictions, dataset: str, model: str, average: str = "macro"
) -> EvalReport:
    actual, predicted = records.actual_ofi, records.predicted_ofi
    accuracy, precision, conf = intensity_metrics(
        records.actual_signal, records.predicted_signal, average=average
    )
    return EvalReport(
        dataset=dataset,
        model=model,
        mse=mse(actual, predicted),
        mae=mae(actual, predicted),
        r2=r_squared(actual, predicted),
        accuracy=accuracy,
        precision=precision,
        confusion=tuple(tuple(int(v) for v in row) for row in conf),
    )


def render_comparison(reports: list[EvalReport]) -> str:
    """Fixed-width table, rows grouped by dataset then model; MSE/MAE/R^2
    to three decimals, accuracy and precision as percentages."""
    lines = []
    header = (
        f"{'dataset':<14}{'model':<10}{'MSE':>8}{'MAE':>8}{'R2':>8}"
        f"{'accuracy':>10}{'precision':>11}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for report in sorted(reports, key=lambda r: (r.dataset, r.model)):
        lines.append(
            f"{report.dataset:<14}{report.model:<10}"
            f"{report.mse:>8.3f}{report.mae:>8.3f}{report.r2:>8.3f}"
            f"{report.accuracy:>9.2%}{report.precision:>10.2%}"
        )
    return "\n".join(lines)


COMPARISON_HEADER = ("dataset", "model", "mse", "mae", "r2", "accuracy", "precision")


def write_comparison_csv(reports: list[EvalReport], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(COMPARISON_HEADER)
        for r in sorted(reports, key=lambda r: (r.dataset, r.model)):
            writer.writerow(
                [r.dataset, r.model, repr(r.mse), repr(r.mae), repr(r.r2),
                 repr(r.accuracy), repr(r.precision)]
            )


def write_confusion_csv(confusion, path: str | Path) -> None:
    """3x3 CSV with labeled axes; rows actual, columns predicted."""
    conf = np.asarray(confusion)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["actual\\predicted"] + [s.value for s in SIGNAL_ORDER])
        for sig, row in zip(SIGNAL_ORDER, conf):
            writer.writerow([sig.value] + [int(v) for v in row])
