"""Output checks.  They test invariants of the outputs, not frozen
digests, so a change that alters trained-weight bits still passes as long
as the outputs keep their shape, ranges and determinism."""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import (
    COMPARISON,
    FIT_FRACTION,
    PREDICTIONS,
    SWEEP_OUT,
    THRESHOLD,
)


class Checks:
    """Named pass/fail results, in the order they were made."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not c["ok"] for c in self.items)


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def load_counts(path: Path) -> list[tuple[int, int]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(int(r[1]), int(r[2])) for r in reader if r]


def expected_signal(value: float) -> str:
    if value > THRESHOLD:
        return "BUY"
    if value < -THRESHOLD:
        return "SELL"
    return "HOLD"


def check_sweep(checks: Checks, d: Path, cells: int, tag: str) -> list[dict]:
    """Shape and finiteness of one sweep's outputs; returns its rows."""
    path = d / SWEEP_OUT
    if not checks.add(f"{tag}: {SWEEP_OUT} written", path.is_file()):
        return []
    rows = read_rows(path)
    checks.add(f"{tag}: {cells} result rows", len(rows) == cells, f"got {len(rows)}")
    ok = [r for r in rows if r["status"] == "ok"]
    checks.add(
        f"{tag}: ok cells have finite mse and accuracy",
        all(math.isfinite(float(r["mse"])) and math.isfinite(float(r["accuracy"])) for r in ok),
    )
    checks.add(f"{tag}: heatmap written", (d / f"{SWEEP_OUT}.heatmap.csv").is_file())
    best = d / f"{SWEEP_OUT}.best.json"
    try:
        with open(best, encoding="utf-8") as fh:
            parsed = json.load(fh)
        checks.add(f"{tag}: best.json names a best mse cell", "mse" in parsed)
    except (OSError, ValueError) as exc:
        checks.add(f"{tag}: best.json readable", False, str(exc))
    return rows


def quality(rows: list[dict]) -> dict | None:
    """Forecast quality of sweep cells or comparison rows, averaged over
    the ok rows: holdout MSE, the same MSE over the variance of the actual
    holdout OFI (1 - R^2), and signal accuracy."""
    ok = [r for r in rows if r.get("status", "ok") == "ok"]
    if not ok:
        return None

    def mean(key):
        return sum(float(r[key]) for r in ok) / len(ok)

    return {
        "holdout_mse": mean("mse"),
        "holdout_nmse": 1.0 - mean("r2"),
        "signal_accuracy": mean("accuracy"),
    }


def masked_sweep(path: Path) -> list[tuple]:
    """Sweep rows without the wall-clock runtime_s column."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return []
    drop = rows[0].index("runtime_s")
    return [tuple(v for i, v in enumerate(r) if i != drop) for r in rows]


def check_prefix(checks: Checks, full: Path, prefix: Path, cells: int, tag: str) -> None:
    """The first cells of a sweep equal a sweep of just those cells run
    with another worker count (results must not depend on workers)."""
    a = masked_sweep(full / SWEEP_OUT)
    b = masked_sweep(prefix / SWEEP_OUT)
    checks.add(
        f"{tag}: first {cells} cells identical across worker counts",
        len(b) == cells + 1 and a[: cells + 1] == b,
        f"{len(b) - 1} prefix rows",
    )


def check_forecast(checks: Checks, d: Path, counts: list[tuple[int, int]], tag: str):
    """Predictions and comparison of one fit/predict/evaluate pass.

    Returns the quality in the comparison CSV, or None when it is missing.
    """
    n = len(counts)
    first = int(float(FIT_FRACTION) * n)
    path = d / PREDICTIONS
    if checks.add(f"{tag}: {PREDICTIONS} written", path.is_file()):
        rows = read_rows(path)
        indices = [int(r["index"]) for r in rows]
        checks.add(
            f"{tag}: one prediction per row from eval-start on",
            indices == list(range(first, n)),
            f"{len(rows)} rows, expected {n - first}",
        )
        in_range = signals = actual = True
        for i, r in zip(indices, rows):
            a = float(r["actual_ofi"])
            p = float(r["predicted_ofi"])
            in_range &= -1.0 <= a <= 1.0 and -1.0 <= p <= 1.0
            signals &= (
                r["actual_signal"] == expected_signal(a)
                and r["predicted_signal"] == expected_signal(p)
            )
            if not 0 <= i < n:
                actual = False
                continue
            buy, sell = counts[i]
            want = (buy - sell) / (buy + sell) if buy + sell else 0.0
            actual &= abs(a - want) <= 1e-12
        checks.add(f"{tag}: every OFI in [-1, 1]", in_range)
        checks.add(f"{tag}: signals follow the {THRESHOLD} threshold rule", signals)
        checks.add(f"{tag}: actual OFI is (buy - sell) / (buy + sell)", actual)
    comp = d / COMPARISON
    if not checks.add(f"{tag}: {COMPARISON} written", comp.is_file()):
        return None
    rows = read_rows(comp)
    values = [float(r[k]) for r in rows for k in ("mse", "mae", "r2", "accuracy", "precision")]
    checks.add(
        f"{tag}: comparison values finite",
        len(rows) == 1 and all(math.isfinite(v) for v in values),
    )
    checks.add(
        f"{tag}: confusion CSV written",
        (d / "compare.confusion.synthetic.hybrid.csv").is_file(),
    )
    return quality(rows) if len(rows) == 1 else None


def _snapshot(d: Path) -> dict:
    out = {}
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        rel = str(path.relative_to(d))
        out[rel] = masked_sweep(path) if rel == SWEEP_OUT else path.read_bytes()
    return out


def check_identical(checks: Checks, dirs: list[Path], tag: str) -> None:
    """Passes with the same seed write byte-identical outputs (the sweep
    CSV compared without its runtime_s column)."""
    if len(dirs) < 2:
        return
    ref = _snapshot(dirs[0])
    for d in dirs[1:]:
        snap = _snapshot(d)
        differ = sorted(k for k in set(ref) | set(snap) if ref.get(k) != snap.get(k))
        checks.add(
            f"{tag}: {d.name} outputs identical to {dirs[0].name}",
            not differ,
            ", ".join(differ),
        )
