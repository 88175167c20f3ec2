"""Arithmetic the benchmark reports with: medians, tail percentiles,
failure fractions and span self time.  Standard library only, so
run.py never has to import the program under test."""
from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must lie in (0, 100], got {p}")
    return float(ordered[_rank(len(ordered), p) - 1])


def _rank(n: int, p: float) -> int:
    """1-based nearest rank; the rounding keeps p * n / 100 exact for
    decimal percentiles such as 99.9."""
    return max(math.ceil(round(p * n / 100.0, 9)), 1)


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile that leaves at least MIN_BEYOND of n
    samples beyond it, or None when even the median does not."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail_summary(values) -> dict:
    """p50 and the highest percentile with MIN_BEYOND samples beyond it,
    each stated with the sample count it rests on."""
    values = list(values)
    n = len(values)
    p = tail_percentile(n)
    out = {"n": n, "p50": percentile(values, 50.0) if values else None}
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
        out["tail_beyond"] = samples_beyond(n, p)
    return out


def failed_frac(failed: int, attempted: int) -> dict:
    """Failures over attempts, with the base kept next to the ratio."""
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempt")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return {"value": failed / attempted, "failed": failed, "attempted": attempted}


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Self time per span id: its duration minus the part of its interval
    that its direct children cover.

    ``spans`` are mappings with ``id``, ``parent``, ``start`` and ``end``;
    a child is clipped to its parent's interval before the union is taken.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict = {}
    for s in spans:
        if s["parent"] in by_id:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for sid, s in by_id.items():
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children.get(sid, ())
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[sid] = (s["end"] - s["start"]) - covered(clipped)
    return out
