"""Self-check of the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_stats.py
    python3 perfbench/test_stats.py
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import stats  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    # a 120-cell sweep: p90 leaves 12 cells beyond it, p99 would leave 1
    assert stats.tail_percentile(120) == 90.0
    assert stats.samples_beyond(120, 90.0) == 12
    assert stats.tail_percentile(1000) == 99.0
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.tail_percentile(10_000) == 99.9
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(99) == 50.0  # p90 would leave 9
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(19) is None


def test_tail_summary_states_the_sample_count():
    summary = stats.tail_summary(list(range(1, 121)))
    assert summary == {
        "n": 120, "p50": 60.0, "tail_p": 90.0, "tail": 108.0, "tail_beyond": 12,
    }
    assert "tail" not in stats.tail_summary([1.0] * 5)


def test_nearest_rank_percentile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.percentile(values, 50.0) == 3.0
    assert stats.percentile(values, 100.0) == 5.0
    assert stats.percentile(values, 1.0) == 1.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_failed_frac_keeps_its_base():
    assert stats.failed_frac(0, 264) == {"value": 0.0, "failed": 0, "attempted": 264}
    assert stats.failed_frac(3, 12) == {"value": 0.25, "failed": 3, "attempted": 12}
    for bad in ((1, 0), (5, 4), (-1, 4)):
        try:
            stats.failed_frac(*bad)
        except ValueError:
            continue
        raise AssertionError(f"failed_frac{bad} did not raise")


def _span(sid, parent, start, end):
    return {"id": sid, "parent": parent, "start": start, "end": end}


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("main", None, 0.0, 10.0),
        _span("fit", "main", 1.0, 6.0),
        _span("train", "fit", 2.0, 5.0),  # grandchild of main
        _span("predict", "main", 7.0, 9.0),
    ]
    selfs = stats.self_times(spans)
    assert selfs == {"main": 3.0, "fit": 2.0, "train": 3.0, "predict": 2.0}


def test_self_time_takes_the_union_of_overlapping_children():
    spans = [
        _span("run", None, 0.0, 10.0),
        _span("a", "run", 1.0, 5.0),
        _span("b", "run", 3.0, 7.0),  # overlaps a: together they cover 1..7
        _span("c", "run", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert stats.self_times(spans)["run"] == 10.0 - 6.0 - 1.0


def test_spans_from_another_process_are_roots():
    spans = [_span("cell", "gone", 0.0, 2.0), _span("fit", "cell", 0.5, 1.5)]
    assert stats.self_times(spans) == {"cell": 1.0, "fit": 1.0}


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
    print(f"{len(tests)} checks passed")
