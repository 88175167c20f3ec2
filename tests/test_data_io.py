import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oficast.data_io import (
    DataFormatError,
    MIN_SYNTHETIC_LENGTH,
    OrderCounts,
    Side,
    SyntheticSpec,
    TradeEvent,
    aggregate_trades,
    chronological_split,
    counts_to_array,
    generate_synthetic,
    load_counts_csv,
    load_trades_csv,
    write_counts_csv,
)

from conftest import make_counts


# ---------------------------------------------------------------- counts CSV

def test_load_counts_known_rows(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("timestamp,buy_orders,sell_orders\n1,55,30\n2,45,40\n3,60,125\n")
    series = load_counts_csv(path)
    assert series == [
        OrderCounts(1, 55, 30),
        OrderCounts(2, 45, 40),
        OrderCounts(3, 60, 125),
    ]


def test_load_counts_header_only_is_empty_series(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("timestamp,buy_orders,sell_orders\n")
    with pytest.raises(DataFormatError, match="empty series"):
        load_counts_csv(path)


def test_load_counts_negative_count_names_line_and_column(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("timestamp,buy_orders,sell_orders\n1,10,5\n2,-3,7\n")
    with pytest.raises(DataFormatError) as exc:
        load_counts_csv(path)
    msg = str(exc.value)
    assert "buy" in msg and "3" in msg  # line 3 of the file holds the bad row


def test_load_counts_rejects_bad_header(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("time,b,s\n1,2,3\n")
    with pytest.raises(DataFormatError):
        load_counts_csv(path)


def test_load_counts_rejects_timestamp_gap(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("timestamp,buy_orders,sell_orders\n1,5,5\n3,5,5\n")
    with pytest.raises(DataFormatError):
        load_counts_csv(path)


def test_counts_csv_round_trip(tmp_path):
    series = make_counts([(5, 3), (0, 9), (12, 12)], t0=100)
    path = tmp_path / "rt.csv"
    write_counts_csv(path, series)
    assert load_counts_csv(path) == series


def test_order_counts_rejects_negative():
    with pytest.raises(ValueError):
        OrderCounts(0, -1, 5)
    with pytest.raises(ValueError):
        OrderCounts(0, 5, -1)


def test_counts_to_array_shape_and_values():
    arr = counts_to_array(make_counts([(1, 2), (3, 4)]))
    assert arr.shape == (2, 2)
    assert arr.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_counts_to_array_same_matrix_for_rows_and_arrays():
    pairs = [(5, 0), (3, 7), (0, 0), (12, 4)]
    want = counts_to_array(make_counts(pairs))
    for form in (np.array(pairs), np.array(pairs, dtype=float), pairs):
        got = counts_to_array(form)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_counts_to_array_float_array_is_not_copied():
    arr = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert counts_to_array(arr) is arr


@pytest.mark.parametrize("shape", [(4, 3), (4,)])
def test_counts_to_array_rejects_other_shapes(shape):
    with pytest.raises(ValueError, match=r"expected an \(n, 2\) series"):
        counts_to_array(np.zeros(shape))


def assert_unit_stride(series):
    t0 = series[0].timestamp
    assert [c.timestamp for c in series] == list(range(t0, t0 + len(series)))


# --------------------------------------------------------------- trade tapes

def test_aggregate_trades_direct_count():
    events = [
        TradeEvent(0.1, Side.BUY),
        TradeEvent(0.4, Side.BUY),
        TradeEvent(0.6, Side.SELL),
        TradeEvent(0.9, Side.BUY),
    ]
    out = aggregate_trades(events, bucket=1.0)
    assert out == [OrderCounts(0, 3, 1)]


def test_aggregate_trades_fills_interior_gap():
    events = [TradeEvent(0.5, Side.BUY), TradeEvent(2.5, Side.SELL)]
    out = aggregate_trades(events, bucket=1.0)
    assert out == [OrderCounts(0, 1, 0), OrderCounts(1, 0, 0), OrderCounts(2, 0, 1)]


def test_aggregate_trades_conserves_totals():
    rng = np.random.default_rng(5)
    times = np.sort(rng.uniform(0.0, 37.0, size=1000))
    sides = rng.integers(0, 2, size=1000)
    events = [
        TradeEvent(float(t), Side.BUY if s else Side.SELL)
        for t, s in zip(times, sides)
    ]
    out = aggregate_trades(events, bucket=1.0)
    assert sum(c.buy + c.sell for c in out) == 1000
    assert sum(c.buy for c in out) == int(sides.sum())
    assert_unit_stride(out)


def test_aggregate_trades_rejects_unsorted_and_bad_bucket():
    events = [TradeEvent(2.0, Side.BUY), TradeEvent(1.0, Side.SELL)]
    with pytest.raises(ValueError):
        aggregate_trades(events, bucket=1.0)
    with pytest.raises(ValueError):
        aggregate_trades(events, bucket=0.0)


def test_load_trades_csv(tmp_path):
    path = tmp_path / "tape.csv"
    path.write_text("timestamp,side\n0.25,BUY\n0.75,SELL\n")
    events = load_trades_csv(path)
    assert events == [TradeEvent(0.25, Side.BUY), TradeEvent(0.75, Side.SELL)]
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,side\n0.25,LIMIT\n")
    with pytest.raises(DataFormatError):
        load_trades_csv(bad)


# ----------------------------------------------------------------- generator

def test_generator_is_deterministic_byte_for_byte(tmp_path):
    spec = SyntheticSpec(length=3000, seed=42)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_counts_csv(a, generate_synthetic(spec))
    write_counts_csv(b, generate_synthetic(spec))
    assert a.read_bytes() == b.read_bytes()


def test_generator_law_of_large_numbers():
    """With both couplings off, counts are i.i.d. draws around the base rate."""
    spec = SyntheticSpec(
        length=10000, seed=9, base_intensity=40.0,
        linear_strength=0.0, nonlinear_strength=0.0,
    )
    series = generate_synthetic(spec)
    mean_buy = np.mean([c.buy for c in series])
    assert abs(mean_buy - 40.0) < 0.05 * 40.0


def test_generator_counts_nonnegative_and_unit_stride():
    for seed in (0, 1, 2):
        series = generate_synthetic(SyntheticSpec(length=200, seed=seed))
        assert min(c.buy for c in series) >= 0
        assert min(c.sell for c in series) >= 0
        assert_unit_stride(series)
        assert len(series) == 200


def test_generator_length_below_minimum_rejected():
    with pytest.raises(ValueError):
        SyntheticSpec(length=MIN_SYNTHETIC_LENGTH - 1, seed=0)


def test_synthetic_spec_parameter_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(length=100, seed=0, base_intensity=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(length=100, seed=0, linear_strength=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec(length=100, seed=0, nonlinear_strength=-0.1)


def test_generator_default_regime_does_not_saturate():
    # the feedback term must not pin the imbalance at +-1 (one side starved)
    series = generate_synthetic(SyntheticSpec(length=5000, seed=3))
    arr = counts_to_array(series)
    z = (arr[:, 0] - arr[:, 1]) / (arr[:, 0] + arr[:, 1] + 1)
    assert np.mean(np.abs(z) > 0.95) < 0.05
    assert arr[:, 0].mean() > 0.5 and arr[:, 1].mean() > 0.5


# --------------------------------------------------------------------- split

def test_split_arithmetic():
    tr, ho = chronological_split(make_counts([(1, 1)] * 10), 0.8)
    assert (len(tr), len(ho)) == (8, 2)
    tr, ho = chronological_split(make_counts([(1, 1)] * 2), 0.5)
    assert (len(tr), len(ho)) == (1, 1)


def test_split_3000_rows():
    series = make_counts([(i % 7, i % 5) for i in range(3000)])
    tr, ho = chronological_split(series, 0.8)
    assert (len(tr), len(ho)) == (2400, 600)
    assert tr + ho == series


@given(n=st.integers(2, 400), frac_pct=st.integers(1, 99))
@settings(max_examples=60, deadline=None)
def test_split_partition_property(n, frac_pct):
    series = make_counts([(i % 3, (i * 7) % 4) for i in range(n)])
    frac = frac_pct / 100.0
    try:
        tr, ho = chronological_split(series, frac)
    except ValueError:
        # an empty partition is the only legitimate refusal
        assert int(np.floor(frac * n + 1e-9)) in (0, n)
        return
    assert tr + ho == series
    assert len(tr) == int(np.floor(frac * n + 1e-9))


def test_split_rejects_degenerate_fraction():
    series = make_counts([(1, 1)] * 4)
    with pytest.raises(ValueError):
        chronological_split(series, 0.0)
    with pytest.raises(ValueError):
        chronological_split(series, 1.0)
