import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oficast.ofi_signal import (
    OfiParams,
    Signal,
    clamp_ofi,
    ofi,
    ofi_series,
    signal,
    window_sums,
)

from conftest import make_counts

counts = st.integers(0, 10_000)


# ------------------------------------------------------------------- ofi

def test_known_values_three_decimals():
    assert round(ofi(55, 30), 3) == 0.294
    assert round(ofi(45, 40), 3) == 0.059
    assert round(ofi(60, 125), 3) == -0.351


def test_balanced_window_is_zero():
    for k in (1, 7, 500):
        assert ofi(k, k) == 0.0


def test_empty_window_is_zero():
    assert ofi(0, 0) == 0.0


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        ofi(-1, 5)
    with pytest.raises(ValueError):
        ofi(5, -1)


@given(buy=counts, sell=counts)
def test_antisymmetry_exact(buy, sell):
    assert ofi(buy, sell) == -ofi(sell, buy)


@given(buy=counts, sell=counts)
def test_bounded(buy, sell):
    assert -1.0 <= ofi(buy, sell) <= 1.0


@given(buy=st.integers(0, 2000), sell=st.integers(0, 2000), k=st.integers(1, 1000))
def test_scale_invariance_exact_for_integers(buy, sell, k):
    # products stay exactly representable, so the rounded quotients agree
    assert ofi(k * buy, k * sell) == ofi(buy, sell)


def test_one_sided_windows_hit_the_bounds():
    assert ofi(17, 0) == 1.0
    assert ofi(0, 17) == -1.0


def test_clamp():
    assert clamp_ofi(1.5) == 1.0
    assert clamp_ofi(-2.0) == -1.0
    assert clamp_ofi(0.3) == 0.3


def test_clamp_rejects_nan():
    with pytest.raises(ValueError, match="NaN"):
        clamp_ofi(float("nan"))
    with pytest.raises(ValueError, match="NaN"):
        clamp_ofi(np.float64("nan"))


# ------------------------------------------------------------ ofi_series

TABLE_ROWS = [(55, 30), (45, 40), (60, 125)]


def test_series_window_one_matches_per_row_values():
    out = ofi_series(make_counts(TABLE_ROWS, t0=1), OfiParams(window_h=1))
    assert [round(v, 3) for v in out.values] == [0.294, 0.059, -0.351]
    assert out.timestamps == (1, 2, 3)


def test_series_window_two_hand_summed():
    # (55+45, 30+40) -> 30/170
    out = ofi_series(make_counts(TABLE_ROWS[:2]), OfiParams(window_h=2))
    assert len(out.values) == 1
    assert out.values[0] == pytest.approx(0.17647, abs=5e-6)


def test_series_window_two_timestamps_align_to_window_end():
    out = ofi_series(make_counts(TABLE_ROWS, t0=10), OfiParams(window_h=2))
    assert out.timestamps == (11, 12)


def test_series_balanced_counts_all_zero():
    out = ofi_series(make_counts([(8, 8)] * 6), OfiParams(window_h=1))
    assert all(v == 0.0 for v in out.values)
    out2 = ofi_series(make_counts([(8, 8)] * 6), OfiParams(window_h=3))
    assert all(v == 0.0 for v in out2.values)


def test_series_shorter_than_window_rejected():
    with pytest.raises(ValueError):
        ofi_series(make_counts([(1, 1)]), OfiParams(window_h=2))


def test_series_matches_manual_accumulation():
    rng = np.random.default_rng(11)
    rows = [(int(b), int(s)) for b, s in zip(rng.poisson(20, 50), rng.poisson(20, 50))]
    h = 4
    out = ofi_series(make_counts(rows), OfiParams(window_h=h))
    for i, v in enumerate(out.values):
        window = rows[i : i + h]
        b = sum(w[0] for w in window)
        s = sum(w[1] for w in window)
        assert v == pytest.approx(ofi(b, s), abs=1e-12)


@given(
    rows=st.lists(st.tuples(counts, counts), min_size=8, max_size=60),
    h=st.integers(1, 8),
)
@settings(max_examples=80, deadline=None)
def test_window_sums_equal_convolution_bit_for_bit(rows, h):
    arr = np.array(rows, dtype=float)
    sums = window_sums(arr, h)
    for col in range(2):  # the per-column convolution ofi_series used to run
        want = np.convolve(arr[:, col], np.ones(h), mode="valid")
        assert sums[:, col].tobytes() == want.tobytes()


def test_params_validation():
    with pytest.raises(ValueError):
        OfiParams(window_h=0)
    with pytest.raises(ValueError):
        OfiParams(threshold=-0.1)
    with pytest.raises(ValueError):
        OfiParams(threshold=1.5)


# ---------------------------------------------------------------- signal

def test_known_signal_values():
    assert signal(0.294, 0.1) is Signal.BUY
    assert signal(0.059, 0.1) is Signal.HOLD
    assert signal(-0.1221, 0.1) is Signal.SELL


def test_threshold_boundary_holds():
    t = 0.1
    assert signal(t, t) is Signal.HOLD
    assert signal(-t, t) is Signal.HOLD


def test_signal_of_array_maps_elementwise():
    vals = np.array([0.294, 0.059, -0.351, 0.1, -0.1, 1.0, -1.0, -0.0, np.nan])
    out = signal(vals, 0.1)
    assert out.shape == vals.shape
    for got, v in zip(out, vals):
        assert got is signal(float(v), 0.1)
    assert list(out[:3]) == [Signal.BUY, Signal.HOLD, Signal.SELL]


@given(
    rows=st.lists(st.tuples(counts, counts), min_size=0, max_size=40),
    t=st.floats(0.0, 0.99, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_array_rules_equal_scalar_rules_elementwise(rows, t):
    arr = np.array(rows, dtype=float).reshape(-1, 2)
    values = ofi(arr[:, 0], arr[:, 1])
    assert values.shape == (len(rows),)
    scalar = [ofi(b, s) for b, s in rows]
    assert values.tobytes() == np.array(scalar, dtype=float).tobytes()
    stretched = 3.0 * values - 0.5  # reaches outside [-1, 1]
    clamped = clamp_ofi(stretched)
    assert clamped.tobytes() == np.array(
        [clamp_ofi(float(v)) for v in stretched], dtype=float
    ).tobytes()
    assert all(a is signal(float(v), t) for a, v in zip(signal(clamped, t), clamped))


def test_array_ofi_rejects_any_negative_count():
    with pytest.raises(ValueError):
        ofi(np.array([3.0, -1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        ofi(np.array([3.0, 1.0]), np.array([1.0, -2.0]))


def test_array_clamp_rejects_any_nan():
    with pytest.raises(ValueError, match="NaN"):
        clamp_ofi(np.array([0.1, np.nan]))


def test_scalar_rules_return_python_values():
    assert type(ofi(3, 1)) is float and type(ofi(0, 0)) is float
    assert type(clamp_ofi(np.float64(2.0))) is float
    assert signal(np.float64(0.5)) is Signal.BUY


_RANK = {Signal.SELL: -1, Signal.HOLD: 0, Signal.BUY: 1}


@given(
    v1=st.floats(-1, 1, allow_nan=False),
    v2=st.floats(-1, 1, allow_nan=False),
    t=st.floats(0.01, 0.99, allow_nan=False),
)
def test_signal_monotone_in_value(v1, v2, t):
    lo, hi = sorted((v1, v2))
    assert _RANK[signal(lo, t)] <= _RANK[signal(hi, t)]


@given(
    v=st.floats(-1, 1, allow_nan=False),
    t1=st.floats(0.01, 0.98, allow_nan=False),
    dt=st.floats(0.0, 0.5, allow_nan=False),
)
def test_raising_threshold_never_leaves_hold(v, t1, dt):
    if signal(v, t1) is Signal.HOLD:
        assert signal(v, t1 + dt) is Signal.HOLD
