import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oficast.data_io import (
    CountSeries,
    DataFormatError,
    MIN_SYNTHETIC_LENGTH,
    SyntheticSpec,
    chronological_split,
    counts_to_array,
    generate_synthetic,
    load_counts_csv,
    write_counts_csv,
)
from oficast.hybrid import PipelineConfig, fit_var_only
from oficast.neural_net import FnnTopology, TrainConfig
from oficast.ofi_signal import OfiParams
from oficast.sweep import SweepSpace, derive_seed, lhs_sample, run_sweep
from oficast.var_model import fit_var

from conftest import make_counts


# ---------------------------------------------------------------- counts CSV

def test_load_counts_known_rows(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text("timestamp,buy_orders,sell_orders\n1,55,30\n2,45,40\n3,60,125\n")
    series = load_counts_csv(path)
    assert series == CountSeries(make_counts([(55, 30), (45, 40), (60, 125)]), t0=1)
    assert len(series) == 3
    assert series.counts.dtype == np.int64


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


@pytest.mark.parametrize(
    "body, complaint",
    [
        ("1,10,5\n2,3\n", "line 3: expected 3 fields, got 2"),
        ("1,10,5\n2,x,7\n", "line 3: column buy_orders: expected an integer, got 'x'"),
        ("1,10,5\n2,3,-7\n", "line 3: negative count in column sell_orders"),
        ("1,10,5\n2,3,7\n4,1,1\n", "line 4: timestamps must increase with unit stride, got 4 after 2"),
        ("1,10,5\n1,3,7\n", "line 3: timestamps must increase with unit stride, got 1 after 1"),
        ("", "empty series (header only)"),
    ],
    ids=["field-count", "non-integer", "negative", "stride-gap", "repeat", "header-only"],
)
def test_load_counts_error_names_file_and_line(tmp_path, body, complaint):
    path = tmp_path / "bad.csv"
    path.write_text("timestamp,buy_orders,sell_orders\n" + body)
    with pytest.raises(DataFormatError) as exc:
        load_counts_csv(path)
    assert str(exc.value) == f"{path}: {complaint}"


def test_load_counts_names_first_bad_row_across_checks(tmp_path):
    # a stride gap on line 3 comes before a negative count on line 5
    path = tmp_path / "two.csv"
    path.write_text("timestamp,buy_orders,sell_orders\n1,1,1\n3,1,1\n4,1,1\n5,-1,1\n")
    with pytest.raises(DataFormatError, match="line 3: timestamps"):
        load_counts_csv(path)


@pytest.mark.parametrize("column", [0, 1, 2])
def test_load_counts_out_of_range_integer_is_named(tmp_path, column):
    # a 30-digit count used to load as ~1e30 and fit silently
    row = ["2", "5", "7"]
    row[column] = "9" * 30
    path = tmp_path / "huge.csv"
    path.write_text("timestamp,buy_orders,sell_orders\n1,1,1\n" + ",".join(row) + "\n")
    with pytest.raises(DataFormatError) as exc:
        load_counts_csv(path)
    name = ("timestamp", "buy_orders", "sell_orders")[column]
    assert str(exc.value) == (
        f"{path}: line 3: column {name}: expected an integer, got '{'9' * 30}'"
    )


def test_load_counts_extreme_timestamps_do_not_wrap(tmp_path):
    big = np.iinfo(np.int64).max
    ok = tmp_path / "edge.csv"
    ok.write_text(f"timestamp,buy_orders,sell_orders\n{big - 1},1,2\n{big},3,4\n")
    assert load_counts_csv(ok) == CountSeries(make_counts([(1, 2), (3, 4)]), t0=big - 1)
    wrapped = tmp_path / "wrap.csv"
    wrapped.write_text(f"timestamp,buy_orders,sell_orders\n{big},1,2\n{-big - 1},3,4\n")
    with pytest.raises(DataFormatError, match="unit stride"):
        load_counts_csv(wrapped)


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
    series = CountSeries(make_counts([(5, 3), (0, 9), (12, 12)]), t0=100)
    path = tmp_path / "rt.csv"
    write_counts_csv(path, series)
    assert path.read_bytes() == b"timestamp,buy_orders,sell_orders\r\n100,5,3\r\n101,0,9\r\n102,12,12\r\n"
    assert load_counts_csv(path) == series


@given(
    t0=st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max - 50),
    pairs=st.lists(
        st.tuples(st.integers(0, np.iinfo(np.int64).max), st.integers(0, np.iinfo(np.int64).max)),
        min_size=1,
        max_size=50,
    ),
)
@settings(max_examples=60, deadline=None)
def test_counts_csv_round_trip_property(tmp_path_factory, t0, pairs):
    series = CountSeries(make_counts(pairs), t0=t0)
    path = tmp_path_factory.mktemp("rt") / "counts.csv"
    write_counts_csv(path, series)
    assert load_counts_csv(path) == series


def test_count_series_rejects_negative_and_bad_shape():
    with pytest.raises(ValueError, match="nonnegative"):
        CountSeries(make_counts([(0, 1), (-1, 5)]))
    with pytest.raises(ValueError, match="nonnegative"):
        CountSeries(make_counts([(5, -1)]))
    for bad in (np.zeros((3, 3), dtype=np.int64), np.zeros(4, dtype=np.int64), np.zeros((2, 2))):
        with pytest.raises(ValueError, match=r"\(n, 2\) integer count array"):
            CountSeries(bad)


def test_count_series_equality_compares_t0_and_counts():
    a = CountSeries(make_counts([(1, 2), (3, 4)]), t0=5)
    assert a == CountSeries(make_counts([(1, 2), (3, 4)]), t0=5)
    assert a != CountSeries(make_counts([(1, 2), (3, 4)]), t0=6)
    assert a != CountSeries(make_counts([(1, 2), (3, 5)]), t0=5)
    assert len(a) == 2


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
    mean_buy = series.counts[:, 0].mean()
    assert abs(mean_buy - 40.0) < 0.05 * 40.0


def test_generator_counts_nonnegative_and_unit_stride():
    for seed in (0, 1, 2):
        series = generate_synthetic(SyntheticSpec(length=200, seed=seed))
        assert series.counts.min() >= 0
        assert series.counts.dtype == np.int64
        assert series.t0 == 0
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


@pytest.mark.parametrize("name", ["base_intensity", "nonlinear_strength"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_synthetic_spec_refuses_non_finite_settings(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        SyntheticSpec(length=100, seed=0, **{name: value})


@pytest.mark.parametrize("seed", [-1, 1.5, "3", None])
def test_synthetic_spec_refuses_a_seed_default_rng_refuses(seed):
    # numpy's own errors (a bare ValueError or a TypeError) would name no field
    with pytest.raises(ValueError) as info:
        SyntheticSpec(length=50, seed=seed)
    assert str(info.value) == f"seed must be a nonnegative integer, got {str(seed)!r}"


_KINDS = "('var_only', 'fnn_only', 'hybrid')"
_LONG_RULE = "h" * 60  # cut to its first 40 characters
_BIG_RULE = 10**45  # 46 digits
_RULE_COUNTS = make_counts([(i % 5, i % 3) for i in range(60)])

#: a refused setting -> (the call that refuses it, its error message)
_SETTING_REFUSALS = {
    "length": (lambda: SyntheticSpec(length=20, seed=0),
               "length must be >= 21 (2 * max supported lag + 1), got '20'"),
    "spec-seed": (lambda: SyntheticSpec(length=50, seed=-1),
                  "seed must be a nonnegative integer, got '-1'"),
    "base-intensity": (lambda: SyntheticSpec(length=50, seed=0, base_intensity=0),
                       "base_intensity must be positive, got '0'"),
    "linear-strength": (lambda: SyntheticSpec(length=50, seed=0, linear_strength=1),
                        "linear_strength must lie in [0, 1), got '1'"),
    "nonlinear-strength": (lambda: SyntheticSpec(length=50, seed=0, nonlinear_strength=-1),
                           "nonlinear_strength must be nonnegative, got '-1'"),
    # the first broken rule is named, and no later one is tested
    "spec-first-broken": (lambda: SyntheticSpec(length=5, seed=-1, base_intensity="x"),
                          "length must be >= 21 (2 * max supported lag + 1), got '5'"),
    "split": (lambda: chronological_split(_RULE_COUNTS, 1.0),
              "train_fraction must lie in (0, 1), got '1.0'"),
    "window": (lambda: OfiParams(window_h=0), "window_h must be >= 1, got '0'"),
    "threshold": (lambda: OfiParams(threshold=1.0), "threshold must lie in [0, 1), got '1.0'"),
    "var-lag": (lambda: PipelineConfig(var_lag=0), "var_lag must be >= 1, got '0'"),
    "fnn-lags": (lambda: PipelineConfig(fnn_input_lags=0), "fnn_input_lags must be >= 1, got '0'"),
    "input-dim": (lambda: FnnTopology(0, (4,), 1), "input_dim must be >= 1, got '0'"),
    "output-dim": (lambda: FnnTopology(2, (4,), 0), "output_dim must be >= 1, got '0'"),
    "widths": (lambda: FnnTopology(2, (4, 0), 1),
               "hidden layer widths must be >= 1, got '(4, 0)'"),
    "activation": (lambda: FnnTopology(2, (4,), 1, activation="softplus"),
                   "activation must be one of ('relu', 'tanh', 'sigmoid'), got 'softplus'"),
    "epochs": (lambda: TrainConfig(epochs=0), "epochs must be >= 1, got '0'"),
    "batch-size": (lambda: TrainConfig(batch_size=0), "batch_size must be >= 1, got '0'"),
    "rate-finite": (lambda: TrainConfig(learning_rate=math.inf),
                    "learning_rate must be finite, got 'inf'"),
    "rate-positive": (lambda: TrainConfig(learning_rate=0.0),
                      "learning_rate must be positive, got '0.0'"),
    "optimizer": (lambda: TrainConfig(optimizer="rms"),
                  "optimizer must be 'adam' or 'sgd', got 'rms'"),
    "patience": (lambda: TrainConfig(patience=0), "patience must be >= 1, got '0'"),
    "validation": (lambda: TrainConfig(validation_fraction=1.0),
                   "validation_fraction must lie in (0, 1), got '1.0'"),
    "train-seed": (lambda: TrainConfig(seed=1.5), "seed must be a nonnegative integer, got '1.5'"),
    "train-first-broken": (lambda: TrainConfig(epochs=0, learning_rate="x"),
                           "epochs must be >= 1, got '0'"),
    "workers": (lambda: run_sweep([], [("a", _RULE_COUNTS)], "var_only", workers=0),
                "workers must be at least 1, got '0'"),
    "sweep-fraction": (lambda: run_sweep([], [("a", _RULE_COUNTS)], "var_only",
                                         train_fraction=1.0),
                       "train_fraction must lie in (0, 1), got '1.0'"),
    # the three refusals that gain the quote: the value as str, cut to 40
    # characters plus its length
    "kind": (lambda: run_sweep([], [("a", _RULE_COUNTS)], "x"),
             f"kind must be one of {_KINDS}, got 'x'"),
    "kind-none": (lambda: run_sweep([], [("a", _RULE_COUNTS)], None),
                  f"kind must be one of {_KINDS}, got 'None'"),
    "kind-long": (lambda: run_sweep([], [("a", _RULE_COUNTS)], _LONG_RULE),
                  f"kind must be one of {_KINDS}, got '{'h' * 40}'… (60 characters)"),
    "k": (lambda: lhs_sample(SweepSpace(), 0, 0), "k must lie in [1, 120], got '0'"),
    "k-big": (lambda: lhs_sample(SweepSpace(), _BIG_RULE, 0),
              f"k must lie in [1, 120], got '1{'0' * 39}'… (46 characters)"),
    "lag-order": (lambda: fit_var(_RULE_COUNTS, 0), "lag order must be >= 1, got '0'"),
    "lag-order-big": (lambda: fit_var(_RULE_COUNTS, -_BIG_RULE),
                      f"lag order must be >= 1, got '-1{'0' * 38}'… (47 characters)"),
}


@pytest.mark.parametrize("site", list(_SETTING_REFUSALS))
def test_setting_refusal_names_the_first_broken_rule(site):
    refuse, message = _SETTING_REFUSALS[site]
    with pytest.raises(ValueError) as info:
        refuse()
    assert type(info.value) is ValueError
    assert str(info.value) == message


#: an integer setting -> (its name in refusals, a library call that gives it
#: ``v``, the value the refusal shows)
_INTEGER_SETTINGS = {
    "epochs": ("epochs", lambda v: TrainConfig(epochs=v), None),
    "batch-size": ("batch_size", lambda v: TrainConfig(batch_size=v), None),
    "patience": ("patience", lambda v: TrainConfig(patience=v), None),
    "window": ("window_h", lambda v: OfiParams(window_h=v), None),
    "var-lag": ("var_lag", lambda v: PipelineConfig(var_lag=v), None),
    # the fit that died with a bare TypeError on a float lag
    "var-lag-fit": ("var_lag", lambda v: fit_var_only(_RULE_COUNTS, PipelineConfig(var_lag=v)),
                    None),
    "fnn-lags": ("fnn_input_lags", lambda v: PipelineConfig(fnn_input_lags=v), None),
    "input-dim": ("input_dim", lambda v: FnnTopology(v, (4,), 1), None),
    "output-dim": ("output_dim", lambda v: FnnTopology(2, (4,), v), None),
    "widths": ("hidden layer widths", lambda v: FnnTopology(2, (4, v), 1), lambda v: (4, v)),
    "length": ("length", lambda v: generate_synthetic(SyntheticSpec(length=v, seed=1)), None),
    "lag-order": ("lag order", lambda v: fit_var(_RULE_COUNTS, v), None),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5], ids=["nan", "inf", "2.5"])
@pytest.mark.parametrize("site", list(_INTEGER_SETTINGS))
def test_integer_setting_refuses_a_non_integer_by_name(site, value):
    name, call, shown = _INTEGER_SETTINGS[site]
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    got = str(shown(value) if shown else value)
    assert str(info.value) == f"{name} must be an integer, got {got!r}"


def test_integer_settings_take_numpy_integers():
    three = np.int64(3)
    assert TrainConfig(epochs=three, batch_size=three, patience=three).epochs == 3
    assert OfiParams(window_h=three).window_h == 3
    assert PipelineConfig(var_lag=three, fnn_input_lags=three).residual_lags == 3
    assert FnnTopology(three, (three,), three).layer_dims == (3, 3, 3)
    series = generate_synthetic(SyntheticSpec(length=np.int64(50), seed=1))
    assert len(series) == 50
    assert fit_var(series.counts, three)[0].p == 3


def test_synthetic_spec_accepts_a_numpy_integer_seed():
    spec = SyntheticSpec(length=50, seed=np.int64(5))
    assert generate_synthetic(spec) == generate_synthetic(SyntheticSpec(length=50, seed=5))


def _straight_loop_synthetic(spec):
    """The generator as a straight loop over a preallocated array: the
    counts, how many intensities it floored at zero, and None or, for an
    intensity past numpy's Poisson limit, its row and the larger intensity
    of that row (the counts then stop before that row)."""
    rng = np.random.default_rng(spec.seed)
    z_prev = 0.0
    z_prev2 = 0.0
    counts = np.empty((spec.length, 2), dtype=np.int64)
    floored = 0
    for t in range(spec.length):
        drive = spec.linear_strength * z_prev + spec.nonlinear_strength * math.tanh(
            z_prev * z_prev2
        )
        lam_buy = max(spec.base_intensity * (1.0 + drive), 0.0)
        lam_sell = max(spec.base_intensity * (1.0 - drive), 0.0)
        floored += (lam_buy == 0.0) + (lam_sell == 0.0)
        try:
            buy = int(rng.poisson(lam_buy))
            sell = int(rng.poisson(lam_sell))
        except ValueError:
            return counts[:t], floored, (t, max(lam_buy, lam_sell))
        counts[t] = buy, sell
        z_prev2 = z_prev
        z_prev = (buy - sell) / (buy + sell + 1)
    return counts, floored, None


def _assert_matches_straight_loop(spec):
    want, floored, refused = _straight_loop_synthetic(spec)
    assert refused is None
    got = generate_synthetic(spec)
    assert got.t0 == 0
    assert got.counts.dtype == np.int64 and got.counts.flags.c_contiguous
    assert got.counts.shape == want.shape
    assert got.counts.tobytes() == want.tobytes()
    return floored


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize(
    "fields",
    [
        {},
        {"nonlinear_strength": 3.0},  # saturates: intensities floored at zero
        {"base_intensity": 20.0},  # lambda >= 10, numpy's other Poisson branch
        {"base_intensity": 0.5, "linear_strength": 0.9},
    ],
)
def test_generator_matches_straight_loop_bit_for_bit(seed, fields):
    floored = _assert_matches_straight_loop(SyntheticSpec(length=3000, seed=seed, **fields))
    if fields.get("nonlinear_strength") == 3.0:
        assert floored > 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**64),
    length=st.integers(MIN_SYNTHETIC_LENGTH, 600),
    base=st.floats(0.0, 30.0, exclude_min=True),
    linear=st.floats(0.0, 1.0, exclude_max=True),
    nonlinear=st.floats(0.0, 4.0),
)
def test_generator_matches_straight_loop_over_drawn_specs(seed, length, base, linear, nonlinear):
    spec = SyntheticSpec(
        length=length, seed=seed, base_intensity=base,
        linear_strength=linear, nonlinear_strength=nonlinear,
    )
    _assert_matches_straight_loop(spec)


@pytest.mark.parametrize("master", [1, 7])
def test_generator_matches_straight_loop_at_benchmark_size(master):
    # the 10^5-row series `synth --length 100000 --seed <master>` writes
    _assert_matches_straight_loop(SyntheticSpec(length=100_000, seed=derive_seed(master, 0)))


#: numpy's Poisson limit: a larger intensity raises "lam value too large"
POISSON_LIMIT = np.iinfo(np.int64).max - 10 * math.sqrt(np.iinfo(np.int64).max)


@pytest.mark.parametrize("seed, row", [(0, 20), (2, 5)])
def test_generator_names_the_row_a_later_intensity_passes_the_poisson_limit(seed, row):
    # row 0 draws at base_intensity, just under the limit; the drive then
    # pushes one side past it
    spec = SyntheticSpec(length=100, seed=seed, base_intensity=POISSON_LIMIT * (1 - 1e-10))
    _, _, (want_row, want_lam) = _straight_loop_synthetic(spec)
    assert want_row == row
    with pytest.raises(ValueError) as info:
        generate_synthetic(spec)
    assert str(info.value) == (
        f"row {want_row}: intensity {want_lam:g} is past numpy's Poisson limit; "
        f"lower base_intensity ({spec.base_intensity}), linear_strength (0.2) "
        "or nonlinear_strength (0.95)"
    )


def test_generator_default_regime_does_not_saturate():
    # the feedback term must not pin the imbalance at +-1 (one side starved)
    series = generate_synthetic(SyntheticSpec(length=5000, seed=3))
    arr = counts_to_array(series.counts)
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
    assert np.array_equal(np.concatenate([tr, ho]), series)


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
    assert np.array_equal(np.concatenate([tr, ho]), series)
    assert len(tr) == int(np.floor(frac * n + 1e-9))


def test_split_rejects_degenerate_fraction():
    series = make_counts([(1, 1)] * 4)
    with pytest.raises(ValueError):
        chronological_split(series, 0.0)
    with pytest.raises(ValueError):
        chronological_split(series, 1.0)
