import json
import math
import shutil
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from oficast.data_io import (
    SyntheticSpec,
    chronological_split,
    counts_to_array,
    generate_synthetic,
)
from oficast.hybrid import (
    KINDS,
    BundleFormatError,
    ModelBundle,
    PipelineConfig,
    Predictions,
    config_from_dict,
    config_to_dict,
    evaluate_on_holdout,
    fit_fnn_only,
    fit_hybrid,
    fit_var_only,
    hybrid_components,
    lag_features,
    load_bundle,
    predict,
    read_predictions_csv,
    required_warmup,
    save_bundle,
    write_json,
    write_predictions_csv,
    zero_residual_head,
)
from oficast import data_io
from oficast.neural_net import FnnTopology, TrainConfig, forward
from oficast.ofi_signal import OfiParams, clamp_ofi, ofi, signal, window_sums
from oficast.evaluation import r_squared

from conftest import make_counts, stable_var1_series, white_noise_counts


def quick_train(**kw):
    kw.setdefault("epochs", 5)
    kw.setdefault("seed", 0)
    return TrainConfig(**kw)


def synthetic(n=300, seed=0):
    return generate_synthetic(SyntheticSpec(length=n, seed=seed)).counts


# ------------------------------------------------------------------- warmup

def test_required_warmup_by_kind():
    series = synthetic(200)
    cfg = PipelineConfig(var_lag=3, fnn_input_lags=2, train=quick_train())
    assert required_warmup(fit_var_only(series, cfg)) == 3
    assert required_warmup(fit_fnn_only(series, cfg)) == 2
    assert required_warmup(fit_hybrid(series, cfg)) == 5


def test_required_warmup_window_dominates():
    series = synthetic(200)
    cfg = PipelineConfig(
        var_lag=1, fnn_input_lags=1, train=quick_train(), ofi=OfiParams(window_h=6)
    )
    bundle = fit_var_only(series, cfg)
    assert required_warmup(bundle) == 5


def test_prediction_count_is_length_minus_warmup():
    series = synthetic(250)
    for fitter in (fit_var_only, fit_fnn_only, fit_hybrid):
        cfg = PipelineConfig(var_lag=2, train=quick_train())
        bundle = fitter(series, cfg)
        records = predict(bundle, series)
        assert len(records) == 250 - required_warmup(bundle)
        assert records.index[0] == required_warmup(bundle)
        assert records.index[-1] == 249


def per_row_reference(bundle, series):
    """``predict`` built the way it once was: scalar ofi, clamp_ofi and
    signal once per row, one (index, actual, predicted, signals) tuple each."""
    arr = counts_to_array(series)
    cfg = bundle.config
    h, threshold = cfg.ofi.window_h, cfg.ofi.threshold
    warmup = required_warmup(bundle)
    sums = window_sums(arr, h)[warmup - h + 1 :]
    actual = [ofi(b, s) for b, s in sums]
    if bundle.kind == "fnn_only":
        out = forward(bundle.fnn_part, lag_features(arr, cfg.residual_lags, warmup))
        predicted = [clamp_ofi(v) for v in out[:, 0]]
    else:
        _, _, _, combined = hybrid_components(bundle, arr)
        tail = sums - arr[warmup:]
        predicted = [
            clamp_ofi(ofi(b, s))
            for b, s in zip(tail[:, 0] + combined[:, 0], tail[:, 1] + combined[:, 1])
        ]
    return [
        (t, float(a), float(pv), signal(a, threshold), signal(pv, threshold))
        for t, a, pv in zip(range(warmup, arr.shape[0]), actual, predicted)
    ]


@pytest.mark.parametrize("window_h", [1, 3])
@pytest.mark.parametrize("fitter", [fit_var_only, fit_fnn_only, fit_hybrid])
def test_predict_matches_per_row_reference_bit_for_bit(fitter, window_h):
    series = synthetic(300, seed=16)
    cfg = PipelineConfig(train=quick_train(), ofi=OfiParams(window_h=window_h))
    bundle = fitter(series, cfg)
    got = predict(bundle, series)
    index, actual, predicted, actual_sig, predicted_sig = zip(*per_row_reference(bundle, series))
    assert got.index.tolist() == list(index)
    assert got.actual_ofi.tobytes() == np.array(actual).tobytes()
    assert got.predicted_ofi.tobytes() == np.array(predicted).tobytes()
    assert all(g is w for g, w in zip(got.actual_signal, actual_sig))
    assert all(g is w for g, w in zip(got.predicted_signal, predicted_sig))
    assert len(set(predicted_sig)) > 1  # the comparison covers more than one signal


_BLOCK_CASES = [(fitter, h) for fitter in (fit_var_only, fit_fnn_only, fit_hybrid) for h in (1, 3)]


@pytest.fixture(scope="module")
def block_bundles():
    """A 400-row series and one bundle per (fitter, window_h), fitted on it."""
    series = synthetic(400, seed=17)
    return series, {
        (fitter, h): fitter(series, PipelineConfig(train=quick_train(), ofi=OfiParams(window_h=h)))
        for fitter, h in _BLOCK_CASES
    }


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(_BLOCK_CASES),
    block=st.sampled_from([1, 2, 7]),
    rows=st.integers(1, 40),
)
def test_predict_in_blocks_is_predict_of_each_block_context(block_bundles, case, block, rows):
    """With data_io.BLOCK_ROWS patched small, predict runs many blocks: its output
    is the concatenation of predict on each block's rows plus their warmup
    context, bit for bit, and matches one pass over all rows."""
    series, bundles = block_bundles
    bundle = bundles[case]
    warmup = required_warmup(bundle)
    arr = series[: warmup + rows]
    starts = range(warmup, len(arr), block)
    whole = predict(bundle, arr)
    with mock.patch.object(data_io, "BLOCK_ROWS", block):
        blocked = predict(bundle, arr)
        parts = [predict(bundle, arr[lo - warmup : lo + block]) for lo in starts]
    assert blocked.index.tolist() == [i + lo - warmup for p, lo in zip(parts, starts) for i in p.index]
    for name in ("actual_ofi", "predicted_ofi"):
        assert getattr(blocked, name).tobytes() == b"".join(getattr(p, name).tobytes() for p in parts)
    for name in ("actual_signal", "predicted_signal"):
        assert getattr(blocked, name).tolist() == [s for p in parts for s in getattr(p, name)]
    assert blocked.index.tolist() == whole.index.tolist()
    assert blocked.actual_ofi.tobytes() == whole.actual_ofi.tobytes()
    assert blocked.actual_signal.tolist() == whole.actual_signal.tolist()
    assert blocked.predicted_signal.tolist() == whole.predicted_signal.tolist()
    np.testing.assert_allclose(blocked.predicted_ofi, whole.predicted_ofi, rtol=0, atol=4e-16)


def test_predict_memory_is_the_output_and_one_block():
    """10^5 rows through a hybrid 4 -> (32, 16) -> 2: the five output
    columns take 3.8 MiB and one block's working set about 1.5 MiB.  Any
    stage held over the whole series goes past the limit: the VAR design
    matrix alone would be 3.8 MiB more, the lag features 3 MiB."""
    bundle = fit_hybrid(synthetic(400, seed=3), PipelineConfig(train=quick_train(epochs=1)))
    assert bundle.fnn_part.topology == FnnTopology(4, (32, 16), 2, "relu")
    series = np.random.default_rng(3).poisson(30, size=(100_000, 2)).astype(float)
    predict(bundle, series[:50])  # set-up done on the first call is not counted
    tracemalloc.start()
    try:
        predict(bundle, series)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# ----------------------------------------------------------- lag features

@pytest.mark.parametrize("q, first", [(1, 1), (2, 2), (3, 5), (4, 4), (2, 9)])
def test_lag_features_match_straight_loop(q, first):
    arr = np.random.default_rng(q * 10 + first).normal(size=(12, 2))
    want = []
    for t in range(first, arr.shape[0]):
        row = []
        for u in range(t - q, t):  # oldest pair first
            row.extend([arr[u, 0], arr[u, 1]])
        want.append(row)
    got = lag_features(arr, q, first)
    assert got.shape == (arr.shape[0] - first, 2 * q)
    assert got.tobytes() == np.array(want).tobytes()


# ------------------------------------------------------------ decomposition

def test_decomposition_identity_and_floor():
    series = synthetic(400, seed=2)
    cfg = PipelineConfig(train=quick_train(epochs=10))
    bundle = fit_hybrid(series, cfg)
    t_idx, var_pred, resid_pred, combined = hybrid_components(bundle, series)
    np.testing.assert_array_equal(combined, np.maximum(var_pred + resid_pred, 0.0))
    assert combined.min() >= 0.0
    assert np.abs(resid_pred).max() > 0  # the head actually contributes


def test_var_only_components_have_zero_residual_part():
    series = synthetic(300, seed=3)
    bundle = fit_var_only(series, PipelineConfig(train=quick_train()))
    _, var_pred, resid_pred, combined = hybrid_components(bundle, series)
    np.testing.assert_array_equal(resid_pred, 0.0)
    np.testing.assert_array_equal(combined, np.maximum(var_pred, 0.0))


def test_combination_arithmetic():
    # forecast (40, 60) plus residual (10, -10) nets out balanced
    combined = np.maximum(np.array([40.0, 60.0]) + np.array([10.0, -10.0]), 0.0)
    np.testing.assert_array_equal(combined, [50.0, 50.0])
    assert ofi(combined[0], combined[1]) == 0.0


def test_predicted_ofi_comes_from_combined_counts():
    series = synthetic(300, seed=4)
    cfg = PipelineConfig(train=quick_train())
    bundle = fit_hybrid(series, cfg)
    records = predict(bundle, series)
    _, _, _, combined = hybrid_components(bundle, series)
    np.testing.assert_allclose(
        records.predicted_ofi, ofi(combined[:, 0], combined[:, 1]), rtol=0, atol=1e-12
    )


def test_fnn_only_rejects_decomposition():
    series = synthetic(200)
    bundle = fit_fnn_only(series, PipelineConfig(train=quick_train()))
    with pytest.raises(ValueError):
        hybrid_components(bundle, series)


# ----------------------------------------------------------------- ablation

def test_zeroed_residual_head_reproduces_var_only_bit_for_bit():
    series = synthetic(500, seed=5)
    cfg = PipelineConfig(var_lag=2, train=quick_train(epochs=8))
    hybrid_bundle = fit_hybrid(series, cfg)
    ablated = zero_residual_head(hybrid_bundle)
    var_bundle = fit_var_only(series, cfg)
    recs_a = predict(ablated, series)
    recs_v = predict(var_bundle, series)
    # the hybrid warms up on p + q rows, so compare on the rows it evaluates
    v = recs_v.take(np.isin(recs_v.index, recs_a.index))
    assert len(recs_a)
    assert v.index.tolist() == recs_a.index.tolist()
    assert recs_a.predicted_ofi.tobytes() == v.predicted_ofi.tobytes()  # bitwise
    assert all(a is b for a, b in zip(recs_a.predicted_signal, v.predicted_signal))
    assert recs_a.actual_ofi.tobytes() == v.actual_ofi.tobytes()


def test_zero_residual_head_outputs_exactly_zero():
    from oficast.neural_net import forward

    series = synthetic(300, seed=6)
    bundle = fit_hybrid(series, PipelineConfig(train=quick_train()))
    zeroed = zero_residual_head(bundle)
    q = bundle.config.residual_lags
    x = np.random.default_rng(0).normal(size=(5, 2 * q))
    np.testing.assert_array_equal(forward(zeroed.fnn_part, x), 0.0)


def test_zero_residual_head_rejects_non_hybrid():
    series = synthetic(200)
    with pytest.raises(ValueError):
        zero_residual_head(fit_var_only(series, PipelineConfig(train=quick_train())))


# ----------------------------------------------------- noise-free pipelines

def test_var_only_exact_on_linear_system():
    _, _, arr = stable_var1_series(120)
    cfg = PipelineConfig(var_lag=1, train=quick_train())
    bundle = fit_var_only(arr, cfg)
    records = predict(bundle, arr)
    np.testing.assert_allclose(records.predicted_ofi, records.actual_ofi, rtol=0, atol=1e-6)
    assert all(p is a for p, a in zip(records.predicted_signal, records.actual_signal))


def test_var_only_no_structure_in_white_noise():
    series = white_noise_counts(1000, seed=17)
    train_s, holdout = chronological_split(series, 0.8)
    bundle = fit_var_only(train_s, PipelineConfig(var_lag=2, train=quick_train()))
    records = evaluate_on_holdout(bundle, train_s, holdout)
    assert r_squared(records.actual_ofi, records.predicted_ofi) <= 0.05


def test_hybrid_runs_on_synthetic_and_covers_every_index():
    series = synthetic(3000, seed=7)
    cfg = PipelineConfig(var_lag=2, train=quick_train())
    bundle = fit_hybrid(series, cfg)
    records = predict(bundle, series)
    warmup = required_warmup(bundle)
    assert records.index.tolist() == list(range(warmup, 3000))


# ------------------------------------------------------------ fnn-only path

def test_fnn_only_learns_alternating_lookup():
    rows = [(15, 5) if t % 2 == 0 else (5, 15) for t in range(240)]
    series = make_counts(rows)
    train_s, holdout = chronological_split(series, 0.8)
    cfg = PipelineConfig(
        var_lag=1, fnn_input_lags=1, hidden_layers=(8,),
        train=quick_train(epochs=60, learning_rate=0.01),
    )
    bundle = fit_fnn_only(train_s, cfg)
    records = evaluate_on_holdout(bundle, train_s, holdout)
    assert np.all(np.sign(records.predicted_ofi) == np.sign(records.actual_ofi))


def test_fnn_only_on_constant_series():
    series = make_counts([(30, 10)] * 120)
    cfg = PipelineConfig(train=quick_train(epochs=20))
    bundle = fit_fnn_only(series, cfg)
    records = predict(bundle, series)
    assert np.all(records.actual_ofi == 0.5)
    assert np.all(np.abs(records.predicted_ofi - 0.5) < 0.05)


def test_fnn_only_output_is_clamped():
    series = synthetic(200, seed=8)
    bundle = fit_fnn_only(series, PipelineConfig(train=quick_train()))
    predicted = predict(bundle, series).predicted_ofi
    assert np.all((-1.0 <= predicted) & (predicted <= 1.0))


def test_same_seed_reproduces_identical_records():
    series = synthetic(300, seed=9)
    cfg = PipelineConfig(train=quick_train(seed=42))
    r1 = predict(fit_hybrid(series, cfg), series)
    r2 = predict(fit_hybrid(series, cfg), series)
    assert r1 == r2


# ------------------------------------------------------------- window h > 1

def test_window_two_uses_trailing_actual_rows():
    series = synthetic(300, seed=10)
    cfg = PipelineConfig(
        var_lag=1, train=quick_train(), ofi=OfiParams(window_h=2)
    )
    bundle = fit_var_only(series, cfg)
    records = predict(bundle, series)
    arr = counts_to_array(series)
    _, _, _, combined = hybrid_components(bundle, series)
    for t, actual, predicted, row in zip(
        records.index, records.actual_ofi, records.predicted_ofi, combined
    ):
        win_buy = arr[t - 1, 0] + row[0]
        win_sell = arr[t - 1, 1] + row[1]
        expected = max(min(ofi(win_buy, win_sell), 1.0), -1.0)
        assert predicted == pytest.approx(expected, abs=1e-12)
        # actual side uses the true window
        assert actual == pytest.approx(
            ofi(arr[t - 1 : t + 1, 0].sum(), arr[t - 1 : t + 1, 1].sum()), abs=1e-12
        )


# ------------------------------------------------------------------ holdout

def test_holdout_records_are_reindexed_and_causal():
    series = synthetic(500, seed=11)
    train_s, holdout = chronological_split(series, 0.8)
    cfg = PipelineConfig(var_lag=2, train=quick_train())
    bundle = fit_hybrid(series=train_s, config=cfg)
    records = evaluate_on_holdout(bundle, train_s, holdout)
    assert len(records) == len(holdout)
    assert records.index.tolist() == list(range(len(holdout)))
    # first holdout row must match a manual context prediction
    warmup = required_warmup(bundle)
    context = np.concatenate([train_s[-warmup:], holdout])
    manual = predict(bundle, context)
    assert manual.predicted_ofi.tolist() == records.predicted_ofi.tolist()


def test_holdout_rejects_insufficient_train_context():
    series = synthetic(100, seed=12)
    cfg = PipelineConfig(var_lag=5, fnn_input_lags=5, train=quick_train())
    bundle = fit_hybrid(series, cfg)
    with pytest.raises(ValueError):
        evaluate_on_holdout(bundle, series[:3], series[3:])


# -------------------------------------------------------------- persistence

@pytest.mark.parametrize("fitter", [fit_var_only, fit_fnn_only, fit_hybrid])
def test_bundle_round_trip_preserves_predictions(tmp_path, fitter):
    series = synthetic(300, seed=13)
    cfg = PipelineConfig(var_lag=2, train=quick_train())
    bundle = fitter(series, cfg)
    save_bundle(bundle, tmp_path / "bundle")
    loaded = load_bundle(tmp_path / "bundle")
    assert loaded.kind == bundle.kind
    assert loaded.config == bundle.config
    r1 = predict(bundle, series)
    r2 = predict(loaded, series)
    assert r1 == r2


def test_save_over_another_kind_leaves_only_the_new_bundle(tmp_path):
    series = synthetic(200, seed=13)
    cfg = PipelineConfig(var_lag=2, train=quick_train())
    path = tmp_path / "bundle"
    save_bundle(fit_hybrid(series, cfg), path)
    (path / "notes.txt").write_text("kept\n")
    var_bundle = fit_var_only(series, cfg)
    save_bundle(var_bundle, path)
    assert sorted(p.name for p in path.iterdir()) == ["manifest.json", "notes.txt", "var.txt"]
    assert predict(load_bundle(path), series) == predict(var_bundle, series)


def test_interrupted_save_leaves_no_loadable_bundle(tmp_path, monkeypatch):
    import oficast.hybrid as hybrid_module

    series = synthetic(200, seed=13)
    cfg = PipelineConfig(var_lag=2, train=quick_train())
    path = tmp_path / "bundle"
    save_bundle(fit_var_only(series, cfg), path)

    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(hybrid_module, "save_fnn", fail)
    with pytest.raises(OSError):
        save_bundle(fit_hybrid(series, cfg), path)
    with pytest.raises(FileNotFoundError):  # the manifest is written last
        load_bundle(path)


def _tamper(tmp_path, mutate):
    import json

    series = synthetic(200, seed=14)
    bundle = fit_hybrid(series, PipelineConfig(var_lag=2, train=quick_train()))
    path = tmp_path / "bundle"
    save_bundle(bundle, path)
    manifest = json.loads((path / "manifest.json").read_text())
    manifest = mutate(manifest) or manifest  # edited in place, or replaced
    (path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(BundleFormatError) as exc:
        load_bundle(path)
    return exc.value


def test_tampered_var_lag_names_field(tmp_path):
    err = _tamper(tmp_path, lambda m: m["config"].update(var_lag=7))
    assert err.field == "var_lag"


def test_tampered_fnn_input_lags_names_field(tmp_path):
    err = _tamper(tmp_path, lambda m: m["config"].update(fnn_input_lags=3))
    assert err.field == "fnn_input_lags"
    assert str(err) == (
        "bundle field 'fnn_input_lags': expected input_dim '6', the FNN stage has '4'"
    )


def test_tampered_hidden_layers_names_field(tmp_path):
    err = _tamper(tmp_path, lambda m: m["config"].update(hidden_layers=[64, 64]))
    assert err.field == "hidden_layers"


def test_tampered_activation_names_field(tmp_path):
    err = _tamper(tmp_path, lambda m: m["config"].update(activation="tanh"))
    assert err.field == "activation"


def test_tampered_kind_names_field(tmp_path):
    err = _tamper(tmp_path, lambda m: m.update(kind="var_only"))
    assert err.field in ("kind", "fnn")  # a hybrid dir is inconsistent with var_only


def test_tampered_format_tag_names_field(tmp_path):
    err = _tamper(tmp_path, lambda m: m.update(format="something-else"))
    assert err.field == "format"


def test_bundle_without_a_stage_is_refused():
    with pytest.raises(ValueError, match="a bundle needs a VAR part, an FNN part or both"):
        ModelBundle(PipelineConfig())


@pytest.fixture(scope="module")
def fitted():
    """A bundle of each kind, by kind, fitted with var_lag 2 and the default
    network: hidden layers (32, 16), relu."""
    series, cfg = synthetic(200, seed=14), PipelineConfig(var_lag=2, train=quick_train())
    return {b.kind: b for b in (f(series, cfg) for f in (fit_var_only, fit_fnn_only, fit_hybrid))}


#: a bundle built by hand from fitted stages: (changes to the hybrid's
#: config, the kind whose VAR stage, the kind whose FNN stage) -> the field
#: named and the message after it
_UNSHAPED = {
    "var_lag": ({"var_lag": 3}, "hybrid", "hybrid", "var_lag",
                "expected p '3', the VAR stage has '2'"),
    "var_lag-alone": ({"var_lag": 3}, "var_only", None, "var_lag",
                      "expected p '3', the VAR stage has '2'"),
    "fnn_input_lags": ({"fnn_input_lags": 3}, "hybrid", "hybrid", "fnn_input_lags",
                       "expected input_dim '6', the FNN stage has '4'"),
    "hidden_layers": ({"hidden_layers": (8,)}, "hybrid", "hybrid", "hidden_layers",
                      "expected hidden_layers '(8,)', the FNN stage has '(32, 16)'"),
    "activation": ({"activation": "tanh"}, "hybrid", "hybrid", "activation",
                   "expected activation 'tanh', the FNN stage has 'relu'"),
    "one-output-beside-var": ({}, "hybrid", "fnn_only", "kind",
                              "expected output_dim '2', the FNN stage has '1'"),
    "two-outputs-alone": ({}, None, "hybrid", "kind",
                          "expected output_dim '1', the FNN stage has '2'"),
    "no-network": ({"activation": "softplus"}, "hybrid", "hybrid", "config",
                   "activation must be one of ('relu', 'tanh', 'sigmoid'), got 'softplus'"),
}


@pytest.mark.parametrize("case", list(_UNSHAPED))
def test_hand_built_bundle_unlike_its_config_names_the_field(fitted, case):
    change, var_from, fnn_from, field, message = _UNSHAPED[case]
    config = replace(fitted["hybrid"].config, **change)
    var_part = fitted[var_from].var_part if var_from else None
    fnn_part = fitted[fnn_from].fnn_part if fnn_from else None
    with pytest.raises(BundleFormatError) as exc:
        ModelBundle(config, var_part=var_part, fnn_part=fnn_part)
    assert exc.value.field == field
    assert str(exc.value) == f"bundle field {field!r}: {message}"


@pytest.mark.parametrize("kind", KINDS)
def test_fitted_loaded_and_zeroed_bundles_keep_the_shape_rule(tmp_path, kind):
    fitter = {"var_only": fit_var_only, "fnn_only": fit_fnn_only, "hybrid": fit_hybrid}[kind]
    config = PipelineConfig(var_lag=3, fnn_input_lags=1, hidden_layers=(8, 4),
                            activation="tanh", train=quick_train())
    bundle = fitter(synthetic(200, seed=15), config)
    save_bundle(bundle, tmp_path)
    loaded = load_bundle(tmp_path)
    assert loaded.kind == kind and loaded.config == config
    # built again from the stages of each: the same rule holds whatever built them
    for b in (bundle, loaded):
        assert ModelBundle(b.config, b.var_part, b.fnn_part).kind == kind
    if kind == "hybrid":
        for b in (bundle, loaded):
            assert zero_residual_head(b).fnn_part.topology == b.fnn_part.topology


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_refuses_a_non_finite_float_and_writes_nothing(tmp_path, value):
    path = tmp_path / "x.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, {"a": [1.0, value]})
    assert not path.exists()


@pytest.mark.parametrize(
    "fitter, kind, stage_files",
    [(fit_var_only, "var_only", ["var.txt"]),
     (fit_fnn_only, "fnn_only", ["fnn.txt"]),
     (fit_hybrid, "hybrid", ["fnn.txt", "var.txt"])],
)
def test_kind_is_the_stages_held_and_round_trips(tmp_path, fitter, kind, stage_files):
    bundle = fitter(synthetic(200, seed=13), PipelineConfig(var_lag=2, train=quick_train()))
    assert bundle.kind == kind
    save_bundle(bundle, tmp_path)
    assert sorted(p.name for p in tmp_path.glob("*.txt")) == stage_files
    assert json.loads((tmp_path / "manifest.json").read_text())["kind"] == kind
    assert load_bundle(tmp_path).kind == kind


def _saved(tmp_path, fitter, name="bundle"):
    path = tmp_path / name
    save_bundle(fitter(synthetic(200, seed=14), PipelineConfig(var_lag=2, train=quick_train())), path)
    return path


def _without(*stage_files):
    def make(tmp_path):
        path = _saved(tmp_path, fit_hybrid)
        for name in stage_files:
            (path / name).unlink()
        return path
    return make


def _with_stray(fitter, stage_file):
    def make(tmp_path):  # unparseable: the kind check comes before any parse
        path = _saved(tmp_path, fitter)
        (path / stage_file).write_text("not a stage file\n")
        return path
    return make


def _with_one_output_head(tmp_path):
    path = _saved(tmp_path, fit_hybrid)
    shutil.copy(_saved(tmp_path, fit_fnn_only, "fnn") / "fnn.txt", path / "fnn.txt")
    return path


@pytest.mark.parametrize(
    "make, message",
    [(_without("var.txt"), "manifest says hybrid, stage files present: fnn.txt"),
     (_without("var.txt", "fnn.txt"), "manifest says hybrid, stage files present: none"),
     (_with_stray(fit_var_only, "fnn.txt"),
      "manifest says var_only, stage files present: var.txt, fnn.txt"),
     (_with_stray(fit_fnn_only, "var.txt"),
      "manifest says fnn_only, stage files present: var.txt, fnn.txt"),
     (_with_one_output_head, "expected output_dim '2', the FNN stage has '1'")],
    ids=["hybrid-without-var", "hybrid-without-stages", "var_only-with-fnn",
         "fnn_only-with-var", "hybrid-with-one-output"],
)
def test_stage_files_unlike_the_manifest_kind_name_kind(tmp_path, make, message):
    path = make(tmp_path)
    with pytest.raises(BundleFormatError) as exc:
        load_bundle(path)
    assert exc.value.field == "kind"
    assert str(exc.value) == f"bundle field 'kind': {message}"


#: manifest config table (None: the top level) and a key in it
_CONFIG_KEYS = [(None, "var_lag"), (None, "fnn_input_lags"), ("train", "epochs"),
                ("train", "seed"), ("ofi", "threshold"), ("ofi", "window_h")]


def _config_table(manifest, table):
    return manifest["config"] if table is None else manifest["config"][table]


def _drop_key(manifest, table, key):
    del _config_table(manifest, table)[key]


@pytest.mark.parametrize("table, key", _CONFIG_KEYS)
def test_missing_config_key_is_named(tmp_path, table, key):
    err = _tamper(tmp_path, lambda m: _drop_key(m, table, key))
    assert err.field == "config"
    assert str(err).endswith(f"missing keyword argument {key!r}")


@pytest.mark.parametrize("table, key", _CONFIG_KEYS)
def test_unexpected_config_key_is_named(tmp_path, table, key):
    err = _tamper(tmp_path, lambda m: _config_table(m, table).update({key + "_x": 1}))
    assert err.field == "config"
    assert str(err).endswith(f"unexpected keyword argument {key + '_x'!r}")


def test_manifest_that_is_not_an_object_names_format(tmp_path):
    err = _tamper(tmp_path, lambda m: list(m))
    assert err.field == "format"


@pytest.mark.parametrize("stage_file", ["fnn.txt", "var.txt"])
def test_truncated_stage_file_names_file(tmp_path, stage_file):
    bundle = fit_hybrid(synthetic(200, seed=14), PipelineConfig(var_lag=2, train=quick_train()))
    save_bundle(bundle, tmp_path)
    path = tmp_path / stage_file
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:5]) + "\n")
    with pytest.raises(BundleFormatError, match="truncated") as exc:
        load_bundle(tmp_path)
    assert exc.value.field == stage_file
    assert str(path) in str(exc.value)


def test_config_dict_round_trip():
    cfg = PipelineConfig(
        var_lag=3,
        fnn_input_lags=4,
        hidden_layers=(64, 32, 16),
        activation="sigmoid",
        train=TrainConfig(epochs=9, optimizer="sgd", seed=5),
        ofi=OfiParams(window_h=2, threshold=0.2),
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_predictions_csv_round_trip(tmp_path):
    series = synthetic(200, seed=15)
    bundle = fit_hybrid(series, PipelineConfig(train=quick_train()))
    records = predict(bundle, series)
    path = tmp_path / "preds.csv"
    write_predictions_csv(records, path)
    assert read_predictions_csv(path) == records
    header = path.read_text().splitlines()[0]
    assert header == "index,actual_ofi,predicted_ofi,actual_signal,predicted_signal"


ofi_values = st.floats(-1.0, 1.0, allow_nan=False)


@given(values=st.lists(ofi_values, max_size=30))
@example(values=[-0.0, 5e-324, -5e-324, 0.0, 1.0, -1.0, 0.1, 1 / 3])
@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_predictions_csv_round_trip_keeps_every_bit(tmp_path, values):
    actual = np.array(values, dtype=float)
    predicted = actual[::-1].copy()
    records = Predictions(
        index=np.arange(len(values)) * 7,
        actual_ofi=actual,
        predicted_ofi=predicted,
        actual_signal=signal(actual),
        predicted_signal=signal(predicted),
    )
    path = tmp_path / "preds.csv"
    write_predictions_csv(records, path)
    back = read_predictions_csv(path)
    assert back.index.tolist() == records.index.tolist()
    assert back.actual_ofi.tobytes() == actual.tobytes()
    assert back.predicted_ofi.tobytes() == predicted.tobytes()
    assert all(a is b for a, b in zip(back.actual_signal, records.actual_signal))
    assert all(a is b for a, b in zip(back.predicted_signal, records.predicted_signal))
    assert len(back) == len(values)
