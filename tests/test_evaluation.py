import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oficast.evaluation import (
    COMPARISON_HEADER,
    EvalReport,
    SIGNAL_ORDER,
    confusion_matrix,
    evaluate_records,
    intensity_metrics,
    mae,
    mse,
    r_squared,
    render_comparison,
    write_comparison_csv,
    write_confusion_csv,
)
from oficast.hybrid import Predictions
from oficast.ofi_signal import Signal, signal

B, S, H = Signal.BUY, Signal.SELL, Signal.HOLD


# ----------------------------------------------------------- scalar metrics

def test_mse_examples():
    assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_mae_examples():
    assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0


def test_metrics_double_entry_accumulation():
    rng = np.random.default_rng(0)
    a = rng.normal(size=100)
    p = rng.normal(size=100)
    # independent elementwise accumulation
    se = ae = 0.0
    for x, y in zip(a, p):
        se += (x - y) ** 2
        ae += abs(x - y)
    assert mse(a, p) == pytest.approx(se / 100, abs=1e-12)
    assert mae(a, p) == pytest.approx(ae / 100, abs=1e-12)


@given(
    st.lists(
        st.tuples(
            st.floats(-10, 10, allow_nan=False), st.floats(-10, 10, allow_nan=False)
        ),
        min_size=1,
        max_size=50,
    )
)
@settings(max_examples=60)
def test_mae_bounded_by_rmse(pairs):
    a = [x for x, _ in pairs]
    p = [y for _, y in pairs]
    assert mae(a, p) <= np.sqrt(mse(a, p)) + 1e-12


def test_metrics_reject_mismatch_and_empty():
    for fn in (mse, mae, r_squared):
        with pytest.raises(ValueError):
            fn([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            fn([], [])


def test_r_squared_perfect_and_mean_predictor():
    a = [1.0, 2.0, 3.0, 4.0]
    assert r_squared(a, a) == pytest.approx(1.0, abs=1e-12)
    assert r_squared(a, [2.5] * 4) == pytest.approx(0.0, abs=1e-12)


def test_r_squared_anticorrelated_is_negative():
    a = [1.0, 2.0, 3.0, 4.0]
    assert r_squared(a, [4.0, 3.0, 2.0, 1.0]) < 0.0


def test_r_squared_undefined_for_constant_actual():
    with pytest.raises(ValueError, match="zero variance"):
        r_squared([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


# ----------------------------------------------------------- signal metrics

def test_accuracy_two_of_three():
    acc, _, _ = intensity_metrics([B, S, H], [B, S, S])
    assert acc == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_perfect_prediction():
    acc, prec, conf = intensity_metrics([B, S, H, B], [B, S, H, B])
    assert acc == 1.0 and prec == 1.0
    assert np.trace(conf) == 4


def test_macro_precision_hand_count():
    # predicted BUY once (right), predicted SELL three times (two right)
    acc, prec, _ = intensity_metrics([B, B, S, S], [B, S, S, S])
    assert acc == 0.75
    assert prec == pytest.approx(5.0 / 6.0, abs=1e-12)  # (1/1 + 2/3) / 2
    # precision BUY = 1, SELL = 1/3: unweighted by the classes' actual support
    _, prec, _ = intensity_metrics([B, B, B, S], [B, S, S, S])
    assert prec == pytest.approx((1.0 + 1.0 / 3.0) / 2.0, abs=1e-12)


def test_confusion_matrix_layout():
    conf = confusion_matrix([B, S, H], [B, S, S])
    assert SIGNAL_ORDER == (B, S, H)
    expected = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0]])
    np.testing.assert_array_equal(conf, expected)  # rows actual, cols predicted


def test_confusion_matrix_takes_strings_and_signal_arrays():
    want = confusion_matrix([B, S, H, H], [B, S, S, B])
    got = confusion_matrix(["BUY", "SELL", "HOLD", "HOLD"], np.array([B, S, S, B], dtype=object))
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype


def test_confusion_matrix_rejects_unknown_signal():
    with pytest.raises(ValueError, match="'FOO' is not a valid Signal"):
        confusion_matrix([B, "FOO"], [B, S])


def test_confusion_matrix_totals():
    rng = np.random.default_rng(2)
    sigs = list(Signal)
    a = [sigs[i] for i in rng.integers(0, 3, size=50)]
    p = [sigs[i] for i in rng.integers(0, 3, size=50)]
    conf = confusion_matrix(a, p)
    assert conf.sum() == 50
    for i, sig in enumerate(SIGNAL_ORDER):
        assert conf[i].sum() == a.count(sig)
        assert conf[:, i].sum() == p.count(sig)


# ------------------------------------------------------------------ reports

def _records(values):
    pairs = np.array(values, dtype=float).reshape(-1, 2)
    a, p = pairs[:, 0], pairs[:, 1]
    return Predictions(
        index=np.arange(len(pairs)),
        actual_ofi=a,
        predicted_ofi=p,
        actual_signal=signal(a, 0.1),
        predicted_signal=signal(p, 0.1),
    )


def test_evaluate_records_fields():
    records = _records([(0.5, 0.4), (-0.3, -0.2), (0.0, 0.05), (0.2, -0.2)])
    report = evaluate_records(records, "synthetic", "hybrid")
    assert report.dataset == "synthetic" and report.model == "hybrid"
    actual = [0.5, -0.3, 0.0, 0.2]
    predicted = [0.4, -0.2, 0.05, -0.2]
    assert report.mse == pytest.approx(mse(actual, predicted), abs=1e-15)
    assert report.mae == pytest.approx(mae(actual, predicted), abs=1e-15)
    assert report.r2 == pytest.approx(r_squared(actual, predicted), abs=1e-15)
    assert 0.0 <= report.accuracy <= 1.0
    assert np.asarray(report.confusion).sum() == 4


def test_evaluate_records_requires_records():
    with pytest.raises(ValueError):
        evaluate_records(_records([]), "d", "m")


def _sample_reports():
    records = _records([(0.5, 0.4), (-0.3, -0.2), (0.0, 0.05), (0.2, -0.2)])
    return [
        evaluate_records(records, "btc", model) for model in ("var", "fnn", "hybrid")
    ]


def test_render_single_report_one_row():
    reports = _sample_reports()[:1]
    text = render_comparison(reports)
    body = [ln for ln in text.splitlines() if ln and not ln.startswith(("dataset", "-"))]
    assert len(body) == 1
    assert "var" in body[0]


def test_render_groups_models_per_dataset():
    text = render_comparison(_sample_reports())
    lines = text.splitlines()
    assert sum("btc" in ln for ln in lines) == 3
    for model in ("var", "fnn", "hybrid"):
        assert any(model in ln for ln in lines)
    # three-decimal numeric formatting and percentage columns
    assert any("%" in ln for ln in lines)


def test_comparison_csv_round_trip_matches_rendered_values(tmp_path):
    reports = _sample_reports()
    path = tmp_path / "cmp.csv"
    write_comparison_csv(reports, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    text = render_comparison(reports)
    reports = sorted(reports, key=lambda r: (r.dataset, r.model))  # CSV row order
    for row, rep in zip(rows, reports):
        assert row["dataset"] == rep.dataset and row["model"] == rep.model
        assert float(row["mse"]) == rep.mse  # full precision survives the CSV
        assert f"{rep.mse:.3f}" in text
        assert float(row["accuracy"]) == rep.accuracy


def test_comparison_csv_header(tmp_path):
    path = tmp_path / "cmp.csv"
    write_comparison_csv(_sample_reports(), path)
    assert path.read_text().splitlines()[0] == ",".join(COMPARISON_HEADER)
    assert ",".join(COMPARISON_HEADER) == "dataset,model,mse,mae,r2,accuracy,precision"


def test_confusion_csv_layout(tmp_path):
    conf = confusion_matrix([B, S, H], [B, S, S])
    path = tmp_path / "conf.csv"
    write_confusion_csv(conf, path)
    lines = path.read_text().splitlines()
    assert lines[0].split(",")[0] == "actual\\predicted"
    assert lines[0].split(",")[1:] == ["BUY", "SELL", "HOLD"]
    assert lines[1] == "BUY,1,0,0"
    assert lines[3] == "HOLD,0,1,0"
