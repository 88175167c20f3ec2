import argparse
import csv
import dataclasses
import errno
import json
import math
import os
import shutil
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oficast import cli
from oficast.cli import DEFAULTS, build_parser, derive_seed, main
from oficast.hybrid import Predictions, write_predictions_csv
from oficast.ofi_signal import SIGNAL_ORDER

pytestmark = pytest.mark.usefixtures("capsys")


def run(argv):
    return main([str(a) for a in argv])


def synth(tmp_path, name="counts.csv", length=200, seed=0, extra=()):
    path = tmp_path / name
    code = run(["synth", "--out", path, "--length", length, "--seed", seed, *extra])
    assert code == 0
    return path


# -------------------------------------------------------------------- seeds

def test_derive_seed_double_entry():
    expected = int(
        np.random.SeedSequence([11, 1]).generate_state(1, np.uint64)[0]
    )
    assert derive_seed(11, 1) == expected


def test_derive_seed_streams_differ():
    assert derive_seed(0, 0) != derive_seed(0, 1)
    assert derive_seed(0, 0) != derive_seed(1, 0)


def test_negative_master_is_masked_to_64_bits():
    assert derive_seed(-1, 0) == derive_seed((1 << 64) - 1, 0)


# -------------------------------------------------------------------- synth

def test_synth_writes_counts_and_sidecar(tmp_path):
    path = synth(tmp_path, length=150, seed=7)
    lines = path.read_text().splitlines()
    assert lines[0] == "timestamp,buy_orders,sell_orders"
    assert len(lines) == 151
    side = json.loads((tmp_path / "counts.csv.config.json").read_text())
    assert side["length"] == 150
    assert side["seed"] == 7
    assert side["base_intensity"] == DEFAULTS["base_intensity"]
    assert side["generator_seed"] == derive_seed(7, 0)


def test_synth_rerun_is_byte_identical(tmp_path):
    a = synth(tmp_path, "a.csv", length=300, seed=3)
    b = synth(tmp_path, "b.csv", length=300, seed=3)
    assert a.read_bytes() == b.read_bytes()
    c = synth(tmp_path, "c.csv", length=300, seed=4)
    assert a.read_bytes() != c.read_bytes()


def test_synth_rejects_degenerate_length(tmp_path, capsys):
    out = tmp_path / "bad.csv"
    assert run(["synth", "--out", out, "--length", 1]) == 1
    assert not out.exists()
    assert "length" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, value, named",
    [
        ("base_intensity", "nan", ["base_intensity must be finite"]),
        ("base_intensity", "inf", ["base_intensity must be finite"]),
        ("nonlinear_strength", "inf", ["nonlinear_strength must be finite"]),
        ("nonlinear_strength", "nan", ["nonlinear_strength must be finite"]),
        # finite, but an intensity past numpy's Poisson limit
        ("base_intensity", "1e19", ["Poisson limit", "base_intensity (1e+19)"]),
        ("nonlinear_strength", "1e300", ["Poisson limit", "nonlinear_strength (1e+300)"]),
    ],
)
def test_synth_names_the_setting_of_a_bad_intensity(tmp_path, capsys, setting, value, named):
    out = tmp_path / "bad.csv"
    assert run(["synth", "--out", out, f"--{setting.replace('_', '-')}", value]) == 1
    assert not out.exists()
    assert not (tmp_path / "bad.csv.config.json").exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    for text in named:
        assert text in err


# ---------------------------------------------------------------------- fit

def test_fit_hybrid_writes_bundle_and_run_config(tmp_path):
    data = synth(tmp_path, length=200, seed=1)
    out = tmp_path / "bundle"
    code = run(["fit", "--data", data, "--out", out,
                "--epochs", 3, "--seed", 5])
    assert code == 0
    for name in ("manifest.json", "var.txt", "fnn.txt", "trace.csv",
                 "run_config.json"):
        assert (out / name).exists()
    cfg = json.loads((out / "run_config.json").read_text())
    assert cfg["kind"] == "hybrid"
    assert cfg["epochs"] == 3          # flag
    assert cfg["lag"] == 2             # default
    assert cfg["hidden"] == "32,16"    # default
    assert cfg["train_rows"] == 160    # 0.8 of 200


def test_fit_lag_too_large_for_series(tmp_path, capsys):
    data = tmp_path / "short.csv"
    rows = "\n".join(f"{t},10,9" for t in range(15))
    data.write_text("timestamp,buy_orders,sell_orders\n" + rows + "\n")
    out = tmp_path / "bundle"
    code = run(["fit", "--data", data, "--out", out, "--model", "var",
                "--lag", 10])
    assert code == 1
    assert "series too short" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_refit_same_seed_is_bit_identical(tmp_path):
    data = synth(tmp_path, length=200, seed=2)
    out1, out2 = tmp_path / "b1", tmp_path / "b2"
    for out in (out1, out2):
        assert run(["fit", "--data", data, "--out", out,
                    "--epochs", 3, "--seed", 9]) == 0
    for name in ("manifest.json", "var.txt", "fnn.txt", "trace.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fit_var_only_skips_fnn_artifacts(tmp_path):
    data = synth(tmp_path, length=120, seed=1)
    out = tmp_path / "varb"
    assert run(["fit", "--data", data, "--out", out, "--model", "var"]) == 0
    assert (out / "var.txt").exists()
    assert not (out / "fnn.txt").exists()
    assert not (out / "trace.csv").exists()


def test_fit_train_fraction_of_one_trains_on_all_rows(tmp_path):
    data = synth(tmp_path, length=120, seed=1)
    out = tmp_path / "bundle"
    assert run(["fit", "--data", data, "--out", out, "--model", "var",
                "--train-fraction", "1.0"]) == 0
    cfg = json.loads((out / "run_config.json").read_text())
    assert (cfg["train_fraction"], cfg["train_rows"]) == (1.0, 120)


@pytest.mark.parametrize("value", ["1.5", "0", "-0.2", "nan", "inf"])
def test_fit_refuses_a_train_fraction_outside_zero_one(tmp_path, capsys, value):
    data = synth(tmp_path, length=120, seed=1)
    out = tmp_path / "bundle"
    capsys.readouterr()
    assert run(["fit", "--data", data, "--out", out, "--model", "var",
                "--train-fraction", value]) == 1
    assert capsys.readouterr().err == (
        f"error: train_fraction must lie in (0, 1], got '{float(value)}'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["fit", "sweep"])
def test_non_finite_learning_rate_is_refused_by_name(tmp_path, capsys, command, value):
    data = synth(tmp_path, "d.csv", length=150, seed=1)
    if command == "fit":
        argv = ["fit", "--data", data, "--hidden", "4"]
    else:
        argv = ["sweep", "--datasets", data, "--lags", "1", "--architectures", "4"]
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "out", "--epochs", 1,
                f"--learning-rate={value}"]) == 1
    assert capsys.readouterr().err == (
        f"error: learning_rate must be finite, got '{float(value)}'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.config.json"]


#: early stopping off and a validation fraction outside (0, 1): flags, or
#: a config file's text
_FRACTION_UNCHECKED = {
    "flag-nan": ["--no-early-stopping", "--validation-fraction", "nan"],
    "flag-inf": ["--no-early-stopping", "--validation-fraction", "inf"],
    "flag-5": ["--no-early-stopping", "--validation-fraction", "5"],
    "config-NaN": '{"early_stopping": false, "validation_fraction": NaN}',
}


@pytest.mark.parametrize("how", list(_FRACTION_UNCHECKED))
@pytest.mark.parametrize("command", ["fit", "sweep"])
def test_validation_fraction_outside_0_1_is_refused_with_early_stopping_off(
    tmp_path, capsys, command, how
):
    data = synth(tmp_path, "d.csv", length=150, seed=1)
    if command == "fit":
        argv = ["fit", "--data", data, "--hidden", "4"]
    else:
        argv = ["sweep", "--datasets", data, "--lags", "1", "--architectures", "4"]
    extra = _FRACTION_UNCHECKED[how]
    if isinstance(extra, str):
        (tmp_path / "cfg.json").write_text(extra)
        extra = ["--config", tmp_path / "cfg.json"]
    capsys.readouterr()
    assert run([*argv, "--out", tmp_path / "out", "--epochs", 1, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: validation_fraction must lie in (0, 1), got ")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("out*"))


# ------------------------------------------------------------------ predict

def fit_small(tmp_path, data, name="bundle", extra=()):
    out = tmp_path / name
    assert run(["fit", "--data", data, "--out", out,
                "--epochs", 3, "--seed", 5, *extra]) == 0
    return out


def test_fit_past_the_address_space_exits_1_with_one_error_line(tmp_path, capsys):
    """28.4 PiB of first-layer weights is past the 128 TiB x86-64 address
    space, so numpy refuses the allocation whatever the overcommit setting."""
    data = synth(tmp_path, length=150, seed=1)
    out = tmp_path / "m"
    capsys.readouterr()
    assert run(["fit", "--data", data, "--out", out, "--hidden", 10**15]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    assert not out.exists()


def test_fit_that_diverges_exits_1_without_bundle(tmp_path, capsys):
    data = synth(tmp_path, length=200, seed=1)
    out = tmp_path / "bundle"
    with np.errstate(all="ignore"):
        code = run(["fit", "--data", data, "--out", out, "--epochs", 3,
                    "--optimizer", "sgd", "--learning-rate", 50])
    assert code == 1
    assert "diverged at epoch" in capsys.readouterr().err
    assert not out.exists()


def test_predict_writes_csv_and_reruns_identically(tmp_path):
    data = synth(tmp_path, length=200, seed=1)
    bundle = fit_small(tmp_path, data)
    p1, p2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
    for p in (p1, p2):
        assert run(["predict", "--bundle", bundle, "--data", data,
                    "--out", p]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    side = json.loads((tmp_path / "p1.csv.config.json").read_text())
    with open(p1) as fh:
        n_rows = sum(1 for _ in fh) - 1
    assert side["rows"] == n_rows


def test_predict_eval_start_trims_prefix(tmp_path):
    data = synth(tmp_path, length=200, seed=1)
    bundle = fit_small(tmp_path, data)
    full, tail = tmp_path / "full.csv", tmp_path / "tail.csv"
    assert run(["predict", "--bundle", bundle, "--data", data,
                "--out", full]) == 0
    assert run(["predict", "--bundle", bundle, "--data", data,
                "--out", tail, "--eval-start", 0.8]) == 0
    with open(full) as fh:
        all_rows = list(csv.DictReader(fh))
    with open(tail) as fh:
        tail_rows = list(csv.DictReader(fh))
    kept = [r for r in all_rows if int(r["index"]) >= 160]
    assert tail_rows == kept
    assert 0 < len(tail_rows) < len(all_rows)


@pytest.fixture(scope="module")
def one_block_run(tmp_path_factory):
    """A 600-row series (one forward block), a bundle fitted on it, and the
    CSV rows of a full predict."""
    tmp_path = tmp_path_factory.mktemp("one_block")
    data = synth(tmp_path, length=600, seed=2)
    bundle = fit_small(tmp_path, data, extra=["--window", 2])
    full = tmp_path / "full.csv"
    assert run(["predict", "--bundle", bundle, "--data", data, "--out", full]) == 0
    with open(full) as fh:
        return tmp_path, data, bundle, list(csv.reader(fh))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(start=st.one_of(st.sampled_from([0.0, 0.001, 0.5, 0.998]), st.floats(0.0, 1.0, exclude_max=True)))
def test_predict_eval_start_writes_the_tail_of_a_full_predict(one_block_run, start):
    tmp_path, data, bundle, (header, *full_rows) = one_block_run
    tail = tmp_path / "tail.csv"
    kept = math.floor(start * 600 + 1e-9)  # the first row fit --train-fraction start holds out
    code = run(["predict", "--bundle", bundle, "--data", data,
                "--out", tail, "--eval-start", start])
    assert code == (1 if kept == 600 else 0)  # a fraction this close to 1 keeps no row
    if code:
        return
    with open(tail) as fh:
        tail_header, *tail_rows = csv.reader(fh)
    assert tail_header == header
    assert tail_rows == [r for r in full_rows if int(r[0]) >= kept]


@pytest.mark.parametrize("fraction", [0.29, 0.57, 0.58])
def test_predict_eval_start_starts_where_fit_train_fraction_stops(tmp_path, fraction):
    data = synth(tmp_path, length=100, seed=1)
    bundle = tmp_path / "bundle"
    assert run(["fit", "--data", data, "--out", bundle, "--model", "var",
                "--train-fraction", fraction]) == 0
    train_rows = json.loads((bundle / "run_config.json").read_text())["train_rows"]
    out = tmp_path / "p.csv"
    assert run(["predict", "--bundle", bundle, "--data", data, "--out", out,
                "--eval-start", fraction]) == 0
    with open(out) as fh:
        assert int(next(csv.DictReader(fh))["index"]) == train_rows


_SHORT = "series supplies 4 rows but the pipeline needs more than 4"


@pytest.mark.parametrize(
    "rows, start, message",
    [(4, 1.5, _SHORT), (4, -0.1, _SHORT), (4, 0.5, _SHORT),
     (200, 1.0, "eval-start must lie in [0, 1), got '1.0'"),
     (200, 0.9999999999999999,
      "eval-start=0.9999999999999999 leaves no rows to predict for n=200")],
)
def test_predict_names_a_short_series_before_a_bad_eval_start(
    tmp_path, capsys, rows, start, message
):
    data = synth(tmp_path, length=200, seed=1)
    bundle = fit_small(tmp_path, data)  # hybrid, lags 2 and 2: warmup 4
    head = tmp_path / "head.csv"
    head.write_text("".join(data.read_text().splitlines(keepends=True)[: rows + 1]))
    out = tmp_path / "p.csv"
    code = run(["predict", "--bundle", bundle, "--data", head, "--out", out,
                "--eval-start", start])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_predict_tampered_bundle_names_field(tmp_path, capsys):
    data = synth(tmp_path, length=200, seed=1)
    bundle = fit_small(tmp_path, data)
    manifest = json.loads((bundle / "manifest.json").read_text())
    manifest["config"]["activation"] = "tanh"
    (bundle / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "p.csv"
    code = run(["predict", "--bundle", bundle, "--data", data, "--out", out])
    assert code == 1
    assert "activation" in capsys.readouterr().err
    assert not out.exists()


def _one_output_head(bundle):
    other = fit_small(bundle.parent, bundle.parent / "d.csv", "fnn-only",
                      extra=["--model", "fnn", "--hidden", "4"])
    shutil.copy(other / "fnn.txt", bundle / "fnn.txt")


#: a hybrid bundle (var_lag 2, hidden 4, relu) made unlike its config -> the
#: field named and the message after it
_UNSHAPED_BUNDLE = {
    "var_lag": (lambda b: _set_config(b / "manifest.json", lambda c: c.update(var_lag=3)),
                "var_lag", "expected p '3', the VAR stage has '2'"),
    "fnn_input_lags": (
        lambda b: _set_config(b / "manifest.json", lambda c: c.update(fnn_input_lags=3)),
        "fnn_input_lags", "expected input_dim '6', the FNN stage has '4'"),
    "hidden_layers": (
        lambda b: _set_config(b / "manifest.json", lambda c: c.update(hidden_layers=[4, 4])),
        "hidden_layers", "expected hidden_layers '(4, 4)', the FNN stage has '(4,)'"),
    "activation": (
        lambda b: _set_config(b / "manifest.json", lambda c: c.update(activation="tanh")),
        "activation", "expected activation 'tanh', the FNN stage has 'relu'"),
    "one-output-head": (_one_output_head, "kind",
                        "expected output_dim '2', the FNN stage has '1'"),
}


@pytest.mark.parametrize("case", list(_UNSHAPED_BUNDLE))
def test_predict_bundle_unlike_its_config_names_the_field(tmp_path, capsys, case):
    data = synth(tmp_path, "d.csv", length=200, seed=1)
    bundle = fit_small(tmp_path, data, extra=["--hidden", "4"])
    damage, field, message = _UNSHAPED_BUNDLE[case]
    damage(bundle)
    out = tmp_path / "p.csv"
    capsys.readouterr()
    assert run(["predict", "--bundle", bundle, "--data", data, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: bundle field {field!r}: {message}\n"
    assert not out.exists()


def test_predict_on_truncated_fnn_file_exits_1(tmp_path, capsys):
    data = synth(tmp_path, length=200, seed=1)
    bundle = fit_small(tmp_path, data)
    fnn = bundle / "fnn.txt"
    fnn.write_text("".join(fnn.read_text().splitlines(keepends=True)[:9]))
    out = tmp_path / "p.csv"
    assert run(["predict", "--bundle", bundle, "--data", data, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "fnn.txt" in err and "line 10" in err
    assert not out.exists()


@pytest.mark.parametrize("first, second", permutations(("hybrid", "var", "fnn"), 2))
def test_refit_of_another_model_into_same_dir_predicts(tmp_path, first, second):
    data = synth(tmp_path, length=200, seed=1)
    out, fresh = tmp_path / "bundle", tmp_path / "fresh"
    out.mkdir()
    (out / "notes.txt").write_text("kept\n")
    for model in (first, second):
        assert run(["fit", "--data", data, "--out", out, "--model", model,
                    "--epochs", 3, "--seed", 5]) == 0
    assert run(["fit", "--data", data, "--out", fresh, "--model", second,
                "--epochs", 3, "--seed", 5]) == 0
    assert (out / "notes.txt").read_text() == "kept\n"
    fresh_names = sorted(p.name for p in fresh.iterdir())
    assert sorted(p.name for p in out.iterdir()) == sorted(fresh_names + ["notes.txt"])
    for name in fresh_names:
        if name != "run_config.json":  # records the output path
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
    pred = tmp_path / "p.csv"
    assert run(["predict", "--bundle", out, "--data", data, "--out", pred]) == 0


# ----------------------------------------------------------------- evaluate

def _fake_predictions(path, shift=0, n=6):
    i = np.arange(n)
    sigs = np.array(SIGNAL_ORDER, dtype=object)
    records = Predictions(
        index=i,
        actual_ofi=0.3 - 0.1 * i,
        predicted_ofi=0.25 - 0.1 * i,
        actual_signal=sigs[i % 3],
        predicted_signal=sigs[(i + shift) % 3],
    )
    write_predictions_csv(records, path)


def test_evaluate_grouped_block_and_outputs(tmp_path, capsys):
    paths = []
    for i, model in enumerate(("var", "fnn", "hybrid")):
        p = tmp_path / f"{model}.csv"
        _fake_predictions(p, shift=i % 2)
        paths.append(p)
    out = tmp_path / "compare.csv"
    code = run(["evaluate", *paths, "--out", out,
                "--labels", "synthetic/var", "synthetic/fnn", "synthetic/hybrid"])
    assert code == 0
    table = capsys.readouterr().out
    assert table.count("synthetic") == 3  # one labelled row per model
    for model in ("var", "fnn", "hybrid"):
        assert model in table
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    conf = sorted(tmp_path.glob("compare.confusion.*.csv"))
    assert len(conf) == 3


def test_evaluate_defaults_label_from_filename(tmp_path, capsys):
    p = tmp_path / "runA.csv"
    _fake_predictions(p)
    out = tmp_path / "cmp.csv"
    assert run(["evaluate", p, "--out", out]) == 0
    assert "runA" in capsys.readouterr().out
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["dataset"] == "runA"


def test_evaluate_empty_predictions_fails(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    _fake_predictions(p, n=0)
    out = tmp_path / "cmp.csv"
    assert run(["evaluate", p, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_evaluate_header_only_predictions_names_the_file(tmp_path, capsys):
    p = tmp_path / "empty.csv"
    _fake_predictions(p, n=0)
    out = tmp_path / "cmp.csv"
    assert run(["evaluate", p, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {p}: empty inputs\n"
    assert captured.out == ""
    assert sorted(tmp_path.glob("cmp*")) == []


def test_evaluate_constant_actual_ofi_names_the_file(tmp_path, capsys):
    p = tmp_path / "flat.csv"
    sigs = np.array(SIGNAL_ORDER, dtype=object)
    write_predictions_csv(
        Predictions(np.arange(4), np.full(4, 0.2), np.linspace(-0.5, 0.5, 4),
                    sigs[[0, 0, 0, 0]], sigs[[0, 1, 2, 0]]),
        p,
    )
    out = tmp_path / "cmp.csv"
    assert run(["evaluate", p, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: {p}: R^2 is undefined: actual values have zero variance\n"
    )
    assert captured.out == ""
    assert sorted(tmp_path.glob("cmp*")) == []


@pytest.mark.parametrize(
    "bad_row, complaint",
    [
        ("3,0.1,0.2", "expected 5 fields, got 3"),
        ("x3,0.1,0.2,BUY,BUY", "column index: expected an integer, got 'x3'"),
        ("3,abc,0.2,BUY,BUY", "column actual_ofi: expected a number in [-1, 1], got 'abc'"),
        ("3,0.1,nan,BUY,BUY", "column predicted_ofi: expected a number in [-1, 1], got 'nan'"),
        ("3,0.1,1e308,BUY,BUY", "column predicted_ofi: expected a number in [-1, 1], got '1e308'"),
        ("3,-1.0000000000000002,0.2,SELL,BUY",
         "column actual_ofi: expected a number in [-1, 1], got '-1.0000000000000002'"),
        ("3,0.1,-inf,BUY,SELL", "column predicted_ofi: expected a number in [-1, 1], got '-inf'"),
        ("3,0.1,0.2,FOO,BUY", "column actual_signal: expected BUY, SELL or HOLD, got 'FOO'"),
    ],
    ids=["field-count", "index", "non-numeric-ofi", "non-finite-ofi", "ofi-past-one",
         "ofi-below-minus-one", "infinite-ofi", "signal"],
)
def test_evaluate_bad_predictions_row_names_file_and_line(tmp_path, capsys, bad_row, complaint):
    p = tmp_path / "preds.csv"
    _fake_predictions(p, n=3)
    lines = p.read_text().splitlines()
    lines.insert(3, bad_row)  # file line 4, after the header and two rows
    p.write_text("\n".join(lines) + "\n")
    assert run(["evaluate", p, "--out", tmp_path / "c.csv"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {p}: line 4: {complaint}\n"
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize(
    "names, labels, conf",
    [
        (("p.csv", "p2.csv"), ("a b/m", "a_b/m"), "a_b.m"),
        (("p.csv", "p2.csv"), ("s/hybrid", "s/hybrid"), "s.hybrid"),
        (("x/run.csv", "y/run.csv"), (), "run.model"),
    ],
    ids=["same-after-escaping", "duplicate", "same-file-stem"],
)
def test_evaluate_refuses_labels_that_share_a_confusion_file(
    tmp_path, capsys, names, labels, conf
):
    paths = [tmp_path / name for name in names]
    for i, p in enumerate(paths):
        p.parent.mkdir(exist_ok=True)
        _fake_predictions(p, shift=i)
    first, second = labels or [p.stem for p in paths]
    out = tmp_path / "cc.csv"
    argv = ["evaluate", *paths, "--out", out]
    code = run(argv + (["--labels", *labels] if labels else []))
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: labels {first!r} and {second!r} both name the confusion file "
        f"'cc.confusion.{conf}.csv'\n"
    )
    assert sorted(tmp_path.glob("cc*")) == []  # nothing written


def test_colliding_long_labels_are_quoted_short(tmp_path, capsys):
    paths = [tmp_path / "p.csv", tmp_path / "p2.csv"]
    for i, p in enumerate(paths):
        _fake_predictions(p, shift=i)
    model = "x" * 5_000
    code = run(["evaluate", *paths, "--labels", f"a b/{model}", f"a_b/{model}",
                "--out", tmp_path / "cc.csv"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: labels 'a b/xxx") and err.count("\n") == 1
    assert len(err.encode()) < 300
    assert "(5004 characters)" in err and "'cc.confusion.a_b.xxx" in err
    assert sorted(tmp_path.glob("cc*")) == []  # nothing written


def test_evaluate_label_count_mismatch(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    _fake_predictions(p1)
    _fake_predictions(p2)
    code = run(["evaluate", p1, p2, "--out", tmp_path / "c.csv",
                "--labels", "only/one"])
    assert code == 1
    assert "labels" in capsys.readouterr().err


# -------------------------------------------------------------------- sweep

def _read_masked(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["runtime_s"] = ""
    return rows


def test_sweep_restricted_grid_and_rerun(tmp_path):
    d1 = synth(tmp_path, "d1.csv", length=150, seed=1)
    d2 = synth(tmp_path, "d2.csv", length=150, seed=2)
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    argv = ["sweep", "--datasets", d1, d2, "--lags", "2",
            "--architectures", "32,16", "--epochs", 2, "--seed", 4]
    assert run([*argv, "--out", out1]) == 0
    assert run([*argv, "--out", out2]) == 0
    rows = _read_masked(out1)
    # 1 lag x 1 arch x 3 activations x 2 optimizers, per dataset
    assert len(rows) == 12
    assert {r["dataset"] for r in rows} == {"d1", "d2"}
    assert all(r["lag"] == "2" and r["architecture"] == "32-16" for r in rows)
    assert _read_masked(out2) == rows
    for suffix in (".heatmap.csv", ".best.json", ".config.json"):
        assert (tmp_path / ("s1.csv" + suffix)).exists()
    best = json.loads((tmp_path / "s1.csv.best.json").read_text())
    assert set(best) == {"mse", "mae", "r2", "accuracy", "precision"}


def test_sweep_records_divergence_in_status(tmp_path):
    d1 = synth(tmp_path, "d.csv", length=200, seed=1)
    out = tmp_path / "s.csv"
    with np.errstate(all="ignore"):
        code = run(["sweep", "--datasets", d1, "--out", out, "--lags", "1",
                    "--architectures", "32,16", "--activations", "relu",
                    "--optimizers", "sgd,adam", "--learning-rate", 50,
                    "--epochs", 2, "--seed", 0])
    assert code == 0
    status = {r["optimizer"]: r["status"] for r in _read_masked(out)}
    assert status["sgd"].startswith("error: TrainingDivergedError: training diverged at epoch")
    assert status["adam"] == "ok"


def test_sweep_sample_flag_shrinks_run(tmp_path):
    d1 = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "s.csv"
    assert run(["sweep", "--datasets", d1, "--out", out,
                "--lags", "1,2", "--architectures", "4;3,2",
                "--activations", "relu", "--optimizers", "adam",
                "--sample", 2, "--epochs", 2, "--seed", 0]) == 0
    assert len(_read_masked(out)) == 2


def test_sweep_sample_one_short_of_the_grid_runs(tmp_path):
    d1 = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "s.csv"
    assert run(["sweep", "--datasets", d1, "--out", out,
                "--sample", 119, "--seed", 0, "--epochs", 1]) == 0
    rows = _read_masked(out)
    assert len(rows) == 119
    assert len({(r["lag"], r["architecture"], r["activation"], r["optimizer"])
                for r in rows}) == 119


def test_sweep_refuses_two_datasets_with_the_same_name(tmp_path, capsys):
    (tmp_path / "d1").mkdir()
    (tmp_path / "d2").mkdir()
    first = synth(tmp_path, "d1/x.csv", length=150, seed=1)
    second = synth(tmp_path, "d2/x.csv", length=150, seed=2)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert run(["sweep", "--datasets", first, second, "--out", out, "--lags", "1",
                "--architectures", "4", "--epochs", 1]) == 1
    assert capsys.readouterr().err == "error: more than one dataset is named 'x'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d1", "d2"]


@pytest.mark.parametrize("sample", [0, 121])
def test_sweep_sample_outside_the_grid_is_refused_before_reading_data(
    tmp_path, capsys, sample
):
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert run(["sweep", "--datasets", tmp_path / "missing.csv", "--out", out,
                "--sample", sample]) == 1
    assert capsys.readouterr().err == f"error: sample must lie in [1, 120], got '{sample}'\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_without_a_successful_cell_names_the_first_and_writes_nothing(
    tmp_path, capsys
):
    data = synth(tmp_path, "d.csv", length=300, seed=1)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert run(["sweep", "--datasets", data, "--out", out, "--lags", "1",
                "--architectures", "4", "--window", 500]) == 1
    assert capsys.readouterr().err == (
        "error: no successful sweep cells; the first cell ended in "
        "error: ValueError: train series supplies 240 rows but warmup needs 499\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.config.json"]


@pytest.mark.parametrize("workers, via_config", [(0, False), (-2, False), (0, True)])
def test_sweep_rejects_workers_below_one(tmp_path, capsys, workers, via_config):
    d1 = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "s.csv"
    argv = ["sweep", "--datasets", d1, "--out", out, "--lags", "1",
            "--architectures", "4", "--epochs", 1]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": workers}))
        argv += ["--config", cfg]
    else:
        argv += ["--workers", workers]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: workers must be at least 1, got '{workers}'\n"
    assert not out.exists()


# ------------------------------------------------------------ flag surface

def test_model_names_are_each_kind_and_its_short_name():
    assert sorted(cli._MODEL_KINDS) == ["fnn", "fnn_only", "hybrid", "var", "var_only"]
    assert cli._MODEL_KINDS == {"var": "var_only", "var_only": "var_only", "fnn": "fnn_only",
                                "fnn_only": "fnn_only", "hybrid": "hybrid"}


#: The options fit and sweep share.
_SHARED_FLAGS = {
    "--model": ("model", str, ["fnn", "fnn_only", "hybrid", "var", "var_only"], None),
    "--epochs": ("epochs", int, None, None),
    "--batch-size": ("batch_size", int, None, None),
    "--learning-rate": ("learning_rate", float, None, None),
    "--no-early-stopping": ("early_stopping", "const False", None, None),
    "--patience": ("patience", int, None, None),
    "--validation-fraction": ("validation_fraction", float, None, None),
    "--threshold": ("threshold", float, None, None),
    "--window": ("window", int, None, None),
    "--seed": ("seed", int, None, None),
    "--train-fraction": (
        "train_fraction", float, None,
        "train on the first fraction of rows; fit also accepts 1.0 (all rows)",
    ),
    "--config": ("config", str, None, "JSON config file"),
}

#: Each subcommand's options: flag, or name of a positional -> (dest, the
#: value's type or the constant a flag without a value stores, choices, help).
FLAGS = {
    "synth": {
        "--out": ("out", str, None, "output counts CSV path"),
        "--length": ("length", int, None, None),
        "--seed": ("seed", int, None, None),
        "--base-intensity": ("base_intensity", float, None, None),
        "--linear-strength": ("linear_strength", float, None, None),
        "--nonlinear-strength": ("nonlinear_strength", float, None, None),
        "--config": ("config", str, None, "JSON config file"),
    },
    "fit": {
        **_SHARED_FLAGS,
        "--data": ("data", str, None, "counts CSV to fit on"),
        "--out": ("out", str, None, "bundle output directory"),
        "--lag": ("lag", int, None, None),
        "--fnn-lags": ("fnn_lags", int, None, None),
        "--hidden": ("hidden", str, None, "hidden layer widths, e.g. 32,16"),
        "--activation": ("activation", str, ["relu", "tanh", "sigmoid"], None),
        "--optimizer": ("optimizer", str, ["adam", "sgd"], None),
    },
    "predict": {
        "--bundle": ("bundle", str, None, "bundle directory"),
        "--data": ("data", str, None, "counts CSV to predict over"),
        "--out": ("out", str, None, "output predictions CSV"),
        "--eval-start": (
            "eval_start", float, None, "keep predictions from this fraction of the series on"
        ),
        "--config": ("config", str, None, "JSON config file"),
    },
    "evaluate": {
        "predictions": ("predictions", str, None, "prediction CSV files"),
        "--labels": (
            "labels", str, None, "dataset/model label per file, e.g. synthetic/hybrid"
        ),
        "--out": ("out", str, None, "comparison CSV path"),
    },
    "sweep": {
        **_SHARED_FLAGS,
        "--datasets": ("datasets", str, None, "counts CSVs"),
        "--out": ("out", str, None, "results CSV path"),
        "--lags": ("lags", str, None, "comma list, e.g. 1,2,5,10"),
        "--architectures": (
            "architectures", str, None, "semicolon-separated comma lists, e.g. 32,16;128,64"
        ),
        "--activations": ("activations", str, None, "comma list"),
        "--optimizers": ("optimizers", str, None, "comma list"),
        "--sample": (
            "sample", int, None, "Latin-hypercube subsample size instead of the full grid"
        ),
        "--workers": ("workers", int, None, None),
    },
}


def _option(action):
    # argparse reads the value of a flag declared without a type as a string
    kind = f"const {action.const!r}" if action.nargs == 0 else action.type or str
    return action.dest, kind, action.choices and list(action.choices), action.help


def test_every_subcommand_keeps_its_flags():
    commands = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    surface = {
        name: {
            (a.option_strings[0] if a.option_strings else a.dest): _option(a)
            for a in parser._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, parser in commands.choices.items()
    }
    assert surface == FLAGS


@pytest.mark.parametrize("argv", [
    ["synth", "--length", "2.5"],
    ["fit", "--data", "c.csv", "--learning-rate", "fast"],
    ["fit", "--data", "c.csv", "--activation", "gelu"],
    ["sweep", "--datasets", "c.csv", "--early-stopping"],
    ["evaluate", "p.csv", "--config", "cfg.json"],
])
def test_flag_that_argparse_refuses_exits_2(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        run([*argv, "--out", tmp_path / "out"])
    assert exc.value.code == 2


# --------------------------------------------------------------- precedence

def test_config_file_overrides_default_flag_overrides_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"length": 120}))
    a = tmp_path / "a.csv"
    assert run(["synth", "--out", a, "--config", cfg]) == 0
    assert len(a.read_text().splitlines()) == 121
    b = tmp_path / "b.csv"
    assert run(["synth", "--out", b, "--config", cfg, "--length", 130]) == 0
    assert len(b.read_text().splitlines()) == 131
    side = json.loads((tmp_path / "b.csv.config.json").read_text())
    assert side["length"] == 130


def test_default_applies_when_unset(tmp_path):
    out = tmp_path / "d.csv"
    assert run(["synth", "--out", out, "--length", 40]) == 0
    side = json.loads((tmp_path / "d.csv.config.json").read_text())
    assert side["seed"] == DEFAULTS["seed"]
    assert side["nonlinear_strength"] == DEFAULTS["nonlinear_strength"]


@pytest.mark.parametrize("key, value", [
    ("early_stopping", "false"), ("early_stopping", 0), ("epochs", 2.5),
    ("epochs", True), ("hidden", [32, 16]), ("learning_rate", "0.01"),
    ("seed", None), ("fnn_lags", "2"),
    pytest.param("learning_rate", 10**400, id="learning_rate-int-past-float"),
])
def test_config_value_of_wrong_type_is_rejected(tmp_path, capsys, key, value):
    data = synth(tmp_path, length=200, seed=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "bundle"
    assert run(["fit", "--data", data, "--out", out, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"config key {key!r} must be" in err and "cfg.json" in err
    assert not out.exists()


def test_config_values_of_matching_type_are_accepted(tmp_path):
    data = synth(tmp_path, length=200, seed=1)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"early_stopping": False, "epochs": 2, "hidden": "8",
                               "learning_rate": 1, "fnn_lags": None}))
    out = tmp_path / "bundle"
    assert run(["fit", "--data", data, "--out", out, "--config", cfg]) == 0
    side = json.loads((out / "run_config.json").read_text())
    assert side["early_stopping"] is False and side["learning_rate"] == 1


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lenght": 100}))
    out = tmp_path / "x.csv"
    assert run(["synth", "--out", out, "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: unknown config keys") and "lenght" in err
    assert not out.exists()


def test_config_file_holding_a_json_array_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps([{"length": 100}]))
    out = tmp_path / "x.csv"
    assert run(["synth", "--out", out, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}: a config file must hold a JSON object\n"
    assert not out.exists()


#: Every config key that fit and sweep share, with a value of its type.
_SHARED_CONFIG = {
    "model": "hybrid", "epochs": 2, "batch_size": 8, "learning_rate": 0.01,
    "early_stopping": True, "patience": 5, "validation_fraction": 0.2,
    "threshold": 0, "window": 1, "seed": 3, "train_fraction": 0.8,
}


@pytest.mark.parametrize("command, own_config", [
    ("fit", {"lag": 2, "fnn_lags": None, "hidden": "8", "activation": "tanh",
             "optimizer": "sgd"}),
    ("sweep", {"lags": "1", "architectures": "4", "activations": "relu",
               "optimizers": "adam", "sample": None, "workers": 1}),
])
def test_config_file_with_every_key_is_accepted(tmp_path, command, own_config):
    data = synth(tmp_path, length=150, seed=1)
    cfg = tmp_path / "cfg.json"
    values = {**_SHARED_CONFIG, **own_config}
    cfg.write_text(json.dumps(values))
    if command == "fit":
        argv = ["fit", "--data", data, "--out", tmp_path / "bundle"]
        sidecar = tmp_path / "bundle" / "run_config.json"
    else:
        argv = ["sweep", "--datasets", data, "--out", tmp_path / "s.csv"]
        sidecar = tmp_path / "s.csv.config.json"
    assert run([*argv, "--config", cfg]) == 0
    side = json.loads(sidecar.read_text())
    assert {key: side[key] for key in values} == values


#: The settings the CLI reads itself, which fill no library config field.
_CLI_ONLY = {"model", "seed", "train_fraction", "eval_start", "lags", "architectures",
             "activations", "optimizers", "sample", "workers"}
#: The settings whose library field has another name.
_RENAMED = {"lag": "var_lag", "fnn_lags": "fnn_input_lags", "hidden": "hidden_layers",
            "window": "window_h"}
#: A value unlike the default of every other setting: its flag's argument
#: (None for a --no- flag) and the value its field must hold.
_NON_DEFAULT = {
    "length": ("300", 300), "base_intensity": ("3.5", 3.5),
    "linear_strength": ("0.3", 0.3), "nonlinear_strength": ("0.5", 0.5),
    "lag": ("3", 3), "fnn_lags": ("1", 1), "hidden": ("8,4", (8, 4)),
    "activation": ("tanh", "tanh"), "optimizer": ("sgd", "sgd"), "epochs": ("3", 3),
    "batch_size": ("4", 4), "learning_rate": ("0.01", 0.01), "early_stopping": (None, False),
    "patience": ("2", 2), "validation_fraction": ("0.3", 0.3), "threshold": ("0.2", 0.2),
    "window": ("2", 2),
}


def _field_values(config) -> dict:
    """A config's fields, those of the configs it nests included; a list
    (from JSON) becomes a tuple."""
    if not isinstance(config, dict):
        config = dataclasses.asdict(config)
    values = {}
    for name, value in config.items():
        if isinstance(value, dict):
            values.update(_field_values(value))
        else:
            values[name] = tuple(value) if isinstance(value, list) else value
    return values


@pytest.mark.parametrize("command", ["synth", "fit", "sweep"])
def test_every_library_setting_reaches_its_field(tmp_path, monkeypatch, command):
    assert _CLI_ONLY <= set(cli.SETTINGS)
    keys = [key for key in cli.COMMAND_KEYS[command] if key not in _CLI_ONLY]
    out = tmp_path / ("bundle" if command == "fit" else "out.csv")
    argv = [command, "--out", out]
    for key in keys:
        text, value = _NON_DEFAULT[key]
        assert value != DEFAULTS[key] and text != DEFAULTS[key]
        flag = key.replace("_", "-")
        argv += [f"--no-{flag}"] if text is None else [f"--{flag}", text]
    captured = []
    if command == "synth":
        real = cli.generate_synthetic
        monkeypatch.setattr(cli, "generate_synthetic",
                            lambda spec: captured.append(spec) or real(spec))
    elif command == "fit":
        argv += ["--data", synth(tmp_path, length=200, seed=1)]
    else:
        real = cli.run_sweep

        def capture(*args, train_template, ofi_params, **kwargs):
            captured.extend((train_template, ofi_params))
            return real(*args, train_template=train_template, ofi_params=ofi_params, **kwargs)

        monkeypatch.setattr(cli, "run_sweep", capture)
        argv += ["--datasets", synth(tmp_path, length=200, seed=1), "--lags", 1,
                 "--architectures", 4, "--activations", "relu", "--optimizers", "adam"]
    assert run(argv) == 0
    if command == "fit":
        manifest = json.loads((out / "manifest.json").read_text())
        captured.append(manifest["config"])
    fields = {}
    for config in captured:
        fields.update(_field_values(config))
    for key in keys:
        name = _RENAMED.get(key, key)
        assert name in fields, f"setting {key!r} fills no library field"
        assert fields[name] == _NON_DEFAULT[key][1], key


@pytest.mark.parametrize("which", ["config", "manifest"])
def test_json_that_does_not_parse_is_named(tmp_path, capsys, which):
    data = synth(tmp_path, length=200, seed=1)
    if which == "config":
        bad = tmp_path / "cfg.json"
        argv = ["fit", "--data", data, "--out", tmp_path / "b", "--config", bad]
        named = str(bad)
    else:
        bad = fit_small(tmp_path, data) / "manifest.json"
        argv = ["predict", "--bundle", bad.parent, "--data", data, "--out", tmp_path / "p.csv"]
        named = "bundle field 'manifest.json'"
    bad.write_text('{"epochs": 2')
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error: {named}: Expecting ',' delimiter: line 1 column 13 (char 12)\n"


@pytest.mark.parametrize(
    "command, key, value, token",
    [
        ("fit", "hidden", "abc", "abc"),
        ("fit", "hidden", "8,", ""),
        ("sweep", "lags", "1,x", "x"),
        ("sweep", "architectures", "4;4,2.5", "2.5"),
    ],
)
@pytest.mark.parametrize("via_config", [False, True])
def test_bad_integer_list_names_setting_and_token(tmp_path, capsys, command, key, value,
                                                  token, via_config):
    data = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "out"
    argv = {"fit": ["fit", "--data", data, "--out", out],
            "sweep": ["sweep", "--datasets", data, "--out", out, "--epochs", 1]}[command]
    if via_config:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        argv += ["--config", cfg]
    else:
        argv += [f"--{key}", value]
    capsys.readouterr()
    assert run(argv) == 1
    assert capsys.readouterr().err == (
        f"error: {key}: expected a comma list of integers, got {token!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, complaint",
    [
        ("--activations", "relu,gelu",
         "activation must be one of ('relu', 'tanh', 'sigmoid'), got 'gelu'"),
        ("--optimizers", "rmsprop,adam,lbfgs",
         "optimizer must be 'adam' or 'sgd', got 'rmsprop'"),
    ],
)
def test_sweep_unknown_activation_or_optimizer_fails_before_training(
    tmp_path, capsys, flag, value, complaint
):
    data = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert run(["sweep", "--datasets", data, "--out", out, "--lags", "1",
                "--architectures", "4", "--epochs", 1, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {complaint}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.config.json"]


@pytest.mark.parametrize(
    "flag, value, complaint",
    [
        ("--lags", "0,1", "var_lag must be >= 1, got '0'"),
        ("--architectures", "4;0", "hidden layer widths must be >= 1, got '(0,)'"),
    ],
    ids=["lags", "architectures"],
)
def test_sweep_lag_or_width_below_one_fails_before_training(
    tmp_path, capsys, flag, value, complaint
):
    data = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert run(["sweep", "--datasets", data, "--out", out, "--lags", "1",
                "--architectures", "4", "--activations", "relu", "--optimizers", "adam",
                "--epochs", 1, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {complaint}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.config.json"]


def test_sweep_repeated_axis_value_is_refused_before_reading_data(tmp_path, capsys):
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert run(["sweep", "--datasets", tmp_path / "missing.csv", "--out", out,
                "--lags", "1,1", "--architectures", "4;4", "--activations", "relu,relu",
                "--optimizers", "adam"]) == 1
    assert capsys.readouterr().err == "error: sweep axis lags: repeated '1'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["1.0", "1.5", "0", "nan"])
def test_sweep_train_fraction_outside_zero_one_fails_before_training(
    tmp_path, capsys, value
):
    data = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert run(["sweep", "--datasets", data, "--out", out, "--lags", "1",
                "--architectures", "4", "--epochs", 1, "--train-fraction", value]) == 1
    assert capsys.readouterr().err == (
        f"error: train_fraction must lie in (0, 1), got '{float(value)}'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "d.csv.config.json"]


# -------------------------------------------------------------- run records

def _record_inputs():
    """In the working directory: a counts CSV, a VAR bundle fitted on it and
    that bundle's predictions."""
    assert run(["synth", "--out", "counts.csv", "--length", 150, "--seed", 1]) == 0
    assert run(["fit", "--data", "counts.csv", "--out", "bundle", "--model", "var"]) == 0
    assert run(["predict", "--bundle", "bundle", "--data", "counts.csv",
                "--out", "preds.csv"]) == 0


_ONE_CELL = ["--lags", 1, "--architectures", 4, "--activations", "relu",
             "--optimizers", "adam", "--epochs", 1]


#: case -> (argv, the file arguments as given, the facts the record adds)
_RECORDS = {
    "synth": (["synth", "--out", "new.csv", "--length", 40],
              {"out": "new.csv"}, {"generator_seed"}),
    "fit": (["fit", "--data", "counts.csv", "--out", "model", "--model", "var"],
            {"data": "counts.csv", "out": "model"}, {"kind", "train_rows"}),
    "fit-dir-slash": (["fit", "--data", "./counts.csv", "--out", "model/", "--model", "var"],
                      {"data": "./counts.csv", "out": "model/"}, {"kind", "train_rows"}),
    "predict": (["predict", "--bundle", "bundle", "--data", "counts.csv", "--out", "p.csv"],
                {"bundle": "bundle", "data": "counts.csv", "out": "p.csv"}, {"rows"}),
    "evaluate-labels": (["evaluate", "preds.csv", "./preds.csv", "--labels", "s/a", "s/b",
                         "--out", "e.csv"],
                        {"predictions": ["preds.csv", "./preds.csv"],
                         "labels": ["s/a", "s/b"], "out": "e.csv"}, set()),
    "evaluate": (["evaluate", "preds.csv", "--out", "e.csv"],
                 {"predictions": ["preds.csv"], "labels": [], "out": "e.csv"}, set()),
    "sweep": (["sweep", "--datasets", "counts.csv", "--out", "s.csv", *_ONE_CELL],
              {"datasets": ["counts.csv"], "out": "s.csv"}, {"cells"}),
}


@pytest.mark.parametrize("case", list(_RECORDS))
def test_each_command_records_its_settings_file_arguments_and_facts(
    tmp_path, monkeypatch, case
):
    monkeypatch.chdir(tmp_path)
    _record_inputs()
    argv, files, facts = _RECORDS[case]
    command, out = argv[0], files["out"]
    assert run(argv) == 0
    sidecar = Path(out, "run_config.json") if command == "fit" else Path(out + ".config.json")
    side = json.loads(sidecar.read_text())
    assert set(side) == {*cli.COMMAND_KEYS.get(command, ()), *files, *facts}
    assert {key: side[key] for key in files} == files


_LONG_NAME = "o" * 245 + ".csv"  # fits a 255-byte file name; its sidecar's does not

#: command -> (argv of a run that fails on a later output, its --out)
_FAILED_WRITES = {
    "synth": (["synth", "--out", _LONG_NAME, "--length", 40], _LONG_NAME),
    "predict": (["predict", "--bundle", "bundle", "--data", "counts.csv",
                 "--out", _LONG_NAME], _LONG_NAME),
    "evaluate": (["evaluate", "preds.csv", "--labels", f"{'x' * 5_000}/m",
                  "--out", "e.csv"], "e.csv"),
    "sweep": (["sweep", "--datasets", "counts.csv", "--out", _LONG_NAME, *_ONE_CELL],
              _LONG_NAME),
}


@pytest.mark.parametrize("command", list(_FAILED_WRITES))
def test_a_failed_write_leaves_no_output(tmp_path, monkeypatch, capsys, command):
    """The first output is written and a later one refused by the OS (a
    file name past 255 bytes): the command exits 1 with one error line,
    and the output it wrote is gone, along with the older copy it replaced."""
    monkeypatch.chdir(tmp_path)
    _record_inputs()
    argv, out = _FAILED_WRITES[command]
    Path(out).write_text("an older copy\n")
    inputs = set(os.listdir()) - {out}
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert set(os.listdir()) == inputs


def test_sweep_that_cannot_write_its_heatmap_leaves_no_output(tmp_path, capsys):
    data = synth(tmp_path, length=150, seed=1)
    out = tmp_path / "s.csv"
    heatmap = tmp_path / "s.csv.heatmap.csv"
    heatmap.mkdir()
    assert run(["sweep", "--datasets", data, "--out", out, *_ONE_CELL]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(str(heatmap)) in err
    assert heatmap.is_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "counts.csv", "counts.csv.config.json", "s.csv.heatmap.csv"
    ]


@pytest.mark.parametrize(
    "writer, fresh",
    [("write_trace_csv", False), ("write_json", False), ("write_trace_csv", True)],
    ids=["trace", "record", "fresh-nested-out"],
)
def test_fit_that_cannot_write_leaves_no_bundle(tmp_path, monkeypatch, capsys, writer, fresh):
    """A hybrid fit over an earlier one whose trace or record the OS refuses
    exits 1 with one error line and leaves none of the five files a fit
    writes, so no bundle loads; other files in the directory stay.  A fit
    into a new nested directory leaves none of the directories it made,
    and an empty one that was there before stays."""
    data = synth(tmp_path, length=150, seed=1)
    out = tmp_path / ("kept/a/b/fresh" if fresh else "model")
    fit = ["fit", "--data", data, "--out", out, "--epochs", 2]
    if fresh:
        (tmp_path / "kept").mkdir()
    else:
        assert run(fit) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "fnn.txt", "manifest.json", "run_config.json", "trace.csv", "var.txt"
        ]
        (out / "notes.txt").write_text("kept\n")
    kept = sorted(p for p in tmp_path.rglob("*") if p.parent != out or p.name == "notes.txt")

    def refuse(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, writer, refuse)
    capsys.readouterr()
    assert run(fit) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert sorted(tmp_path.rglob("*")) == kept


# ------------------------------------------------------ malformed input files

COUNTS_HEADER_LINE = "timestamp,buy_orders,sell_orders\n"


@pytest.mark.parametrize(
    "bad_row, complaint",
    [
        ("2,x,3", "line 3: column buy_orders: expected an integer, got 'x'"),
        (f"2,5,{'9' * 30}", f"line 3: column sell_orders: expected an integer, got '{'9' * 30}'"),
        ("2,5", "line 3: expected 3 fields, got 2"),
        (f"2,5,{'9' * 100_001}", "line 3: column sell_orders: expected an integer, "
         f"got '{'9' * 40}'… (100001 characters)"),
    ],
    ids=["non-integer", "out-of-range", "field-count", "overlong"],
)
def test_fit_bad_counts_row_names_file_and_line(tmp_path, capsys, bad_row, complaint):
    data = tmp_path / "badc.csv"
    rows = [f"{t},{(t * 7) % 11},{(t * 5) % 13}" for t in range(3, 40)]
    data.write_text(COUNTS_HEADER_LINE + "\n".join(["1,4,6", bad_row, *rows]) + "\n")
    out = tmp_path / "bundle"
    assert run(["fit", "--data", data, "--out", out, "--model", "var"]) == 1
    assert capsys.readouterr().err == f"error: {data}: {complaint}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, missing",
    [(["fit", "--data", "nothere.csv", "--out", "bundle"], "nothere.csv"),
     (["evaluate", "nothere.csv", "--out", "cmp.csv"], "nothere.csv"),
     (["predict", "--bundle", "nob", "--data", "nothere.csv", "--out", "p.csv"],
      "nob/manifest.json")],
    ids=["fit", "evaluate", "predict"],
)
def test_missing_input_file_gives_the_reason(tmp_path, monkeypatch, capsys, argv, missing):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: [Errno 2] No such file or directory: {missing!r}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


_SWEEP_MISSING = ["sweep", "--datasets", "missing.csv", "--out", "x.csv"]


@pytest.mark.parametrize(
    "argv, complaint",
    [(["fit", "--data", "missing.csv", "--out", "b", "--epochs", "0"],
      "epochs must be >= 1, got '0'"),
     (["fit", "--data", "missing.csv", "--out", "b", "--hidden", "4,0"],
      "hidden layer widths must be >= 1, got '(4, 0)'"),
     ([*_SWEEP_MISSING, "--epochs", "0"], "epochs must be >= 1, got '0'"),
     ([*_SWEEP_MISSING, "--workers", "0"], "workers must be at least 1, got '0'"),
     ([*_SWEEP_MISSING, "--train-fraction", "1.5"],
      "train_fraction must lie in (0, 1), got '1.5'")],
    ids=["fit-epochs", "fit-hidden", "sweep-epochs", "sweep-workers", "sweep-train-fraction"],
)
def test_bad_setting_is_refused_before_any_file_is_read(
    tmp_path, monkeypatch, capsys, argv, complaint
):
    """A missing file is not read: the bad setting is named first."""
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {complaint}\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_overlong_header_is_quoted_short(tmp_path, capsys):
    data = synth(tmp_path, length=60, seed=3)
    lines = data.read_text().splitlines(keepends=True)
    data.write_text(lines[0].rstrip("\n") + "x" * 100_000 + "\n" + "".join(lines[1:]))
    assert run(["fit", "--data", data, "--out", tmp_path / "bundle"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {data}: line 1: expected header ") and err.count("\n") == 1
    assert "(100032 characters)" in err
    assert len(err.replace(str(tmp_path), "").encode()) < 300  # the directory does not count


def _swap_line(path, pick, text):
    """Replace the first line of ``path`` that ``pick`` accepts with ``text``."""
    lines = path.read_text().splitlines()
    lines[next(i for i, line in enumerate(lines) if pick(line))] = text
    path.write_text("\n".join(lines) + "\n")


def _set_kind(path, kind):
    manifest = json.loads(path.read_text())
    manifest["kind"] = kind
    path.write_text(json.dumps(manifest))


def _set_config(path, update):
    manifest = json.loads(path.read_text())
    update(manifest["config"])
    path.write_text(json.dumps(manifest))


_LONG = "x" * 100_000
#: an int of 4,000 digits, within what JSON reads: negative, so a range
#: check refuses it, and positive, so it passes every range check
_NINES = -int("9" * 4000)
_BIG = int("9" * 4000)

#: bundle file -> how one line or field of it is made 100,000 characters long
_OVERLONG_BUNDLE = {
    "var-count-line": ("var.txt", lambda p: _swap_line(p, lambda s: s.startswith("p:"), _LONG)),
    "var-float-line": ("var.txt", lambda p: _swap_line(p, lambda s: s.startswith("c:"), _LONG)),
    "var-float-token": (
        "var.txt", lambda p: _swap_line(p, lambda s: s.startswith("c:"), "c: 1.0 " + _LONG)),
    "fnn-key-line": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("input_dim:"), _LONG)),
    "fnn-number": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("input_dim:"),
                                        "input_dim: " + _LONG)),
    "fnn-activation": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("activation:"),
                                        "activation: " + _LONG)),
    "fnn-layer-header": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("layer 0 weight"), _LONG)),
    "fnn-bias-header": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("layer 0 bias"), _LONG)),
    "fnn-dim": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("input_dim:"),
                                        f"input_dim: {_NINES}")),
    "fnn-hidden-widths": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("hidden:"),
                                        "hidden: " + "1," * 50_000 + "0")),
    "manifest-kind": ("manifest.json", lambda p: _set_kind(p, _LONG)),
    "manifest-kind-list": ("manifest.json", lambda p: _set_kind(p, [0] * 33_333)),
    "manifest-activation": (
        "manifest.json", lambda p: _set_config(p, lambda c: c.update(activation=_LONG))),
    "manifest-hidden-layers": (
        "manifest.json", lambda p: _set_config(p, lambda c: c.update(hidden_layers=[1] * 50_000))),
    "manifest-optimizer": (
        "manifest.json", lambda p: _set_config(p, lambda c: c["train"].update(optimizer=_LONG))),
    "manifest-train-key": (
        "manifest.json", lambda p: _set_config(p, lambda c: c["train"].update({_LONG: 1}))),
    "manifest-var-lag": (
        "manifest.json", lambda p: _set_config(p, lambda c: c.update(var_lag=_NINES))),
    "manifest-fnn-input-lags": (
        "manifest.json", lambda p: _set_config(p, lambda c: c.update(fnn_input_lags=_NINES))),
    "manifest-window-h": (
        "manifest.json", lambda p: _set_config(p, lambda c: c["ofi"].update(window_h=_NINES))),
    "manifest-epochs": (
        "manifest.json", lambda p: _set_config(p, lambda c: c["train"].update(epochs=_NINES))),
    "manifest-big-var-lag": (
        "manifest.json", lambda p: _set_config(p, lambda c: c.update(var_lag=_BIG))),
    "manifest-big-fnn-input-lags": (
        "manifest.json", lambda p: _set_config(p, lambda c: c.update(fnn_input_lags=_BIG))),
    "fnn-big-input-dim": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("input_dim:"),
                                        f"input_dim: {_BIG}")),
    "fnn-big-output-dim": (
        "fnn.txt", lambda p: _swap_line(p, lambda s: s.startswith("output_dim:"),
                                        f"output_dim: {_BIG}")),
}


@pytest.mark.parametrize("site", list(_OVERLONG_BUNDLE))
def test_overlong_bundle_line_is_quoted_short(tmp_path, capsys, site):
    data = synth(tmp_path, length=120, seed=2)
    bundle = fit_small(tmp_path, data, extra=["--hidden", "4"])
    name, damage = _OVERLONG_BUNDLE[site]
    damage(bundle / name)
    out = tmp_path / "p.csv"
    assert run(["predict", "--bundle", bundle, "--data", data, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    # the temporary directory's name, which the message repeats, does not count
    assert " characters)" in err, err[:300]
    assert len(err.replace(str(tmp_path), "").encode()) < 300, err[:300]
    assert not out.exists()


#: an integer list token past Python's 4,300-digit int() limit
_TOKEN = "9" * 5000

#: refused setting -> (command, config file or None, flags)
_OVERLONG_SETTING = {
    "config-key": ("synth", {_LONG: 1}, []),
    "config-model": ("fit", {"model": _LONG}, []),
    "lags-token": ("sweep", None, ["--lags", "1," + _TOKEN]),
    "activations": ("sweep", None, ["--activations", "relu," + _TOKEN]),
    "lags-below-one": ("sweep", None, ["--lags", _NINES]),
    "lags-repeated": ("sweep", None, ["--lags", f"{_BIG},{_BIG}"]),
    "length": ("synth", None, ["--length", _NINES]),
    "workers": ("sweep", None, ["--workers", _NINES]),
    "sample": ("sweep", None, ["--sample", _BIG]),
}


@pytest.mark.parametrize("site", list(_OVERLONG_SETTING))
def test_overlong_setting_value_is_quoted_short(tmp_path, capsys, site):
    command, config, flags = _OVERLONG_SETTING[site]
    data = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "out"
    argv = {"synth": ["synth", "--out", out],
            "fit": ["fit", "--data", data, "--out", out],
            "sweep": ["sweep", "--datasets", data, "--out", out, "--epochs", 1]}[command]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", cfg]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(argv + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err[:300]
    # the temporary directory's name, which a config error repeats, does not count
    assert " characters)" in err, err[:300]
    assert len(err.replace(str(tmp_path), "").encode()) < 300, err[:300]
    assert sorted(tmp_path.rglob("*")) == before


#: refused setting -> (command, flags or a config file's object, the error
#: line after "error: ")
_REFUSED_VALUE = {
    "model": ("fit", {"model": "bogus"},
              "model must be one of ['fnn', 'fnn_only', 'hybrid', 'var', 'var_only'], "
              "got 'bogus'"),
    "linear-strength": ("synth", ["--linear-strength", "1.5"],
                        "linear_strength must lie in [0, 1), got '1.5'"),
    "nonlinear-strength": ("synth", ["--nonlinear-strength", "-1"],
                           "nonlinear_strength must be nonnegative, got '-1.0'"),
    "base-intensity": ("synth", ["--base-intensity", "-2"],
                       "base_intensity must be positive, got '-2.0'"),
    "base-intensity-nan": ("synth", ["--base-intensity", "nan"],
                           "base_intensity must be finite, got 'nan'"),
    "learning-rate": ("fit", ["--learning-rate", "nan"],
                      "learning_rate must be finite, got 'nan'"),
    "fit-train-fraction": ("fit", ["--train-fraction", "1.5"],
                           "train_fraction must lie in (0, 1], got '1.5'"),
    "eval-start": ("predict", ["--eval-start", "2"], "eval-start must lie in [0, 1), got '2.0'"),
    "sweep-train-fraction": ("sweep", ["--train-fraction", "1.0"],
                             "train_fraction must lie in (0, 1), got '1.0'"),
}


@pytest.mark.parametrize("site", list(_REFUSED_VALUE))
def test_refused_setting_value_is_quoted(tmp_path, capsys, site):
    command, flags, message = _REFUSED_VALUE[site]
    data = synth(tmp_path, "d.csv", length=150, seed=1)
    out = tmp_path / "out"
    if command == "predict":
        bundle = fit_small(tmp_path, data, extra=["--model", "var"])
        argv = ["predict", "--bundle", bundle, "--data", data, "--out", out]
    else:
        argv = {"synth": ["synth", "--out", out],
                "fit": ["fit", "--data", data, "--out", out],
                "sweep": ["sweep", "--datasets", data, "--out", out, "--epochs", 1]}[command]
    if isinstance(flags, dict):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(flags))
        flags = ["--config", cfg]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(argv + flags) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(tmp_path.rglob("*")) == before


def test_predict_refuses_manifest_missing_a_config_key(tmp_path, capsys):
    """A missing key is not filled with its default: that would change the
    signals of a bundle fitted with another threshold."""
    data = synth(tmp_path, length=200, seed=1)
    bundle = fit_small(tmp_path, data, extra=["--threshold", "0.3"])
    _set_config(bundle / "manifest.json", lambda c: c["ofi"].pop("threshold"))
    out = tmp_path / "p.csv"
    assert run(["predict", "--bundle", bundle, "--data", data, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == ("error: bundle field 'config': "
                   "OfiParams.__init__() missing keyword argument 'threshold'\n")
    assert not out.exists()


@pytest.fixture(scope="module")
def hybrid_300(tmp_path_factory):
    """A 300-row series and a hybrid bundle fitted on it with the default
    lags and layers."""
    tmp_path = tmp_path_factory.mktemp("hybrid_300")
    data = synth(tmp_path, length=300, seed=1)
    return data, fit_small(tmp_path, data)


def _predict_damaged_copy(tmp_path, hybrid_300, damage):
    """Predict with a copy of the bundle that ``damage`` changed; the exit
    status, whether the output was written and what ``damage`` returned."""
    data, clean = hybrid_300
    bundle = tmp_path / "bundle"
    shutil.copytree(clean, bundle)
    damaged = damage(bundle)
    out = tmp_path / "p.csv"
    code = run(["predict", "--bundle", bundle, "--data", data, "--out", out])
    return code, out.exists(), damaged


#: manifest value -> the config key it is given for
_MISTYPED_MANIFEST = {
    "var_lag=2.0": ("PipelineConfig.var_lag", lambda c: c.update(var_lag=2.0)),
    "fnn_input_lags=2.0": (
        "PipelineConfig.fnn_input_lags", lambda c: c.update(fnn_input_lags=2.0)),
    "window_h=1.0": ("OfiParams.window_h", lambda c: c["ofi"].update(window_h=1.0)),
    "hidden_layers=[32.0, 16]": (
        "PipelineConfig.hidden_layers", lambda c: c.update(hidden_layers=[32.0, 16])),
    "epochs=2.0": ("TrainConfig.epochs", lambda c: c["train"].update(epochs=2.0)),
    "learning_rate=10**400": (
        "TrainConfig.learning_rate", lambda c: c["train"].update(learning_rate=10**400)),
}


@pytest.mark.parametrize("value", list(_MISTYPED_MANIFEST))
def test_predict_refuses_a_mistyped_manifest_value_by_name(tmp_path, capsys, hybrid_300, value):
    """Each value equals the fitted one as a number (but for the last), so
    only its JSON type can refuse it."""
    key, update = _MISTYPED_MANIFEST[value]
    code, wrote, _ = _predict_damaged_copy(
        tmp_path, hybrid_300, lambda bundle: _set_config(bundle / "manifest.json", update))
    err = capsys.readouterr().err
    assert code == 1 and not wrote
    assert err.startswith(f"error: bundle field 'config': {key} must be ") and err.count("\n") == 1


#: parameter file damage -> (file, the start of a line, the offset from
#: that line of the one edited, how its tokens change, the message)
_NON_FINITE_PARAMS = {
    "var-inf-intercept": ("var.txt", "c:", 0, lambda t: [t[0], "inf", *t[2:]],
                          "non-finite value 'inf'"),
    "fnn-nan-weight": ("fnn.txt", "layer 0 weight", 1, lambda t: ["nan", *t[1:]],
                       "non-finite value 'nan'"),
    "fnn-zero-scale": ("fnn.txt", "input_scaler_scale:", 0,
                       lambda t: [t[0], *["0"] * (len(t) - 1)],
                       "scale must be positive, got '0.0'"),
}


@pytest.mark.parametrize("site", list(_NON_FINITE_PARAMS))
def test_predict_refuses_a_non_finite_parameter_by_file_and_line(
    tmp_path, capsys, hybrid_300, site
):
    name, prefix, offset, edit, message = _NON_FINITE_PARAMS[site]

    def damage(bundle):
        lines = (bundle / name).read_text().splitlines()
        i = next(i for i, s in enumerate(lines) if s.startswith(prefix)) + offset
        lines[i] = " ".join(edit(lines[i].split(" ")))
        (bundle / name).write_text("\n".join(lines) + "\n")
        return i + 1

    code, wrote, line = _predict_damaged_copy(tmp_path, hybrid_300, damage)
    assert code == 1 and not wrote
    path = tmp_path / "bundle" / name
    err = capsys.readouterr().err
    assert err == f"error: bundle field '{name}': {path}: line {line}: {message}\n"


def test_sweep_names_the_bad_dataset(tmp_path, capsys):
    good = synth(tmp_path, "good.csv", length=150, seed=1)
    bad = tmp_path / "bad.csv"
    bad.write_text(COUNTS_HEADER_LINE + "1,4,6\n2,-4,6\n")
    out = tmp_path / "s.csv"
    assert run(["sweep", "--datasets", good, bad, "--out", out, "--lags", "1",
                "--architectures", "4", "--epochs", 1]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {bad}: line 3: negative count in column buy_orders\n"
    assert not out.exists()


def _counts_file(tmp_path):
    return synth(tmp_path, "in.csv", length=60, seed=3)


def _predictions_file(tmp_path):
    path = tmp_path / "in.csv"
    _fake_predictions(path)
    return path


_READERS = {
    "fit": (_counts_file, lambda p, d: ["fit", "--data", p, "--out", d / "bundle"]),
    "evaluate": (_predictions_file, lambda p, d: ["evaluate", p, "--out", d / "c.csv"]),
}


@pytest.mark.parametrize("command", sorted(_READERS))
def test_overlong_field_is_a_named_error(tmp_path, capsys, command):
    make, argv = _READERS[command]
    path = make(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = "9" * 200_000 + "," + lines[2]  # past the csv module's field limit
    path.write_text("\n".join(lines) + "\n")
    assert run(argv(path, tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 3: field larger than field limit")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", sorted(_READERS))
def test_invalid_utf8_is_a_named_error(tmp_path, capsys, command):
    make, argv = _READERS[command]
    path = make(tmp_path)
    data = bytearray(path.read_bytes())
    data[-3] = 0xFF
    path.write_bytes(bytes(data))
    assert run(argv(path, tmp_path)) == 1
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (invalid start byte)\n"


@st.composite
def _corruptions(draw):
    """A truncation (cut, None) or a one-byte replacement (position, byte)."""
    if draw(st.booleans()):
        return draw(st.integers(0, 10_000)), None
    return draw(st.integers(0, 10_000)), draw(st.integers(0, 255))


def _make_clean_inputs(clean):
    """A counts CSV, a fit config, the bundle fitted from them and its
    predictions: every file the corruption test damages, made once."""
    if clean.exists():
        return
    clean.mkdir()
    synth(clean, "counts.csv", length=40, seed=5)
    (clean / "config.json").write_text(json.dumps({"epochs": 2, "hidden": "4", "seed": 1}))
    assert run(["fit", "--data", clean / "counts.csv", "--config", clean / "config.json",
                "--out", clean / "bundle"]) == 0
    assert run(["predict", "--bundle", clean / "bundle", "--data", clean / "counts.csv",
                "--out", clean / "preds.csv"]) == 0


def _predict_bad_bundle(clean, bad):
    return ["predict", "--bundle", bad / "bundle", "--data", clean / "counts.csv",
            "--out", bad / "out.csv"]


#: damaged file -> the command that reads it, given the clean inputs and
#: a copy of them holding the damaged file
_CORRUPTIBLE = {
    "counts.csv": lambda clean, bad: ["fit", "--data", bad / "counts.csv",
                                      "--config", clean / "config.json", "--out", bad / "out"],
    "config.json": lambda clean, bad: ["fit", "--data", clean / "counts.csv",
                                       "--config", bad / "config.json", "--out", bad / "out"],
    "bundle/manifest.json": _predict_bad_bundle,
    "bundle/var.txt": _predict_bad_bundle,
    "bundle/fnn.txt": _predict_bad_bundle,
    "preds.csv": lambda clean, bad: ["evaluate", bad / "preds.csv", "--out", bad / "out.csv"],
}


@pytest.mark.parametrize("name", list(_CORRUPTIBLE))
@given(corruption=_corruptions())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_corrupted_input_never_raises(tmp_path, capsys, name, corruption):
    """A command reading a truncated file, or one with any byte replaced,
    either succeeds or exits 1 with one error line: fit on its counts CSV
    or config, predict on each bundle file, evaluate on a predictions CSV."""
    clean, bad = tmp_path / "clean", tmp_path / "bad"
    _make_clean_inputs(clean)
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(clean, bad)
    data = bytearray((bad / name).read_bytes())
    pos, byte = corruption
    pos %= len(data)
    if byte is None:
        del data[pos:]
    else:
        data[pos] = byte
    (bad / name).write_bytes(bytes(data))
    capsys.readouterr()
    with np.errstate(all="ignore"):
        code = run(_CORRUPTIBLE[name](clean, bad))
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1, err
