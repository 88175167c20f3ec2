import csv
import json

import numpy as np
import pytest

from oficast.cli import DEFAULTS, derive_seed, main
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


# ------------------------------------------------------------------ predict

def fit_small(tmp_path, data, name="bundle", extra=()):
    out = tmp_path / name
    assert run(["fit", "--data", data, "--out", out,
                "--epochs", 3, "--seed", 5, *extra]) == 0
    return out


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


@pytest.mark.parametrize(
    "first, second", [("hybrid", "var"), ("var", "hybrid"), ("hybrid", "fnn")]
)
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


@pytest.mark.parametrize(
    "bad_row, complaint",
    [
        ("3,0.1,0.2", "expected 5 fields, got 3"),
        ("x3,0.1,0.2,BUY,BUY", "column index: expected an integer, got 'x3'"),
        ("3,abc,0.2,BUY,BUY", "column actual_ofi: expected a finite number, got 'abc'"),
        ("3,0.1,nan,BUY,BUY", "column predicted_ofi: expected a finite number, got 'nan'"),
        ("3,0.1,0.2,FOO,BUY", "column actual_signal: expected BUY, SELL or HOLD, got 'FOO'"),
    ],
    ids=["field-count", "index", "non-numeric-ofi", "non-finite-ofi", "signal"],
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
    assert "unknown config keys" in err and "lenght" in err
    assert not out.exists()
