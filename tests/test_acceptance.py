"""End-to-end acceptance checks, one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS/FAIL lines with elapsed times.  Each test carries its own wall-clock
budget; exceeding the budget fails the criterion even if the assertions
hold.
"""
import csv
import json
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from oficast.cli import derive_seed
from oficast.data_io import SyntheticSpec, chronological_split, generate_synthetic
from oficast.evaluation import (
    evaluate_records,
    intensity_metrics,
    mae,
    mse,
    r_squared,
    render_comparison,
    write_comparison_csv,
)
from oficast.hybrid import (
    PipelineConfig,
    evaluate_on_holdout,
    fit_hybrid,
    fit_var_only,
    predict,
    zero_residual_head,
)
from oficast.neural_net import (
    FnnTopology,
    TrainConfig,
    gradient_check,
    init_model,
)
from oficast.ofi_signal import Signal, ofi, signal
from oficast.sweep import SweepSpace, enumerate_grid, run_sweep, write_sweep_csv
from oficast.var_model import fit_var

from conftest import kink_free_batch


@contextmanager
def criterion(num, label, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\n[acceptance] {num:2d} {label}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"\n[acceptance] {num:2d} {label}: {verdict} ({elapsed:.2f}s)")
    assert elapsed < budget_s, (
        f"criterion {num} took {elapsed:.2f}s, budget is {budget_s}s"
    )


# ---------------------------------------------------------------- criteria

def test_criterion_01_imbalance_reference_values():
    with criterion(1, "imbalance reference values", 1.0):
        cases = [
            (55, 30, 0.294, Signal.BUY),
            (45, 40, 0.059, Signal.HOLD),
            (60, 125, -0.351, Signal.SELL),
        ]
        for buy, sell, expected, label in cases:
            value = ofi(buy, sell)
            assert round(value, 3) == expected
            assert signal(value, threshold=0.1) is label


def test_criterion_02_signal_rule_on_reference_forecasts():
    with criterion(2, "signal rule on reference forecasts", 1.0):
        actual = (-0.3454, -0.9430, 0.2269, -0.1221, 0.8429, -0.5616)
        combined = (-0.3315, -0.9203, 0.2256, -0.1203, 0.8431, -0.5581)
        expected = (Signal.SELL, Signal.SELL, Signal.BUY,
                    Signal.SELL, Signal.BUY, Signal.SELL)
        assert tuple(signal(v, threshold=0.1) for v in actual) == expected
        assert tuple(signal(v, threshold=0.1) for v in combined) == expected


def test_criterion_03_least_squares_oracle_equivalence():
    with criterion(3, "least-squares oracle equivalence", 10.0):
        rng = np.random.default_rng(314)
        for trial in range(20):
            n = int(rng.integers(40, 201))
            p = (1, 2, 5)[trial % 3]
            arr = rng.normal(30.0, 4.0, size=(n, 2))
            model, _ = fit_var(arr, p)
            # independent solve of the normal equations
            rows = n - p
            Z = np.ones((rows, 1 + 2 * p))
            Y = np.empty((rows, 2))
            for r in range(rows):
                t = p + r
                Y[r] = arr[t]
                for lag in range(1, p + 1):
                    Z[r, 1 + 2 * (lag - 1): 1 + 2 * lag] = arr[t - lag]
            B = np.linalg.solve(Z.T @ Z, Z.T @ Y)
            np.testing.assert_allclose(model.c, B[0], atol=1e-8)
            for lag in range(p):
                np.testing.assert_allclose(
                    model.lag_coefs[lag], B[1 + 2 * lag: 3 + 2 * lag].T,
                    atol=1e-8,
                )


def test_criterion_04_gradient_check_all_activations():
    with criterion(4, "gradient checks across activations", 30.0):
        topologies = [
            (1, (), 1),
            (2, (3,), 1),
            (2, (4, 3), 2),
            (3, (8, 4), 2),
            (4, (16, 8), 2),
            (4, (32, 16), 2),
        ]
        rng = np.random.default_rng(9)
        for activation in ("relu", "tanh", "sigmoid"):
            for net in range(10):
                d_in, hidden, d_out = topologies[net % len(topologies)]
                model = init_model(
                    FnnTopology(d_in, hidden, d_out, activation), seed=net
                )
                if activation == "relu":
                    x, y = kink_free_batch(model, n=6, seed=1000 + net)
                else:
                    x = rng.normal(0.0, 1.0, size=(6, d_in))
                    y = rng.normal(0.0, 1.0, size=(6, d_out))
                report = gradient_check(model, x, y, tolerance=1e-4)
                assert report.passed, (activation, net, report)


def _rotation_series(n):
    """Exact single-lag linear recurrence that never settles: the state
    orbits a positive center, so both count columns keep oscillating."""
    theta = 0.9
    A = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    center = np.array([30.0, 30.0])
    c = (np.eye(2) - A) @ center
    arr = np.empty((n, 2))
    arr[0] = center + np.array([8.0, 0.0])
    for t in range(1, n):
        arr[t] = c + A @ arr[t - 1]
    return A, c, arr


def test_criterion_05_noiseless_linear_recovery():
    with criterion(5, "noiseless linear recovery", 5.0):
        A, c, arr = _rotation_series(400)
        model, _ = fit_var(arr, 1)
        np.testing.assert_allclose(model.lag_coefs[0], A, atol=1e-10)
        np.testing.assert_allclose(model.c, c, atol=1e-10)
        train, holdout = arr[:320], arr[320:]
        bundle = fit_var_only(train, PipelineConfig(var_lag=1))
        records = evaluate_on_holdout(bundle, train, holdout)
        report = evaluate_records(records, "rotation", "var")
        assert report.r2 > 0.999999, report.r2


def test_criterion_06_hybrid_beats_linear_baseline():
    with criterion(6, "hybrid beats the linear baseline", 300.0):
        wins = 0
        for master in range(1, 6):
            gen_seed = derive_seed(master, 0)
            train_seed = derive_seed(master, 1)
            series = generate_synthetic(SyntheticSpec(length=3000, seed=gen_seed))
            train, holdout = chronological_split(series, 0.8)
            config = PipelineConfig(train=TrainConfig(seed=train_seed))
            hybrid_bundle = fit_hybrid(train, config)
            var_bundle = fit_var_only(train, config)
            hybrid_report = evaluate_records(
                evaluate_on_holdout(hybrid_bundle, train, holdout), "syn", "hybrid"
            )
            var_report = evaluate_records(
                evaluate_on_holdout(var_bundle, train, holdout), "syn", "var"
            )
            if (hybrid_report.mse < var_report.mse
                    and hybrid_report.accuracy > var_report.accuracy):
                wins += 1
        assert wins >= 4, f"hybrid won on {wins}/5 master seeds"


def test_criterion_07_ablation_bit_identity():
    with criterion(7, "residual-head ablation identity", 10.0):
        series = generate_synthetic(SyntheticSpec(length=800, seed=17))
        config = PipelineConfig(train=TrainConfig(epochs=5, seed=3))
        hybrid_bundle = fit_hybrid(series, config)
        var_bundle = fit_var_only(series, config)
        ablated = zero_residual_head(hybrid_bundle)
        from_var = predict(var_bundle, series)
        ablated_records = predict(ablated, series)
        assert len(ablated_records)
        twin = from_var.take(np.isin(from_var.index, ablated_records.index))
        assert twin.index.tolist() == ablated_records.index.tolist()
        assert ablated_records.predicted_ofi.tobytes() == twin.predicted_ofi.tobytes()  # bitwise
        assert list(ablated_records.predicted_signal) == list(twin.predicted_signal)


def _masked_rows(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    runtime_col = rows[0].index("runtime_s")
    for row in rows[1:]:
        row[runtime_col] = ""
    return rows


def test_criterion_08_sweep_cardinality_and_determinism(tmp_path):
    with criterion(8, "sweep cardinality and determinism", 600.0):
        space = SweepSpace()
        configs = enumerate_grid(space)
        assert len(configs) == 120
        series = generate_synthetic(SyntheticSpec(length=500, seed=23))
        datasets = [("smoke", series)]
        template = TrainConfig(epochs=10)
        out = {}
        for name, workers in (("serial", 1), ("rerun", 1), ("parallel", 2)):
            results = run_sweep(
                configs, datasets, "hybrid", master_seed=7,
                train_template=template, workers=workers,
            )
            path = tmp_path / f"{name}.csv"
            write_sweep_csv(results, path)
            out[name] = _masked_rows(path)
        assert len(out["serial"]) == 121  # header + one row per cell
        assert out["serial"] == out["rerun"]
        assert out["serial"] == out["parallel"]
        statuses = {row[-2] for row in out["serial"][1:]}
        assert statuses == {"ok"}


def test_criterion_09_training_time_scales_linearly():
    with criterion(9, "training time scales linearly", 300.0):
        config = PipelineConfig(
            train=TrainConfig(epochs=10, early_stopping=False, seed=3)
        )

        def best_of_two(n, seed):
            series = generate_synthetic(SyntheticSpec(length=n, seed=seed))
            times = []
            for _ in range(2):
                start = time.perf_counter()
                fit_hybrid(series, config)
                times.append(time.perf_counter() - start)
            return min(times)

        t_small = best_of_two(2000, seed=31)
        t_large = best_of_two(4000, seed=32)
        ratio = t_large / t_small
        assert 1.5 <= ratio <= 3.0, f"doubling n changed time by x{ratio:.2f}"


def test_criterion_10_metric_reference_examples():
    with criterion(10, "metric reference examples", 1.0):
        assert mse([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0
        assert mae([1.0, 2.0], [1.0, 2.0]) == 0.0
        assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0
        assert r_squared([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
        assert r_squared([1.0, 2.0, 3.0], [2.0, 2.0, 2.0]) == 0.0
        anti = r_squared([1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
        assert anti < 0.0
        B, S, H = Signal.BUY, Signal.SELL, Signal.HOLD
        acc, _, _ = intensity_metrics([B, S, H], [B, S, S])
        assert acc == pytest.approx(2 / 3)
        acc, prec, _ = intensity_metrics([B, S, H], [B, S, H])
        assert acc == 1.0 and prec == 1.0
        acc, prec, _ = intensity_metrics([B, B, S, S], [B, S, S, S])
        assert acc == 0.75
        assert prec == pytest.approx(5 / 6)  # (1/1 + 2/3) / 2


def test_criterion_11_cli_end_to_end_determinism(tmp_path, oficast_env):
    with criterion(11, "pipeline determinism through the CLI", 120.0):
        def run_pipeline(run_dir):
            run_dir.mkdir()
            steps = [
                ["synth", "--out", "counts.csv", "--length", "600", "--seed", "0"],
                ["fit", "--data", "counts.csv", "--out", "bundle",
                 "--epochs", "10", "--seed", "0"],
                ["predict", "--bundle", "bundle", "--data", "counts.csv",
                 "--out", "preds.csv"],
                ["evaluate", "preds.csv", "--labels", "synthetic/hybrid",
                 "--out", "compare.csv"],
            ]
            for step in steps:
                proc = subprocess.run(
                    [sys.executable, "-m", "oficast.cli", *step],
                    cwd=run_dir, env=oficast_env,
                    capture_output=True, text=True,
                )
                assert proc.returncode == 0, (step, proc.stderr)

        first, second = tmp_path / "run1", tmp_path / "run2"
        run_pipeline(first)
        run_pipeline(second)
        artifacts = sorted(
            p.relative_to(first) for p in first.rglob("*") if p.is_file()
        )
        expected = {
            "counts.csv", "counts.csv.config.json",
            "preds.csv", "preds.csv.config.json",
            "compare.csv", "compare.csv.config.json",
            "compare.confusion.synthetic.hybrid.csv",
        }
        assert expected <= {str(a) for a in artifacts}
        assert "bundle/manifest.json" in {str(a).replace("\\", "/") for a in artifacts}
        for rel in artifacts:
            assert (second / rel).is_file(), f"missing {rel} on rerun"
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel
