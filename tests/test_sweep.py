import csv
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oficast import sweep as sweep_module
from oficast.data_io import SyntheticSpec, generate_synthetic
from oficast.neural_net import ACTIVATIONS, OPTIMIZERS, TrainConfig
from oficast.sweep import (
    DEFAULT_ARCHITECTURES,
    DEFAULT_LAGS,
    HEATMAP_CSV_HEADER,
    SWEEP_CSV_HEADER,
    SweepConfig,
    SweepResult,
    SweepSpace,
    best_configurations,
    derive_seed,
    enumerate_grid,
    format_architecture,
    lhs_sample,
    run_sweep,
    write_heatmap_csv,
    write_sweep_csv,
)


def small_space():
    return SweepSpace(
        lags=(1, 2),
        architectures=((4,), (3, 2)),
        activations=("relu", "tanh"),
        optimizers=("adam",),
    )


def tiny_datasets(n=90, count=2):
    return [
        (f"syn{i}", generate_synthetic(SyntheticSpec(length=n, seed=100 + i)).counts)
        for i in range(count)
    ]


FAST_TRAIN = TrainConfig(epochs=2, batch_size=8, seed=0)


# --------------------------------------------------------------------- grid

def test_default_grid_has_120_cells():
    space = SweepSpace()
    assert space.size == 120
    grid = enumerate_grid(space)
    assert len(grid) == 120
    assert len(set(grid)) == 120


def test_default_axes():
    assert DEFAULT_LAGS == (1, 2, 5, 10)
    assert len(DEFAULT_ARCHITECTURES) == 5
    assert SweepSpace().activations == ACTIVATIONS == ("relu", "tanh", "sigmoid")
    assert SweepSpace().optimizers == OPTIMIZERS == ("adam", "sgd")


def test_grid_is_lexicographic_in_axis_order():
    space = SweepSpace()
    expected = [
        SweepConfig(lag, arch, act, opt)
        for lag, arch, act, opt in itertools.product(
            space.lags, space.architectures, space.activations, space.optimizers
        )
    ]
    assert enumerate_grid(space) == expected


def test_grid_order_equals_nested_loops():
    space = SweepSpace(lags=(2, 1), architectures=((4,), (3, 2)),
                       activations=("tanh", "relu"), optimizers=("sgd", "adam"))
    expected = []
    for lag in space.lags:
        for arch in space.architectures:
            for act in space.activations:
                for opt in space.optimizers:
                    expected.append(SweepConfig(lag, arch, act, opt))
    assert enumerate_grid(space) == expected


def test_single_point_space():
    space = SweepSpace(lags=(2,), architectures=((32, 16),),
                       activations=("relu",), optimizers=("adam",))
    assert enumerate_grid(space) == [SweepConfig(2, (32, 16), "relu", "adam")]


def test_space_rejects_empty_axis():
    with pytest.raises(ValueError):
        SweepSpace(lags=())


@pytest.mark.parametrize(
    "axis, values, complaint",
    [
        ("activations", ("relu", "gelu"),
         r"^activation must be one of \('relu', 'tanh', 'sigmoid'\), got 'gelu'$"),
        ("optimizers", ("adam", "rmsprop"), "^optimizer must be 'adam' or 'sgd', got 'rmsprop'$"),
        ("lags", (1, 2, 1, 2), "sweep axis lags: repeated '1', '2'$"),
        ("architectures", ((32, 16), (4,), (32, 16)), "sweep axis architectures: repeated '32-16'$"),
        ("activations", ("relu", "tanh", "relu"), "sweep axis activations: repeated 'relu'$"),
        ("optimizers", ("sgd", "sgd"), "sweep axis optimizers: repeated 'sgd'$"),
    ],
)
def test_space_rejects_unknown_activation_or_optimizer(axis, values, complaint):
    with pytest.raises(ValueError, match=complaint):
        SweepSpace(**{axis: values})


# ---------------------------------------------------------------------- lhs

def test_lhs_full_size_is_permutation_of_grid():
    space = SweepSpace()
    sample = lhs_sample(space, 120, seed=5)
    assert sorted(sample, key=repr) == sorted(enumerate_grid(space), key=repr)


def test_lhs_stratifies_small_samples():
    space = SweepSpace()
    sample = lhs_sample(space, 4, seed=1)
    assert len(sample) == 4
    assert {c.lag for c in sample} == {1, 2, 5, 10}


def test_lhs_balanced_axis_coverage():
    space = SweepSpace()
    k = 8
    sample = lhs_sample(space, k, seed=3)
    lag_counts = [sum(c.lag == lag for c in sample) for lag in space.lags]
    assert all(count == 2 for count in lag_counts)  # 8 / 4 exactly
    opt_counts = [sum(c.optimizer == o for c in sample) for o in space.optimizers]
    assert all(count == 4 for count in opt_counts)
    arch_counts = [sum(c.architecture == a for c in sample) for a in space.architectures]
    assert all(count in (1, 2) for count in arch_counts)  # 8 over 5 levels


def test_lhs_no_duplicates_and_deterministic():
    space = SweepSpace()
    for k in (4, 7, 30, 60):
        s1 = lhs_sample(space, k, seed=9)
        s2 = lhs_sample(space, k, seed=9)
        assert s1 == s2
        assert len(set(s1)) == k


def _assert_distinct_and_balanced(space, k, sample):
    assert len(sample) == k
    assert len(set(sample)) == k
    for name, values in (("lag", space.lags), ("architecture", space.architectures),
                         ("activation", space.activations), ("optimizer", space.optimizers)):
        m = len(values)
        counts = [sum(getattr(c, name) == value for c in sample) for value in values]
        assert sum(counts) == k
        assert set(counts) <= {k // m, -(-k // m)}, (name, k, counts)


def test_lhs_every_k_on_the_default_grid_is_distinct_and_balanced():
    space = SweepSpace()
    seeds = [*range(20), *(derive_seed(master, 2) for master in range(10))]
    for k in range(1, space.size + 1):
        for seed in seeds:
            _assert_distinct_and_balanced(space, k, lhs_sample(space, k, seed))


@st.composite
def _spaces_and_k(draw):
    space = SweepSpace(
        lags=tuple(range(1, draw(st.integers(1, 8)) + 1)),
        architectures=tuple((width,) for width in range(1, draw(st.integers(1, 8)) + 1)),
        activations=ACTIVATIONS[: draw(st.integers(1, 3))],
        optimizers=OPTIMIZERS[: draw(st.integers(1, 2))],
    )
    return space, draw(st.integers(1, space.size))


@settings(max_examples=200, deadline=None)
@given(case=_spaces_and_k(), seed=st.integers(0, 2**64 - 1))
def test_lhs_is_distinct_and_balanced_on_any_space(case, seed):
    space, k = case
    sample = lhs_sample(space, k, seed)
    _assert_distinct_and_balanced(space, k, sample)
    assert set(sample) <= set(enumerate_grid(space))
    assert lhs_sample(space, k, seed) == sample


def test_lhs_rejects_bad_k():
    space = SweepSpace()
    with pytest.raises(ValueError):
        lhs_sample(space, 0, seed=0)
    with pytest.raises(ValueError):
        lhs_sample(space, 121, seed=0)


# -------------------------------------------------------------------- seeds

def test_cell_seed_is_pure_function_of_indices():
    assert derive_seed(42, 3, 1) == derive_seed(42, 3, 1)
    seen = {derive_seed(42, c, d) for c in range(10) for d in range(3)}
    assert len(seen) == 30  # no collisions across the block


def test_cell_seed_double_entry():
    expected = int(
        np.random.SeedSequence([7, 2, 1]).generate_state(1, np.uint64)[0]
    )
    assert derive_seed(7, 2, 1) == expected


# ---------------------------------------------------------------- execution

def test_run_sweep_cardinality_and_fields():
    configs = enumerate_grid(small_space())[:2]
    datasets = tiny_datasets()
    results = run_sweep(configs, datasets, master_seed=1, train_template=FAST_TRAIN)
    assert len(results) == 4  # 2 configs x 2 datasets
    for r in results:
        assert r.status == "ok"
        assert r.dataset in ("syn0", "syn1")
        assert math.isfinite(r.mse)
        assert r.runtime_s >= 0.0


def _strip_runtime(results):
    return [
        (r.lag, r.architecture, r.activation, r.optimizer, r.dataset,
         r.mse, r.mae, r.r2, r.accuracy, r.precision, r.status, r.seed)
        for r in results
    ]


def test_run_sweep_deterministic_rerun():
    configs = enumerate_grid(small_space())[:2]
    datasets = tiny_datasets()
    r1 = run_sweep(configs, datasets, master_seed=3, train_template=FAST_TRAIN)
    r2 = run_sweep(configs, datasets, master_seed=3, train_template=FAST_TRAIN)
    assert _strip_runtime(r1) == _strip_runtime(r2)


def test_run_sweep_parallel_matches_serial():
    configs = enumerate_grid(small_space())[:3]
    datasets = tiny_datasets()
    serial = run_sweep(configs, datasets, master_seed=5, train_template=FAST_TRAIN)
    parallel = run_sweep(
        configs, datasets, master_seed=5, train_template=FAST_TRAIN, workers=2
    )
    assert _strip_runtime(serial) == _strip_runtime(parallel)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, maps in-process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return list(map(fn, items))


@pytest.mark.parametrize(
    "workers, n_configs, n_datasets, pool_sizes",
    [(8, 3, 2, [6]), (2, 3, 2, [2]), (6, 1, 2, [2]), (4, 1, 1, []), (2, 0, 2, []),
     (1, 3, 2, [])],
)
def test_pool_starts_at_most_one_worker_per_cell(
    monkeypatch, workers, n_configs, n_datasets, pool_sizes
):
    monkeypatch.setattr(sweep_module, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    configs = enumerate_grid(small_space())[:n_configs]
    datasets = tiny_datasets(count=n_datasets)
    results = run_sweep(configs, datasets, kind="var_only", workers=workers)
    assert len(results) == n_configs * n_datasets
    assert all(r.status == "ok" for r in results)
    assert _RecordingPool.sizes == pool_sizes


@pytest.mark.parametrize("workers", [0, -1])
def test_run_sweep_rejects_workers_below_one(workers):
    configs = enumerate_grid(small_space())[:1]
    with pytest.raises(ValueError, match=f"workers must be at least 1, got '{workers}'"):
        run_sweep(configs, tiny_datasets(count=1), kind="var_only", workers=workers)


@pytest.mark.parametrize("fraction", [1.0, 0.0, 1.5, math.nan])
def test_run_sweep_rejects_a_train_fraction_outside_zero_one(monkeypatch, fraction):
    monkeypatch.setattr(sweep_module, "_run_cell", None)  # no cell may run
    configs = enumerate_grid(small_space())[:1]
    with pytest.raises(
        ValueError, match=rf"^train_fraction must lie in \(0, 1\), got '{fraction}'$"
    ):
        run_sweep(configs, tiny_datasets(count=1), kind="var_only",
                  train_fraction=fraction)


def test_run_sweep_refuses_a_configuration_with_a_non_integer_lag(monkeypatch):
    monkeypatch.setattr(sweep_module, "_run_cell", None)  # no cell may run
    configs = [SweepConfig(1, (4,), "relu", "adam"), SweepConfig(2.5, (4,), "relu", "adam")]
    with pytest.raises(ValueError, match=r"^var_lag must be an integer, got '2\.5'$"):
        run_sweep(configs, tiny_datasets(count=1))


def test_run_sweep_refuses_no_datasets(monkeypatch):
    monkeypatch.setattr(sweep_module, "_run_cell", None)
    with pytest.raises(ValueError, match="^no datasets supplied$"):
        run_sweep(enumerate_grid(small_space())[:1], [], kind="var_only")


def test_failed_cell_is_isolated():
    # lag 10 cannot be fitted on a short series; the cell must fail alone
    configs = [
        SweepConfig(10, (4,), "relu", "adam"),
        SweepConfig(1, (4,), "relu", "adam"),
    ]
    datasets = [("tiny", generate_synthetic(SyntheticSpec(length=30, seed=0)).counts)]
    results = run_sweep(configs, datasets, master_seed=0, train_template=FAST_TRAIN)
    assert len(results) == 2
    statuses = {r.lag: r.status for r in results}
    assert statuses[10].startswith("error:")
    assert statuses[1] == "ok"
    failed = next(r for r in results if r.lag == 10)
    assert all(math.isnan(v) for v in
               (failed.mse, failed.mae, failed.r2, failed.accuracy, failed.precision))


def test_var_only_sweep_ignores_activation_axis():
    base = SweepConfig(1, (4,), "relu", "adam")
    other = SweepConfig(1, (4,), "tanh", "adam")
    datasets = tiny_datasets(count=1)
    r1 = run_sweep([base], datasets, kind="var_only", master_seed=2, train_template=FAST_TRAIN)
    r2 = run_sweep([other], datasets, kind="var_only", master_seed=2, train_template=FAST_TRAIN)
    # no FNN stage, same linear fit
    assert (r1[0].mse, r1[0].mae, r1[0].r2, r1[0].accuracy, r1[0].precision) == \
        (r2[0].mse, r2[0].mae, r2[0].r2, r2[0].accuracy, r2[0].precision)


# ------------------------------------------------------------------- output

def test_architecture_formatting():
    assert format_architecture((128, 64)) == "128-64"
    assert format_architecture((32,)) == "32"


def test_sweep_csv_layout(tmp_path):
    configs = enumerate_grid(small_space())[:2]
    results = run_sweep(configs, tiny_datasets(count=1), master_seed=1,
                        train_template=FAST_TRAIN)
    path = tmp_path / "results.csv"
    write_sweep_csv(results, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_HEADER)
    assert lines[0] == (
        "lag,architecture,activation,optimizer,dataset,"
        "mse,mae,r2,accuracy,precision,runtime_s,status,seed"
    )
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["architecture"] in ("4", "3-2")
    assert float(rows[0]["mse"]) == results[0].mse  # repr round-trip
    assert "." in rows[0]["runtime_s"]


def _result(lag, arch, act, opt, ds, mse, acc, status="ok"):
    return SweepResult(
        lag=lag, architecture=arch, activation=act, optimizer=opt, dataset=ds,
        mse=mse, mae=0.0, r2=0.0, accuracy=acc, precision=acc,
        runtime_s=0.0, status=status, seed=0,
    )


def test_best_configurations_direction_and_ties():
    results = [
        _result(1, (4,), "relu", "adam", "a", 0.5, 0.6),
        _result(1, (4,), "relu", "adam", "b", 0.3, 0.6),
        _result(2, (4,), "relu", "adam", "a", 0.2, 0.6),
        _result(2, (4,), "relu", "adam", "b", 0.8, 0.6),
    ]
    best = best_configurations(results)
    assert best["mse"]["lag"] == 1  # mean 0.4 beats 0.5; lower wins
    assert best["mse"]["value"] == pytest.approx(0.4)
    # accuracy ties everywhere; the smallest (lag, architecture, activation,
    # optimizer) by value wins
    assert best["accuracy"]["lag"] == 1
    assert best["accuracy"]["architecture"] == "4"


def test_best_configurations_breaks_ties_by_value_not_listing_order():
    """Tied cells listed tanh before relu, 128-64 before 32-16 and sgd before
    adam: the smallest (lag, architecture, activation, optimizer) by value
    wins, as ``sweep --model var`` names 32-16 relu/adam for every metric."""
    results = [
        _result(1, arch, act, opt, "a", 0.5, 0.6)
        for arch in ((128, 64), (32, 16))
        for act in ("tanh", "relu")
        for opt in ("sgd", "adam")
    ]
    best = best_configurations(results)
    for metric, entry in best.items():
        assert (entry["lag"], entry["architecture"], entry["activation"],
                entry["optimizer"]) == (1, "32-16", "relu", "adam"), metric


def test_best_configurations_skips_failed_cells():
    nan = float("nan")
    results = [
        _result(1, (4,), "relu", "adam", "a", nan, nan, status="error: boom"),
        _result(1, (4,), "relu", "adam", "b", 0.25, 0.7),
    ]
    best = best_configurations(results)
    assert best["mse"]["value"] == pytest.approx(0.25)


def test_best_configurations_without_an_ok_cell_names_the_first():
    nan = float("nan")
    results = [
        _result(1, (4,), "relu", "adam", "a", nan, nan, status="error: first"),
        _result(1, (4,), "relu", "adam", "b", nan, nan, status="error: second"),
    ]
    with pytest.raises(ValueError, match="^no successful sweep cells; "
                       "the first cell ended in error: first$"):
        best_configurations(results)


def test_heatmap_csv_averages_over_activation_and_optimizer(tmp_path):
    mk = lambda act, opt, mse: _result(1, (4,), act, opt, "d", mse, 0.5)
    results = [mk("relu", "adam", 0.1), mk("relu", "sgd", 0.2),
               mk("tanh", "adam", 0.3), mk("tanh", "sgd", 0.4)]
    path = tmp_path / "heat.csv"
    write_heatmap_csv(results, path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert ",".join(HEATMAP_CSV_HEADER) == "dataset,metric,lag,architecture,value"
    mse_rows = [r for r in rows if r["metric"] == "mse"]
    assert len(mse_rows) == 1
    assert float(mse_rows[0]["value"]) == pytest.approx(0.25)
    assert mse_rows[0]["architecture"] == "4"
