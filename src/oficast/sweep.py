"""Hyperparameter sweep: grid enumeration, stratified subsampling, execution.

The default space is lags {1, 2, 5, 10} x five architectures x three
activations x two optimizers, 120 cells.  Each (configuration, dataset)
cell trains independently with a seed that is a pure function of
(master seed, config index, dataset index), so results do not depend on
worker count or scheduling order, and cell failures land in the status
column instead of aborting the sweep.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data_io import (
    _at_least,
    _check_settings,
    _is_integer,
    _quote,
    chronological_split,
    write_csv_rows,
)
from .evaluation import evaluate_records
from .hybrid import (
    KINDS,
    PipelineConfig,
    _fnn_topology,
    evaluate_on_holdout,
    fit_fnn_only,
    fit_hybrid,
    fit_var_only,
)
from .neural_net import ACTIVATIONS, OPTIMIZERS, TrainConfig
from .ofi_signal import OfiParams

DEFAULT_LAGS = (1, 2, 5, 10)
DEFAULT_ARCHITECTURES = ((128, 64), (32, 16), (32, 32), (128, 64, 32), (64, 32, 16))

_MASK64 = (1 << 64) - 1

HEATMAP_CSV_HEADER = ("dataset", "metric", "lag", "architecture", "value")

_METRIC_DIRECTION = {
    "mse": min,
    "mae": min,
    "r2": max,
    "accuracy": max,
    "precision": max,
}


@dataclass(frozen=True)
class SweepSpace:
    lags: tuple[int, ...] = DEFAULT_LAGS
    architectures: tuple[tuple[int, ...], ...] = DEFAULT_ARCHITECTURES
    activations: tuple[str, ...] = ACTIVATIONS
    optimizers: tuple[str, ...] = OPTIMIZERS

    def __post_init__(self) -> None:
        for axis, values in zip(fields(self), _axes(self)):
            if not values:
                raise ValueError(f"sweep axis {axis.name} is empty")
            repeated = _repeated(values)
            if repeated:  # its cells would train one configuration twice
                shown = ", ".join(
                    _quote(format_architecture(v) if isinstance(v, tuple) else str(v))
                    for v in repeated
                )
                raise ValueError(f"sweep axis {axis.name}: repeated {shown}")
        train, ofi = TrainConfig(), OfiParams()
        for config in enumerate_grid(self):
            _cell_pipeline(config, train, ofi, 0)

    @property
    def size(self) -> int:
        return math.prod(map(len, _axes(self)))


@dataclass(frozen=True)
class SweepConfig:
    lag: int
    architecture: tuple[int, ...]
    activation: str
    optimizer: str


@dataclass(frozen=True)
class SweepResult(SweepConfig):
    dataset: str
    mse: float
    mae: float
    r2: float
    accuracy: float
    precision: float
    runtime_s: float
    status: str
    seed: int


SWEEP_CSV_HEADER = tuple(f.name for f in fields(SweepResult))
_CONFIG_FIELDS = tuple(f.name for f in fields(SweepConfig))


def _axes(space: SweepSpace) -> list[tuple]:
    """The space's values on each axis, in SweepConfig's field order."""
    return [
        space.lags,
        tuple(map(tuple, space.architectures)),
        space.activations,
        space.optimizers,
    ]


def _repeated(values) -> list:
    """The values listed more than once, each once, in first-listed order."""
    return list(dict.fromkeys(v for v in values if values.count(v) > 1))


def enumerate_grid(space: SweepSpace) -> list[SweepConfig]:
    """Deterministic lexicographic order over (lag, architecture,
    activation, optimizer) as listed in the space."""
    return [SweepConfig(*row) for row in itertools.product(*_axes(space))]


def lhs_sample(space: SweepSpace, k: int, seed: int) -> list[SweepConfig]:
    """k distinct configurations with each axis spread across its values as
    evenly as k permits (Latin-hypercube style over the categorical grid).

    The configurations are the first k positions of a seeded walk over the
    grid, returned in a seeded order.  With the axes taken in a seeded
    order, an axis of m values placed after axes whose sizes multiply to
    ``period`` steps through a seeded permutation of its values and shifts
    by one every lcm(period, m) positions.  The walk visits every cell of
    the grid once, and every aligned run of m positions holds each value
    of that axis once, so the first k positions are k distinct cells in
    which each value appears floor(k/m) or ceil(k/m) times.

    Deterministic for a given (space, k, seed).  k equal to the grid size
    returns a seeded permutation of the full grid.
    """
    axes = _axes(space)
    _check_settings(
        ("k", "be an integer", k, _is_integer),
        ("k", f"lie in [1, {space.size}]", k, lambda n: 1 <= n <= space.size),
    )
    rng = np.random.default_rng(seed_sequence(seed, space.size, k))
    t = np.arange(k)
    columns = [None] * len(axes)
    period = 1
    for a in rng.permutation(len(axes)):
        values = axes[a]
        m = len(values)
        labels = rng.permutation(m)
        s = t % (period * m)
        columns[a] = [values[i] for i in labels[(s + s // math.lcm(period, m)) % m]]
        period *= m
    rows = list(zip(*columns))
    return [SweepConfig(*rows[i]) for i in rng.permutation(k)]


def seed_sequence(master: int, *path: int) -> np.random.SeedSequence:
    """The random stream at ``path`` under the master seed, which is taken
    modulo 2**64 so negative masters work."""
    return np.random.SeedSequence([master & _MASK64, *path])


def derive_seed(master: int, *path: int) -> int:
    """A 64-bit seed that is a pure function of (master, *path).

    The CLI derives its stage seeds as ``derive_seed(master, stream)``
    (0 generator, 1 training, 2 subsampling); the sweep derives each cell's
    training seed as ``derive_seed(master, config_index, dataset_index)``.
    """
    return int(seed_sequence(master, *path).generate_state(1, np.uint64)[0])


_FITTERS = {
    "var_only": fit_var_only,
    "fnn_only": fit_fnn_only,
    "hybrid": fit_hybrid,
}


def _cell_pipeline(
    config: SweepConfig, train: TrainConfig, ofi: OfiParams, seed: int
) -> PipelineConfig:
    """The pipeline a cell of ``config`` fits, training with ``train`` under
    the configuration's optimizer and ``seed``.  Building it, and the network
    the fitters would build from it, applies every library rule to every
    value in ``config``."""
    pipeline = PipelineConfig(
        var_lag=config.lag,
        hidden_layers=config.architecture,
        activation=config.activation,
        train=replace(train, optimizer=config.optimizer, seed=seed),
        ofi=ofi,
    )
    _fnn_topology(pipeline, has_var=True)
    return pipeline


def _run_cell(cell) -> SweepResult:
    config, dataset_name, series, kind, train_fraction, pipeline = cell
    start = time.perf_counter()
    try:
        train_rows, holdout_rows = chronological_split(series, train_fraction)
        bundle = _FITTERS[kind](train_rows, pipeline)
        records = evaluate_on_holdout(bundle, train_rows, holdout_rows)
        report = evaluate_records(records, dataset_name, kind)
        metrics = {name: getattr(report, name) for name in _METRIC_DIRECTION}
        status = "ok"
    except Exception as exc:  # cell failures must not abort the sweep
        metrics = dict.fromkeys(_METRIC_DIRECTION, math.nan)
        status = f"error: {type(exc).__name__}: {exc}"
    return SweepResult(
        **asdict(config),
        dataset=dataset_name,
        runtime_s=time.perf_counter() - start,
        status=status,
        seed=pipeline.train.seed,
        **metrics,
    )


def ProcessPoolExecutor(max_workers: int):
    """A process pool of ``max_workers`` workers.  Its modules,
    ``concurrent.futures.process`` and ``multiprocessing``, load on the
    first call, so a process that starts no pool never holds them.  A
    test may put a fake pool in this name's place."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def _run_rules(workers, train_fraction) -> tuple:
    """The rules of :func:`run_sweep`'s ``workers`` and ``train_fraction``,
    for :func:`data_io._check_settings`; the CLI applies them before it
    reads any dataset."""
    return (
        ("workers", "be an integer", workers, _is_integer),
        ("workers", "be at least 1", workers, _at_least(1)),
        # else every cell fails alike
        ("train_fraction", "lie in (0, 1)", train_fraction, lambda f: 0.0 < f < 1.0),
    )


def run_sweep(
    configs: list[SweepConfig],
    datasets: list[tuple[str, np.ndarray]],
    kind: str = "hybrid",
    master_seed: int = 0,
    *,
    train_fraction: float = 0.8,
    train_template: TrainConfig | None = None,
    ofi_params: OfiParams | None = None,
    workers: int = 1,
) -> list[SweepResult]:
    """Train and evaluate every (configuration, dataset) cell; a dataset is
    a name and an ``(n, 2)`` count array.

    ``train_template`` supplies the non-swept optimization settings (its
    optimizer and seed fields are overridden per cell).  ``workers`` > 1
    fans cells out to a process pool of at most one process per
    cell; the result order and content are identical either way, and
    only that pool loads ``multiprocessing``.  ``train_fraction`` must lie
    in (0, 1), the dataset names must differ and every configuration must
    make a valid pipeline; all are checked before any cell runs.

    Every worker runs as many BLAS threads as numpy loaded with, one per
    core by default.  The cells' matmuls are too small to gain from them,
    and a pool of such workers oversubscribes the cores: two workers on
    two cores ran no faster than one.  The ``oficast`` CLI therefore sets
    ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
    to 1 where the environment leaves them unset; a library caller who
    wants the same must set them before numpy is first imported.
    """
    _check_settings(("kind", f"be one of {KINDS}", kind, KINDS.__contains__))
    if not datasets:
        raise ValueError("no datasets supplied")
    repeated = _repeated([name for name, _ in datasets])
    if repeated:  # their rows could not be told apart, and would be averaged
        raise ValueError(
            f"more than one dataset is named {', '.join(map(repr, repeated))}"
        )
    _check_settings(*_run_rules(workers, train_fraction))
    train = TrainConfig() if train_template is None else train_template
    ofi = OfiParams() if ofi_params is None else ofi_params
    cells = [
        (config, name, series, kind, train_fraction,
         _cell_pipeline(config, train, ofi, derive_seed(master_seed, ci, di)))
        for ci, config in enumerate(configs)
        for di, (name, series) in enumerate(datasets)
    ]
    # a worker beyond one per cell would start and never get a cell
    workers = min(workers, len(cells))
    if workers <= 1:
        return [_run_cell(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(_run_cell, cells))


def format_architecture(architecture: tuple[int, ...]) -> str:
    return "-".join(str(w) for w in architecture)


#: The sweep CSV columns not written as ``str`` of the field, which for a
#: float is its repr, so the metrics read back exactly.
_SWEEP_CSV_FORMAT = {"architecture": format_architecture, "runtime_s": "{:.6f}".format}


def write_sweep_csv(results: list[SweepResult], path: str | Path) -> None:
    """Results CSV in enumeration order.  All model fields are
    deterministic for a fixed master seed; runtime_s is wall clock."""
    formats = [_SWEEP_CSV_FORMAT.get(name, str) for name in SWEEP_CSV_HEADER]
    rows = ([f(getattr(r, name)) for f, name in zip(formats, SWEEP_CSV_HEADER)] for r in results)
    write_csv_rows(path, SWEEP_CSV_HEADER, rows)


def _means(results: list[SweepResult], names: tuple[str, ...]) -> dict[tuple, dict[str, float]]:
    """Each metric's mean over the ok cells, for each distinct value of the
    fields ``names``; failed cells are skipped."""
    grouped: dict[tuple, list[SweepResult]] = {}
    for r in results:
        if r.status == "ok":
            grouped.setdefault(tuple(getattr(r, name) for name in names), []).append(r)
    return {
        key: {m: float(np.mean([getattr(r, m) for r in rows])) for m in _METRIC_DIRECTION}
        for key, rows in grouped.items()
    }


def best_configurations(results: list[SweepResult]) -> dict[str, dict]:
    """Best configuration per metric, averaging each configuration's ok
    cells across datasets first.  Without any ok cell it raises
    ValueError naming the first cell's status."""
    means = _means(results, _CONFIG_FIELDS)
    if not means:
        first = f"; the first cell ended in {results[0].status}" if results else ""
        raise ValueError(f"no successful sweep cells{first}")
    best: dict[str, dict] = {}
    for metric, pick in _METRIC_DIRECTION.items():
        target = pick(m[metric] for m in means.values())
        # ties resolve to the smallest (lag, architecture, activation,
        # optimizer) tuple by value, whatever order the axes list them in
        key = min(k for k, m in means.items() if m[metric] == target)
        entry = dict(zip(_CONFIG_FIELDS, key), value=means[key][metric])
        entry["architecture"] = format_architecture(entry["architecture"])
        best[metric] = entry
    return best


def write_heatmap_csv(results: list[SweepResult], path: str | Path) -> None:
    """Long-format (dataset, metric, lag, architecture, mean value) rows,
    averaged over activations and optimizers; failed cells are skipped."""
    means = _means(results, ("dataset", "lag", "architecture"))
    rows = (
        [dataset, metric, lag, format_architecture(arch), repr(m[metric])]
        for metric in _METRIC_DIRECTION
        for (dataset, lag, arch), m in sorted(means.items())
    )
    write_csv_rows(path, HEATMAP_CSV_HEADER, rows)
