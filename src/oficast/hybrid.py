"""Forecast pipelines: VAR-only, FNN-only, and the VAR + FNN residual hybrid.

The hybrid fits the VAR first, computes its in-sample one-step residuals,
and trains the network to predict the next residual pair from the last q
residual pairs.  At prediction time the combined order forecast is the VAR
one-step forecast plus the predicted residual, floored at zero, and the
imbalance/signal are computed from that.  The floor is applied through one
shared code path for every count-based pipeline, so a hybrid whose
residual head is forced to zero reproduces VAR-only output bit for bit.

Evaluation is one-step rolling and causal: the prediction for row t sees
only true rows before t.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .data_io import DataFormatError, counts_to_array, read_csv_rows
from .neural_net import (
    AffineScaler,
    FnnModel,
    FnnTopology,
    TrainConfig,
    TrainingTrace,
    load_fnn,
    save_fnn,
    forward,
    train,
)
from .ofi_signal import OfiParams, Signal, clamp_ofi, ofi, signal, window_sums
from . import var_model as vm

BUNDLE_FORMAT_TAG = "oficast-bundle v1"
KINDS = ("var_only", "fnn_only", "hybrid")

VAR_FILE = "var.txt"
FNN_FILE = "fnn.txt"
MANIFEST_FILE = "manifest.json"


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to fit and run one pipeline.

    ``fnn_input_lags`` is the number of trailing pairs fed to the network
    (residual pairs for the hybrid, raw count pairs for FNN-only); None
    means "same as var_lag".
    """

    var_lag: int = 2
    fnn_input_lags: int | None = None
    hidden_layers: tuple[int, ...] = (32, 16)
    activation: str = "relu"
    train: TrainConfig = field(default_factory=TrainConfig)
    ofi: OfiParams = field(default_factory=OfiParams)

    def __post_init__(self) -> None:
        if self.var_lag < 1:
            raise ValueError(f"var_lag must be >= 1, got {self.var_lag}")
        if self.fnn_input_lags is not None and self.fnn_input_lags < 1:
            raise ValueError(
                f"fnn_input_lags must be >= 1, got {self.fnn_input_lags}"
            )

    @property
    def residual_lags(self) -> int:
        return self.var_lag if self.fnn_input_lags is None else self.fnn_input_lags


@dataclass(frozen=True, eq=False)
class Predictions:
    """Evaluated rows as columns: position in the evaluated series, actual and
    predicted imbalance, and their signals (object arrays of :class:`Signal`)."""

    index: np.ndarray
    actual_ofi: np.ndarray
    predicted_ofi: np.ndarray
    actual_signal: np.ndarray
    predicted_signal: np.ndarray

    def __len__(self) -> int:
        return len(self.index)

    def __eq__(self, other) -> bool:
        return isinstance(other, Predictions) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    def take(self, rows) -> Predictions:
        """The rows selected by a boolean mask or an index array."""
        return Predictions(*(getattr(self, f.name)[rows] for f in fields(self)))


@dataclass
class ModelBundle:
    kind: str
    config: PipelineConfig
    var_part: vm.VarModel | None = None
    fnn_part: FnnModel | None = None
    # conveniences captured at fit time; not persisted
    var_diagnostics: vm.FitDiagnostics | None = None
    training_trace: TrainingTrace | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind in ("var_only", "hybrid") and self.var_part is None:
            raise ValueError(f"{self.kind} bundle needs a VAR part")
        if self.kind in ("fnn_only", "hybrid") and self.fnn_part is None:
            raise ValueError(f"{self.kind} bundle needs an FNN part")


def required_warmup(bundle: ModelBundle) -> int:
    """Rows of true history a prediction needs before its target row."""
    cfg = bundle.config
    q = cfg.residual_lags
    if bundle.kind == "var_only":
        model_rows = cfg.var_lag
    elif bundle.kind == "fnn_only":
        model_rows = q
    else:
        model_rows = cfg.var_lag + q
    return max(model_rows, cfg.ofi.window_h - 1)


def lag_features(arr: np.ndarray, q: int, first: int) -> np.ndarray:
    """Row t - first holds the pairs of rows t-q .. t-1 of ``arr``, flattened
    in chronological order, for every t from ``first`` (>= q) to len(arr) - 1."""
    n = arr.shape[0]
    X = np.empty((n - first, 2 * q))
    for j in range(q):
        X[:, 2 * j : 2 * j + 2] = arr[first - q + j : n - q + j]
    return X


def fit_var_only(series, config: PipelineConfig) -> ModelBundle:
    arr = counts_to_array(series)
    model, diagnostics = vm.fit_var(arr, config.var_lag)
    return ModelBundle(
        kind="var_only", config=config, var_part=model, var_diagnostics=diagnostics
    )


def fit_fnn_only(series, config: PipelineConfig) -> ModelBundle:
    """Train the network to map the last q count pairs to the next window's OFI."""
    arr = counts_to_array(series)
    q = config.residual_lags
    h = config.ofi.window_h
    n = arr.shape[0]
    t_first = max(q, h - 1)
    if n - t_first < 2:
        raise ValueError(f"series of length {n} is too short to train with q={q}, h={h}")
    X = lag_features(arr, q, t_first)
    sums = window_sums(arr, h)[t_first - h + 1 :]
    targets = ofi(sums[:, 0], sums[:, 1])[:, None]
    topology = FnnTopology(
        input_dim=2 * q,
        hidden_layers=config.hidden_layers,
        output_dim=1,
        activation=config.activation,
    )
    model, trace = train(X, targets, topology, config.train)
    return ModelBundle(
        kind="fnn_only", config=config, fnn_part=model, training_trace=trace
    )


def fit_hybrid(series, config: PipelineConfig) -> ModelBundle:
    """VAR first, then the network on the VAR's own in-sample residuals."""
    arr = counts_to_array(series)
    p = config.var_lag
    q = config.residual_lags
    var, diagnostics = vm.fit_var(arr, p)
    resid = vm.residuals(var, arr)
    if resid.shape[0] - q < 2:
        raise ValueError(
            f"series of length {arr.shape[0]} is too short to train with p={p}, q={q}"
        )
    X, Y = lag_features(resid, q, q), resid[q:]
    topology = FnnTopology(
        input_dim=2 * q,
        hidden_layers=config.hidden_layers,
        output_dim=2,
        activation=config.activation,
    )
    model, trace = train(X, Y, topology, config.train)
    return ModelBundle(
        kind="hybrid",
        config=config,
        var_part=var,
        fnn_part=model,
        var_diagnostics=diagnostics,
        training_trace=trace,
    )


def hybrid_components(bundle: ModelBundle, series):
    """Per evaluated row: VAR forecast, residual prediction, floored combination.

    Returns (indices, var_pred, resid_pred, combined); the decomposition
    identity combined == max(var_pred + resid_pred, 0) holds exactly.
    VAR-only bundles contribute an all-zero residual prediction.
    """
    if bundle.kind == "fnn_only":
        raise ValueError("fnn_only pipelines have no count-space decomposition")
    arr = counts_to_array(series)
    cfg = bundle.config
    p = cfg.var_lag
    warmup = required_warmup(bundle)
    n = arr.shape[0]
    if n <= warmup:
        raise ValueError(
            f"series supplies {n} rows but the pipeline needs more than {warmup}"
        )
    preds = vm.one_step_predictions(bundle.var_part, arr)  # row i targets p + i
    t_idx = np.arange(warmup, n)
    var_pred = preds[t_idx - p]
    if bundle.kind == "hybrid":
        resid = arr[p:] - preds  # causal: residual at u uses rows <= u
        feats = lag_features(resid, cfg.residual_lags, warmup - p)
        resid_pred = forward(bundle.fnn_part, feats)
    else:
        resid_pred = np.zeros_like(var_pred)
    combined = np.maximum(var_pred + resid_pred, 0.0)
    return t_idx, var_pred, resid_pred, combined


def predict(bundle: ModelBundle, series) -> Predictions:
    """One-step-ahead rolling predictions over every row with enough history.

    Output covers rows warmup .. n-1 of ``series`` in order; ``index`` is
    the row's position in ``series``.  Predicted OFI is clamped to
    [-1, 1].  With window_h > 1 the predicted window combines the trailing
    h-1 actual rows (known at prediction time) with the predicted row,
    keeping the evaluation causal.
    """
    arr = counts_to_array(series)
    cfg = bundle.config
    h = cfg.ofi.window_h
    threshold = cfg.ofi.threshold
    warmup = required_warmup(bundle)
    n = arr.shape[0]
    if n <= warmup:
        raise ValueError(
            f"series supplies {n} rows but the pipeline needs more than {warmup}"
        )
    sums = window_sums(arr, h)[warmup - h + 1 :]  # windows ending at rows warmup ..
    actual = ofi(sums[:, 0], sums[:, 1])

    if bundle.kind == "fnn_only":
        feats = lag_features(arr, cfg.residual_lags, warmup)
        predicted = clamp_ofi(forward(bundle.fnn_part, feats)[:, 0])
    else:
        _, _, _, combined = hybrid_components(bundle, arr)
        window = sums - arr[warmup:] + combined  # trailing h-1 actual rows + forecast
        predicted = clamp_ofi(ofi(window[:, 0], window[:, 1]))

    return Predictions(
        index=np.arange(warmup, n),
        actual_ofi=actual,
        predicted_ofi=predicted,
        actual_signal=signal(actual, threshold),
        predicted_signal=signal(predicted, threshold),
    )


def evaluate_on_holdout(bundle: ModelBundle, train_series, holdout_series) -> Predictions:
    """Rolling predictions for every holdout row, warmed up on the train tail.

    Indices are 0-based positions within the holdout.
    """
    warmup = required_warmup(bundle)
    if len(train_series) < warmup:
        raise ValueError(
            f"train series supplies {len(train_series)} rows but warmup needs {warmup}"
        )
    context = list(train_series[len(train_series) - warmup :]) + list(holdout_series)
    records = predict(bundle, context)
    return replace(records, index=records.index - warmup)


def zero_residual_head(bundle: ModelBundle) -> ModelBundle:
    """Hybrid ablation: replace the FNN with one that predicts exactly 0.0,
    leaving the VAR stage untouched."""
    if bundle.kind != "hybrid":
        raise ValueError("zero_residual_head applies to hybrid bundles")
    topo = bundle.fnn_part.topology
    zeroed = FnnModel(
        topology=topo,
        weights=[np.zeros_like(w) for w in bundle.fnn_part.weights],
        biases=[np.zeros_like(b) for b in bundle.fnn_part.biases],
        input_scaler=bundle.fnn_part.input_scaler,
        target_scaler=AffineScaler.identity(topo.output_dim),
    )
    return ModelBundle(
        kind="hybrid", config=bundle.config, var_part=bundle.var_part, fnn_part=zeroed
    )


def config_to_dict(config: PipelineConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> PipelineConfig:
    train_cfg = TrainConfig(**data["train"])
    ofi_cfg = OfiParams(**data["ofi"])
    return PipelineConfig(
        var_lag=data["var_lag"],
        fnn_input_lags=data["fnn_input_lags"],
        hidden_layers=tuple(data["hidden_layers"]),
        activation=data["activation"],
        train=train_cfg,
        ofi=ofi_cfg,
    )


def save_bundle(bundle: ModelBundle, dirpath: str | Path) -> None:
    """Write a bundle directory: the stage files, then manifest.json.

    Bundle files an earlier save left in the directory are removed first,
    manifest first, so an interrupted save leaves no loadable mix; other
    files in the directory are kept.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for name in (MANIFEST_FILE, VAR_FILE, FNN_FILE):
        (dirpath / name).unlink(missing_ok=True)
    if bundle.var_part is not None:
        vm.save_var(bundle.var_part, dirpath / VAR_FILE)
    if bundle.fnn_part is not None:
        save_fnn(bundle.fnn_part, dirpath / FNN_FILE)
    manifest = {
        "format": BUNDLE_FORMAT_TAG,
        "kind": bundle.kind,
        "config": config_to_dict(bundle.config),
    }
    write_json(dirpath / MANIFEST_FILE, manifest)


def write_json(path: str | Path, obj) -> None:
    """Indented, key-sorted, newline-terminated JSON: every JSON file oficast writes."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


class BundleFormatError(ValueError):
    """Bundle directory and manifest disagree; ``field`` names the culprit."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"bundle field {field_name!r}: {message}")
        self.field = field_name


def load_bundle(dirpath: str | Path) -> ModelBundle:
    """Load and cross-validate a bundle directory.

    Any mismatch between the manifest and the stage files raises
    :class:`BundleFormatError` naming the inconsistent field.
    """
    dirpath = Path(dirpath)
    manifest_path = dirpath / MANIFEST_FILE
    if not manifest_path.exists():
        raise FileNotFoundError(str(manifest_path))
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != BUNDLE_FORMAT_TAG:
        raise BundleFormatError("format", f"expected {BUNDLE_FORMAT_TAG!r}")
    kind = manifest.get("kind")
    if kind not in KINDS:
        raise BundleFormatError("kind", f"expected one of {KINDS}, got {kind!r}")
    try:
        config = config_from_dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleFormatError("config", str(exc)) from exc

    var_part = None
    if kind in ("var_only", "hybrid"):
        var_file = dirpath / VAR_FILE
        if not var_file.exists():
            raise BundleFormatError("kind", f"{kind} bundle is missing {VAR_FILE}")
        try:
            var_part = vm.load_var(var_file)
        except ValueError as exc:
            raise BundleFormatError(VAR_FILE, str(exc)) from exc
        if var_part.p != config.var_lag:
            raise BundleFormatError(
                "var_lag",
                f"manifest says {config.var_lag} but {VAR_FILE} was fitted with p={var_part.p}",
            )

    fnn_part = None
    if kind in ("fnn_only", "hybrid"):
        fnn_file = dirpath / FNN_FILE
        if not fnn_file.exists():
            raise BundleFormatError("kind", f"{kind} bundle is missing {FNN_FILE}")
        try:
            fnn_part = load_fnn(fnn_file)
        except ValueError as exc:
            raise BundleFormatError(FNN_FILE, str(exc)) from exc
        topo = fnn_part.topology
        if topo.input_dim != 2 * config.residual_lags:
            raise BundleFormatError(
                "fnn_input_lags",
                f"manifest implies input width {2 * config.residual_lags} "
                f"but {FNN_FILE} has {topo.input_dim}",
            )
        if topo.hidden_layers != config.hidden_layers:
            raise BundleFormatError(
                "hidden_layers",
                f"manifest says {config.hidden_layers} but {FNN_FILE} has {topo.hidden_layers}",
            )
        if topo.activation != config.activation:
            raise BundleFormatError(
                "activation",
                f"manifest says {config.activation!r} but {FNN_FILE} has {topo.activation!r}",
            )
        expected_out = 2 if kind == "hybrid" else 1
        if topo.output_dim != expected_out:
            raise BundleFormatError(
                "kind",
                f"{kind} bundle expects an output width of {expected_out}, "
                f"{FNN_FILE} has {topo.output_dim}",
            )

    # a stage file the declared kind cannot have used means the manifest
    # does not describe this directory
    if kind == "var_only" and (dirpath / FNN_FILE).exists():
        raise BundleFormatError(
            "kind", f"manifest says var_only but {FNN_FILE} is present"
        )
    if kind == "fnn_only" and (dirpath / VAR_FILE).exists():
        raise BundleFormatError(
            "kind", f"manifest says fnn_only but {VAR_FILE} is present"
        )
    return ModelBundle(kind=kind, config=config, var_part=var_part, fnn_part=fnn_part)


PREDICTIONS_HEADER = tuple(f.name for f in fields(Predictions))


def write_predictions_csv(records: Predictions, path: str | Path) -> None:
    """One row per prediction; floats as ``repr``, so they read back exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTIONS_HEADER)
        writer.writerows(
            zip(
                records.index.tolist(),
                map(repr, records.actual_ofi.tolist()),
                map(repr, records.predicted_ofi.tolist()),
                (s.value for s in records.actual_signal),
                (s.value for s in records.predicted_signal),
            )
        )


def _finite_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(token)
    return value


_SIGNAL_NAMED = {s.value: s for s in Signal}
_PARSE_ERRORS = (ValueError, KeyError, OverflowError)

#: Per column of PREDICTIONS_HEADER: token parser, array dtype, what it expects.
_PREDICTION_COLUMNS = (
    (int, np.int64, "an integer"),
    (_finite_float, float, "a finite number"),
    (_finite_float, float, "a finite number"),
    (_SIGNAL_NAMED.__getitem__, object, "BUY, SELL or HOLD"),
    (_SIGNAL_NAMED.__getitem__, object, "BUY, SELL or HOLD"),
)


def read_predictions_csv(path: str | Path) -> Predictions:
    """Inverse of :func:`write_predictions_csv`, one column at a time.  A wrong
    field count, a non-integer index, a non-numeric or non-finite OFI, or an
    unknown signal raises :class:`DataFormatError` naming the file and line."""
    width = len(PREDICTIONS_HEADER)
    rows = list(read_csv_rows(path, PREDICTIONS_HEADER))
    for line, rec in rows:
        if len(rec) != width:
            raise DataFormatError(f"expected {width} fields, got {len(rec)}", line, path)
    columns = {}
    for k, (name, (parse, dtype, expected)) in enumerate(
        zip(PREDICTIONS_HEADER, _PREDICTION_COLUMNS)
    ):
        try:
            columns[name] = np.array([parse(rec[k]) for _, rec in rows], dtype=dtype)
        except _PARSE_ERRORS:
            for line, rec in rows:  # name the first bad line
                try:
                    np.array([parse(rec[k])], dtype=dtype)
                except _PARSE_ERRORS:
                    raise DataFormatError(
                        f"column {name}: expected {expected}, got {rec[k]!r}", line, path
                    ) from None
    return Predictions(**columns)
