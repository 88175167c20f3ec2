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

import json
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import data_io
from .data_io import (
    INT_COLUMN,
    Column,
    _check_settings,
    _integer_rules,
    _quote,
    _refuse_count_series,
    counts_to_array,
    json_value,
    read_csv_columns,
    write_csv_columns,
)
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
from .var_model import lag_features

BUNDLE_FORMAT_TAG = "oficast-bundle v1"
#: Each pipeline kind by the stages it holds: (a VAR part, an FNN part) -> kind.
_KIND_OF_STAGES = {(True, False): "var_only", (False, True): "fnn_only", (True, True): "hybrid"}
KINDS = tuple(_KIND_OF_STAGES.values())

VAR_FILE = "var.txt"
FNN_FILE = "fnn.txt"
MANIFEST_FILE = "manifest.json"
#: Every file a bundle directory may hold, manifest first.
BUNDLE_FILES = (MANIFEST_FILE, VAR_FILE, FNN_FILE)
#: The bundle field a mismatch in each FnnTopology field names, in the order checked.
_TOPOLOGY_FIELDS = {
    "fnn_input_lags": "input_dim",
    "hidden_layers": "hidden_layers",
    "activation": "activation",
    "kind": "output_dim",  # a residual pair beside a VAR stage, else one OFI
}


class BundleFormatError(ValueError):
    """A bundle's manifest, stage files or stage shapes disagree, or a file
    is malformed; ``field`` names the culprit."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"bundle field {field_name!r}: {message}")
        self.field = field_name


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
        lags = self.fnn_input_lags
        _check_settings(
            *_integer_rules("var_lag", self.var_lag, 1),
            *(() if lags is None else _integer_rules("fnn_input_lags", lags, 1)),
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
    """A fitted pipeline: its configuration and stages, which name its :attr:`kind`."""

    config: PipelineConfig
    var_part: vm.VarModel | None = None
    fnn_part: FnnModel | None = None
    # conveniences captured at fit time; not persisted
    var_diagnostics: vm.FitDiagnostics | None = None
    training_trace: TrainingTrace | None = None

    def __post_init__(self) -> None:
        """The one shape rule: the VAR stage's ``p`` is ``var_lag`` and the
        FNN's topology is :func:`_fnn_topology`'s, or BundleFormatError
        names the first field that differs and quotes both values."""
        if self.var_part is None and self.fnn_part is None:
            raise ValueError("a bundle needs a VAR part, an FNN part or both")
        shape = []  # (bundle field, stage, attribute, implied value, the stage's)
        if self.var_part is not None:
            shape.append(("var_lag", "VAR", "p", self.config.var_lag, self.var_part.p))
        if self.fnn_part is not None:
            try:
                implied = _fnn_topology(self.config, self.var_part is not None)
            except ValueError as exc:  # the config implies no network at all
                raise BundleFormatError("config", str(exc)) from None
            topo = self.fnn_part.topology
            shape += [(name, "FNN", attr, getattr(implied, attr), getattr(topo, attr))
                      for name, attr in _TOPOLOGY_FIELDS.items()]
        for name, stage, attr, want, got in shape:
            if want != got:
                raise BundleFormatError(
                    name,
                    f"expected {attr} {_quote(str(want))}, "
                    f"the {stage} stage has {_quote(str(got))}",
                )

    @property
    def kind(self) -> str:
        return _KIND_OF_STAGES[self.var_part is not None, self.fnn_part is not None]


def _fnn_topology(config: PipelineConfig, has_var: bool) -> FnnTopology:
    """The network ``config`` implies: the last ``residual_lags`` pairs in,
    a residual pair out beside a VAR stage, else one OFI."""
    return FnnTopology(
        input_dim=2 * config.residual_lags,
        hidden_layers=config.hidden_layers,
        output_dim=2 if has_var else 1,
        activation=config.activation,
    )


def required_warmup(bundle: ModelBundle) -> int:
    """Rows of true history a prediction needs before its target row."""
    cfg = bundle.config
    var_rows = cfg.var_lag if bundle.var_part is not None else 0
    fnn_rows = cfg.residual_lags if bundle.fnn_part is not None else 0
    return max(var_rows + fnn_rows, cfg.ofi.window_h - 1)


def fit_var_only(series, config: PipelineConfig) -> ModelBundle:
    arr = counts_to_array(series)
    model, diagnostics = vm.fit_var(arr, config.var_lag)
    return ModelBundle(config=config, var_part=model, var_diagnostics=diagnostics)


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
    topology = _fnn_topology(config, has_var=False)
    model, trace = train(X, targets, topology, config.train)
    return ModelBundle(config=config, fnn_part=model, training_trace=trace)


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
    topology = _fnn_topology(config, has_var=True)
    model, trace = train(X, Y, topology, config.train)
    return ModelBundle(
        config=config,
        var_part=var,
        fnn_part=model,
        var_diagnostics=diagnostics,
        training_trace=trace,
    )


def _checked_warmup(bundle: ModelBundle, n: int) -> int:
    """:func:`required_warmup`, once a series of ``n`` rows is known to exceed it."""
    warmup = required_warmup(bundle)
    if n <= warmup:
        raise ValueError(
            f"series supplies {n} rows but the pipeline needs more than {warmup}"
        )
    return warmup


def _combined(bundle: ModelBundle, arr: np.ndarray, warmup: int):
    """(var_pred, resid_pred, combined) for rows warmup .. n-1 of a count
    array longer than ``warmup``; see :func:`hybrid_components`."""
    p = bundle.config.var_lag
    preds = vm.one_step_predictions(bundle.var_part, arr)  # row i targets p + i
    var_pred = preds[warmup - p :]  # rows warmup .. n-1, a view
    if bundle.fnn_part is not None:
        resid = arr[p:] - preds  # causal: residual at u uses rows <= u
        feats = lag_features(resid, bundle.config.residual_lags, warmup - p)
        resid_pred = forward(bundle.fnn_part, feats)
    else:
        resid_pred = np.zeros_like(var_pred)
    combined = var_pred + resid_pred
    np.maximum(combined, 0.0, out=combined)
    return var_pred, resid_pred, combined


def hybrid_components(bundle: ModelBundle, series):
    """Per evaluated row: VAR forecast, residual prediction, floored combination.

    Returns (indices, var_pred, resid_pred, combined); the decomposition
    identity combined == max(var_pred + resid_pred, 0) holds exactly.
    VAR-only bundles contribute an all-zero residual prediction.
    """
    if bundle.var_part is None:
        raise ValueError("fnn_only pipelines have no count-space decomposition")
    arr = counts_to_array(series)
    warmup = _checked_warmup(bundle, arr.shape[0])
    return (np.arange(warmup, arr.shape[0]), *_combined(bundle, arr, warmup))


def predict(bundle: ModelBundle, series) -> Predictions:
    """One-step-ahead rolling predictions over every row with enough history.

    Output covers rows warmup .. n-1 of ``series`` in order; ``index`` is
    the row's position in ``series``.  Predicted OFI is clamped to
    [-1, 1].  With window_h > 1 the predicted window combines the trailing
    h-1 actual rows (known at prediction time) with the predicted row,
    keeping the evaluation causal.

    Rows run :data:`~oficast.data_io.BLOCK_ROWS` at a time, each
    block with its ``warmup`` rows of context through every stage, into
    the preallocated output columns.  So the memory held is that of the
    series, the output and one block's working set, and the output is
    that of :func:`predict` on each block's context, concatenated.
    """
    arr = counts_to_array(series)
    n = arr.shape[0]
    warmup = _checked_warmup(bundle, n)
    cfg = bundle.config
    h = cfg.ofi.window_h
    threshold = cfg.ofi.threshold
    size = data_io.BLOCK_ROWS
    # actual and predicted OFI, actual and predicted signal
    columns = [np.empty(n - warmup, dtype=dtype) for dtype in (float, float, object, object)]
    for lo in range(warmup, n, size):
        block = arr[lo - warmup : lo + size]  # the block's rows after their context
        sums = window_sums(block, h)[warmup - h + 1 :]  # windows ending at the block's rows
        actual = ofi(sums[:, 0], sums[:, 1])
        if bundle.var_part is None:
            feats = lag_features(block, cfg.residual_lags, warmup)
            predicted = clamp_ofi(forward(bundle.fnn_part, feats)[:, 0])
        else:
            _, _, combined = _combined(bundle, block, warmup)
            window = sums - block[warmup:] + combined  # trailing h-1 actual rows + forecast
            predicted = clamp_ofi(ofi(window[:, 0], window[:, 1]))
        values = (actual, predicted, signal(actual, threshold), signal(predicted, threshold))
        for column, value in zip(columns, values):
            column[lo - warmup : lo - warmup + size] = value
    return Predictions(np.arange(warmup, n), *columns)


def evaluate_on_holdout(bundle: ModelBundle, train_series, holdout_series) -> Predictions:
    """Rolling predictions for every holdout row, warmed up on the train tail
    (both ``(n, 2)`` count arrays).

    Indices are 0-based positions within the holdout.
    """
    _refuse_count_series(train_series, "train_series")
    _refuse_count_series(holdout_series, "holdout_series")
    warmup = required_warmup(bundle)
    if len(train_series) < warmup:
        raise ValueError(
            f"train series supplies {len(train_series)} rows but warmup needs {warmup}"
        )
    context = np.concatenate([train_series[len(train_series) - warmup :], holdout_series])
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
    return ModelBundle(config=bundle.config, var_part=bundle.var_part, fnn_part=zeroed)


def config_to_dict(config: PipelineConfig) -> dict:
    return asdict(config)


def config_from_dict(data: dict) -> PipelineConfig:
    """Inverse of :func:`config_to_dict`."""
    return _from_fields(PipelineConfig, data)


def _from_fields(cls, data):
    """``cls(**data)``, each value read by its field's type: a nested config
    from its object, a ``tuple[int, ...]`` from a list of ints, any other
    value checked by :func:`data_io.json_value`.  A missing or unexpected
    key or a value of the wrong type raises TypeError naming it."""
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__}: expected an object, got {_quote(repr(data))}")
    names = [f.name for f in fields(cls)]
    for key in data:
        if key not in names:
            raise TypeError(
                f"{cls.__name__}.__init__() got an unexpected keyword argument {_quote(key)}"
            )
    for name in names:
        if name not in data:
            raise TypeError(f"{cls.__name__}.__init__() missing keyword argument {_quote(name)}")
    hints = get_type_hints(cls)
    return cls(**{name: _field_value(cls, name, hints[name], data[name]) for name in names})


def _field_value(cls, name: str, hint, value):
    if is_dataclass(hint):
        return _from_fields(hint, value)
    args = get_args(hint)  # (int, NoneType) for int | None, (int, ...) for tuple[int, ...]
    try:
        if get_origin(hint) is tuple:
            if not isinstance(value, (list, tuple)):  # a tuple from config_to_dict
                got = f"{type(value).__name__} {_quote(str(value))}"
                raise ValueError(f"must be a list, got {got}")
            return tuple(json_value(item, args[0]) for item in value)
        return json_value(value, args[0] if args else hint, nullable=type(None) in args)
    except ValueError as exc:
        raise TypeError(f"{cls.__name__}.{name} {exc}") from None


def save_bundle(bundle: ModelBundle, dirpath: str | Path) -> None:
    """Write a bundle directory: the stage files, then manifest.json.

    Bundle files an earlier save left in the directory are removed first,
    manifest first, so an interrupted save leaves no loadable mix; other
    files in the directory are kept.
    """
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    for name in BUNDLE_FILES:
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
    """Indented, key-sorted, newline-terminated JSON: every JSON file oficast
    writes.  NaN or an infinity is not JSON, so it raises ValueError before
    the file is opened."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def load_bundle(dirpath: str | Path) -> ModelBundle:
    """Load and cross-validate a bundle directory.

    Any mismatch between the manifest and the stage files raises
    :class:`BundleFormatError` naming the inconsistent field.
    """
    dirpath = Path(dirpath)
    with open(dirpath / MANIFEST_FILE, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise BundleFormatError(MANIFEST_FILE, str(exc)) from exc
    if not isinstance(manifest, dict) or manifest.get("format") != BUNDLE_FORMAT_TAG:
        raise BundleFormatError("format", f"expected {BUNDLE_FORMAT_TAG!r}")
    kind = manifest.get("kind")
    if kind not in KINDS:
        got = _quote(kind if isinstance(kind, str) else repr(kind))
        raise BundleFormatError("kind", f"expected one of {KINDS}, got {got}")
    try:
        config = config_from_dict(manifest["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise BundleFormatError("config", str(exc)) from exc
    # the stage files present are the kind the directory holds
    has_var, has_fnn = ((dirpath / name).exists() for name in (VAR_FILE, FNN_FILE))
    if _KIND_OF_STAGES.get((has_var, has_fnn)) != kind:
        present = [name for name, here in ((VAR_FILE, has_var), (FNN_FILE, has_fnn)) if here]
        raise BundleFormatError(
            "kind", f"manifest says {kind}, stage files present: {', '.join(present) or 'none'}"
        )

    parts = {}
    for name, here, load in ((VAR_FILE, has_var, vm.load_var), (FNN_FILE, has_fnn, load_fnn)):
        try:
            parts[name] = load(dirpath / name) if here else None
        except ValueError as exc:
            raise BundleFormatError(name, str(exc)) from exc
    # ModelBundle checks the stages' shape against the config
    return ModelBundle(config=config, var_part=parts[VAR_FILE], fnn_part=parts[FNN_FILE])


PREDICTIONS_HEADER = tuple(f.name for f in fields(Predictions))


def write_predictions_csv(records: Predictions, path: str | Path) -> None:
    """One row per prediction; floats as ``repr``, so they read back exactly."""
    write_csv_columns(
        path, PREDICTIONS_HEADER, [getattr(records, name) for name in PREDICTIONS_HEADER]
    )


def _ofis(tokens) -> np.ndarray:
    values = np.array(tokens, dtype=float)
    if not (np.abs(values) <= 1.0).all():  # nan fails the test too
        raise ValueError("OFI outside [-1, 1]")
    return values


_OFI_COLUMN = Column(_ofis, "a number in [-1, 1]")
_SIGNAL_OF = {s.value: s for s in Signal}.__getitem__
_SIGNAL_COLUMN = Column(
    lambda tokens: np.array(list(map(_SIGNAL_OF, tokens)), dtype=object), "BUY, SELL or HOLD"
)
PREDICTIONS_COLUMNS = (INT_COLUMN, _OFI_COLUMN, _OFI_COLUMN, _SIGNAL_COLUMN, _SIGNAL_COLUMN)


def read_predictions_csv(path: str | Path) -> Predictions:
    """Inverse of :func:`write_predictions_csv`.  A wrong field count, a
    non-integer index, an OFI that is not a number in [-1, 1], or an
    unknown signal raises :class:`DataFormatError` naming the file and line."""
    _, columns = read_csv_columns(path, PREDICTIONS_HEADER, PREDICTIONS_COLUMNS)
    return Predictions(*columns)
