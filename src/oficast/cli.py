"""Command-line interface: synth, fit, predict, evaluate, sweep.

Settings resolve in precedence order: command-line flag, then JSON config
file (--config), then built-in default.  The defaults are the library's
standard operating point: lag 2, hidden layers 32,16, relu, adam,
50 epochs, batch size 8, learning rate 0.001, threshold 0.1, window 1.

Each run writes a fully resolved configuration sidecar next to its
outputs, and all randomness flows from the single --seed value through
documented derivations.  Exit status is 0 only when every declared output
was produced.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .data_io import (
    SyntheticSpec,
    chronological_split,
    generate_synthetic,
    load_counts_csv,
    write_counts_csv,
)
from .evaluation import (
    evaluate_records,
    render_comparison,
    write_comparison_csv,
    write_confusion_csv,
)
from .hybrid import (
    PipelineConfig,
    fit_fnn_only,
    fit_hybrid,
    fit_var_only,
    load_bundle,
    predict,
    read_predictions_csv,
    required_warmup,
    save_bundle,
    write_json,
    write_predictions_csv,
)
from .neural_net import TrainConfig, write_trace_csv
from .ofi_signal import OfiParams
from .sweep import (
    SweepSpace,
    best_configurations,
    derive_seed,
    enumerate_grid,
    lhs_sample,
    run_sweep,
    write_heatmap_csv,
    write_sweep_csv,
)
from . import var_model as vm

DEFAULTS = {
    "length": 2000,
    "base_intensity": 4.0,
    "linear_strength": 0.2,
    "nonlinear_strength": 0.95,
    "model": "hybrid",
    "lag": 2,
    "fnn_lags": None,
    "hidden": "32,16",
    "activation": "relu",
    "optimizer": "adam",
    "epochs": 50,
    "batch_size": 8,
    "learning_rate": 0.001,
    "early_stopping": True,
    "patience": 5,
    "validation_fraction": 0.2,
    "threshold": 0.1,
    "window": 1,
    "seed": 0,
    "train_fraction": 0.8,
    "eval_start": None,
    "lags": "1,2,5,10",
    "architectures": "128,64;32,16;32,32;128,64,32;64,32,16",
    "activations": "relu,tanh,sigmoid",
    "optimizers": "adam,sgd",
    "sample": None,
    "workers": 1,
}

#: Value types of the keys whose default is None (unset).
_OPTIONAL_TYPES = {"fnn_lags": int, "eval_start": float, "sample": int}

_MODEL_KINDS = {
    "var": "var_only",
    "var_only": "var_only",
    "fnn": "fnn_only",
    "fnn_only": "fnn_only",
    "hybrid": "hybrid",
}


def _check_type(key: str, value, source: str) -> None:
    """A config-file value must have the type of its default: bool only for
    bools, int (not bool) for ints, int or float for floats, str for
    strings; None only where the default is None."""
    default = DEFAULTS[key]
    if value is None and default is None:
        return
    expected = _OPTIONAL_TYPES.get(key, type(default))
    accepted = (int, float) if expected is float else (expected,)
    if (isinstance(value, bool) and expected is not bool) or not isinstance(value, accepted):
        raise ValueError(
            f"{source}: config key {key!r} must be {expected.__name__}, "
            f"got {type(value).__name__} {value!r}"
        )


def _resolve(args: argparse.Namespace, keys: list[str]) -> dict:
    """flag > config file > default, for the given keys."""
    resolved = {k: DEFAULTS[k] for k in keys}
    config_path = getattr(args, "config", None)
    if config_path:
        with open(config_path, encoding="utf-8") as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"{config_path}: a config file must hold a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            raise ValueError(
                f"unknown config keys for this command: {sorted(unknown)}"
            )
        for key, value in file_values.items():
            _check_type(key, value, config_path)
        resolved.update(file_values)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _parse_hidden(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in str(text).split(","))


def _write_sidecar(out: str | Path, resolved: dict) -> None:
    write_json(str(out) + ".config.json", resolved)


def _model_kind(resolved: dict) -> str:
    kind = _MODEL_KINDS.get(str(resolved["model"]))
    if kind is None:
        raise ValueError(
            f"model must be one of {sorted(set(_MODEL_KINDS))}, got {resolved['model']!r}"
        )
    return kind


#: Config keys of the flags that fit and sweep share (see build_parser).
_COMMON_KEYS = [
    "model", "epochs", "batch_size", "learning_rate", "early_stopping",
    "patience", "validation_fraction", "threshold", "window", "seed",
    "train_fraction",
]

#: TrainConfig fields that fit and sweep both resolve, with their types.
_TRAIN_KEYS = {
    "epochs": int,
    "batch_size": int,
    "learning_rate": float,
    "early_stopping": bool,
    "patience": int,
    "validation_fraction": float,
}


def _train_config(resolved: dict, **fields) -> TrainConfig:
    return TrainConfig(
        **{key: cast(resolved[key]) for key, cast in _TRAIN_KEYS.items()}, **fields
    )


def _ofi_params(resolved: dict) -> OfiParams:
    return OfiParams(
        window_h=int(resolved["window"]), threshold=float(resolved["threshold"])
    )


def cmd_synth(args: argparse.Namespace) -> int:
    keys = ["length", "seed", "base_intensity", "linear_strength", "nonlinear_strength"]
    resolved = _resolve(args, keys)
    generator_seed = derive_seed(int(resolved["seed"]), 0)
    spec = SyntheticSpec(
        length=int(resolved["length"]),
        seed=generator_seed,
        base_intensity=float(resolved["base_intensity"]),
        linear_strength=float(resolved["linear_strength"]),
        nonlinear_strength=float(resolved["nonlinear_strength"]),
    )
    series = generate_synthetic(spec)
    write_counts_csv(args.out, series)
    resolved["generator_seed"] = generator_seed
    resolved["out"] = str(args.out)
    _write_sidecar(args.out, resolved)
    print(f"wrote {len(series)} rows to {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    keys = ["lag", "fnn_lags", "hidden", "activation", "optimizer", *_COMMON_KEYS]
    resolved = _resolve(args, keys)
    kind = _model_kind(resolved)
    series = load_counts_csv(args.data)
    fraction = float(resolved["train_fraction"])
    if fraction >= 1.0:
        train_rows = series
    else:
        train_rows, _ = chronological_split(series, fraction)
    fnn_lags = resolved["fnn_lags"]
    config = PipelineConfig(
        var_lag=int(resolved["lag"]),
        fnn_input_lags=None if fnn_lags is None else int(fnn_lags),
        hidden_layers=_parse_hidden(resolved["hidden"]),
        activation=resolved["activation"],
        train=_train_config(
            resolved,
            optimizer=resolved["optimizer"],
            seed=derive_seed(int(resolved["seed"]), 1),
        ),
        ofi=_ofi_params(resolved),
    )
    fitter = {
        "var_only": fit_var_only,
        "fnn_only": fit_fnn_only,
        "hybrid": fit_hybrid,
    }[kind]
    bundle = fitter(train_rows, config)
    out_dir = Path(args.out)
    for name in ("trace.csv", "run_config.json"):  # an earlier fit's, if any
        (out_dir / name).unlink(missing_ok=True)
    save_bundle(bundle, out_dir)
    if bundle.training_trace is not None:
        write_trace_csv(bundle.training_trace, out_dir / "trace.csv")
    if bundle.var_part is not None and bundle.var_diagnostics is not None:
        print(vm.summary(bundle.var_part, bundle.var_diagnostics))
    resolved["data"] = str(args.data)
    resolved["out"] = str(out_dir)
    resolved["kind"] = kind
    resolved["train_rows"] = len(train_rows)
    write_json(out_dir / "run_config.json", resolved)
    print(f"saved {kind} bundle to {out_dir}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    resolved = _resolve(args, ["eval_start"])
    bundle = load_bundle(args.bundle)
    series = load_counts_csv(args.data)
    records = predict(bundle, series)
    eval_start = resolved["eval_start"]
    if eval_start is not None:
        start = float(eval_start)
        if not 0.0 <= start < 1.0:
            raise ValueError(f"eval-start must lie in [0, 1), got {start}")
        records = records.take(records.index >= int(start * len(series)))
        if not len(records):
            raise ValueError(
                f"eval-start {start} leaves no predictable rows "
                f"(warmup is {required_warmup(bundle)})"
            )
    write_predictions_csv(records, args.out)
    resolved["bundle"] = str(args.bundle)
    resolved["data"] = str(args.data)
    resolved["out"] = str(args.out)
    resolved["rows"] = len(records)
    _write_sidecar(args.out, resolved)
    print(f"wrote {len(records)} predictions to {args.out}")
    return 0


def _safe_label(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in text)


def cmd_evaluate(args: argparse.Namespace) -> int:
    labels = args.labels or []
    if labels and len(labels) != len(args.predictions):
        raise ValueError(
            f"got {len(labels)} labels for {len(args.predictions)} prediction files"
        )
    reports = []
    for i, pred_path in enumerate(args.predictions):
        label = labels[i] if labels else Path(pred_path).stem
        dataset, slash, model = label.partition("/")
        model = model if slash else "model"
        records = read_predictions_csv(pred_path)
        reports.append(evaluate_records(records, dataset, model))
    table = render_comparison(reports)
    print(table)
    write_comparison_csv(reports, args.out)
    out = Path(args.out)
    for report in reports:
        conf_path = out.with_name(
            f"{out.stem}.confusion.{_safe_label(report.dataset)}.{_safe_label(report.model)}.csv"
        )
        write_confusion_csv(report.confusion, conf_path)
    _write_sidecar(
        args.out,
        {
            "predictions": [str(p) for p in args.predictions],
            "labels": labels,
            "out": str(args.out),
        },
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    keys = ["lags", "architectures", "activations", "optimizers", "sample", "workers"]
    keys += _COMMON_KEYS
    resolved = _resolve(args, keys)
    kind = _model_kind(resolved)
    space = SweepSpace(
        lags=tuple(int(tok) for tok in str(resolved["lags"]).split(",")),
        architectures=tuple(
            _parse_hidden(part) for part in str(resolved["architectures"]).split(";")
        ),
        activations=tuple(str(resolved["activations"]).split(",")),
        optimizers=tuple(str(resolved["optimizers"]).split(",")),
    )
    master = int(resolved["seed"])
    sample = resolved["sample"]
    if sample is None:
        configs = enumerate_grid(space)
    else:
        configs = lhs_sample(space, int(sample), derive_seed(master, 2))
    datasets = []
    for path in args.datasets:
        datasets.append((Path(path).stem, load_counts_csv(path)))
    results = run_sweep(
        configs,
        datasets,
        kind,
        master,
        train_fraction=float(resolved["train_fraction"]),
        train_template=_train_config(resolved),
        ofi_params=_ofi_params(resolved),
        workers=int(resolved["workers"]),
    )
    write_sweep_csv(results, args.out)
    write_heatmap_csv(results, str(args.out) + ".heatmap.csv")
    best = best_configurations(results)
    write_json(str(args.out) + ".best.json", best)
    resolved["datasets"] = [str(p) for p in args.datasets]
    resolved["out"] = str(args.out)
    resolved["cells"] = len(results)
    _write_sidecar(args.out, resolved)
    print(f"ran {len(results)} cells over {len(configs)} configurations")
    for metric, entry in best.items():
        print(
            f"best {metric}: lag={entry['lag']} arch={entry['architecture']} "
            f"{entry['activation']}/{entry['optimizer']} -> {entry['value']:.6f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oficast",
        description="Order-flow imbalance forecasting: VAR, FNN, and hybrid pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a seeded synthetic counts CSV")
    p_synth.add_argument("--out", required=True, help="output counts CSV path")
    p_synth.add_argument("--length", type=int)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--base-intensity", dest="base_intensity", type=float)
    p_synth.add_argument("--linear-strength", dest="linear_strength", type=float)
    p_synth.add_argument("--nonlinear-strength", dest="nonlinear_strength", type=float)
    p_synth.add_argument("--config", help="JSON config file")
    p_synth.set_defaults(func=cmd_synth)

    # flags that fit and sweep share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", choices=sorted(set(_MODEL_KINDS)))
    common.add_argument("--epochs", type=int)
    common.add_argument("--batch-size", dest="batch_size", type=int)
    common.add_argument("--learning-rate", dest="learning_rate", type=float)
    common.add_argument(
        "--no-early-stopping",
        dest="early_stopping",
        action="store_const",
        const=False,
    )
    common.add_argument("--patience", type=int)
    common.add_argument(
        "--validation-fraction", dest="validation_fraction", type=float
    )
    common.add_argument("--threshold", type=float)
    common.add_argument("--window", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument(
        "--train-fraction",
        dest="train_fraction",
        type=float,
        help="train on the first fraction of rows; fit also accepts 1.0 (all rows)",
    )
    common.add_argument("--config", help="JSON config file")

    p_fit = sub.add_parser(
        "fit", parents=[common], help="fit a pipeline and save the model bundle"
    )
    p_fit.add_argument("--data", required=True, help="counts CSV to fit on")
    p_fit.add_argument("--out", required=True, help="bundle output directory")
    p_fit.add_argument("--lag", type=int)
    p_fit.add_argument("--fnn-lags", dest="fnn_lags", type=int)
    p_fit.add_argument("--hidden", help="hidden layer widths, e.g. 32,16")
    p_fit.add_argument("--activation", choices=["relu", "tanh", "sigmoid"])
    p_fit.add_argument("--optimizer", choices=["adam", "sgd"])
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="rolling predictions from a saved bundle")
    p_pred.add_argument("--bundle", required=True, help="bundle directory")
    p_pred.add_argument("--data", required=True, help="counts CSV to predict over")
    p_pred.add_argument("--out", required=True, help="output predictions CSV")
    p_pred.add_argument(
        "--eval-start",
        dest="eval_start",
        type=float,
        help="keep predictions from this fraction of the series on",
    )
    p_pred.add_argument("--config", help="JSON config file")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="metric table from prediction CSVs")
    p_eval.add_argument("predictions", nargs="+", help="prediction CSV files")
    p_eval.add_argument(
        "--labels",
        nargs="*",
        help="dataset/model label per file, e.g. synthetic/hybrid",
    )
    p_eval.add_argument("--out", required=True, help="comparison CSV path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser(
        "sweep", parents=[common], help="hyperparameter sweep over datasets"
    )
    p_sweep.add_argument("--datasets", nargs="+", required=True, help="counts CSVs")
    p_sweep.add_argument("--out", required=True, help="results CSV path")
    p_sweep.add_argument("--lags", help="comma list, e.g. 1,2,5,10")
    p_sweep.add_argument(
        "--architectures", help="semicolon-separated comma lists, e.g. 32,16;128,64"
    )
    p_sweep.add_argument("--activations", help="comma list")
    p_sweep.add_argument("--optimizers", help="comma list")
    p_sweep.add_argument(
        "--sample", type=int, help="Latin-hypercube subsample size instead of the full grid"
    )
    p_sweep.add_argument("--workers", type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
