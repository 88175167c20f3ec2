"""Command-line interface: synth, fit, predict, evaluate, sweep.

Settings resolve in precedence order: command-line flag, then JSON config
file (--config), then built-in default.  ``SETTINGS`` declares each one
(its default, type and help) and ``COMMAND_KEYS`` the commands that take
it; most defaults are read from the library's own configuration classes.

Each run writes a sidecar next to its outputs recording its resolved
settings, its file arguments and the facts it derived, and all randomness
flows from the single --seed value through documented derivations.  Exit
status is 0 only when every declared output was produced; a command that
fails while writing leaves none of its outputs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields, replace
from itertools import takewhile
from pathlib import Path

# One BLAS/OpenMP thread per process unless the environment says otherwise.
# The model's matmuls (at most 400x128 by 128x64 in the sweep) are too
# small for BLAS threads to help, and one thread per core in every pool
# worker oversubscribes the cores.  The libraries read these variables
# once, when numpy first loads, so this must run before the imports below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .data_io import (
    SyntheticSpec,
    _check_settings,
    _quote,
    chronological_split,
    generate_synthetic,
    json_value,
    load_counts_csv,
    split_row,
    write_counts_csv,
)
from .evaluation import (
    evaluate_records,
    render_comparison,
    write_comparison_csv,
    write_confusion_csv,
)
from .hybrid import (
    BUNDLE_FILES,
    KINDS,
    PipelineConfig,
    _fnn_topology,
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
from .neural_net import ACTIVATIONS, OPTIMIZERS, TrainConfig, write_trace_csv
from .ofi_signal import OfiParams
from .sweep import (
    DEFAULT_ARCHITECTURES,
    DEFAULT_LAGS,
    SweepSpace,
    _run_rules,
    best_configurations,
    derive_seed,
    enumerate_grid,
    lhs_sample,
    run_sweep,
    write_heatmap_csv,
    write_sweep_csv,
)
from . import var_model as vm

#: Every command-line setting: config key -> (default, type, help).  The
#: flag is the key with dashes (``batch_size`` -> ``--batch-size``); a bool
#: setting defaults to True and its flag is ``--no-`` plus the key.
SETTINGS = {
    "length": (2000, int, None),
    "base_intensity": (SyntheticSpec.base_intensity, float, None),
    "linear_strength": (SyntheticSpec.linear_strength, float, None),
    "nonlinear_strength": (SyntheticSpec.nonlinear_strength, float, None),
    "model": ("hybrid", str, None),
    "lag": (PipelineConfig.var_lag, int, None),
    "fnn_lags": (PipelineConfig.fnn_input_lags, int, None),
    "hidden": (
        ",".join(map(str, PipelineConfig.hidden_layers)),
        str,
        "hidden layer widths, e.g. 32,16",
    ),
    "activation": (PipelineConfig.activation, str, None),
    "optimizer": (TrainConfig.optimizer, str, None),
    "epochs": (TrainConfig.epochs, int, None),
    "batch_size": (TrainConfig.batch_size, int, None),
    "learning_rate": (TrainConfig.learning_rate, float, None),
    "early_stopping": (TrainConfig.early_stopping, bool, None),
    "patience": (TrainConfig.patience, int, None),
    "validation_fraction": (TrainConfig.validation_fraction, float, None),
    "threshold": (OfiParams.threshold, float, None),
    "window": (OfiParams.window_h, int, None),
    "seed": (0, int, None),
    "train_fraction": (
        0.8,
        float,
        "train on the first fraction of rows; fit also accepts 1.0 (all rows)",
    ),
    "eval_start": (None, float, "keep predictions from this fraction of the series on"),
    "lags": (",".join(map(str, DEFAULT_LAGS)), str, "comma list, e.g. 1,2,5,10"),
    "architectures": (
        ";".join(",".join(map(str, arch)) for arch in DEFAULT_ARCHITECTURES),
        str,
        "semicolon-separated comma lists, e.g. 32,16;128,64",
    ),
    "activations": (",".join(ACTIVATIONS), str, "comma list"),
    "optimizers": (",".join(OPTIMIZERS), str, "comma list"),
    "sample": (None, int, "Latin-hypercube subsample size instead of the full grid"),
    "workers": (1, int, None),
}

DEFAULTS = {key: default for key, (default, _, _) in SETTINGS.items()}

#: The settings whose library field has another name (any other fills the field
#: of its own name); ``seed`` fills none, as every library seed is derived from it.
_FIELD_NAMES = {"lag": "var_lag", "fnn_lags": "fnn_input_lags", "hidden": "hidden_layers",
                "window": "window_h", "seed": None}

#: Settings shared by fit and sweep.
_COMMON_KEYS = (
    "model", "epochs", "batch_size", "learning_rate", "early_stopping",
    "patience", "validation_fraction", "threshold", "window", "seed",
    "train_fraction",
)

#: The settings of each command that has any; each also takes --config.
COMMAND_KEYS = {
    "synth": (
        "length", "seed", "base_intensity", "linear_strength", "nonlinear_strength"
    ),
    "fit": ("lag", "fnn_lags", "hidden", "activation", "optimizer", *_COMMON_KEYS),
    "predict": ("eval_start",),
    "sweep": (
        "lags", "architectures", "activations", "optimizers", "sample", "workers",
        *_COMMON_KEYS,
    ),
}

#: ``--model`` names: each kind, and each ``_only`` kind without its suffix.
_MODEL_KINDS = {name: kind for kind in KINDS for name in (kind, kind.removesuffix("_only"))}

#: The values a setting's flag accepts, where only a few are valid.
_CHOICES = {
    "model": sorted(_MODEL_KINDS),
    "activation": ACTIVATIONS,
    "optimizer": OPTIMIZERS,
}


def _config_value(key: str, value, source: str):
    """A config-file value, which must have its setting's type by
    :func:`json_value`; None only where the default is None."""
    default, expected, _ = SETTINGS[key]
    try:
        return json_value(value, expected, nullable=default is None)
    except ValueError as exc:
        raise ValueError(f"{source}: config key {key!r} {exc}") from None


def _resolve(args: argparse.Namespace) -> dict:
    """flag > config file > default, for the command's settings."""
    keys = COMMAND_KEYS[args.command]
    resolved = {k: DEFAULTS[k] for k in keys}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                file_values = json.load(fh)
            except ValueError as exc:  # not JSON, or not UTF-8
                raise ValueError(f"{args.config}: {exc}") from exc
        if not isinstance(file_values, dict):
            raise ValueError(f"{args.config}: a config file must hold a JSON object")
        unknown = set(file_values) - set(keys)
        if unknown:
            shown = ", ".join(map(_quote, sorted(unknown)))
            raise ValueError(f"{args.config}: unknown config keys for this command: {shown}")
        for key, value in file_values.items():
            resolved[key] = _config_value(key, value, args.config)
    for key in keys:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    return resolved


def _int_list(key: str, text: str) -> tuple[int, ...]:
    """The comma list of integers ``text`` of setting ``key``; a token that is
    not an integer is a ValueError naming the setting and the token."""
    values = []
    for tok in text.split(","):
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(
                f"{key}: expected a comma list of integers, got {_quote(tok)}"
            ) from None
    return tuple(values)


def _sidecar_path(args: argparse.Namespace) -> Path:
    """Where a run is recorded: inside the bundle for fit, else beside --out."""
    if args.command == "fit":
        return Path(args.out, "run_config.json")
    return Path(args.out + ".config.json")


def _write_sidecar(args: argparse.Namespace, resolved: dict, **facts) -> None:
    """Record a run: its resolved settings, its file arguments as given (the
    parsed arguments but the settings and --config) and the facts it derived."""
    skip = {*resolved, "command", "func", "config"}
    given = {key: value for key, value in vars(args).items() if key not in skip}
    write_json(_sidecar_path(args), {**resolved, **given, **facts})


@contextmanager
def _all_or_none(*paths, dirs=()):
    """Remove every one of ``paths``, older copies included, then each of
    ``dirs`` in order if it is empty, if the block raises; the block's own
    error is the one that propagates."""
    try:
        yield
    except BaseException:
        for remove, targets in ((os.remove, paths), (os.rmdir, dirs)):
            for path in targets:
                with suppress(OSError):
                    remove(path)
        raise


def _model_kind(resolved: dict) -> str:
    model = resolved["model"]
    _check_settings(
        ("model", f"be one of {sorted(_MODEL_KINDS)}", model, _MODEL_KINDS.__contains__)
    )
    return _MODEL_KINDS[model]


def _build(cls, resolved: dict, **given):
    """``cls`` built from every resolved setting that names one of its fields,
    by :data:`_FIELD_NAMES` or else by its own name, and from ``given``."""
    names = {f.name for f in fields(cls)}
    renamed = ((_FIELD_NAMES.get(key, key), value) for key, value in resolved.items())
    return cls(**{name: value for name, value in renamed if name in names}, **given)


def cmd_synth(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    generator_seed = derive_seed(resolved["seed"], 0)
    series = generate_synthetic(_build(SyntheticSpec, resolved, seed=generator_seed))
    with _all_or_none(args.out, _sidecar_path(args)):
        write_counts_csv(args.out, series)
        _write_sidecar(args, resolved, generator_seed=generator_seed)
    print(f"wrote {len(series)} rows to {args.out}")
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    kind = _model_kind(resolved)
    fraction = resolved["train_fraction"]
    _check_settings(("train_fraction", "lie in (0, 1]", fraction, lambda f: 0.0 < f <= 1.0))
    config = _build(
        PipelineConfig,
        {**resolved, "hidden": _int_list("hidden", resolved["hidden"])},
        train=_build(TrainConfig, resolved),
        ofi=_build(OfiParams, resolved),
    )
    if kind != "var_only":  # the network's widths and activation, as the fitter builds it
        _fnn_topology(config, kind == "hybrid")
    series = load_counts_csv(args.data).counts
    if fraction == 1.0:
        train_rows = series
    else:
        train_rows, _ = chronological_split(series, fraction)
    # the first seed derived loads numpy.random, which then reuses the memory the
    # CSV load freed: deriving it before the load raised fit's peak RSS 2.5 MB
    # (6%) on a 10^5-row file
    train = replace(config.train, seed=derive_seed(resolved["seed"], 1))
    fitter = {
        "var_only": fit_var_only,
        "fnn_only": fit_fnn_only,
        "hybrid": fit_hybrid,
    }[kind]
    bundle = fitter(train_rows, replace(config, train=train))
    out_dir = Path(args.out)
    trace, record = out_dir / "trace.csv", _sidecar_path(args)
    for path in (trace, record):  # an earlier fit's
        path.unlink(missing_ok=True)
    # the directories save_bundle will make, deepest first
    fresh = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
    files = (*(out_dir / name for name in BUNDLE_FILES), trace, record)
    with _all_or_none(*files, dirs=fresh):
        save_bundle(bundle, out_dir)
        if bundle.training_trace is not None:
            write_trace_csv(bundle.training_trace, trace)
        _write_sidecar(args, resolved, kind=kind, train_rows=len(train_rows))
    if bundle.var_part is not None and bundle.var_diagnostics is not None:
        print(vm.summary(bundle.var_part, bundle.var_diagnostics))
    print(f"saved {kind} bundle to {out_dir}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    bundle = load_bundle(args.bundle)
    series = load_counts_csv(args.data).counts
    start = resolved["eval_start"]
    warmup = required_warmup(bundle)
    first = 0  # the first row predict sees: the kept rows' warmup context
    if start is not None and len(series) > warmup:  # else predict names the short series
        _check_settings(("eval-start", "lie in [0, 1)", start, lambda s: 0.0 <= s < 1.0))
        kept = split_row(start, len(series))  # the first row fit would hold out
        if kept == len(series):
            raise ValueError(
                f"eval-start={start} leaves no rows to predict for n={len(series)}"
            )
        first = max(kept - warmup, 0)
    records = predict(bundle, series[first:])
    records.index[:] += first  # back to rows of the series, in place
    with _all_or_none(args.out, _sidecar_path(args)):
        write_predictions_csv(records, args.out)
        _write_sidecar(args, resolved, rows=len(records))
    print(f"wrote {len(records)} predictions to {args.out}")
    return 0


def _safe_label(text: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "_" for c in text)


def cmd_evaluate(args: argparse.Namespace) -> int:
    labels = args.labels
    if labels and len(labels) != len(args.predictions):
        raise ValueError(
            f"got {len(labels)} labels for {len(args.predictions)} prediction files"
        )
    out = Path(args.out)
    conf_paths = {}  # confusion file -> the label that names it
    reports = []
    for i, pred_path in enumerate(args.predictions):
        label = labels[i] if labels else Path(pred_path).stem
        dataset, slash, model = label.partition("/")
        model = model if slash else "model"
        conf_path = out.with_name(
            f"{out.stem}.confusion.{_safe_label(dataset)}.{_safe_label(model)}.csv"
        )
        if conf_path in conf_paths:
            raise ValueError(
                f"labels {_quote(conf_paths[conf_path])} and {_quote(label)} "
                f"both name the confusion file {_quote(conf_path.name)}"
            )
        conf_paths[conf_path] = label
        records = read_predictions_csv(pred_path)
        try:
            reports.append(evaluate_records(records, dataset, model))
        except ValueError as exc:  # an empty file, or constant actual OFI
            raise ValueError(f"{pred_path}: {exc}") from None
    table = render_comparison(reports)
    print(table)
    with _all_or_none(args.out, *conf_paths, _sidecar_path(args)):
        write_comparison_csv(reports, args.out)
        for report, conf_path in zip(reports, conf_paths):
            write_confusion_csv(report.confusion, conf_path)
        _write_sidecar(args, {})
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    resolved = _resolve(args)
    kind = _model_kind(resolved)
    space = SweepSpace(
        lags=_int_list("lags", resolved["lags"]),
        architectures=tuple(
            _int_list("architectures", part) for part in resolved["architectures"].split(";")
        ),
        activations=tuple(resolved["activations"].split(",")),
        optimizers=tuple(resolved["optimizers"].split(",")),
    )
    master = resolved["seed"]
    sample = resolved["sample"]
    if sample is None:
        configs = enumerate_grid(space)
    else:
        _check_settings(("sample", f"lie in [1, {space.size}]", sample,
                         lambda s: 1 <= s <= space.size))
        configs = lhs_sample(space, sample, derive_seed(master, 2))
    train, ofi = _build(TrainConfig, resolved), _build(OfiParams, resolved)
    _check_settings(*_run_rules(resolved["workers"], resolved["train_fraction"]))
    datasets = []
    for path in args.datasets:
        datasets.append((Path(path).stem, load_counts_csv(path).counts))
    results = run_sweep(
        configs,
        datasets,
        kind,
        master,
        train_fraction=resolved["train_fraction"],
        train_template=train,
        ofi_params=ofi,
        workers=resolved["workers"],
    )
    best = best_configurations(results)  # raises, before any write, if no cell is ok
    heatmap, best_json = args.out + ".heatmap.csv", args.out + ".best.json"
    with _all_or_none(args.out, heatmap, best_json, _sidecar_path(args)):
        write_sweep_csv(results, args.out)
        write_heatmap_csv(results, heatmap)
        write_json(best_json, best)
        _write_sidecar(args, resolved, cells=len(results))
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
    p_synth.set_defaults(func=cmd_synth)

    p_fit = sub.add_parser("fit", help="fit a pipeline and save the model bundle")
    p_fit.add_argument("--data", required=True, help="counts CSV to fit on")
    p_fit.add_argument("--out", required=True, help="bundle output directory")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="rolling predictions from a saved bundle")
    p_pred.add_argument("--bundle", required=True, help="bundle directory")
    p_pred.add_argument("--data", required=True, help="counts CSV to predict over")
    p_pred.add_argument("--out", required=True, help="output predictions CSV")
    p_pred.set_defaults(func=cmd_predict)

    p_eval = sub.add_parser("evaluate", help="metric table from prediction CSVs")
    p_eval.add_argument("predictions", nargs="+", help="prediction CSV files")
    p_eval.add_argument(
        "--labels",
        nargs="*",
        default=[],
        help="dataset/model label per file, e.g. synthetic/hybrid",
    )
    p_eval.add_argument("--out", required=True, help="comparison CSV path")
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="hyperparameter sweep over datasets")
    p_sweep.add_argument("--datasets", nargs="+", required=True, help="counts CSVs")
    p_sweep.add_argument("--out", required=True, help="results CSV path")
    p_sweep.set_defaults(func=cmd_sweep)

    for command, keys in COMMAND_KEYS.items():
        p_cmd = sub.choices[command]
        for key in keys:
            _, kind, help_text = SETTINGS[key]
            flag = key.replace("_", "-")
            if kind is bool:
                p_cmd.add_argument(
                    f"--no-{flag}", dest=key, action="store_const", const=False,
                    help=help_text,
                )
            else:
                p_cmd.add_argument(
                    f"--{flag}", type=kind, choices=_CHOICES.get(key), help=help_text
                )
        p_cmd.add_argument("--config", help="JSON config file")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except (ValueError, OSError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
