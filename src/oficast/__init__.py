"""Order-flow imbalance forecasting: VAR, feedforward net, and their hybrid.

The public names below load lazily (PEP 562): ``import oficast`` imports
no submodule and so no numpy, and each name imports its submodule on
first access.  That lets ``oficast.cli`` set the BLAS thread variables
before numpy first loads.
"""
from __future__ import annotations

import importlib

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "data_io": (
            "CountSeries", "DataFormatError", "SyntheticSpec",
            "chronological_split", "generate_synthetic", "load_counts_csv",
            "write_counts_csv",
        ),
        "ofi_signal": (
            "OfiParams", "Signal", "clamp_ofi", "ofi", "signal",
        ),
        "var_model": (
            "FitDiagnostics", "RankDeficiencyError", "VarModel",
            "build_lag_matrix", "fit_var", "load_var", "residuals",
            "save_var", "summary",
        ),
        "neural_net": (
            "FnnModel", "FnnTopology", "TrainConfig", "TrainingTrace",
            "backward", "forward", "gradient_check", "load_fnn", "loss",
            "save_fnn", "train",
        ),
        "hybrid": (
            "ModelBundle", "PipelineConfig", "Predictions",
            "evaluate_on_holdout", "fit_fnn_only", "fit_hybrid",
            "fit_var_only", "load_bundle", "predict", "save_bundle",
            "zero_residual_head",
        ),
        "evaluation": (
            "EvalReport", "evaluate_records", "intensity_metrics", "mae",
            "mse", "r_squared", "render_comparison",
        ),
        "sweep": (
            "SweepConfig", "SweepResult", "SweepSpace", "enumerate_grid",
            "lhs_sample", "run_sweep",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name, or one of the submodules that define them."""
    if name in _EXPORTS:
        return getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    if name in _EXPORTS.values():
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
