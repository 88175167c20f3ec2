"""Order-flow imbalance forecasting: VAR, feedforward net, and their hybrid."""

from .data_io import (
    CountSeries,
    DataFormatError,
    Side,
    SyntheticSpec,
    TradeEvent,
    aggregate_trades,
    chronological_split,
    generate_synthetic,
    load_counts_csv,
    load_trades_csv,
    write_counts_csv,
)
from .ofi_signal import OfiParams, OfiSeries, Signal, clamp_ofi, ofi, ofi_series, signal
from .var_model import (
    FitDiagnostics,
    RankDeficiencyError,
    VarModel,
    build_lag_matrix,
    fit_var,
    forecast,
    load_var,
    residuals,
    save_var,
    select_lag,
    summary,
)
from .neural_net import (
    FnnModel,
    FnnTopology,
    TrainConfig,
    TrainingTrace,
    backward,
    forward,
    gradient_check,
    load_fnn,
    loss,
    save_fnn,
    train,
)
from .hybrid import (
    ModelBundle,
    PipelineConfig,
    Predictions,
    evaluate_on_holdout,
    fit_fnn_only,
    fit_hybrid,
    fit_var_only,
    load_bundle,
    predict,
    save_bundle,
    zero_residual_head,
)
from .evaluation import (
    EvalReport,
    evaluate_records,
    intensity_metrics,
    mae,
    mse,
    r_squared,
    render_comparison,
)
from .sweep import (
    SweepConfig,
    SweepResult,
    SweepSpace,
    enumerate_grid,
    lhs_sample,
    run_sweep,
)

__version__ = "0.1.0"
