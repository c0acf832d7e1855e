"""gridcast: from-scratch hybrid CNN-RNN one-step-ahead power grid state
forecaster with manual backpropagation, Adam training, and a full
synthesize/train/evaluate/forecast pipeline."""

from .data_pipeline import (Normalizer, StateSeries, SyntheticConfig,
                            build_windows, chronological_split, fit_normalizer,
                            generate_synthetic_series, load_series, save_series)
from .forecaster import (ForecastModel, ModelConfig, cnn_branch_forward,
                         forecast_next, init_model, load_model, param_count,
                         rnn_branch_forward, save_model)
from .training import AdamState, Hyperparams, adam_step, fit_forecaster, multi_run, train
from .evaluation import (ErrorTrace, MetricsReport, ae_stats, evaluate,
                         normalized_rmse, persistence_predictions)

__all__ = [
    "Normalizer", "StateSeries", "SyntheticConfig", "build_windows",
    "chronological_split", "fit_normalizer", "generate_synthetic_series",
    "load_series", "save_series",
    "ForecastModel", "ModelConfig", "cnn_branch_forward", "forecast_next",
    "init_model", "load_model", "param_count", "rnn_branch_forward", "save_model",
    "AdamState", "Hyperparams", "adam_step", "fit_forecaster", "multi_run",
    "train",
    "ErrorTrace", "MetricsReport", "ae_stats", "evaluate", "normalized_rmse",
    "persistence_predictions",
]
