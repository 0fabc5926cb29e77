"""Hierarchical conformal prediction intervals for circuit/substation
event-count forecasts, on top of a discrete-time Hawkes count model."""

from ._kernels import USING_NUMBA
from .conformal import (
    AuditRecord,
    IntervalForecast,
    PipelineSettings,
    QuantileEstimate,
    ScoreSet,
    build_interval,
    calibrate,
    empirical_quantile,
    hst_conformal_pipeline,
    nonconformity_score,
    qr_quantile,
    score_bin,
    training_scale,
)
from .data import (
    CountPanel,
    SplitSpec,
    generate_synthetic,
    ingest_events,
    make_bin_grid,
    split,
    write_events,
)
from .errors import DataValidationError, HstcError, NumericalError, PreconditionError
from .evaluation import (
    EvalReport,
    HorizonForecast,
    coverage_counts,
    horizon_forecast,
    rolling_evaluate,
    write_cells_csv,
    write_forecast_csv,
    write_metrics,
)
from .hawkes import (
    FitConfig,
    FitMeta,
    HawkesModel,
    fit,
    intensity,
    log_likelihood,
    log_likelihood_gradient,
    simulate_trajectory,
)
from .topology import NetworkTopology

__version__ = "0.1.0"

__all__ = [
    "AuditRecord",
    "CountPanel",
    "DataValidationError",
    "EvalReport",
    "FitConfig",
    "FitMeta",
    "HawkesModel",
    "HorizonForecast",
    "HstcError",
    "IntervalForecast",
    "NetworkTopology",
    "NumericalError",
    "PipelineSettings",
    "PreconditionError",
    "QuantileEstimate",
    "ScoreSet",
    "SplitSpec",
    "USING_NUMBA",
    "build_interval",
    "calibrate",
    "coverage_counts",
    "empirical_quantile",
    "fit",
    "generate_synthetic",
    "horizon_forecast",
    "hst_conformal_pipeline",
    "ingest_events",
    "intensity",
    "log_likelihood",
    "log_likelihood_gradient",
    "make_bin_grid",
    "nonconformity_score",
    "qr_quantile",
    "rolling_evaluate",
    "score_bin",
    "simulate_trajectory",
    "split",
    "training_scale",
    "write_cells_csv",
    "write_events",
    "write_forecast_csv",
    "write_metrics",
]
