"""Grid-based worker/task prediction (Section III of the paper).

The predictor keeps, for every grid cell, a sliding window of the last
``w`` per-instance arrival counts, extrapolates the next count with a
pluggable time-series predictor (linear regression in the paper), and
materializes that many uniform samples inside the cell.  Kernel density
estimation with a uniform kernel turns each sample into a location
*distribution* (a box), from which the uncertainty substrate derives
cost statistics.
"""

from repro.prediction.regression import fit_line, predict_next_linear
from repro.prediction.predictors import (
    CountPredictor,
    LinearRegressionPredictor,
    MeanPredictor,
    LastValuePredictor,
    ExponentialSmoothingPredictor,
    make_predictor,
)
from repro.prediction.kde import (
    UNIFORM_KERNEL_CONSTANT,
    kde_bandwidth,
    kernel_bounds,
)
from repro.prediction.grid_predictor import GridPredictor, PredictedArrivals
from repro.prediction.accuracy import relative_errors, average_relative_error
from repro.prediction.gamma import best_gamma

__all__ = [
    "fit_line",
    "predict_next_linear",
    "CountPredictor",
    "LinearRegressionPredictor",
    "MeanPredictor",
    "LastValuePredictor",
    "ExponentialSmoothingPredictor",
    "make_predictor",
    "UNIFORM_KERNEL_CONSTANT",
    "kde_bandwidth",
    "kernel_bounds",
    "GridPredictor",
    "PredictedArrivals",
    "relative_errors",
    "average_relative_error",
    "best_gamma",
]
