"""Prediction accuracy measurement for Fig. 10.

The paper evaluates the grid predictor by the *average relative error*
of per-cell counts:  ``|est - act| / act`` summed over cells and divided
by the number of cells.  Cells whose actual count is zero would divide
by zero; we treat their denominator as 1 (so an estimate of ``e`` for an
empty cell contributes an error of ``e``), documented in EXPERIMENTS.md,
"Deviation analysis".
"""

from __future__ import annotations

import numpy as np


def relative_errors(estimated: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Per-cell relative errors ``|est - act| / max(act, 1)``."""
    estimated = np.asarray(estimated, dtype=float)
    actual = np.asarray(actual, dtype=float)
    if estimated.shape != actual.shape:
        raise ValueError(
            f"shape mismatch: estimated {estimated.shape} vs actual {actual.shape}"
        )
    if actual.size and actual.min() < 0.0:
        raise ValueError("actual counts must be non-negative")
    denominator = np.maximum(actual, 1.0)
    return np.abs(estimated - actual) / denominator


def average_relative_error(estimated: np.ndarray, actual: np.ndarray) -> float:
    """The Fig. 10 metric: mean of per-cell relative errors."""
    errors = relative_errors(estimated, actual)
    if errors.size == 0:
        raise ValueError("cannot average over zero cells")
    return float(errors.mean())
