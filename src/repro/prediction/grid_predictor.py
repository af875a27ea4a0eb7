"""The grid-based prediction algorithm (Fig. 17 / Appendix B).

A :class:`GridPredictor` observes, per time instance, the *newly
arriving* worker or task locations, maintains a per-cell sliding window
of counts, and predicts the next instance's arrivals:

1. per cell, extrapolate the count window with the configured
   time-series predictor (linear regression by default);
2. round to a non-negative integer;
3. draw that many uniform samples inside the cell (with replacement);
4. attach a uniform-kernel box to every sample (Section III-A KDE).

Steps 3-4 run in bulk over arrays: one generator call samples every
cell, and the kernel boxes are four bound arrays.

One predictor instance tracks one entity kind; the simulation engine
runs two (workers and tasks).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.geo.grid import GridIndex
from repro.geo.point import Point
from repro.prediction.kde import kde_bandwidth, kernel_bounds
from repro.prediction.predictors import CountPredictor, LinearRegressionPredictor


@dataclass(frozen=True, slots=True)
class PredictedArrivals:
    """Output of one prediction step.

    Attributes:
        xs / ys: predicted entity locations (discrete samples).
        bounds: ``(x_lo, x_hi, y_lo, y_hi)`` of each sample's
            uniform-kernel support box.
        counts: predicted per-cell counts (after rounding), length
            ``grid.num_cells``.
        raw_counts: predictor outputs before rounding/clamping; kept
            for the accuracy experiment (Fig. 10).
    """

    xs: np.ndarray
    ys: np.ndarray
    bounds: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    counts: np.ndarray
    raw_counts: np.ndarray

    @property
    def total(self) -> int:
        """Total number of predicted entities."""
        return int(self.counts.sum())


class GridPredictor:
    """Sliding-window, per-cell arrival count prediction."""

    def __init__(
        self,
        grid: GridIndex,
        window: int,
        predictor: CountPredictor | None = None,
    ) -> None:
        if window < 1:
            raise ValueError(f"window size must be >= 1, got {window}")
        self._grid = grid
        self._window = int(window)
        self._predictor = predictor if predictor is not None else LinearRegressionPredictor()
        self._history: deque[np.ndarray] = deque(maxlen=self._window)

    @property
    def grid(self) -> GridIndex:
        return self._grid

    @property
    def window(self) -> int:
        return self._window

    @property
    def history_length(self) -> int:
        """Number of instances observed so far (capped at the window)."""
        return len(self._history)

    @property
    def is_ready(self) -> bool:
        """True once at least one instance has been observed."""
        return bool(self._history)

    def observe(self, arrivals: Sequence[Point]) -> None:
        """Record the entities that newly joined at the current instance."""
        self._history.append(self._grid.count_points(arrivals))

    def observe_counts(self, counts: np.ndarray) -> None:
        """Record a pre-computed per-cell count vector."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (self._grid.num_cells,):
            raise ValueError(
                f"expected {self._grid.num_cells} cell counts, got shape {counts.shape}"
            )
        if counts.min(initial=0) < 0:
            raise ValueError("cell counts must be non-negative")
        self._history.append(counts.copy())

    def predict_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Predicted per-cell counts for the next instance.

        Returns ``(counts, raw_counts)`` where ``counts`` are rounded to
        non-negative integers and ``raw_counts`` are the raw predictor
        outputs (possibly negative for a falling trend).
        """
        if not self._history:
            raise RuntimeError("predict_counts() called before any observe()")
        window_matrix = np.array(self._history, dtype=float)
        num_cells = self._grid.num_cells
        predict_batch = getattr(self._predictor, "predict_batch", None)
        if predict_batch is not None:
            # Every cell in one vectorized call (the built-in
            # predictors all support it; evaluating the window
            # cell-by-cell used to dominate the prediction step).
            raw = np.asarray(predict_batch(window_matrix), dtype=float)
            if raw.shape != (num_cells,):
                raise ValueError(
                    f"predict_batch returned shape {raw.shape}, "
                    f"expected ({num_cells},)"
                )
        else:
            raw = np.empty(num_cells, dtype=float)
            for cell in range(num_cells):
                raw[cell] = self._predictor.predict(window_matrix[:, cell])
        counts = np.maximum(np.rint(raw), 0.0).astype(np.int64)
        return counts, raw

    def predicted_count_near(self, point: Point, radius: float) -> float:
        """Predicted next-instance arrivals within ``radius`` of ``point``.

        Sums the rounded per-cell forecast over every cell whose area
        intersects the disc (``GridIndex.cells_within_radius``), i.e.
        a cell-resolution upper-ish estimate of local demand — the
        streaming service's "how busy will it be here" query.  Raises
        ``RuntimeError`` before any observation.
        """
        counts, _ = self.predict_counts()
        cells = self._grid.cells_within_radius(point, radius)
        return float(counts[cells].sum())

    def predict(
        self,
        rng: np.random.Generator,
        forecast: tuple[np.ndarray, np.ndarray],
        location_std: tuple[float, float] | None = None,
    ) -> PredictedArrivals:
        """Full prediction step: counts, samples, kernel boxes.

        Args:
            rng: random source for the uniform in-cell sampling.
            forecast: this step's :meth:`predict_counts` result
                ``(counts, raw_counts)``.
            location_std: per-dimension standard deviation of *current*
                entity locations, used for the KDE bandwidth.  When
                omitted, it is estimated from the latest observed
                window by treating cell centers as point masses.
        """
        counts, raw = forecast
        cells = np.flatnonzero(counts)
        xs, ys = self._grid.sample_cells(cells, counts[cells], rng)

        if location_std is None:
            location_std = self._estimate_location_std()
        n = xs.size
        bandwidth_x = kde_bandwidth(location_std[0], n)
        bandwidth_y = kde_bandwidth(location_std[1], n)
        bounds = kernel_bounds(xs, ys, bandwidth_x, bandwidth_y)
        return PredictedArrivals(xs=xs, ys=ys, bounds=bounds, counts=counts, raw_counts=raw)

    def _estimate_location_std(self) -> tuple[float, float]:
        """Std of locations implied by the latest count vector.

        Approximates every entity in a cell by the cell center — exact
        enough for a bandwidth heuristic, and avoids retaining raw
        location lists.
        """
        latest = self._history[-1]
        total = int(latest.sum())
        if total == 0:
            return (0.0, 0.0)
        gamma = self._grid.gamma
        cells = np.nonzero(latest)[0]
        weights = latest[cells].astype(float)
        cols = (cells % gamma + 0.5) / gamma
        rows = (cells // gamma + 0.5) / gamma
        mean_x = float(np.average(cols, weights=weights))
        mean_y = float(np.average(rows, weights=weights))
        var_x = float(np.average((cols - mean_x) ** 2, weights=weights))
        var_y = float(np.average((rows - mean_y) ** 2, weights=weights))
        return (var_x**0.5, var_y**0.5)
