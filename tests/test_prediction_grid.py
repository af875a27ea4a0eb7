"""Tests for repro.prediction.grid_predictor."""

import numpy as np
import pytest

from repro.geo.grid import GridIndex
from repro.geo.point import Point
from repro.prediction.grid_predictor import GridPredictor
from repro.prediction.predictors import LastValuePredictor, MeanPredictor


def points_in_cell(grid: GridIndex, cell: int, count: int) -> list[Point]:
    center = grid.cell_center(cell)
    return [center] * count


class TestGridPredictor:
    def test_requires_positive_window(self):
        with pytest.raises(ValueError):
            GridPredictor(GridIndex(4), 0)

    def test_not_ready_before_observe(self):
        predictor = GridPredictor(GridIndex(4), 3)
        assert not predictor.is_ready
        with pytest.raises(RuntimeError):
            predictor.predict_counts()

    def test_constant_stream_predicted_exactly(self):
        grid = GridIndex(2)
        predictor = GridPredictor(grid, 3)
        arrivals = points_in_cell(grid, 1, 5) + points_in_cell(grid, 2, 2)
        for _ in range(3):
            predictor.observe(arrivals)
        counts, raw = predictor.predict_counts()
        assert counts[1] == 5
        assert counts[2] == 2
        assert counts[0] == 0
        assert counts[3] == 0

    def test_linear_trend_extrapolated_per_cell(self):
        grid = GridIndex(2)
        predictor = GridPredictor(grid, 3)
        for count in (1, 2, 3):
            predictor.observe(points_in_cell(grid, 0, count))
        counts, _ = predictor.predict_counts()
        assert counts[0] == 4

    def test_falling_trend_clamped_to_zero(self):
        grid = GridIndex(1)
        predictor = GridPredictor(grid, 3)
        for count in (4, 2, 0):
            predictor.observe(points_in_cell(grid, 0, count))
        counts, raw = predictor.predict_counts()
        assert counts[0] == 0
        assert raw[0] < 0.0

    def test_window_slides(self):
        grid = GridIndex(1)
        predictor = GridPredictor(grid, 2, predictor=MeanPredictor())
        for count in (10, 4, 6):
            predictor.observe(points_in_cell(grid, 0, count))
        counts, _ = predictor.predict_counts()
        assert counts[0] == 5  # mean of the last two (4, 6)
        assert predictor.history_length == 2

    def test_observe_counts_validation(self):
        predictor = GridPredictor(GridIndex(2), 3)
        with pytest.raises(ValueError):
            predictor.observe_counts(np.zeros(3))
        with pytest.raises(ValueError):
            predictor.observe_counts(np.array([-1, 0, 0, 0]))

    def test_custom_predictor_is_used(self):
        grid = GridIndex(1)
        predictor = GridPredictor(grid, 3, predictor=LastValuePredictor())
        for count in (7, 1, 9):
            predictor.observe(points_in_cell(grid, 0, count))
        counts, _ = predictor.predict_counts()
        assert counts[0] == 9


class TestPredictSamples:
    def test_samples_match_counts_and_lie_in_cells(self, rng):
        grid = GridIndex(3)
        predictor = GridPredictor(grid, 2)
        arrivals = points_in_cell(grid, 4, 6) + points_in_cell(grid, 8, 3)
        predictor.observe(arrivals)
        predictor.observe(arrivals)
        predicted = predictor.predict(
            rng, predictor.predict_counts(), location_std=(0.1, 0.1)
        )
        assert predicted.total == 9
        assert predicted.xs.size == predicted.ys.size == 9
        assert all(axis.size == 9 for axis in predicted.bounds)
        cells = grid.cells_of_coordinates(predicted.xs, predicted.ys)
        assert np.count_nonzero(cells == 4) == 6

    def test_boxes_have_kde_bandwidth(self, rng):
        grid = GridIndex(2)
        predictor = GridPredictor(grid, 1)
        predictor.observe(points_in_cell(grid, 0, 4))
        predicted = predictor.predict(
            rng, predictor.predict_counts(), location_std=(0.2, 0.2)
        )
        from repro.prediction.kde import kde_bandwidth

        h = kde_bandwidth(0.2, 4)
        x_lo, x_hi, y_lo, y_hi = (float(axis[0]) for axis in predicted.bounds)
        x, y = float(predicted.xs[0]), float(predicted.ys[0])
        # Clipping can shrink the box, never grow it.
        assert x_hi - x_lo <= 2 * h + 1e-12
        assert x_lo <= x <= x_hi and y_lo <= y <= y_hi

    def test_empty_prediction(self, rng):
        grid = GridIndex(2)
        predictor = GridPredictor(grid, 2)
        predictor.observe([])
        predicted = predictor.predict(rng, predictor.predict_counts())
        assert predicted.total == 0
        assert predicted.xs.size == predicted.ys.size == 0

    def test_estimated_std_used_when_not_given(self, rng):
        grid = GridIndex(4)
        predictor = GridPredictor(grid, 2)
        predictor.observe(points_in_cell(grid, 0, 3) + points_in_cell(grid, 15, 3))
        predicted = predictor.predict(rng, predictor.predict_counts())
        assert predicted.total == 6


class TestPredictedCountNear:
    def test_sums_cells_in_disc(self):
        grid = GridIndex(4)
        predictor = GridPredictor(grid, 2, LastValuePredictor())
        predictor.observe(points_in_cell(grid, 0, 5) + points_in_cell(grid, 15, 2))
        # A disc hugging cell 0's center only counts that corner.
        near_origin = predictor.predicted_count_near(grid.cell_center(0), 0.1)
        assert near_origin == 5.0
        # Covering the whole square counts everything.
        everywhere = predictor.predicted_count_near(Point(0.5, 0.5), 1.0)
        assert everywhere == 7.0

    def test_requires_observation(self):
        predictor = GridPredictor(GridIndex(3), 2)
        with pytest.raises(RuntimeError):
            predictor.predicted_count_near(Point(0.5, 0.5), 0.2)
