"""Tests for repro.prediction.kde."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geo.box import Box
from repro.geo.point import Point
from repro.prediction.kde import (
    UNIFORM_KERNEL_CONSTANT,
    kde_bandwidth,
    kernel_bounds,
)


class TestBandwidth:
    def test_paper_constant(self):
        assert UNIFORM_KERNEL_CONSTANT == pytest.approx(1.8431)

    def test_known_value(self):
        # h = sigma * 1.8431 * n^(-1/5)
        assert kde_bandwidth(0.25, 32) == pytest.approx(0.25 * 1.8431 * 32 ** (-0.2))

    def test_zero_std_gives_zero_bandwidth(self):
        assert kde_bandwidth(0.0, 100) == 0.0

    def test_zero_samples_gives_zero_bandwidth(self):
        assert kde_bandwidth(0.3, 0) == 0.0

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            kde_bandwidth(-0.1, 10)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            kde_bandwidth(0.1, -1)

    @given(
        st.floats(min_value=0.001, max_value=1.0),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_bandwidth_positive_and_shrinks_with_n(self, std, n):
        h1 = kde_bandwidth(std, n)
        h2 = kde_bandwidth(std, n * 2)
        assert h1 > 0.0
        assert h2 < h1


def _boxes(xs, ys, bandwidth_x, bandwidth_y, clip=True):
    bounds = kernel_bounds(np.array(xs), np.array(ys), bandwidth_x, bandwidth_y, clip)
    return [Box(*box) for box in zip(*(axis.tolist() for axis in bounds))]


class TestSampleBoxes:
    """The kernel support boxes of predicted samples (``kernel_bounds``)."""

    def test_boxes_centered_on_samples(self):
        box = _boxes([0.5], [0.5], 0.1, 0.2, clip=False)[0]
        assert (box.x_lo, box.x_hi) == (0.4, 0.6)
        assert (box.y_lo, box.y_hi) == pytest.approx((0.3, 0.7))

    def test_clipping_at_boundary(self):
        box = _boxes([0.02], [0.98], 0.1, 0.1)[0]
        assert box.x_lo == 0.0
        assert box.y_hi == 1.0

    def test_zero_bandwidth_degenerate(self):
        box = _boxes([0.3], [0.3], 0.0, 0.0)[0]
        assert box.is_degenerate

    def test_one_box_per_sample(self):
        assert len(_boxes([0.1, 0.2, 0.3], [0.1, 0.2, 0.3], 0.05, 0.05)) == 3

    def test_no_samples(self):
        assert _boxes([], [], 0.05, 0.05) == []

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            kernel_bounds(np.array([0.5]), np.array([0.5]), -0.1, 0.1)

    def test_samples_inside_their_boxes(self):
        xs, ys = [0.4, 0.9], [0.6, 0.1]
        for x, y, box in zip(xs, ys, _boxes(xs, ys, 0.07, 0.03)):
            assert box.contains(Point(x, y))

    @given(
        st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=20),
        st.floats(0.0, 0.5),
        st.floats(0.0, 0.5),
        st.booleans(),
    )
    def test_matches_per_sample_boxes(self, samples, bandwidth_x, bandwidth_y, clip):
        # The bulk bounds are the per-sample Box arithmetic, float for float.
        xs = [x for x, _ in samples]
        ys = [y for _, y in samples]
        expected = [
            Box.from_center(Point(x, y), bandwidth_x, bandwidth_y) for x, y in samples
        ]
        if clip:
            expected = [box.clipped() for box in expected]
        assert _boxes(xs, ys, bandwidth_x, bandwidth_y, clip) == expected
