"""Tests for repro.geo.grid."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import GridIndex
from repro.geo.point import Point

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestGridBasics:
    def test_num_cells(self):
        assert GridIndex(4).num_cells == 16
        assert GridIndex(1).num_cells == 1

    def test_cell_side(self):
        assert GridIndex(5).cell_side == pytest.approx(0.2)

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            GridIndex(0)

    def test_cell_of_origin(self):
        assert GridIndex(4).cell_of(Point(0.0, 0.0)) == 0

    def test_cell_of_far_corner_maps_to_last_cell(self):
        grid = GridIndex(4)
        assert grid.cell_of(Point(1.0, 1.0)) == grid.num_cells - 1

    def test_cell_of_row_major_layout(self):
        grid = GridIndex(4)
        # x in third column (col 2), y in second row (row 1).
        assert grid.cell_of(Point(0.6, 0.3)) == 1 * 4 + 2

    def test_cell_of_rejects_outside_coordinates(self):
        with pytest.raises(ValueError):
            GridIndex(4).cell_of(Point(1.2, 0.5))

    def test_cell_box_roundtrip(self):
        grid = GridIndex(3)
        for cell in grid.cells():
            assert grid.cell_of(grid.cell_center(cell)) == cell

    def test_cell_box_bounds(self):
        grid = GridIndex(2)
        box = grid.cell_box(3)  # top-right cell
        assert (box.x_lo, box.x_hi) == (0.5, 1.0)
        assert (box.y_lo, box.y_hi) == (0.5, 1.0)

    def test_cell_box_out_of_range(self):
        with pytest.raises(IndexError):
            GridIndex(2).cell_box(4)

    @given(st.integers(min_value=1, max_value=12), coord, coord)
    def test_every_point_maps_to_valid_cell(self, gamma, x, y):
        grid = GridIndex(gamma)
        cell = grid.cell_of(Point(x, y))
        assert 0 <= cell < grid.num_cells
        assert grid.cell_box(cell).contains(Point(x, y))


class TestGridCounting:
    def test_count_points(self):
        grid = GridIndex(2)
        points = [Point(0.1, 0.1), Point(0.9, 0.9), Point(0.2, 0.2)]
        counts = grid.count_points(points)
        assert counts[0] == 2
        assert counts[3] == 1
        assert counts.sum() == 3

    def test_count_coordinates_matches_count_points(self, rng):
        grid = GridIndex(7)
        xs = rng.uniform(0, 1, 200)
        ys = rng.uniform(0, 1, 200)
        points = [Point(float(x), float(y)) for x, y in zip(xs, ys)]
        np.testing.assert_array_equal(
            grid.count_points(points), grid.count_coordinates(xs, ys)
        )

    def test_count_coordinates_shape_mismatch(self):
        with pytest.raises(ValueError):
            GridIndex(2).count_coordinates(np.zeros(3), np.zeros(4))

    def test_count_coordinates_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            GridIndex(2).count_coordinates(np.array([1.5]), np.array([0.5]))

    def test_count_empty(self):
        assert GridIndex(3).count_points([]).sum() == 0


class TestCellsWithinRadius:
    def test_zero_radius_is_containing_cell(self):
        grid = GridIndex(4)
        point = Point(0.3, 0.7)
        cells = grid.cells_within_radius(point, 0.0)
        assert grid.cell_of(point) in cells.tolist()

    def test_covering_radius_returns_all_cells(self):
        grid = GridIndex(3)
        cells = grid.cells_within_radius(Point(0.5, 0.5), 2.0)
        assert cells.tolist() == list(grid.cells())

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            GridIndex(3).cells_within_radius(Point(0.5, 0.5), -0.1)

    def test_ring_shape(self):
        grid = GridIndex(5)
        # Disc of radius one cell-side around a cell center touches the
        # 4-neighborhood but not the diagonal neighbors' far corners.
        center = grid.cell_center(12)  # middle cell (row 2, col 2)
        cells = set(grid.cells_within_radius(center, grid.cell_side).tolist())
        assert {12, 7, 17, 11, 13} <= cells
        assert 0 not in cells and 24 not in cells

    def test_center_outside_square_allowed(self):
        grid = GridIndex(4)
        cells = grid.cells_within_radius(Point(-0.2, 0.5), 0.25)
        assert cells.size > 0
        assert all(c % 4 == 0 for c in cells.tolist())  # left column only

    def test_sorted_unique(self):
        grid = GridIndex(6)
        cells = grid.cells_within_radius(Point(0.4, 0.4), 0.3)
        assert np.array_equal(cells, np.unique(cells))

    @given(
        st.integers(min_value=1, max_value=10),
        coord,
        coord,
        st.floats(min_value=0.0, max_value=1.5, allow_nan=False),
    )
    def test_matches_brute_force(self, gamma, x, y, radius):
        grid = GridIndex(gamma)
        point = Point(x, y)
        expected = []
        for cell in grid.cells():
            box = grid.cell_box(cell)
            dx = max(box.x_lo - x, x - box.x_hi, 0.0)
            dy = max(box.y_lo - y, y - box.y_hi, 0.0)
            if np.hypot(dx, dy) <= radius:
                expected.append(cell)
        assert grid.cells_within_radius(point, radius).tolist() == expected


class TestGridSampling:
    def test_samples_land_in_cell(self, rng):
        grid = GridIndex(5)
        cells = np.array([0, 7, 24])
        xs, ys = grid.sample_cells(cells, np.array([50, 50, 50]), rng)
        for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist())):
            assert grid.cell_box(int(cells[i // 50])).contains(Point(x, y))

    def test_sample_count(self, rng):
        xs, ys = GridIndex(3).sample_cells(np.array([4, 2]), np.array([17, 3]), rng)
        assert xs.size == ys.size == 20

    def test_sample_zero(self, rng):
        xs, ys = GridIndex(3).sample_cells(np.array([0]), np.array([0]), rng)
        assert xs.size == ys.size == 0
        xs, ys = GridIndex(3).sample_cells(np.zeros(0, int), np.zeros(0, int), rng)
        assert xs.size == ys.size == 0

    def test_sample_negative_rejected(self, rng):
        with pytest.raises(ValueError):
            GridIndex(3).sample_cells(np.array([0]), np.array([-1]), rng)

    def test_cell_out_of_range_rejected(self, rng):
        with pytest.raises(IndexError):
            GridIndex(3).sample_cells(np.array([9]), np.array([1]), rng)

    @pytest.mark.parametrize("seed", range(20))
    def test_bulk_draws_match_cell_by_cell(self, seed):
        # One bulk call consumes the generator exactly as per-cell
        # x-then-y draws, so predicted samples are bit-identical.
        grid = GridIndex(7)
        picker = np.random.default_rng(1000 + seed)
        cells = np.sort(picker.choice(grid.num_cells, size=6, replace=False))
        sizes = picker.integers(0, 5, size=cells.size)
        xs, ys = grid.sample_cells(cells, sizes, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        expected_x, expected_y = [], []
        for cell, size in zip(cells.tolist(), sizes.tolist()):
            box = grid.cell_box(cell)
            expected_x.extend(rng.uniform(box.x_lo, box.x_hi, size=size).tolist())
            expected_y.extend(rng.uniform(box.y_lo, box.y_hi, size=size).tolist())
        assert xs.tolist() == expected_x
        assert ys.tolist() == expected_y


class TestRadiusStencilCache:
    """The cached-stencil fast path of cells_within_radius must be
    invisible: identical cells, identical order, any center/radius."""

    @given(
        gamma=st.integers(min_value=4, max_value=40),
        x=st.floats(min_value=-0.5, max_value=1.5),
        y=st.floats(min_value=-0.5, max_value=1.5),
        radius=st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=120, deadline=None)
    def test_stencil_matches_shared_kernel(self, gamma, x, y, radius):
        grid = GridIndex(gamma)
        fast = grid.cells_within_radius(Point(x, y), radius)
        exact = grid._cells_near_intervals(x, x, y, y, radius)
        assert fast.tolist() == exact.tolist()

    def test_repeated_radii_reuse_one_stencil(self):
        grid = GridIndex(32)
        for i in range(50):
            grid.cells_within_radius(Point(0.3 + i * 0.005, 0.5), 0.07)
        # All 50 queries share one quantized half-extent entry.
        assert len(grid._stencils) == 1

    def test_cache_is_bounded(self):
        grid = GridIndex(256)
        for i in range(100):
            grid.cells_within_radius(Point(0.5, 0.5), 0.001 + i * 0.002)
        from repro.geo.grid import _STENCIL_CACHE_SIZE

        assert len(grid._stencils) <= _STENCIL_CACHE_SIZE

    def test_whole_grid_radius_falls_back(self):
        grid = GridIndex(6)
        cells = grid.cells_within_radius(Point(0.5, 0.5), 2.0)
        assert cells.tolist() == list(range(36))
        assert len(grid._stencils) == 0
