"""The grid index over the unit square (Section III-A).

The prediction approach divides ``U = [0, 1]^2`` into ``gamma^2`` cells
of side length ``1 / gamma`` and keeps per-cell statistics.  The paper
uses 400 cells (``gamma = 20``) in its accuracy experiment (Fig. 10);
the best ``gamma`` "can be guided by a cost model in [9]" and is a
plain constructor parameter here.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Iterable, Iterator
from operator import attrgetter

import numpy as np

from repro.geo.box import Box
from repro.geo.point import Point

#: Entries kept in the per-grid disc-query stencil cache.  Keys are the
#: radius quantized to whole cells, so a handful of entries covers every
#: radius a round issues (the candidate index and the grid predictor
#: both re-query the same few radii every round).
_STENCIL_CACHE_SIZE = 16

_X = attrgetter("x")
_Y = attrgetter("y")


class GridIndex:
    """A ``gamma x gamma`` uniform grid over ``[0, 1]^2``.

    Cells are numbered row-major: ``cell = row * gamma + col`` with
    ``col`` indexing the x axis and ``row`` the y axis.
    """

    def __init__(self, gamma: int) -> None:
        if gamma < 1:
            raise ValueError(f"gamma must be a positive integer, got {gamma}")
        self._gamma = int(gamma)
        self._side = 1.0 / self._gamma
        # Disc-query stencils keyed on the radius quantized to whole
        # cells; see cells_within_radius.
        self._stencils: OrderedDict[int, tuple[np.ndarray, np.ndarray]] = OrderedDict()

    @property
    def gamma(self) -> int:
        """Cells per axis."""
        return self._gamma

    @property
    def num_cells(self) -> int:
        """Total number of cells, ``gamma^2``."""
        return self._gamma * self._gamma

    @property
    def cell_side(self) -> float:
        """Side length of every cell, ``1 / gamma``."""
        return self._side

    def cell_of(self, point: Point) -> int:
        """Cell index containing ``point``.

        Points on the top/right boundary (coordinate exactly 1.0) are
        assigned to the last cell so the whole closed square is covered.
        """
        col = self._clamp_axis(point.x)
        row = self._clamp_axis(point.y)
        return row * self._gamma + col

    def _clamp_axis(self, coordinate: float) -> int:
        if not 0.0 <= coordinate <= 1.0:
            raise ValueError(f"coordinate {coordinate} outside the unit square")
        index = min(int(coordinate * self._gamma), self._gamma - 1)
        # `coordinate * gamma` can round across a cell boundary (e.g.
        # 0.3 * 10 == 3.0 although 0.3 < 3 * 0.1), which would put the
        # point outside its own cell_box; correct against the same
        # boundary arithmetic cell_box uses.
        if coordinate < index * self._side:
            index -= 1
        elif index + 1 < self._gamma and coordinate >= (index + 1) * self._side:
            index += 1
        return index

    def cell_box(self, cell: int) -> Box:
        """The axis-aligned bounds of cell ``cell``."""
        row, col = self._validate_cell(cell)
        return Box(
            col * self._side,
            (col + 1) * self._side,
            row * self._side,
            (row + 1) * self._side,
        )

    def cell_center(self, cell: int) -> Point:
        row, col = self._validate_cell(cell)
        return Point((col + 0.5) * self._side, (row + 0.5) * self._side)

    def _validate_cell(self, cell: int) -> tuple[int, int]:
        if not 0 <= cell < self.num_cells:
            raise IndexError(f"cell {cell} out of range for gamma={self._gamma}")
        return divmod(cell, self._gamma)

    def cells(self) -> Iterator[int]:
        """Iterate over all cell indices."""
        return iter(range(self.num_cells))

    def count_points(self, points: Iterable[Point]) -> np.ndarray:
        """Histogram of points per cell (length ``num_cells``).

        This is the per-instance per-cell count the prediction sliding
        window is built from (``|W_p^{(i)}|`` in Section III-A).
        """
        points = list(points)
        return self.count_coordinates(
            np.fromiter(map(_X, points), dtype=float, count=len(points)),
            np.fromiter(map(_Y, points), dtype=float, count=len(points)),
        )

    def cells_of_coordinates(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`cell_of` over coordinate arrays.

        Applies the same boundary correction as the scalar form, so
        ``cells_of_coordinates(x, y)[i] == cell_of(Point(x[i], y[i]))``
        for every point in the unit square.
        """
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same shape")
        # Both axes in one pass: row 0 holds the rows (y), row 1 the
        # columns (x).  ``min``/``max`` are NaN for a NaN coordinate.
        both = np.stack((ys, xs))
        if both.size and not (both.min() >= 0.0 and both.max() <= 1.0):
            raise ValueError("coordinates outside the unit square")
        index = np.minimum((both * self._gamma).astype(np.int64), self._gamma - 1)
        index -= both < index * self._side
        index += (index + 1 < self._gamma) & (both >= (index + 1) * self._side)
        return index[0] * self._gamma + index[1]

    def count_coordinates(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`count_points` over coordinate arrays."""
        cells = self.cells_of_coordinates(xs, ys)
        return np.bincount(cells, minlength=self.num_cells).astype(np.int64)

    def count_groups(self, xs: np.ndarray, ys: np.ndarray, sizes) -> np.ndarray:
        """Per-cell counts of consecutive point groups, in one pass.

        Row ``i`` of the ``(len(sizes), num_cells)`` result counts the
        ``sizes[i]`` points after the previous groups' points.
        """
        cells = self.cells_of_coordinates(xs, ys)
        cells += np.repeat(np.arange(len(sizes)) * self.num_cells, sizes)
        counts = np.bincount(cells, minlength=len(sizes) * self.num_cells)
        return counts.astype(np.int64).reshape(len(sizes), self.num_cells)

    def cells_within_radius(self, point: Point, radius: float) -> np.ndarray:
        """Cells whose area intersects the disc around ``point``.

        Returns the sorted (row-major) indices of every cell whose
        closed box lies within ``radius`` of ``point`` — the ring/
        neighborhood query shared by the spatial candidate index and
        the grid predictor's local-intensity lookups.  The center may
        lie outside the unit square (e.g. an un-clipped kernel-box
        center); only the grid itself is bounded.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        gamma = self._gamma
        # Stencil fast path: for a radius spanning fewer cells than the
        # grid, the candidate window is a fixed offset pattern around
        # the query point's cell — cacheable per quantized radius (the
        # half-extent ``h`` below only depends on ceil-ish cells), so
        # repeated same-radius queries skip the window construction.
        # The *exact* per-cell gap filter still runs with the actual
        # radius, so the result is identical to the shared kernel's:
        # both windows are supersets of every cell passing the filter
        # (floor(a±b) is within floor(a) ± (floor(b)+1), plus the same
        # one-cell pad), and the filter is the same float arithmetic.
        h = int(np.floor(radius * gamma)) + 2
        if 2 * h + 1 >= gamma or not np.isfinite(point.x) or not np.isfinite(point.y):
            # Window spans the whole grid (or the center is degenerate):
            # the stencil saves nothing — use the shared kernel.
            return self._cells_near_intervals(
                point.x, point.x, point.y, point.y, radius
            )
        stencil = self._stencils.get(h)
        if stencil is None:
            offsets = np.arange(-h, h + 1, dtype=np.int64)
            d_rows = np.repeat(offsets, offsets.size)
            d_cols = np.tile(offsets, offsets.size)
            if len(self._stencils) >= _STENCIL_CACHE_SIZE:
                self._stencils.popitem(last=False)
            self._stencils[h] = stencil = (d_rows, d_cols)
        else:
            self._stencils.move_to_end(h)
            d_rows, d_cols = stencil
        side = self._side
        # Anchor clamped into a safe band so far-outside centers cannot
        # overflow the int conversion; the exact gap filter rejects
        # every cell of such queries anyway, matching the kernel.
        col_anchor = int(np.clip(np.floor(point.x * gamma), -2 * gamma, 3 * gamma))
        row_anchor = int(np.clip(np.floor(point.y * gamma), -2 * gamma, 3 * gamma))
        cols = col_anchor + d_cols
        rows = row_anchor + d_rows
        dx = np.maximum(
            np.maximum(cols * side - point.x, point.x - (cols + 1) * side), 0.0
        )
        dy = np.maximum(
            np.maximum(rows * side - point.y, point.y - (rows + 1) * side), 0.0
        )
        near = (
            (np.hypot(dx, dy) <= radius)
            & (cols >= 0)
            & (cols < gamma)
            & (rows >= 0)
            & (rows < gamma)
        )
        # Offsets are enumerated row-major ascending, so the masked
        # result keeps the kernel's sorted row-major order.
        return (rows[near] * gamma + cols[near]).astype(np.int64)

    def cells_intersecting_box(self, box, margin: float = 0.0) -> np.ndarray:
        """Cells whose closed box lies within ``margin`` of ``box``.

        The rectangular analogue of :meth:`cells_within_radius`: the
        per-axis gap between each candidate cell interval and the box
        interval is computed exactly, and a cell is kept iff the hypot
        of the gaps is ``<= margin``.  With ``margin = 0`` this is
        border membership — the cells a tile touches, including the
        ring sharing only an edge or corner with it.  The sharded
        streaming layer uses it to slice a cell-grouped candidate CSR
        down to one tile's margin zone.
        """
        if margin < 0.0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        return self._cells_near_intervals(box.x_lo, box.x_hi, box.y_lo, box.y_hi, margin)

    def _cells_near_intervals(
        self, x_lo: float, x_hi: float, y_lo: float, y_hi: float, reach: float
    ) -> np.ndarray:
        """Cells whose closed box is within ``reach`` of the intervals.

        The shared window/gap kernel of :meth:`cells_within_radius`
        (degenerate intervals) and :meth:`cells_intersecting_box`: the
        candidate window is padded by one cell per side — the floor can
        land exactly on a cell edge (closed boxes *touch* there) — and
        the exact per-axis gap filter discards any overshoot.
        """
        gamma = self._gamma
        side = self._side
        col_lo = min(max(int(np.floor((x_lo - reach) * gamma)) - 1, 0), gamma - 1)
        col_hi = min(max(int(np.floor((x_hi + reach) * gamma)) + 1, 0), gamma - 1)
        row_lo = min(max(int(np.floor((y_lo - reach) * gamma)) - 1, 0), gamma - 1)
        row_hi = min(max(int(np.floor((y_hi + reach) * gamma)) + 1, 0), gamma - 1)
        cols = np.arange(col_lo, col_hi + 1)
        rows = np.arange(row_lo, row_hi + 1)
        dx = np.maximum(np.maximum(cols * side - x_hi, x_lo - (cols + 1) * side), 0.0)
        dy = np.maximum(np.maximum(rows * side - y_hi, y_lo - (rows + 1) * side), 0.0)
        near = np.hypot(dx[None, :], dy[:, None]) <= reach
        r_idx, c_idx = np.nonzero(near)
        return ((rows[r_idx]) * gamma + cols[c_idx]).astype(np.int64)

    def sample_cells(
        self, cells: np.ndarray, sizes: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """``sizes[i]`` uniform points inside each ``cells[i]``, in bulk.

        Sampling is with replacement, matching the paper's "sampling
        with replacement" of predicted worker/task samples.  Returns the
        ``(xs, ys)`` coordinate arrays, cell by cell.  One
        ``rng.uniform`` call with per-draw bounds consumes the generator
        exactly as per-cell ``uniform(x_lo, x_hi, size)`` then
        ``uniform(y_lo, y_hi, size)`` draws would, so the samples are
        bit-identical to sampling cell by cell.
        """
        cells = np.asarray(cells, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        if cells.size and (cells.min() < 0 or cells.max() >= self.num_cells):
            raise IndexError(f"cell out of range for gamma={self._gamma}")
        if sizes.size and sizes.min() < 0:
            raise ValueError("sizes must be non-negative")
        # Per cell: its column (x draws), then its row (y draws), each
        # repeated once per draw.
        axis_index = np.empty((cells.size, 2), dtype=np.int64)
        axis_index[:, 1], axis_index[:, 0] = np.divmod(cells, self._gamma)
        repeats = sizes.repeat(2)
        axis_index = axis_index.ravel().repeat(repeats)
        draws = rng.uniform(axis_index * self._side, (axis_index + 1) * self._side)
        is_x = np.zeros(2 * cells.size, dtype=bool)
        is_x[::2] = True
        is_x = is_x.repeat(repeats)
        return draws[is_x], draws[~is_x]

    def __repr__(self) -> str:
        return f"GridIndex(gamma={self._gamma})"
