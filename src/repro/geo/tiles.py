"""Rectangular tile partition of the unit square for sharded assignment.

The online assignment problem is spatially local: a worker can only
serve tasks within its reachable radius, so far-apart regions are
independent sub-problems.  :class:`TileGrid` cuts ``U = [0, 1]^2``
into ``nx x ny`` rectangular tiles, each owned by one shard:

- *ownership* is a partition — every point belongs to exactly one tile
  (half-open tiles, with the top/right boundary closed on the last
  row/column, the same convention as :class:`~repro.geo.grid.
  GridIndex`);
- *margin membership* is a cover — a shard additionally sees every
  point within a configurable border margin (one reachable radius) of
  its tile, so pairs that straddle a tile edge are still generated by
  the owning shard of their query-side entity.

Both predicates are vectorized over coordinate arrays.  The sharded
builder's hot path routes candidates at *cell* granularity
(``GridIndex.cells_intersecting_box`` over a tile box) rather than per
point; the point-level predicates here (:meth:`TileGrid.
margin_members`, :meth:`TileGrid.is_border`,
:meth:`TileGrid.membership_counts`) are the *specification* of that
routing — the margin-cover invariant the differential property suite
(``tests/test_geo_tiles.py``) enforces — and the analysis surface for
measuring border duplication in a workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.geo.box import Box


@dataclass(frozen=True)
class TileGrid:
    """An ``nx x ny`` rectangular tiling of the unit square.

    Tiles are numbered row-major like grid cells: ``tile = row * nx +
    col`` with ``col`` indexing the x axis and ``row`` the y axis.
    """

    nx: int
    ny: int

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1:
            raise ValueError(f"tile counts must be positive, got {self.nx}x{self.ny}")

    @classmethod
    def from_shard_count(cls, num_shards: int) -> "TileGrid":
        """The most-square ``nx x ny`` factorization of ``num_shards``.

        ``4 -> 2x2``, ``2 -> 2x1``, ``6 -> 3x2``, ``7 -> 7x1`` (primes
        degrade to strips).  Squarer tilings minimize border length,
        which minimizes the entities duplicated into margins.
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {num_shards}")
        ny = int(math.isqrt(num_shards))
        while num_shards % ny:
            ny -= 1
        return cls(nx=num_shards // ny, ny=ny)

    @property
    def num_tiles(self) -> int:
        return self.nx * self.ny

    @property
    def tile_width(self) -> float:
        return 1.0 / self.nx

    @property
    def tile_height(self) -> float:
        return 1.0 / self.ny

    def tile_box(self, tile: int) -> Box:
        """Axis-aligned bounds of ``tile``."""
        row, col = self._validate_tile(tile)
        return Box(
            col * self.tile_width,
            (col + 1) * self.tile_width,
            row * self.tile_height,
            (row + 1) * self.tile_height,
        )

    def _validate_tile(self, tile: int) -> tuple[int, int]:
        if not 0 <= tile < self.num_tiles:
            raise IndexError(f"tile {tile} out of range for {self.nx}x{self.ny}")
        return divmod(tile, self.nx)

    @staticmethod
    def _axis_of(coordinates: np.ndarray, count: int) -> np.ndarray:
        """Owning interval per coordinate (GridIndex boundary rules)."""
        coordinates = np.asarray(coordinates, dtype=float)
        if coordinates.size and (coordinates.min() < 0.0 or coordinates.max() > 1.0):
            raise ValueError("coordinates outside the unit square")
        side = 1.0 / count
        index = np.minimum((coordinates * count).astype(np.int64), count - 1)
        # Float products can round across an interval boundary; correct
        # against the same arithmetic the tile boxes use (cf.
        # GridIndex.cells_of_coordinates).
        index = np.where(coordinates < index * side, index - 1, index)
        bump = (index + 1 < count) & (coordinates >= (index + 1) * side)
        return np.where(bump, index + 1, index)

    def tile_of_coordinates(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Owning tile of each point (vectorized; exactly one owner)."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.shape != ys.shape:
            raise ValueError("xs and ys must have the same shape")
        cols = self._axis_of(xs, self.nx)
        rows = self._axis_of(ys, self.ny)
        return rows * self.nx + cols

    def _axis_gaps(self, coords: np.ndarray, count: int, side: float) -> np.ndarray:
        """Per-(interval, point) axis gap matrix, shape ``(count, n)``."""
        edges_lo = np.arange(count)[:, None] * side
        edges_hi = edges_lo + side
        return np.maximum(np.maximum(edges_lo - coords[None, :], coords[None, :] - edges_hi), 0.0)

    def membership_counts(
        self, xs: np.ndarray, ys: np.ndarray, margin: float
    ) -> np.ndarray:
        """How many tiles' margin-expanded boxes contain each point."""
        if margin < 0.0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        gx = self._axis_gaps(xs, self.nx, self.tile_width)
        gy = self._axis_gaps(ys, self.ny, self.tile_height)
        near = np.hypot(gx[None, :, :], gy[:, None, :]) <= margin
        return near.sum(axis=(0, 1))

    def margin_members(
        self, xs: np.ndarray, ys: np.ndarray, margin: float
    ) -> list[np.ndarray]:
        """Per tile: indices of points within ``margin`` of its box.

        The Euclidean gap from the point to the tile rectangle is
        compared against ``margin``, so a point inside the tile (gap
        zero) is always a member.  Every point belongs to at least its
        owning tile; points near an edge appear in the neighbors too —
        the border-zone duplication the sharded pipeline relies on.
        """
        if margin < 0.0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.size == 0:
            return [np.zeros(0, dtype=np.int64) for _ in range(self.num_tiles)]
        gx = self._axis_gaps(xs, self.nx, self.tile_width)
        gy = self._axis_gaps(ys, self.ny, self.tile_height)
        members: list[np.ndarray] = []
        for row in range(self.ny):
            for col in range(self.nx):
                near = np.hypot(gx[col], gy[row]) <= margin
                members.append(np.flatnonzero(near).astype(np.int64))
        return members

    def is_border(self, xs: np.ndarray, ys: np.ndarray, margin: float) -> np.ndarray:
        """True where a point lies in more than one tile's margin zone.

        Border entities are exactly the ones whose candidate pairs can
        straddle shards; interior entities are seen by their owner
        alone, so their pairs commit without cross-shard competition.
        """
        return self.membership_counts(xs, ys, margin) > 1

    def __repr__(self) -> str:
        return f"TileGrid({self.nx}x{self.ny})"


class TileZones:
    """Grow-only, cell-quantized margin zones — one per tile.

    The fused round pipeline keeps a *persistent* per-tile candidate
    pool, so tile membership must be stable across rounds even though
    the exact border margin (one reachable radius) moves with the
    round's velocity/deadline mix.  Each tile's zone is therefore kept
    at **whole-cell** granularity of the task index's grid and only
    ever *grows*: :meth:`ensure` widens a zone when the round's exact
    margin quantizes above the zone's current width, and never shrinks
    it.  A zone is thus always a superset of the exact per-round
    margin box — the overshoot tasks cost cache space, never
    correctness, because every downstream validity scan is exact.

    Growth returns the affected tiles so the pipeline can re-prime
    their pools: newly covered tasks would splice into the *middle* of
    a tile's task list, which the delta builder's append-only list
    discipline rejects by design.
    """

    def __init__(self, tiles: TileGrid, grid) -> None:
        self._tiles = tiles
        self._grid = grid
        self._steps = np.full(tiles.num_tiles, -1, dtype=np.int64)
        # membership[tile, cell]: is ``cell`` inside ``tile``'s zone?
        self._membership = np.zeros((tiles.num_tiles, grid.num_cells), dtype=bool)

    @property
    def grid(self):
        return self._grid

    @property
    def num_tiles(self) -> int:
        return self._tiles.num_tiles

    def quantize(self, margin: float) -> int:
        """Whole-cell steps covering ``margin`` (round up, never down)."""
        if margin < 0.0:
            raise ValueError(f"margin must be non-negative, got {margin}")
        return int(np.ceil(margin / self._grid.cell_side))

    def ensure(self, margin: float) -> list[int]:
        """Grow every zone to at least ``margin``; return grown tiles.

        A tile is reported as *grown* only when cells were actually
        added to its zone: a zone that already covers every cell it
        could reach (the K=1 whole-grid zone, or a tile pinned against
        the domain boundary) absorbs a larger margin without changing
        membership, and re-priming its pool would be pure waste.
        """
        steps = self.quantize(margin)
        grown: list[int] = []
        for tile in range(self._tiles.num_tiles):
            if steps <= self._steps[tile]:
                continue
            cells = self._grid.cells_intersecting_box(
                self._tiles.tile_box(tile), steps * self._grid.cell_side
            )
            added = not self._membership[tile, cells].all()
            self._membership[tile, cells] = True
            self._steps[tile] = steps
            if added:
                grown.append(tile)
        return grown

    def member_mask(self, tile: int, cells: np.ndarray) -> np.ndarray:
        """Per entity (by its grid cell): inside ``tile``'s zone?"""
        return self._membership[tile][cells]

    def tiles_of_cell(self, cell: int) -> np.ndarray:
        """Tiles whose zone contains ``cell`` (churn-routing fan-out)."""
        return np.flatnonzero(self._membership[:, cell])
