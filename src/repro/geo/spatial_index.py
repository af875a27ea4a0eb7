"""Incremental cell-bucketed point index over the unit square.

The streaming assignment layer cannot afford the batch builder's dense
``W x T`` candidate matrices; it needs "which tasks could this worker
still reach?" answered in output-sensitive time.  :class:`SpatialIndex`
buckets keyed points into the cells of a :class:`~repro.geo.grid.
GridIndex` and answers reachability-radius queries by visiting only the
cells intersecting the query disc (``GridIndex.cells_within_radius``).

The index is deliberately exact-on-top-of-coarse: cell selection is a
superset filter, and :meth:`query_radius` re-checks the true Euclidean
distance, so callers that need bit-identical validity decisions (the
sparse pair builder) can run their own exact predicate over
:meth:`candidates_in_radius` instead.
"""

from __future__ import annotations

import numpy as np

from repro.geo.grid import GridIndex
from repro.geo.point import Point

#: Safety margin applied to the cell-selection radius so floating-point
#: rounding in the cell-gap arithmetic can never exclude a cell that
#: holds an exactly-reachable point.
_CELL_EPSILON = 1e-9

#: Default mutation-journal capacity per subscriber.  A consumer that
#: falls further behind than this must resynchronize from scratch — the
#: log reports ``overflowed`` instead of growing without bound.
_LOG_CAPACITY = 65536


class IndexChangeLog:
    """Ordered journal of one subscriber's unseen index mutations.

    Each entry is ``(op, key, x, y)`` with ``op`` either ``"insert"``
    or ``"remove"`` (coordinates are the point the key held).  Ops are
    recorded in mutation order, so a consumer replaying them sees
    exactly the sequence of dirty-set changes — including
    remove-then-reinsert of one key.
    ``drain()`` hands the batch over and resets; when more than
    ``capacity`` ops accumulate between drains the log discards them
    and reports ``overflowed=True``, telling the consumer to rebuild
    its derived state from the index instead of repairing it.
    """

    __slots__ = ("_ops", "_overflowed", "_capacity")

    def __init__(self, capacity: int = _LOG_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._ops: list[tuple[str, int, float, float]] = []
        self._overflowed = False
        self._capacity = capacity

    def record(self, op: str, key: int, x: float, y: float) -> None:
        if self._overflowed:
            return
        if len(self._ops) >= self._capacity:
            self._ops = []
            self._overflowed = True
            return
        self._ops.append((op, key, x, y))

    def drain(self) -> tuple[list[tuple[str, int, float, float]], bool]:
        """The unseen ops (and the overflow flag), then reset."""
        ops, overflowed = self._ops, self._overflowed
        self._ops = []
        self._overflowed = False
        return ops, overflowed

    def __len__(self) -> int:
        return len(self._ops)


class SpatialIndex:
    """Dynamic point set with radius queries, bucketed on a grid.

    Keys are caller-chosen integers (entity ids or column positions);
    each key maps to one point.  Insert/remove are O(1); a radius query
    touches only the buckets of cells intersecting the disc.
    """

    def __init__(self, grid: GridIndex | int = 16) -> None:
        self._grid = grid if isinstance(grid, GridIndex) else GridIndex(grid)
        self._buckets: dict[int, dict[int, tuple[float, float]]] = {}
        self._cell_of_key: dict[int, int] = {}
        self._subscribers: list[IndexChangeLog] = []

    @property
    def grid(self) -> GridIndex:
        return self._grid

    def __len__(self) -> int:
        return len(self._cell_of_key)

    def __contains__(self, key: int) -> bool:
        return key in self._cell_of_key

    def subscribe(self, capacity: int = _LOG_CAPACITY) -> IndexChangeLog:
        """Attach a mutation journal fed by every subsequent change.

        Each subscriber owns its log and drains it independently, so
        several consumers can watch one index side by side.  The log
        starts empty — the subscriber is assumed to synchronize with
        the current contents first.
        """
        log = IndexChangeLog(capacity)
        self._subscribers.append(log)
        return log

    def unsubscribe(self, log: IndexChangeLog) -> None:
        """Detach a journal previously returned by :meth:`subscribe`."""
        self._subscribers.remove(log)

    def _notify(self, op: str, key: int, x: float, y: float) -> None:
        for log in self._subscribers:
            log.record(op, key, x, y)

    def insert(self, key: int, point: Point) -> None:
        """Add ``key`` at ``point``; re-inserting a live key is an error."""
        if key in self._cell_of_key:
            raise KeyError(f"key {key} already indexed (remove it first)")
        cell = self._grid.cell_of(point)
        self._buckets.setdefault(cell, {})[key] = (point.x, point.y)
        self._cell_of_key[key] = cell
        self._notify("insert", key, point.x, point.y)

    def remove(self, key: int) -> None:
        """Drop ``key``; raises ``KeyError`` when absent."""
        cell = self._cell_of_key.pop(key)  # KeyError propagates
        bucket = self._buckets[cell]
        x, y = bucket.pop(key)
        if not bucket:
            del self._buckets[cell]
        self._notify("remove", key, x, y)

    def location(self, key: int) -> Point:
        """The indexed point of ``key``."""
        x, y = self._buckets[self._cell_of_key[key]][key]
        return Point(x, y)

    def candidates_in_radius(self, center: Point, radius: float) -> np.ndarray:
        """Keys bucketed in cells intersecting the disc (a superset).

        No exact distance check: every key within ``radius`` of
        ``center`` is returned, possibly along with nearby misses.
        Sorted ascending.
        """
        if radius < 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        if not self._cell_of_key:
            return np.empty(0, dtype=np.int64)
        keys: list[int] = []
        for cell in self._grid.cells_within_radius(center, radius + _CELL_EPSILON):
            bucket = self._buckets.get(int(cell))
            if bucket:
                keys.extend(bucket)
        if not keys:
            return np.empty(0, dtype=np.int64)
        result = np.fromiter(keys, dtype=np.int64, count=len(keys))
        result.sort()
        return result

    def snapshot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR view of the current contents, grouped by cell.

        Returns ``(cells, starts, keys)``: ``cells`` is the sorted
        array of occupied cell ids and the keys bucketed in
        ``cells[i]`` are ``keys[starts[i]:starts[i+1]]``.  The batched
        sparse pair builder turns one snapshot per build into bulk
        cell-join queries instead of issuing one dict-backed gather
        per entity; coordinates are deliberately not extracted — the
        builder prices pairs from its own entity columns.
        """
        if not self._cell_of_key:
            empty_i = np.zeros(0, dtype=np.int64)
            return empty_i, np.zeros(1, dtype=np.int64), empty_i
        cells = np.fromiter(self._buckets, dtype=np.int64, count=len(self._buckets))
        cells.sort()
        sizes = np.empty(cells.size, dtype=np.int64)
        keys_parts: list[np.ndarray] = []
        for position, cell in enumerate(cells):
            bucket = self._buckets[int(cell)]
            sizes[position] = len(bucket)
            keys_parts.append(np.fromiter(bucket, dtype=np.int64, count=len(bucket)))
        starts = np.zeros(cells.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=starts[1:])
        return cells, starts, np.concatenate(keys_parts)

    def query_radius(self, center: Point, radius: float) -> np.ndarray:
        """Keys whose point lies within ``radius`` of ``center`` (sorted)."""
        candidates = self.candidates_in_radius(center, radius)
        if candidates.size == 0:
            return candidates
        coords = np.empty((candidates.size, 2))
        for i, key in enumerate(candidates):
            cell = self._cell_of_key[int(key)]
            coords[i] = self._buckets[cell][int(key)]
        within = np.hypot(coords[:, 0] - center.x, coords[:, 1] - center.y) <= radius
        return candidates[within]

    def __repr__(self) -> str:
        return f"SpatialIndex(gamma={self._grid.gamma}, size={len(self)})"
