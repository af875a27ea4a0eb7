"""Incremental keyed point store with a change journal.

The streaming engine keeps its current tasks in a :class:`SpatialIndex`:
keyed points in the unit square of a :class:`~repro.geo.grid.GridIndex`.
The index answers no spatial queries itself.  Its job is the mutation
journal: every insert and remove is recorded, in order, on each
subscriber's :class:`IndexChangeLog`, and the fused round pipeline
(:mod:`repro.streaming.pipeline`) drains that log each round to repair
its per-tile candidate caches in O(churn) instead of re-reading the
whole task set.
"""

from __future__ import annotations

from repro.geo.grid import GridIndex
from repro.geo.point import Point

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
    its derived state from scratch instead of repairing it.
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
    """Dynamic keyed point set over a grid's unit square, journaled.

    Keys are caller-chosen integers (entity ids); each key maps to one
    point, which must lie in the unit square.  Insert/remove are O(1)
    and recorded on every subscribed :class:`IndexChangeLog`.  The
    ``grid`` is the cell layout the journal's consumers bucket by.
    """

    def __init__(self, grid: GridIndex | int = 16) -> None:
        self._grid = grid if isinstance(grid, GridIndex) else GridIndex(grid)
        self._points: dict[int, tuple[float, float]] = {}
        self._subscribers: list[IndexChangeLog] = []

    @property
    def grid(self) -> GridIndex:
        return self._grid

    def __len__(self) -> int:
        return len(self._points)

    def __contains__(self, key: int) -> bool:
        return key in self._points

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

    def insert(self, key: int, point: Point) -> None:
        """Add ``key`` at ``point``; re-inserting a live key is an error."""
        if key in self._points:
            raise KeyError(f"key {key} already indexed (remove it first)")
        x, y = point.x, point.y
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside the unit square")
        self._points[key] = (x, y)
        for log in self._subscribers:
            log.record("insert", key, x, y)

    def remove(self, key: int) -> None:
        """Drop ``key``; raises ``KeyError`` when absent."""
        x, y = self._points.pop(key)  # KeyError propagates
        for log in self._subscribers:
            log.record("remove", key, x, y)

    def __repr__(self) -> str:
        return f"SpatialIndex(gamma={self._grid.gamma}, size={len(self)})"
