"""Tests for repro.geo.spatial_index and the cell-join radius queries.

The index is a journaled keyed point store.  Radius queries over a
point set run as cell joins against a cell-grouped CSR
(``repro.model.sparse._CandidateCSR``), the primitive the pool
builders gather candidates with; ``TestQueries`` checks them against
brute force.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import GridIndex
from repro.geo.point import Point
from repro.geo.spatial_index import SpatialIndex
from repro.model.sparse import SparseBuildStats, _CandidateCSR

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def brute_force(points: dict[int, Point], center: Point, radius: float) -> list[int]:
    return sorted(
        key
        for key, p in points.items()
        if np.hypot(p.x - center.x, p.y - center.y) <= radius
    )


class TestLifecycle:
    def test_insert_and_len(self):
        index = SpatialIndex(GridIndex(4))
        index.insert(1, Point(0.1, 0.1))
        index.insert(2, Point(0.9, 0.9))
        assert len(index) == 2
        assert 1 in index and 2 in index and 3 not in index

    def test_duplicate_insert_rejected(self):
        index = SpatialIndex(4)
        index.insert(1, Point(0.5, 0.5))
        with pytest.raises(KeyError):
            index.insert(1, Point(0.2, 0.2))

    def test_remove(self):
        index = SpatialIndex(4)
        index.insert(7, Point(0.3, 0.3))
        index.remove(7)
        assert len(index) == 0
        assert 7 not in index
        with pytest.raises(KeyError):
            index.remove(7)

    def test_reinsert_after_remove(self):
        index = SpatialIndex(4)
        index.insert(7, Point(0.3, 0.3))
        index.remove(7)
        log = index.subscribe()
        index.insert(7, Point(0.8, 0.8))
        assert 7 in index and len(index) == 1
        assert log.drain() == ([("insert", 7, 0.8, 0.8)], False)

    def test_gamma_shortcut_constructor(self):
        assert SpatialIndex(8).grid.gamma == 8

    def test_out_of_square_point_rejected(self):
        with pytest.raises(ValueError):
            SpatialIndex(4).insert(0, Point(1.5, 0.5))


def _points(rng, count):
    return {key: Point(float(rng.uniform()), float(rng.uniform())) for key in range(count)}


def _csr(points: dict[int, Point], gamma: int) -> _CandidateCSR:
    xs = np.array([points[key].x for key in range(len(points))])
    ys = np.array([points[key].y for key in range(len(points))])
    return _CandidateCSR.from_coordinates(xs, ys, gamma)


def _candidates(csr: _CandidateCSR, center: Point, radius: float) -> list[int]:
    """Columns the cell join gathers for one query disc (a superset)."""
    _, cols = csr.join(
        np.array([center.x]), np.array([center.y]), np.array([radius]),
        SparseBuildStats(),
    )
    return sorted(cols.tolist())


def _within(points: dict[int, Point], csr, center: Point, radius: float) -> list[int]:
    """The exact query: gathered columns cut by the true distance."""
    return [
        key
        for key in _candidates(csr, center, radius)
        if np.hypot(points[key].x - center.x, points[key].y - center.y) <= radius
    ]


class TestQueries:
    """Radius queries as cell joins over a cell-grouped point set."""

    def test_empty_index(self):
        csr = _csr({}, 4)
        assert _candidates(csr, Point(0.5, 0.5), 1.0) == []

    def test_exact_query_small(self):
        points = {0: Point(0.1, 0.1), 1: Point(0.15, 0.1), 2: Point(0.9, 0.9)}
        csr = _csr(points, 5)
        assert _within(points, csr, Point(0.1, 0.1), 0.1) == [0, 1]

    def test_candidates_superset_of_exact(self, rng):
        points = _points(rng, 60)
        center = Point(0.4, 0.6)
        exact = set(brute_force(points, center, 0.2))
        candidates = set(_candidates(_csr(points, 6), center, 0.2))
        assert exact <= candidates

    @given(
        gamma=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        count=st.integers(min_value=0, max_value=50),
        cx=coord,
        cy=coord,
        radius=st.floats(min_value=0.0, max_value=1.2, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_query_matches_brute_force(self, gamma, seed, count, cx, cy, radius):
        points = _points(np.random.default_rng(seed), count)
        center = Point(cx, cy)
        assert _within(points, _csr(points, gamma), center, radius) == brute_force(
            points, center, radius
        )

    def test_query_reflects_removals(self, rng):
        points = _points(rng, 30)
        keep = np.ones(30, dtype=bool)
        keep[::3] = False
        csr = _csr(points, 5).remove_columns(keep)
        # Surviving columns are renumbered in order, as the caller's
        # aligned arrays are compacted.
        survivors = {
            new: points[old] for new, old in enumerate(np.flatnonzero(keep).tolist())
        }
        center = Point(0.5, 0.5)
        assert _within(survivors, csr, center, 0.4) == brute_force(
            survivors, center, 0.4
        )


class TestVersionAndJournal:
    """Subscriber change logs."""

    def test_journal_records_ops_in_order(self):
        index = SpatialIndex(4)
        index.insert(1, Point(0.2, 0.2))  # before subscribe: unseen
        log = index.subscribe()
        index.insert(2, Point(0.6, 0.6))
        index.remove(2)
        index.insert(2, Point(0.7, 0.7))
        index.remove(1)
        ops, overflowed = log.drain()
        assert not overflowed
        assert ops == [
            ("insert", 2, 0.6, 0.6),
            ("remove", 2, 0.6, 0.6),
            ("insert", 2, 0.7, 0.7),
            ("remove", 1, 0.2, 0.2),
        ]
        assert log.drain() == ([], False)

    def test_independent_subscribers(self):
        index = SpatialIndex(4)
        first = index.subscribe()
        index.insert(1, Point(0.1, 0.1))
        second = index.subscribe()
        index.insert(2, Point(0.2, 0.2))
        assert first.drain()[0] == [
            ("insert", 1, 0.1, 0.1),
            ("insert", 2, 0.2, 0.2),
        ]
        # The later subscriber only sees mutations after it attached.
        assert second.drain()[0] == [("insert", 2, 0.2, 0.2)]

    def test_journal_overflow_reports_and_resets(self):
        index = SpatialIndex(4)
        log = index.subscribe(capacity=3)
        for key in range(5):
            index.insert(key, Point(0.5, 0.5))
        ops, overflowed = log.drain()
        assert overflowed
        assert ops == []
        index.insert(99, Point(0.1, 0.1))
        ops, overflowed = log.drain()
        assert not overflowed
        assert ops == [("insert", 99, 0.1, 0.1)]

    def test_unsubscribe_stops_recording(self):
        index = SpatialIndex(4)
        log = index.subscribe()
        index.insert(1, Point(0.3, 0.3))
        index.unsubscribe(log)
        index.insert(2, Point(0.4, 0.4))
        ops, _ = log.drain()
        assert ops == [("insert", 1, 0.3, 0.3)]
