"""Tests for repro.geo.spatial_index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import GridIndex
from repro.geo.point import Point
from repro.geo.spatial_index import SpatialIndex

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
        index.insert(7, Point(0.8, 0.8))
        assert index.location(7) == Point(0.8, 0.8)

    def test_gamma_shortcut_constructor(self):
        assert SpatialIndex(8).grid.gamma == 8

    def test_out_of_square_point_rejected(self):
        with pytest.raises(ValueError):
            SpatialIndex(4).insert(0, Point(1.5, 0.5))


class TestQueries:
    def test_empty_index(self):
        index = SpatialIndex(4)
        assert index.query_radius(Point(0.5, 0.5), 1.0).size == 0
        assert index.candidates_in_radius(Point(0.5, 0.5), 1.0).size == 0

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            SpatialIndex(4).query_radius(Point(0.5, 0.5), -1.0)

    def test_exact_query_small(self):
        index = SpatialIndex(5)
        index.insert(1, Point(0.1, 0.1))
        index.insert(2, Point(0.15, 0.1))
        index.insert(3, Point(0.9, 0.9))
        found = index.query_radius(Point(0.1, 0.1), 0.1)
        assert found.tolist() == [1, 2]

    def test_candidates_superset_of_exact(self, rng):
        index = SpatialIndex(6)
        points = {}
        for key in range(60):
            p = Point(float(rng.uniform()), float(rng.uniform()))
            points[key] = p
            index.insert(key, p)
        center = Point(0.4, 0.6)
        exact = set(index.query_radius(center, 0.2).tolist())
        candidates = set(index.candidates_in_radius(center, 0.2).tolist())
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
        rng = np.random.default_rng(seed)
        index = SpatialIndex(GridIndex(gamma))
        points = {}
        for key in range(count):
            p = Point(float(rng.uniform()), float(rng.uniform()))
            points[key] = p
            index.insert(key, p)
        center = Point(cx, cy)
        assert index.query_radius(center, radius).tolist() == brute_force(
            points, center, radius
        )

    def test_query_reflects_removals(self, rng):
        index = SpatialIndex(5)
        points = {}
        for key in range(30):
            p = Point(float(rng.uniform()), float(rng.uniform()))
            points[key] = p
            index.insert(key, p)
        for key in range(0, 30, 3):
            index.remove(key)
            del points[key]
        center = Point(0.5, 0.5)
        assert index.query_radius(center, 0.4).tolist() == brute_force(
            points, center, 0.4
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
