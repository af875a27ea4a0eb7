"""Tests for repro.matching.hungarian, cross-checked against scipy.

The vectorized solver is additionally checked *pair-for-pair* against
the retained scalar formulation ``_hungarian_reference`` — identical
assignments, not just equal totals, including tie-heavy integer
matrices where argmin ordering matters.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching.hungarian import (
    _hungarian_reference,
    hungarian_max_weight,
    hungarian_min_cost,
    max_weight_cost_matrix,
)


class TestMinCost:
    def test_identity_matrix(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        assignment, total = hungarian_min_cost(cost)
        assert assignment == [(0, 0), (1, 1)]
        assert total == 0.0

    def test_classic_example(self):
        cost = np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]])
        _, total = hungarian_min_cost(cost)
        assert total == pytest.approx(5.0)

    def test_rectangular_more_columns(self):
        cost = np.array([[5.0, 1.0, 9.0], [9.0, 5.0, 1.0]])
        assignment, total = hungarian_min_cost(cost)
        assert total == pytest.approx(2.0)
        assert assignment == [(0, 1), (1, 2)]

    def test_rectangular_more_rows_transposes(self):
        cost = np.array([[5.0], [1.0]])
        assignment, total = hungarian_min_cost(cost)
        assert assignment == [(1, 0)]
        assert total == pytest.approx(1.0)

    def test_empty(self):
        assignment, total = hungarian_min_cost(np.zeros((0, 0)))
        assert assignment == []
        assert total == 0.0

    def test_non_2d_rejected(self):
        with pytest.raises(ValueError):
            hungarian_min_cost(np.zeros(3))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            hungarian_min_cost(np.array([[np.inf, 1.0], [1.0, 0.0]]))

    @given(
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=1, max_value=7),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scipy(self, rows, cols, seed):
        scipy_optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(seed)
        cost = rng.uniform(0.0, 10.0, size=(rows, cols))
        _, ours = hungarian_min_cost(cost)
        if rows <= cols:
            r, c = scipy_optimize.linear_sum_assignment(cost)
        else:
            c, r = scipy_optimize.linear_sum_assignment(cost.T)
        theirs = float(cost[r, c].sum())
        assert ours == pytest.approx(theirs, abs=1e-9)

    def test_each_row_and_column_used_once(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(0, 1, size=(6, 9))
        assignment, _ = hungarian_min_cost(cost)
        rows = [r for r, _ in assignment]
        cols = [c for _, c in assignment]
        assert sorted(rows) == list(range(6))
        assert len(set(cols)) == 6


class TestMaxWeight:
    def test_simple_maximization(self):
        weights = np.array([[1.0, 5.0], [5.0, 1.0]])
        assignment, total = hungarian_max_weight(weights)
        assert total == pytest.approx(10.0)
        assert assignment == [(0, 1), (1, 0)]

    def test_unmatched_rows_allowed(self):
        weights = np.array([[-2.0, -3.0], [4.0, 1.0]])
        assignment, total = hungarian_max_weight(weights)
        assert assignment == [(1, 0)]
        assert total == pytest.approx(4.0)

    def test_forbidden_cells_never_selected(self):
        weights = np.array([[-np.inf, 3.0], [2.0, -np.inf]])
        assignment, total = hungarian_max_weight(weights)
        assert assignment == [(0, 1), (1, 0)]
        assert total == pytest.approx(5.0)

    def test_all_forbidden_yields_empty(self):
        weights = np.full((2, 2), -np.inf)
        assignment, total = hungarian_max_weight(weights)
        assert assignment == []
        assert total == 0.0

    def test_empty_matrix(self):
        assignment, total = hungarian_max_weight(np.zeros((0, 3)))
        assert assignment == []

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_beats_or_matches_greedy(self, rows, cols, seed):
        from repro.matching.bipartite import greedy_max_weight_matching

        rng = np.random.default_rng(seed)
        weights = rng.uniform(0.1, 10.0, size=(rows, cols))
        r, c = np.nonzero(np.ones_like(weights, dtype=bool))
        _, greedy_total = greedy_max_weight_matching(r, c, weights[r, c])
        _, optimal_total = hungarian_max_weight(weights)
        assert optimal_total >= greedy_total - 1e-9

    def test_precomputed_cost_matches_default(self):
        rng = np.random.default_rng(11)
        weights = rng.uniform(-2.0, 5.0, size=(6, 8))
        weights[rng.uniform(size=weights.shape) < 0.25] = -np.inf
        precomputed = max_weight_cost_matrix(weights)
        default = hungarian_max_weight(weights)
        via_cost = hungarian_max_weight(weights, cost=precomputed)
        assert via_cost == default

    def test_precomputed_cost_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            hungarian_max_weight(np.ones((2, 3)), cost=np.ones((3, 2)))


class TestDifferential:
    """Vectorized solver vs the scalar reference, pair-for-pair."""

    @staticmethod
    def _assert_identical(cost: np.ndarray) -> None:
        assignment, total = hungarian_min_cost(cost)
        ref_assignment, ref_total = _hungarian_reference(cost)
        assert assignment == ref_assignment
        assert total == pytest.approx(ref_total, abs=1e-9)

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_rectangular(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        self._assert_identical(rng.uniform(-10.0, 10.0, size=(rows, cols)))

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_tie_heavy_integer_costs(self, rows, cols, seed):
        """Small-integer matrices force ties; argmin order must agree."""
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 3, size=(rows, cols)).astype(float)
        self._assert_identical(cost)

    def test_all_negative_weights_partial_matching(self):
        """All-negative weights: every row stays unmatched (dummy wins)."""
        weights = np.array([[-1.0, -2.0], [-3.0, -0.5]])
        assignment, total = hungarian_max_weight(weights, allow_unmatched=True)
        assert assignment == []
        assert total == 0.0
        # The padded min-cost problem both solvers see must also agree.
        padded = np.hstack(
            [max_weight_cost_matrix(weights), np.zeros((2, 2))]
        )
        self._assert_identical(padded)

    def test_empty_and_degenerate_edges(self):
        self._assert_identical(np.zeros((0, 0)))
        self._assert_identical(np.zeros((0, 4)))
        self._assert_identical(np.array([[3.5]]))
        self._assert_identical(np.array([[2.0, 1.0]]))
        self._assert_identical(np.array([[2.0], [1.0]]))

    def test_constant_matrix_all_ties(self):
        self._assert_identical(np.ones((5, 7)))

    def test_transposed_problems(self):
        rng = np.random.default_rng(23)
        cost = rng.uniform(0.0, 1.0, size=(9, 4))
        self._assert_identical(cost)
        self._assert_identical(cost.T)

