"""Tests for repro.core.selection (Eqs. 9 and 10)."""

import numpy as np
import pytest

from repro.core.selection import budget_confident_rows, eq9_keep, eq9_lanes, select_best_row
from test_core_pruning import pool_from_rows


class TestBudgetConfidentRows:
    def test_deterministic_feasible_kept(self):
        pool = pool_from_rows([(3.0, 3.0, 1.0, 1.0)])
        kept = budget_confident_rows(pool, np.array([0]), 5.0, 10.0, delta=0.5)
        assert kept.tolist() == [0]

    def test_deterministic_infeasible_dropped(self):
        pool = pool_from_rows([(6.0, 6.0, 1.0, 1.0)])
        kept = budget_confident_rows(pool, np.array([0]), 5.0, 10.0, delta=0.5)
        assert kept.size == 0

    def test_stochastic_confidence_threshold(self):
        # Cost mean 4, var 1; spent 5, budget 10: headroom 1 -> Phi(1) ~ 0.84.
        pool = pool_from_rows([(2.0, 6.0, 1.0, 1.0, 1.0, 0.0)])
        assert budget_confident_rows(pool, np.array([0]), 5.0, 10.0, 0.8).tolist() == [0]
        assert budget_confident_rows(pool, np.array([0]), 5.0, 10.0, 0.9).size == 0

    def test_empty_rows(self):
        pool = pool_from_rows([(1.0, 1.0, 1.0, 1.0)])
        assert budget_confident_rows(pool, np.array([], dtype=int), 0, 10, 0.5).size == 0

    @pytest.mark.parametrize("delta", [0.0, 0.5, 0.9, 0.999999])
    def test_deterministic_zero_headroom_kept(self, delta):
        # A budget spent exactly (headroom +0.0 or -0.0) still fits: the
        # indicator is headroom >= 0, whatever delta.
        pool = pool_from_rows([(3.0, 3.0, 1.0, 1.0)])
        assert budget_confident_rows(pool, np.array([0]), 7.0, 10.0, delta).tolist() == [0]
        zero_cost = pool_from_rows([(0.0, 0.0, 1.0, 1.0)])
        assert budget_confident_rows(zero_cost, np.array([0]), 0.0, -0.0, delta).tolist() == [0]
        std, z_lo, z_hi = eq9_lanes(np.zeros(4), delta)
        z = np.array([0.0, -0.0, -5e-324, np.nan]) / std
        assert eq9_keep(z, z_lo, z_hi, delta).tolist() == [True, True, False, False]


class TestSelectBestRow:
    def test_deterministic_picks_max_quality(self):
        pool = pool_from_rows([(1.0, 1.0, 1.0, 1.0), (5.0, 5.0, 3.0, 3.0)])
        assert select_best_row(pool, np.array([0, 1])) == 1

    def test_quality_tie_broken_by_cost(self):
        pool = pool_from_rows([(5.0, 5.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0)])
        assert select_best_row(pool, np.array([0, 1])) == 1

    def test_full_tie_broken_by_row_index(self):
        pool = pool_from_rows([(1.0, 1.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0)])
        assert select_best_row(pool, np.array([0, 1])) == 0

    def test_single_candidate(self):
        pool = pool_from_rows([(1.0, 1.0, 2.0, 2.0)])
        assert select_best_row(pool, np.array([0])) == 0

    def test_empty_rejected(self):
        pool = pool_from_rows([(1.0, 1.0, 2.0, 2.0)])
        with pytest.raises(ValueError):
            select_best_row(pool, np.array([], dtype=int))

    def test_high_variance_pair_can_win_against_crowd(self):
        """Eq. 10 is about being the maximum, not the best mean.

        One stochastic pair with a decent mean beats a crowd of
        deterministic pairs that are each certainly beaten by another
        deterministic pair (their products contain a zero factor).
        """
        pool = pool_from_rows(
            [
                (1.0, 1.0, 1.0, 1.0),            # beaten by row 1 for sure
                (1.0, 1.0, 1.5, 1.5),            # the deterministic max
                (1.0, 1.0, 0.5, 2.5, 0.0, 1.0),  # stochastic mean 1.5
            ]
        )
        best = select_best_row(pool, np.arange(3))
        assert best in (1, 2)
        # Row 0 can never win: Pr{q_0 > q_1} = 0.
        assert best != 0

    def test_stochastic_favorite_with_higher_mean_wins(self):
        pool = pool_from_rows(
            [(1.0, 1.0, 1.0, 1.0), (1.0, 1.0, 0.0, 6.0, 0.0, 0.5)]
        )
        # Mean 3.0 +- 0.7 vs deterministic 1.0: the stochastic pair wins.
        assert select_best_row(pool, np.array([0, 1])) == 1
