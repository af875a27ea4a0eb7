"""Tests for repro.core.pruning (Lemmas 4.1 and 4.2)."""

import numpy as np
import pytest

from repro.core.pruning import cap_candidates, dominance_skyline, probability_prune
from repro.model.pairs import PairPool
from repro.uncertainty.vector import phi_vec, prob_greater_vec, prob_less_or_equal_vec


def pool_from_rows(rows):
    """rows: list of (cost_lb, cost_ub, quality_lb, quality_ub, cost_var, q_var)."""
    rows = [tuple(r) + (0.0, 0.0)[len(r) - 4:] if len(r) < 6 else tuple(r) for r in rows]
    n = len(rows)
    cost_lb = np.array([r[0] for r in rows], dtype=float)
    cost_ub = np.array([r[1] for r in rows], dtype=float)
    q_lb = np.array([r[2] for r in rows], dtype=float)
    q_ub = np.array([r[3] for r in rows], dtype=float)
    cost_var = np.array([r[4] for r in rows], dtype=float)
    q_var = np.array([r[5] for r in rows], dtype=float)
    return PairPool(
        worker_idx=np.arange(n),
        task_idx=np.arange(n),
        cost_mean=(cost_lb + cost_ub) / 2,
        cost_var=cost_var,
        cost_lb=cost_lb,
        cost_ub=cost_ub,
        quality_mean=(q_lb + q_ub) / 2,
        quality_var=q_var,
        quality_lb=q_lb,
        quality_ub=q_ub,
        existence=np.ones(n),
        is_current=np.ones(n, dtype=bool),
    )


class TestDominanceSkyline:
    def test_strictly_dominated_pair_pruned(self):
        # Pair 1: cheaper (ub 1 < lb 2) and better (lb 3 > ub 2).
        pool = pool_from_rows([(2.0, 2.0, 1.0, 2.0), (1.0, 1.0, 3.0, 3.0)])
        survivors = dominance_skyline(pool, np.array([0, 1]))
        assert survivors.tolist() == [1]

    def test_equal_quality_no_dominance(self):
        pool = pool_from_rows([(2.0, 2.0, 3.0, 3.0), (1.0, 1.0, 3.0, 3.0)])
        survivors = dominance_skyline(pool, np.array([0, 1]))
        assert survivors.tolist() == [0, 1]

    def test_overlapping_cost_intervals_no_dominance(self):
        # ub_c of candidate (2.0) not < lb_c of pair (1.5).
        pool = pool_from_rows([(1.5, 3.0, 1.0, 2.0), (1.0, 2.0, 3.0, 4.0)])
        survivors = dominance_skyline(pool, np.array([0, 1]))
        assert survivors.tolist() == [0, 1]

    def test_skyline_of_frontier_survives(self):
        # Quality increases with cost: nothing dominated.
        pool = pool_from_rows([(i, i, i, i) for i in range(1, 6)])
        survivors = dominance_skyline(pool, np.arange(5))
        assert survivors.tolist() == list(range(5))

    def test_chain_domination(self):
        # One superstar dominates the other two.
        pool = pool_from_rows(
            [(0.5, 0.5, 9.0, 9.0), (2.0, 2.0, 1.0, 1.0), (3.0, 3.0, 2.0, 2.0)]
        )
        survivors = dominance_skyline(pool, np.arange(3))
        assert survivors.tolist() == [0]

    def test_empty_and_singleton(self):
        pool = pool_from_rows([(1.0, 1.0, 1.0, 1.0)])
        assert dominance_skyline(pool, np.array([], dtype=int)).size == 0
        assert dominance_skyline(pool, np.array([0])).tolist() == [0]

    def test_matches_naive_implementation(self, rng):
        n = 60
        cost = np.sort(rng.uniform(0, 5, size=(n, 2)), axis=1)
        quality = np.sort(rng.uniform(0, 5, size=(n, 2)), axis=1)
        pool = pool_from_rows(
            [(c[0], c[1], q[0], q[1]) for c, q in zip(cost, quality)]
        )
        rows = np.arange(n)
        fast = set(dominance_skyline(pool, rows).tolist())
        naive = {
            int(j)
            for j in rows
            if not any(
                pool.cost_ub[a] < pool.cost_lb[j] and pool.quality_lb[a] > pool.quality_ub[j]
                for a in rows
            )
        }
        assert fast == naive


class TestProbabilityPrune:
    def test_probably_worse_pair_pruned(self):
        # Pair 0: lower quality mean AND higher cost mean, both stochastic.
        pool = pool_from_rows(
            [(3.0, 5.0, 0.5, 1.5, 0.3, 0.3), (1.0, 2.0, 2.0, 3.0, 0.3, 0.3)]
        )
        survivors = probability_prune(pool, np.array([0, 1]))
        assert survivors.tolist() == [1]

    def test_no_mutual_elimination(self):
        pool = pool_from_rows(
            [(1.0, 2.0, 1.0, 2.0, 0.2, 0.2), (1.0, 2.0, 1.0, 2.0, 0.2, 0.2)]
        )
        survivors = probability_prune(pool, np.array([0, 1]))
        assert survivors.tolist() == [0, 1]

    def test_deterministic_degenerates_to_dominance(self):
        pool = pool_from_rows([(2.0, 2.0, 1.0, 1.0), (1.0, 1.0, 3.0, 3.0)])
        survivors = probability_prune(pool, np.array([0, 1]))
        assert survivors.tolist() == [1]

    def test_better_on_one_dimension_survives(self):
        # Pair 0 is cheaper but worse quality: survives.
        pool = pool_from_rows([(1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 3.0, 3.0)])
        survivors = probability_prune(pool, np.array([0, 1]))
        assert survivors.tolist() == [0, 1]

    def test_singleton(self):
        pool = pool_from_rows([(1.0, 1.0, 1.0, 1.0)])
        assert probability_prune(pool, np.array([0])).tolist() == [0]

    def test_stochastic_quality_tie_prunes_the_costlier_row(self):
        # Equal quality means with a stochastic combined variance give
        # Pr{q_i > q_j} = 0.5 - 5e-10 both ways; the cost order decides.
        pool = pool_from_moments([1.0, 1.0], [0.3, 0.0], [2.0, 1.0], [0.0, 0.0])
        assert probability_prune(pool, np.array([0, 1])).tolist() == [1]

    def test_deterministic_quality_tie_prunes_nothing(self):
        pool = pool_from_moments([1.0, 1.0], [0.0, 0.0], [2.0, 1.0], [0.5, 0.5])
        assert probability_prune(pool, np.array([0, 1])).tolist() == [0, 1]

    @pytest.mark.parametrize(
        "q_mean, c_mean, expected",
        [
            # Cost gap 5e-324 over sqrt(4): -gap/std underflows to -0.0,
            # so Pr{c_0 <= c_1} = phi(-0.0) > 0.5 and row 0 survives,
            # although its cost mean is larger.
            ([1.0, 1.0], [5e-324, 0.0], [0, 1]),
            # Quality gap 5e-324: Pr{q_0 > q_1} = 1 - phi(-0.0) < 0.5,
            # so row 0 is probably worse on both counts and is pruned,
            # although its quality mean is larger.
            ([5e-324, 0.0], [1.0, 0.0], [1]),
        ],
        ids=["cost-gap", "quality-gap"],
    )
    def test_subnormal_gap_follows_the_formulas(self, q_mean, c_mean, expected):
        pool = pool_from_moments(q_mean, [2.0, 2.0], c_mean, [2.0, 2.0])
        rows = np.array([0, 1])
        assert probability_prune(pool, rows).tolist() == expected
        assert direct_prune(pool, rows).tolist() == expected

    def test_non_finite_moments_follow_the_formulas(self):
        # Infinite or NaN moments leave the sign rule and are decided
        # by Eqs. 7-8 on every pair.
        rng = np.random.default_rng(3)
        means = np.array([-np.inf, -1.0, 0.0, 1.0, np.inf, np.nan])
        variances = np.array([0.0, 1.0, 1e308, np.inf, np.nan])
        for trial in range(400):
            n = int(rng.integers(2, 12))
            # Every other window keeps the variances small and finite.
            var_choices = variances[: 2 if trial % 2 else None]
            pool = pool_from_moments(
                rng.choice(means, n), rng.choice(var_choices, n),
                rng.choice(means, n), rng.choice(var_choices, n),
            )
            rows = np.arange(n)
            with np.errstate(invalid="ignore", over="ignore"):
                np.testing.assert_array_equal(
                    probability_prune(pool, rows), direct_prune(pool, rows), err_msg=str(trial)
                )


def pool_from_moments(q_mean, q_var, c_mean, c_var):
    """A pool from per-row quality and cost means and variances."""
    n = len(q_mean)
    zeros = np.zeros(n)
    zi = np.zeros(n, dtype=np.int64)
    return PairPool(
        zi, zi, np.asarray(c_mean, dtype=float), np.asarray(c_var, dtype=float),
        zeros, zeros, np.asarray(q_mean, dtype=float), np.asarray(q_var, dtype=float),
        zeros, zeros, zeros, np.zeros(n, dtype=bool),
    )


def direct_prune(pool, rows):
    """Lemma 4.2 with Eqs. 7-8 evaluated on every pair."""
    q, qv = pool.quality_mean[rows], pool.quality_var[rows]
    c, cv = pool.cost_mean[rows], pool.cost_var[rows]
    worse = (prob_greater_vec(q[:, None], qv[:, None], q, qv) < 0.5) & (
        prob_less_or_equal_vec(c[:, None], cv[:, None], c, cv) < 0.5
    )
    np.fill_diagonal(worse, False)
    return rows[~worse.any(axis=1)]


def _crossing_probes() -> np.ndarray:
    """Every power of two from 2**-1074 to 2**3 with its 64 float
    neighbours on each side, both signs, plus a 2e6-point grid on
    [-0.05, 0.05] and both zeros."""
    powers = np.ldexp(1.0, np.arange(-1074, 4))
    probes = [powers]
    up, down = powers, powers
    for _ in range(64):
        up = np.nextafter(up, np.inf)
        down = np.nextafter(down, 0.0)
        probes += [up, down]
    z = np.concatenate(probes)
    grid = np.linspace(-0.05, 0.05, 2_000_000)
    return np.concatenate([z, -z, grid, [0.0, -0.0]])


class TestPhiCrossing:
    """The sign rule in ``probability_prune`` rests on ``phi_vec``
    crossing 0.5 exactly at z = 0 (A&S 7.1.26 puts phi(0) at
    0.5 + 5e-10 and phi(0-) at 0.5 - 5e-10)."""

    def test_phi_is_below_half_exactly_for_negative_z(self):
        z = _crossing_probes()
        p = phi_vec(z)
        np.testing.assert_array_equal(p < 0.5, z < 0.0)
        np.testing.assert_array_equal(p > 0.5, z >= 0.0)
        assert phi_vec(np.array([-0.0]))[0] > 0.5

    def test_complement_flips_exactly(self):
        # Eq. 7 compares 1 - phi against 0.5.
        p = phi_vec(_crossing_probes())
        np.testing.assert_array_equal(1.0 - p < 0.5, p > 0.5)


class TestCapCandidates:
    def test_under_cap_untouched(self):
        pool = pool_from_rows([(1.0, 1.0, float(i), float(i)) for i in range(5)])
        assert cap_candidates(pool, np.arange(5), 10).tolist() == list(range(5))

    def test_keeps_highest_quality(self):
        pool = pool_from_rows([(1.0, 1.0, float(i), float(i)) for i in range(5)])
        kept = cap_candidates(pool, np.arange(5), 2)
        assert sorted(kept.tolist()) == [3, 4]

    def test_tie_break_by_cost_then_row(self):
        pool = pool_from_rows(
            [(3.0, 3.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0)]
        )
        kept = cap_candidates(pool, np.arange(3), 1)
        assert kept.tolist() == [1]
