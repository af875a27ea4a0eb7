"""Differential tests: the sparse-native greedy selection engine.

``TripletSelection`` must select exactly the rows the per-iteration
rescan loop selects — including float tie-breaking, which depends on
the canonical candidate ordering — across adversarial pools with
duplicated (tie-heavy) costs and qualities.  The z-threshold shortcuts
of the Eq. 9 confidence test and the Lemma 4.2 pruning are covered by
dedicated equivalence tests against the direct formulas.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.greedy import GreedyConfig, _greedy_select_rescan, greedy_select
from repro.core.pruning import probability_prune
from repro.core.selection import _phi_threshold, budget_confident_rows
from repro.core.triplet_select import triplet_greedy_select
from repro.model.pairs import PairPool
from repro.uncertainty.vector import phi_vec, prob_greater_vec, prob_less_or_equal_vec


def _random_pool(rng: np.random.Generator, n: int) -> PairPool:
    """Tie-heavy pool: quantized values exercise ulp-order contracts."""
    num_workers = int(rng.integers(1, max(n // 8, 2)))
    num_tasks = int(rng.integers(1, max(n // 8, 2)))
    worker = rng.integers(0, num_workers, n)
    task = rng.integers(0, num_tasks, n)
    is_current = rng.random(n) < rng.random()
    quality = np.round(rng.uniform(0.0, 3.0, n), 1)
    cost = np.round(rng.uniform(0.0, 5.0, n), 1)
    cost_var = np.where(is_current, 0.0, np.round(rng.uniform(0.0, 2.0, n), 2))
    cost_lb = np.where(is_current, cost, np.maximum(cost - rng.uniform(0, 1, n), 0.0))
    cost_ub = np.where(is_current, cost, cost + rng.uniform(0, 1, n))
    quality_var = np.where(is_current, 0.0, rng.uniform(0, 1, n))
    quality_lb = np.where(is_current, quality, np.round(quality - rng.uniform(0, 1, n), 1))
    quality_ub = np.where(is_current, quality, np.round(quality + rng.uniform(0, 1, n), 1))
    return PairPool(
        worker, task, cost, cost_var, cost_lb, cost_ub,
        quality, quality_var, quality_lb, quality_ub,
        np.ones(n), is_current,
    )


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    delta=st.sampled_from([0.1, 0.42, 0.5, 0.9]),
    cap=st.sampled_from([1, 4, 64]),
    dominance=st.booleans(),
    probability=st.booleans(),
    objective=st.sampled_from(["probability", "efficiency"]),
)
@settings(max_examples=80, deadline=None)
def test_engine_matches_rescan_loop(seed, delta, cap, dominance, probability, objective):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 350))
    pool = _random_pool(rng, n)
    config = GreedyConfig(
        delta=delta,
        candidate_cap=cap,
        use_dominance_pruning=dominance,
        use_probability_pruning=probability,
        selection_objective=objective,
    )
    budget_current = float(rng.uniform(0.0, 15.0))
    budget_max = budget_current + float(rng.uniform(0.0, 15.0))
    rows = np.unique(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    expected = _greedy_select_rescan(pool, rows, budget_current, budget_max, config)
    actual = triplet_greedy_select(pool, rows, budget_current, budget_max, config)
    assert actual is not None
    assert actual == expected


def test_extreme_delta_falls_back_to_rescan():
    rng = np.random.default_rng(0)
    pool = _random_pool(rng, 64)
    config = GreedyConfig(delta=1e-9)
    rows = np.arange(64, dtype=np.int64)
    assert triplet_greedy_select(pool, rows, 10.0, 20.0, config) is None
    # The public entry point transparently uses the rescan loop.
    assert greedy_select(pool, rows, 10.0, 20.0, config) == _greedy_select_rescan(
        pool, rows, 10.0, 20.0, config
    )


def test_greedy_select_dispatch_is_transparent():
    """Above the engine cutoff, the public API output is unchanged."""
    rng = np.random.default_rng(3)
    pool = _random_pool(rng, 4000)
    config = GreedyConfig()
    rows = np.arange(4000, dtype=np.int64)
    assert greedy_select(pool, rows, 20.0, 40.0, config) == _greedy_select_rescan(
        pool, rows, 20.0, 40.0, config
    )


class TestPhiThresholdShortcuts:
    """The z-threshold shortcuts are bit-identical to the formulas."""

    def test_budget_confidence_matches_direct_phi(self):
        rng = np.random.default_rng(0)
        for trial in range(150):
            n = 300
            cost_mean = rng.uniform(0, 10, n)
            cost_var = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(1e-30, 4.0, n))
            zeros = np.zeros(n)
            zi = np.zeros(n, dtype=np.int64)
            zb = np.zeros(n, dtype=bool)
            pool = PairPool(
                zi, zi, cost_mean, cost_var, zeros, zeros,
                zeros, zeros, zeros, zeros, zeros, zb,
            )
            delta = float(rng.choice([0.0, 0.1, 0.5, 0.9, 0.9999, rng.random()]))
            budget_max = float(rng.uniform(0, 12))
            spent = float(rng.uniform(0, 6))
            rows = np.arange(n, dtype=np.int64)
            got = budget_confident_rows(pool, rows, spent, budget_max, delta)
            headroom = budget_max - spent - cost_mean
            deterministic = cost_var <= 1e-24
            std = np.sqrt(np.where(deterministic, 1.0, cost_var))
            prob = np.where(
                deterministic,
                (headroom >= 0.0).astype(float),
                phi_vec(headroom / std),
            )
            np.testing.assert_array_equal(got, rows[prob > delta], err_msg=str(trial))

    def test_band_boundary_is_exact(self):
        """Lanes densely packed around the threshold stay exact."""
        for delta in (1e-9, 0.1, 0.5, 0.9, 0.999999):
            thresholds = _phi_threshold(delta)
            center = 0.0 if thresholds is None else sum(thresholds) / 2
            z = center + np.linspace(-0.05, 0.05, 5001)
            variance = np.ones_like(z)
            cost = -z  # budget_max = spent = 0 -> headroom == z
            zeros = np.zeros_like(z)
            zi = np.zeros(z.size, dtype=np.int64)
            zb = np.zeros(z.size, dtype=bool)
            pool = PairPool(
                zi, zi, cost, variance, zeros, zeros,
                zeros, zeros, zeros, zeros, zeros, zb,
            )
            rows = np.arange(z.size, dtype=np.int64)
            got = budget_confident_rows(pool, rows, 0.0, 0.0, delta)
            np.testing.assert_array_equal(got, rows[phi_vec(z) > delta])

    def test_probability_prune_matches_direct_formulas(self):
        rng = np.random.default_rng(1)
        for trial in range(200):
            n = int(rng.integers(2, 70))
            quality = rng.choice([0.0, 0.5, 1.0], n) + rng.choice([0.0, 0.0, 0.001, 0.3], n)
            cost = rng.choice([0.0, 1.0], n) + rng.choice([0.0, 0.0, 0.01, 0.2], n)
            quality_var = rng.choice([0.0, 1e-10, 0.5, 2.0], n)
            cost_var = rng.choice([0.0, 1e-8, 1.0, 30.0], n)
            _assert_prune_matches_direct(quality, quality_var, cost, cost_var, trial)

    def test_probability_prune_matches_direct_formulas_near_ties(self):
        """Tiny and zero mean gaps against tiny-to-huge variances: the
        lanes where Eqs. 7-8 land closest to 0.5 (|z| down to 1e-18)."""
        rng = np.random.default_rng(2)
        gaps = np.array([0.0, 1e-15, 1e-9, 1e-3, 1.0])
        variances = np.array([0.0, 1e-30, 1e-20, 1e-6, 1.0, 1e6])
        near_zero = 0
        for trial in range(2000):
            n = int(rng.integers(2, 71))
            quality = rng.choice([0.0, 0.5], n) + rng.choice([-1.0, 1.0], n) * rng.choice(gaps, n)
            cost = rng.choice([0.0, 1.0], n) + rng.choice([-1.0, 1.0], n) * rng.choice(gaps, n)
            quality_var = rng.choice(variances, n)
            cost_var = rng.choice(variances, n)
            _assert_prune_matches_direct(quality, quality_var, cost, cost_var, trial)
            gap = cost[:, None] - cost
            combined = cost_var[:, None] + cost_var
            near_zero += int(((gap != 0.0) & (gap * gap <= 1.6e-4 * combined)).sum())
        # The generator must actually reach the |z| <= 0.01265 region.
        assert near_zero > 100_000


def _assert_prune_matches_direct(quality, quality_var, cost, cost_var, trial):
    """``probability_prune`` keeps exactly the rows Eqs. 7-8, evaluated
    on every pair, leave unbeaten."""
    n = quality.size
    zeros = np.zeros(n)
    zi = np.zeros(n, dtype=np.int64)
    zb = np.zeros(n, dtype=bool)
    pool = PairPool(
        zi, zi, cost, cost_var, zeros, zeros,
        quality, quality_var, zeros, zeros, zeros, zb,
    )
    rows = np.arange(n, dtype=np.int64)
    got = probability_prune(pool, rows)
    quality_better = prob_greater_vec(
        quality[:, None], quality_var[:, None],
        quality[None, :], quality_var[None, :],
    )
    cost_better = prob_less_or_equal_vec(
        cost[:, None], cost_var[:, None], cost[None, :], cost_var[None, :]
    )
    worse_both = (quality_better < 0.5) & (cost_better < 0.5)
    np.fill_diagonal(worse_both, False)
    np.testing.assert_array_equal(got, rows[~worse_both.any(axis=1)], err_msg=str(trial))


def test_engine_rejects_nothing_on_empty_rows():
    pool = PairPool.empty()
    assert greedy_select(pool, np.zeros(0, dtype=np.int64), 1.0, 2.0, GreedyConfig()) == []


@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_thresholds_are_cached_and_ordered(delta):
    lo, hi = _phi_threshold(delta)
    assert lo < hi
    assert _phi_threshold(delta) == (lo, hi)
