"""Micro-benchmarks of the performance-critical components.

These track the throughput of the individual building blocks —
candidate-pool construction, the dominance skyline, the Lemma 4.2
probability prune, the Hungarian solver, the grid predictor — so
regressions show up independently of the end-to-end figure benches.
"""

import numpy as np

from repro.core.pruning import dominance_skyline, probability_prune
from repro.geo.grid import GridIndex
from repro.matching.hungarian import hungarian_max_weight
from repro.model.instance import build_problem
from repro.model.pairs import PairPool
from repro.prediction.grid_predictor import GridPredictor
from repro.uncertainty.vector import prob_greater_vec, prob_less_or_equal_vec
from repro.workloads.quality import HashQualityModel

from repro.testing import (
    make_predicted_tasks,
    make_predicted_workers,
    make_tasks,
    make_workers,
)


def test_bench_build_problem(benchmark):
    """Pool construction for 300 x 300 current + 100 x 100 predicted."""
    rng = np.random.default_rng(0)
    workers = make_workers(rng, 300)
    tasks = make_tasks(rng, 300)
    predicted_workers = make_predicted_workers(rng, 100)
    predicted_tasks = make_predicted_tasks(rng, 100)
    quality_model = HashQualityModel((1.0, 2.0))

    problem = benchmark(
        lambda: build_problem(
            workers, tasks, predicted_workers, predicted_tasks,
            quality_model, 10.0, 0.0,
        )
    )
    assert problem.num_pairs > 0


def test_bench_dominance_skyline(benchmark):
    """Skyline over 50K random pairs."""
    rng = np.random.default_rng(1)
    n = 50_000
    cost = np.sort(rng.uniform(0, 5, size=(n, 2)), axis=1)
    quality = np.sort(rng.uniform(0, 3, size=(n, 2)), axis=1)
    pool = PairPool(
        worker_idx=np.arange(n),
        task_idx=np.arange(n),
        cost_mean=cost.mean(axis=1),
        cost_var=np.zeros(n),
        cost_lb=cost[:, 0],
        cost_ub=cost[:, 1],
        quality_mean=quality.mean(axis=1),
        quality_var=np.zeros(n),
        quality_lb=quality[:, 0],
        quality_ub=quality[:, 1],
        existence=np.ones(n),
        is_current=np.ones(n, dtype=bool),
    )
    survivors = benchmark(lambda: dominance_skyline(pool, np.arange(n)))
    assert 0 < survivors.size <= n


def test_bench_probability_prune(benchmark):
    """Lemma 4.2 over one K = 64 selection window shaped like a served
    round: equal stochastic quality means and stochastic costs, ten
    clusters of five near-equal costs (200 lanes with |z| < 0.01)."""
    rng = np.random.default_rng(4)
    k = 64
    base = np.concatenate([1.0 + 0.5 * np.repeat(np.arange(10), 5), 7.0 + 0.5 * np.arange(14)])
    cost = base + rng.uniform(0.0, 1e-3, k)
    cost_var = rng.uniform(0.5, 2.0, k)
    quality = np.full(k, 1.5)
    quality_var = np.full(k, 0.3)
    zeros = np.zeros(k)
    zi = np.zeros(k, dtype=np.int64)
    pool = PairPool(
        zi, zi, cost, cost_var, zeros, zeros,
        quality, quality_var, zeros, zeros, zeros, np.zeros(k, dtype=bool),
    )
    gap = cost[:, None] - cost
    near_zero = (gap != 0.0) & (gap * gap < 1e-4 * (cost_var[:, None] + cost_var))
    assert near_zero.sum() == 200

    rows = np.arange(k, dtype=np.int64)
    survivors = benchmark(lambda: probability_prune(pool, rows))
    # Eqs. 7-8 evaluated on every pair.
    worse = (
        prob_greater_vec(quality[:, None], quality_var[:, None], quality, quality_var) < 0.5
    ) & (prob_less_or_equal_vec(cost[:, None], cost_var[:, None], cost, cost_var) < 0.5)
    np.fill_diagonal(worse, False)
    np.testing.assert_array_equal(survivors, rows[~worse.any(axis=1)])
    assert survivors.tolist() == [int(np.argmin(cost))]


def test_bench_hungarian(benchmark):
    """Kuhn-Munkres on a 150 x 150 weight matrix."""
    rng = np.random.default_rng(2)
    weights = rng.uniform(0.0, 10.0, size=(150, 150))
    matching, total = benchmark(lambda: hungarian_max_weight(weights))
    assert len(matching) == 150
    assert total > 0.0


def test_bench_grid_predictor(benchmark):
    """Predict per-cell counts on a 20x20 grid from a window of 5."""
    rng = np.random.default_rng(3)
    grid = GridIndex(20)
    predictor = GridPredictor(grid, window=5)
    for _ in range(5):
        counts = rng.poisson(2.0, size=grid.num_cells)
        predictor.observe_counts(counts)
    counts, raw = benchmark(predictor.predict_counts)
    assert counts.shape == (400,)


def test_bench_quality_matrix(benchmark):
    """Hashed quality scores for a 1000 x 1000 id grid."""
    model = HashQualityModel((1.0, 2.0))
    worker_ids = np.arange(1000)
    task_ids = np.arange(1000, 2000)
    matrix = benchmark(lambda: model.quality_by_ids(worker_ids, task_ids))
    assert matrix.shape == (1000, 1000)
