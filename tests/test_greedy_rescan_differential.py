"""Differential suite of the rescan selection loop.

``_greedy_select_rescan`` (the served select: every row set under
``TRIPLET_MIN_ROWS``) keeps its survivors as masks over one fixed frame,
finds feasibility failures by bisection, answers Eq. 9 with per-lane z
thresholds and prunes Lemma 4.2 with a prefix-minimum sweep.  Each of
those shortcuts treats some lanes apart, so the pools here are drawn to
hit all of them:

- quality-mean ties inside the candidate window, with variance
  (predicted pairs sharing a score level) and without (present pairs at
  the same score, predicted pairs discounted to 0);
- deterministic cost lanes (present pairs, some predicted ones);
- Eq. 9 band lanes (``z`` inside ``[z_lo, z_hi]`` on the first pass);
- a binding and a loose ``candidate_cap``, and ``candidate_cap=1``;
- both objectives and every pruning switch.

Every example runs the loop against the triplet engine
(``TRIPLET_MIN_ROWS`` patched to 1), which shares no loop code with it
and must match bit for bit, and against ``ReferenceGreedy``, Fig. 5
line by line over scalars.  Two properties of the vectorized Eqs. 7-10
are not the loop's to check, so the reference pools avoid them:

- the reference is evaluated under the scalar form of the normal
  approximation the vectorized code uses
  (``standard_normal_cdf_approx``).  Exact ``math.erf`` puts a quality
  tie with variance at ``Pr = 0.5``, the approximation at
  ``0.5 - 5e-10``, and that decides Lemma 4.2's tie clause;
- two rows with the same quality mean and variance have the same Eq. 10
  terms, which the vectorized row sum and the reference's sequential
  sum may add up one ulp apart, so the reference pools give every
  tied row its own variance.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.testing
from repro.core import greedy, pruning, selection, triplet_select
from repro.core.greedy import GreedyConfig, MQAGreedy, greedy_select
from repro.core.selection import _phi_threshold
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.model.instance import ProblemInstance
from repro.model.pairs import PairPool
from repro.testing import ReferenceGreedy
from repro.uncertainty.normal import standard_normal_cdf_approx

RNG = np.random.default_rng(0)
_FLOOR = 1e-24


def _pool(rng: np.random.Generator, n: int, delta: float, budget_max: float, *,
          reference: bool) -> PairPool:
    """``n`` pairs over few workers and tasks, hitting every lane kind.

    ``reference`` keeps tied quality means but gives each tied row its
    own variance (see the module docstring).
    """
    workers = rng.integers(0, max(2, n // 3), n)
    tasks = rng.integers(0, max(2, n // 3), n)
    is_current = rng.random(n) < 0.5
    # A few score levels, so means tie; 0.0 is the discounted
    # predicted pair of existence probability 0.
    levels = np.append(np.round(rng.uniform(0.5, 3.0, 5), 1), 0.0)
    quality = rng.choice(levels, n)
    if reference:
        # Predicted pairs tie on the mean with their own variances;
        # present pairs (no variance) get scores of their own.
        quality = np.where(is_current, quality + rng.uniform(0.0, 1e-3, n), quality)
        quality_var = np.where(is_current, 0.0, rng.uniform(0.01, 0.5, n))
    else:
        quality_var = np.where(
            is_current | (quality == 0.0), 0.0, rng.choice([0.0, 0.04, 0.25], n)
        )
    spread = rng.uniform(0.0, 0.8, n)
    quality_lb = np.where(is_current, quality, np.maximum(quality - spread, 0.0))
    quality_ub = np.where(is_current, quality, quality + spread)

    cost = np.round(rng.uniform(0.0, 3.0, n), 1)
    cost_var = np.where(
        is_current | (rng.random(n) < 0.2), 0.0, rng.choice([0.01, 0.09, 0.25], n)
    )
    # Eq. 9 band lanes: z lands inside [z_lo, z_hi] on the first pass
    # (feasible there when the current budget is 0, as _budgets draws
    # it three times in ten).
    thresholds = _phi_threshold(delta)
    if thresholds is not None:
        z_lo, z_hi = thresholds
        band = (cost_var > 0.0) & (rng.random(n) < 0.3)
        z = rng.uniform(z_lo + 1e-6, z_hi - 1e-6, n)
        cost = np.where(band, np.maximum(budget_max - z * np.sqrt(cost_var), 0.0), cost)
    reach = rng.uniform(0.0, 0.6, n)
    cost_lb = np.where(cost_var > 0.0, np.maximum(cost - reach, 0.0), cost)
    cost_ub = np.where(cost_var > 0.0, cost + reach, cost)
    return PairPool(
        workers, tasks, cost, cost_var, cost_lb, cost_ub,
        quality, quality_var, quality_lb, quality_ub, np.ones(n), is_current,
    )


def _budgets(rng: np.random.Generator) -> tuple[float, float]:
    """``(budget_current, budget_future)``."""
    budget_current = 0.0 if rng.random() < 0.3 else float(rng.uniform(0.0, 6.0))
    return budget_current, float(rng.uniform(0.0, 6.0))


def _problem(pool: PairPool) -> ProblemInstance:
    num_workers = int(pool.worker_idx.max()) + 1
    num_tasks = int(pool.task_idx.max()) + 1
    here = Point(0.5, 0.5)
    return ProblemInstance(
        workers=[Worker(id=i, location=here, velocity=1.0) for i in range(num_workers)],
        tasks=[Task(id=j, location=here, deadline=1.0) for j in range(num_tasks)],
        num_current_workers=num_workers,
        num_current_tasks=num_tasks,
        pool=pool,
        now=0.0,
    )


def _prob_greater(x, y):
    combined = x.variance + y.variance
    if combined <= _FLOOR:
        return 1.0 if x.mean > y.mean else 0.0 if x.mean < y.mean else 0.5
    return 1.0 - standard_normal_cdf_approx(-(x.mean - y.mean) / math.sqrt(combined))


def _prob_less_or_equal(x, y):
    combined = x.variance + y.variance
    if combined <= _FLOOR:
        return 1.0 if x.mean < y.mean else 0.0 if x.mean > y.mean else 0.5
    return standard_normal_cdf_approx(-(x.mean - y.mean) / math.sqrt(combined))


def _prob_within_budget(spent, cost, budget):
    headroom = budget - spent - cost.mean
    if cost.variance <= _FLOOR:
        return 1.0 if headroom >= 0.0 else 0.0
    return standard_normal_cdf_approx(headroom / math.sqrt(cost.variance))


@contextmanager
def _reference_under_approximation():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.testing, "prob_greater", _prob_greater)
        patch.setattr(repro.testing, "prob_less_or_equal", _prob_less_or_equal)
        patch.setattr(repro.testing, "prob_within_budget", _prob_within_budget)
        yield


def _triplet(pool, rows, budget_current, budget_max, config):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triplet_select, "TRIPLET_MIN_ROWS", 1)
        patch.setattr(
            greedy, "_greedy_select_rescan",
            lambda *args: pytest.fail("the triplet engine declined the pool"),
        )
        return greedy_select(pool, rows, budget_current, budget_max, config)


_CONFIGS = dict(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    cap=st.sampled_from([1, 3, 8, 64]),
    dominance=st.booleans(),
    probability=st.booleans(),
)


@given(
    delta=st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.95]),
    objective=st.sampled_from(["probability", "efficiency"]),
    **_CONFIGS,
)
@settings(max_examples=120, deadline=None)
def test_rescan_matches_triplet_engine(seed, delta, cap, dominance, probability, objective):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 160))
    budget_current, budget_future = _budgets(rng)
    budget_max = budget_current + budget_future
    pool = _pool(rng, n, delta, budget_max, reference=False)
    config = GreedyConfig(
        delta=delta, candidate_cap=cap, use_dominance_pruning=dominance,
        use_probability_pruning=probability, selection_objective=objective,
    )
    rows = np.arange(n, dtype=np.int64)
    expected = greedy._greedy_select_rescan(pool, rows, budget_current, budget_max, config)
    assert _triplet(pool, rows, budget_current, budget_max, config) == expected


@given(delta=st.sampled_from([0.3, 0.5, 0.7]), **_CONFIGS)
@settings(max_examples=120, deadline=None)
def test_rescan_matches_reference_greedy(seed, delta, cap, dominance, probability):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 48))
    budget_current, budget_future = _budgets(rng)
    pool = _pool(rng, n, delta, budget_current + budget_future, reference=True)
    problem = _problem(pool)
    config = GreedyConfig(
        delta=delta, candidate_cap=cap, use_dominance_pruning=dominance,
        use_probability_pruning=probability,
    )
    fast = MQAGreedy(config).assign(problem, budget_current, budget_future, RNG)
    with _reference_under_approximation():
        slow = ReferenceGreedy(config).assign(problem, budget_current, budget_future, RNG)
    assert fast.considered_rows == slow.considered_rows
    assert fast.rows == slow.rows


class _WatchedCap(int):
    """A ``candidate_cap`` that notes each window size it is compared
    with: the loop's ``window.size > cap`` takes the reflected ``__lt__``
    of an ``int`` subclass, so ``sizes`` holds every pre-cap window."""

    def __lt__(self, size):
        self.sizes.append(size)
        return int(self) < size


@pytest.mark.parametrize("reference", [False, True], ids=["adversarial", "reference"])
def test_pools_hit_every_lane_kind(monkeypatch, reference):
    """The generator above reaches each lane the loop treats apart."""
    seen = {
        "mean tie with variance": 0, "mean tie without variance": 0,
        "deterministic cost": 0, "band": 0, "cap binds": 0, "cap loose": 0,
    }

    def sweep(cost_mean, quality_mean, blockers):
        seen["mean tie without variance"] += bool(np.count_nonzero(blockers))
        return pruning.sweep_prune(cost_mean, quality_mean, blockers)

    def pick(rows, cost, quality_mean, quality_var, objective):
        tied = quality_mean[:, None] == quality_mean
        varied = quality_var[:, None] + quality_var > _FLOOR
        apart = ~np.eye(rows.size, dtype=bool)
        seen["mean tie with variance"] += bool((tied & varied & apart).any())
        return selection.pick_best(rows, cost, quality_mean, quality_var, objective)

    def keep(z, z_lo, z_hi, delta):
        # A stochastic lane (a band of positive width) with z inside it.
        band = (z >= z_lo) & ~(z > z_hi) & (z_lo < z_hi)
        seen["band"] += bool(band.any())
        return selection.eq9_keep(z, z_lo, z_hi, delta)

    monkeypatch.setattr(greedy, "sweep_prune", sweep)
    monkeypatch.setattr(greedy, "pick_best", pick)
    monkeypatch.setattr(greedy, "eq9_keep", keep)
    cap = _WatchedCap(8)
    cap.sizes = []
    configs = (
        GreedyConfig(candidate_cap=cap, use_probability_pruning=False),
        GreedyConfig(candidate_cap=cap),
    )
    cap.sizes.clear()  # the configs' own range checks
    for seed in range(40):
        rng = np.random.default_rng(seed)
        pool = _pool(rng, 120, 0.5, 6.0, reference=reference)
        seen["deterministic cost"] += int(np.count_nonzero(pool.cost_var == 0.0) > 0)
        for budget_current, config in zip((0.0, 3.0), configs):
            greedy._greedy_select_rescan(pool, np.arange(120), budget_current, 6.0, config)
    seen["cap binds"] = sum(size > int(cap) for size in cap.sizes)
    seen["cap loose"] = sum(size <= int(cap) for size in cap.sizes)
    if reference:
        # Tied present pairs would be identical rows (see above).
        seen.pop("mean tie without variance")
    assert all(seen.values()), seen


def test_pick_best_deterministic_shortcut(monkeypatch):
    """Eq. 10 over an all-deterministic window with finite means and one
    top mean returns that row without the pairwise kernel; every other
    window (a tie at the top, a variance, a non-finite mean) takes the
    kernel.  Either way the winner is the one the pairwise scores pick."""
    branches = {"shortcut": 0, "kernel": 0}
    kernel = selection.superiority_scores

    def counted(quality_mean, quality_var):
        branches["kernel"] += 1
        return kernel(quality_mean, quality_var)

    monkeypatch.setattr(selection, "superiority_scores", counted)
    for seed in range(400):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 12))
        rows = np.sort(rng.choice(1000, size, replace=False))
        cost = np.round(rng.uniform(0.0, 2.0, size), 1)
        quality = np.round(rng.uniform(0.0, 3.0, size), int(rng.integers(0, 3)))
        variance = np.where(rng.random(size) < 0.15, 0.04, 0.0)
        if rng.random() < 0.2:
            variance[:] = 0.0
            quality[rng.integers(size)] = quality.max()  # may tie the top
        if rng.random() < 0.05:
            quality[rng.integers(size)] = rng.choice([np.inf, -np.inf, np.nan])
        with np.errstate(invalid="ignore"):  # inf - inf in the kernel
            scores = kernel(quality, variance)
            before = branches["kernel"]
            best = selection.pick_best(rows, cost, quality, variance, "probability")
        assert best == int(rows[np.lexsort((rows, cost, -scores))[0]])
        if branches["kernel"] == before:
            branches["shortcut"] += 1
            assert not variance.any() and np.isfinite(quality).all()
            assert np.count_nonzero(quality == quality.max()) == 1
    assert branches["shortcut"] and branches["kernel"], branches
