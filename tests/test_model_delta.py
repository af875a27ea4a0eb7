"""Differential tests: incremental round-over-round pool maintenance.

The default engine maintains its candidate pool through the fused round
pipeline's K=1 case — one :class:`~repro.streaming.pipeline.
TilePipeline` around a :class:`~repro.model.delta.DeltaPoolBuilder`,
plus the global reconcile pass — so that is what these tests drive:
:class:`~repro.streaming.pipeline.FusedRoundBuilder` over
``TileGrid(1, 1)``.  Random event sequences — arrivals, expiries,
assignments and relocations (a retire plus a re-arrival under a fresh
id) — must leave it emitting pools bit-identical to a fresh
:func:`~repro.model.sparse.build_problem_sparse` build every round,
for both prediction legs, with trusted churn hints and with the
builder deriving the diff itself.  The fallback triggers (clock
regression, journal overflow, churn ratio, list/journal disagreement,
explicit invalidation) are exercised separately: the builder must stay
*total* — exact output, merely repaired less often.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geo.grid import GridIndex
from repro.geo.spatial_index import SpatialIndex
from repro.geo.tiles import TileGrid
from repro.model.delta import ChurnRecord
from repro.model.sparse import build_problem_sparse
from repro.streaming.pipeline import FusedRoundBuilder
from repro.testing import make_predicted_workers
from repro.workloads.quality import HashQualityModel

pytestmark = pytest.mark.usefixtures("fused_rounds")

_POOL_COLUMNS = (
    "worker_idx",
    "task_idx",
    "cost_mean",
    "cost_var",
    "cost_lb",
    "cost_ub",
    "quality_mean",
    "quality_var",
    "quality_lb",
    "quality_ub",
    "existence",
    "is_current",
)

#: Fine enough that cell-granularity gather padding (half a cell side,
#: 1/32) cannot silently absorb a missing term in a join radius.
_GAMMA = 16
_UNIT_COST = 10.0


def _assert_pools_identical(expected, actual):
    assert len(expected.pool) == len(actual.pool)
    for name in _POOL_COLUMNS:
        np.testing.assert_array_equal(
            getattr(expected.pool, name), getattr(actual.pool, name), err_msg=name
        )


def _make_builder(world, qm, **kwargs) -> FusedRoundBuilder:
    return FusedRoundBuilder(
        qm, _UNIT_COST, TileGrid(1, 1), world.index, index_gamma=_GAMMA, **kwargs
    )


def _random_round(world) -> None:
    rng = world.rng
    world.now += float(rng.uniform(0.0, 0.6))
    world.arrive_workers(int(rng.integers(0, 5)))
    world.arrive_tasks(int(rng.integers(0, 6)))
    world.remove_workers(int(rng.integers(0, 3)))
    world.remove_tasks(int(rng.integers(0, 3)))
    if rng.random() < 0.7:
        # Mix in-cell hops with long cross-cell relocations.
        world.move_tasks(int(rng.integers(0, 3)), 0.02)
        world.move_tasks(int(rng.integers(0, 2)), 0.35)
        world.move_workers(int(rng.integers(0, 3)), 0.02)
        world.move_workers(int(rng.integers(0, 2)), 0.35)


def _check_round(world, builder: FusedRoundBuilder, qm, use_prediction: bool):
    predicted_workers, predicted_tasks = world.predicted(use_prediction)
    fresh = build_problem_sparse(
        world.workers,
        world.tasks,
        predicted_workers,
        predicted_tasks,
        qm,
        _UNIT_COST,
        world.now,
        task_index=world.index if world.tasks else None,
        index_gamma=_GAMMA,
    )
    maintained = builder.build_round(
        world.workers, world.tasks, predicted_workers, predicted_tasks, world.now
    )
    _assert_pools_identical(fresh, maintained)


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    rounds=st.integers(min_value=2, max_value=8),
    use_prediction=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_delta_bit_identical_under_random_event_sequences(
    churn_world_cls, seed, rounds, use_prediction
):
    """The core differential: every round of a random lifecycle and
    relocation stream emits a pool bit-identical to a fresh sparse
    build."""
    rng = np.random.default_rng(seed)
    qm = HashQualityModel((0.0, 1.0), seed=3)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    world.arrive_workers(int(rng.integers(0, 12)))
    world.arrive_tasks(int(rng.integers(0, 12)))
    builder = _make_builder(world, qm)
    _check_round(world, builder, qm, use_prediction)
    for _ in range(rounds):
        _random_round(world)
        _check_round(world, builder, qm, use_prediction)
    stats = builder.delta_stats
    assert stats.rounds == rounds + 1
    assert stats.primes + stats.incremental_rounds == stats.rounds


@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    use_prediction=st.booleans(),
)
@settings(max_examples=8, deadline=None)
def test_delta_adversarial_corpus(
    adversarial_scenario, churn_world_cls, seed, use_prediction
):
    """The named worst-case churn scripts (relocation oscillators,
    mass-expiry cliffs, ... — the conftest corpus) cannot break
    pool-maintenance bit-identity.  The same scripts are run against
    the selection-state repair in ``test_selection_state``."""
    rng = np.random.default_rng(seed)
    qm = HashQualityModel((0.0, 1.0), seed=3)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    builder = _make_builder(world, qm)
    for i in range(adversarial_scenario.num_rounds):
        adversarial_scenario.drive(world, i)
        _check_round(world, builder, qm, use_prediction)
    stats = builder.delta_stats
    assert stats.rounds == adversarial_scenario.num_rounds


@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_delta_trusted_hints_match_selfdiff(churn_world_cls, seed):
    """The engine-style trusted churn hints and the self-derived diff
    must repair to the same pool (both bit-identical to fresh)."""
    rng = np.random.default_rng(seed)
    qm = HashQualityModel((0.0, 1.0), seed=3)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    world.arrive_workers(20)
    world.arrive_tasks(20)
    builder = _make_builder(world, qm)
    builder.build_round(world.workers, world.tasks, [], [], world.now)

    world.now += 0.4
    removed = world.remove_workers(2)
    before = len(world.workers)
    world.arrive_workers(3)
    arrivals = world.workers[before:]
    world.remove_tasks(2)
    world.arrive_tasks(3)

    fresh = build_problem_sparse(
        world.workers, world.tasks, [], [], qm, _UNIT_COST, world.now,
        task_index=world.index if world.tasks else None, index_gamma=_GAMMA,
    )
    maintained = builder.build_round(
        world.workers, world.tasks, [], [], world.now,
        churn=ChurnRecord(worker_arrivals=arrivals, worker_removed_ids=removed),
    )
    _assert_pools_identical(fresh, maintained)
    assert builder.delta_stats.incremental_rounds >= 1


class TestFallbackTriggers:
    """The repair path must yield to a full rebuild exactly when the
    incremental invariants no longer hold — and stay exact."""

    def _fixture(self, churn_world_cls, seed=1, **kwargs):
        rng = np.random.default_rng(seed)
        qm = HashQualityModel((0.0, 1.0), seed=3)
        world = churn_world_cls(rng, index_gamma=_GAMMA)
        world.arrive_workers(10)
        world.arrive_tasks(12)
        builder = _make_builder(world, qm, **kwargs)
        _check_round(world, builder, qm, False)
        return world, builder, qm

    def test_clock_regression_reprimes(self, churn_world_cls):
        world, builder, qm = self._fixture(churn_world_cls)
        world.now += 1.0
        _check_round(world, builder, qm, False)
        world.now -= 0.5
        _check_round(world, builder, qm, False)
        assert builder.delta_stats.primes == 2
        assert builder.delta_stats.rounds == 3

    def test_journal_overflow_reprimes(self, churn_world_cls):
        world, builder, qm = self._fixture(churn_world_cls, seed=2)
        # Shrink the already-subscribed log so a burst overflows it.
        builder._log._capacity = 8
        world.now += 0.2
        world.arrive_tasks(10)  # 10 inserts > capacity 8
        _check_round(world, builder, qm, False)
        assert builder.delta_stats.primes == 2

    def test_churn_ratio_reprimes(self, churn_world_cls):
        rng = np.random.default_rng(3)
        qm = HashQualityModel((0.0, 1.0), seed=3)
        world = churn_world_cls(rng, index_gamma=_GAMMA)
        world.arrive_workers(4)
        world.arrive_tasks(4)
        builder = _make_builder(world, qm, rebuild_churn_ratio=0.25)
        _check_round(world, builder, qm, False)
        world.now += 0.2
        world.arrive_tasks(6)  # 6 / 8 cached >> 0.25
        _check_round(world, builder, qm, False)
        assert builder.delta_stats.primes == 2
        # A quiet follow-up round repairs incrementally again.
        world.now += 0.2
        _check_round(world, builder, qm, False)
        assert builder.delta_stats.incremental_rounds == 1

    def test_list_out_of_sync_with_journal_reprimes(self, churn_world_cls):
        world, builder, qm = self._fixture(churn_world_cls)
        # Drop a task from the list but *not* from the index: the
        # repaired cache cannot mirror the lists, so the builder must
        # fall back to a prime built from the lists (and stay exact).
        orphan = world.tasks.pop()
        world.now += 0.1
        predicted = ([], [])
        fresh = build_problem_sparse(
            world.workers, world.tasks, *predicted, qm, _UNIT_COST, world.now,
            index_gamma=_GAMMA,
        )
        maintained = builder.build_round(
            world.workers, world.tasks, *predicted, world.now
        )
        _assert_pools_identical(fresh, maintained)
        assert builder.delta_stats.primes == 2
        world.index.remove(orphan.id)

    def test_invalidate_forces_prime(self, churn_world_cls):
        world, builder, qm = self._fixture(churn_world_cls)
        # The tile's own delta builder (inline runner, tile 0).
        builder._runner._pipelines[0].builder.invalidate()
        world.now += 0.1
        _check_round(world, builder, qm, False)
        assert builder.delta_stats.primes == 2


class TestConstructorValidation:
    def test_rejects_bad_churn_ratio(self):
        qm = HashQualityModel((0.0, 1.0), seed=3)
        with pytest.raises(ValueError, match="rebuild_churn_ratio"):
            FusedRoundBuilder(
                qm, 1.0, TileGrid(1, 1), SpatialIndex(GridIndex(4)),
                rebuild_churn_ratio=0.0,
            )

    def test_rejects_negative_unit_cost(self):
        qm = HashQualityModel((0.0, 1.0), seed=3)
        with pytest.raises(ValueError, match="unit cost"):
            FusedRoundBuilder(qm, -1.0, TileGrid(1, 1), SpatialIndex(GridIndex(4)))

    def test_rejects_predicted_entity_in_cache(self):
        qm = HashQualityModel((0.0, 1.0), seed=3)
        builder = FusedRoundBuilder(
            qm, 1.0, TileGrid(1, 1), SpatialIndex(GridIndex(4))
        )
        rng = np.random.default_rng(0)
        predicted = make_predicted_workers(rng, 1)
        with pytest.raises(ValueError, match="predicted"):
            builder.build_round(predicted, [], [], [], 0.0)
