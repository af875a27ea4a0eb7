"""Persistent selection state: churn repair must be invisible.

Locks the :class:`repro.core.triplet_select.SelectionState` contract
from four sides:

- ``_merge_sorted_positions`` reproduces a from-scratch lexicographic
  sort on arbitrary tie-heavy runs (the primitive every repair rests
  on);
- warm selections are bit-identical to cold solves under random churn
  and under the named adversarial corpus (``tests/conftest.py``), for
  trusted :class:`~repro.model.delta.ChurnRecord` origins and for
  self-diffed ones, with and without predicted entities — and the
  repair path actually serves (not a silent every-round fallback);
- the lifecycle edges behave: the trusted carry survives declined
  rounds, churn overflows fall back to cold builds, and the
  ``TRIPLET_MIN_ROWS`` floor gates engagement exactly at the boundary;
- the streaming engine reproduces its cold self with warm selection
  on, for the greedy, divide-and-conquer and Hungarian assigners.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HungarianAssigner, MQADivideConquer, MQAGreedy
from repro.core import triplet_select
from repro.core.greedy import GreedyConfig, greedy_select
from repro.core.triplet_select import (
    SelectionState,
    _merge_sorted_positions,
)
from repro.geo.tiles import TileGrid
from repro.streaming import StreamConfig
from repro.streaming.pipeline import FusedRoundBuilder
from repro.testing import ReferenceEngine, make_problem
from repro.workloads import BurstyWorkload, WorkloadParams
from repro.workloads.quality import HashQualityModel

_GAMMA = 16
_UNIT_COST = 10.0
_BUDGET_CURRENT = 8.0
_BUDGET_MAX = 12.0
#: Low engine floor so the small worlds here route through the
#: amortized engine (and therefore through the warm path).
_FLOOR = 8
_CFG = GreedyConfig()


@contextmanager
def _engine_floor(rows):
    """Lower ``TRIPLET_MIN_ROWS`` for the block (hypothesis tests cannot
    take the function-scoped ``monkeypatch`` fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(triplet_select, "TRIPLET_MIN_ROWS", rows)
        yield


# ---------------------------------------------------------------------------
# the merge primitive
# ---------------------------------------------------------------------------


def _reference_merge(a, b, keys):
    """From-scratch (*keys, position) sort of the union."""
    union = np.sort(np.concatenate((a, b)))
    order = np.lexsort((union,) + tuple(k[union] for k in reversed(keys)))
    return union[order]


class TestMergeSortedPositions:
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=120),
        distinct=st.integers(min_value=1, max_value=6),
        two_keys=st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_reference_sort_under_heavy_ties(
        self, seed, n, distinct, two_keys
    ):
        rng = np.random.default_rng(seed)
        # Few distinct key values force cross-run ties, the only case
        # where the scatter order can disagree with the lexicographic
        # one and the tie-resort path must fire.
        primary = rng.integers(0, distinct, n).astype(float)
        keys = (primary,)
        if two_keys:
            keys = (primary, rng.integers(0, distinct, n).astype(float))
        split = int(rng.integers(0, n + 1))
        perm = rng.permutation(n)
        a_pos, b_pos = perm[:split], perm[split:]

        def run_order(positions):
            sub = np.sort(positions)
            order = np.lexsort((sub,) + tuple(k[sub] for k in reversed(keys)))
            return sub[order]

        a, b = run_order(a_pos), run_order(b_pos)
        merged = _merge_sorted_positions(a, b, keys)
        np.testing.assert_array_equal(merged, _reference_merge(a, b, keys))

    def test_empty_runs(self):
        keys = (np.array([0.3, 0.1, 0.2]),)
        run = np.array([1, 2, 0], dtype=np.int64)
        empty = np.array([], dtype=np.int64)
        np.testing.assert_array_equal(
            _merge_sorted_positions(run, empty, keys), run
        )
        np.testing.assert_array_equal(
            _merge_sorted_positions(empty, run, keys), run
        )


# ---------------------------------------------------------------------------
# warm == cold differentials (direct drive through the K=1 fused builder)
# ---------------------------------------------------------------------------


def _make_builder(world):
    qm = HashQualityModel((0.0, 1.0), seed=3)
    return FusedRoundBuilder(
        qm, _UNIT_COST, TileGrid(1, 1), world.index, index_gamma=_GAMMA
    )


def _check_round(state, builder, world, use_prediction, trusted, floor=_FLOOR):
    """Build one round, run warm and cold selection, compare exactly."""
    predicted_workers, predicted_tasks = world.predicted(use_prediction)
    instance = builder.build_round(
        world.workers, world.tasks, predicted_workers, predicted_tasks, world.now
    )
    pool = instance.pool
    rows = np.arange(len(pool), dtype=np.int64)
    state.begin_round(instance, builder.last_churn if trusted else None)
    with _engine_floor(floor):
        warm = state.select(pool, rows, _BUDGET_CURRENT, _BUDGET_MAX, _CFG)
        cold = greedy_select(pool, rows, _BUDGET_CURRENT, _BUDGET_MAX, _CFG)
    if warm is not None:
        assert warm == cold
    return warm


@pytest.mark.usefixtures("fused_rounds")
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    use_prediction=st.booleans(),
    trusted=st.booleans(),
)
@settings(max_examples=12, deadline=None)
def test_warm_matches_cold_under_random_churn(
    churn_world_cls, seed, use_prediction, trusted
):
    """Hypothesis core: random lifecycle/relocation streams, trusted and
    self-diff origins, both prediction legs — every engaged round's
    warm selection equals the cold solve."""
    rng = np.random.default_rng(seed)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    world.arrive_workers(12)
    world.arrive_tasks(14)
    builder = _make_builder(world)
    state = SelectionState()
    _check_round(state, builder, world, use_prediction, trusted)
    for _ in range(5):
        world.now += float(rng.uniform(0.1, 0.4))
        world.arrive_workers(int(rng.integers(0, 4)))
        world.arrive_tasks(int(rng.integers(0, 5)))
        world.remove_workers(int(rng.integers(0, 2)))
        world.remove_tasks(int(rng.integers(0, 2)))
        world.move_tasks(int(rng.integers(0, 3)), 0.05)
        world.move_workers(int(rng.integers(0, 2)), 0.05)
        _check_round(state, builder, world, use_prediction, trusted)
    stats = state.stats
    assert stats.primes + stats.repaired == stats.rounds


@pytest.mark.usefixtures("fused_rounds")
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    trusted=st.booleans(),
)
@settings(max_examples=6, deadline=None)
def test_warm_matches_cold_on_adversarial_corpus(
    adversarial_scenario, churn_world_cls, seed, trusted
):
    """The same named worst-case scripts the pool builder faces
    (``test_model_delta``) cannot make a repaired selection diverge."""
    rng = np.random.default_rng(seed)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    builder = _make_builder(world)
    state = SelectionState()
    for i in range(adversarial_scenario.num_rounds):
        adversarial_scenario.drive(world, i)
        _check_round(state, builder, world, False, trusted)
    stats = state.stats
    assert stats.primes + stats.repaired == stats.rounds


@pytest.mark.usefixtures("fused_rounds")
def test_repair_path_actually_serves(churn_world_cls):
    """Low churn on a standing pool must route through the repair path
    (repaired rounds, zero guard fallbacks) — not silently cold-prime
    every round, which would pass every differential while delivering
    no amortization."""
    rng = np.random.default_rng(7)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    world.arrive_workers(20)
    world.arrive_tasks(24)
    builder = _make_builder(world)
    state = SelectionState()
    for _ in range(6):
        _check_round(state, builder, world, False, True)
        world.now += 0.05
        world.arrive_tasks(1)
    stats = state.stats
    assert stats.rounds == 6
    assert stats.repaired > 0
    assert stats.guard_fallbacks == 0
    assert stats.rows_survived > stats.rows_fresh


# ---------------------------------------------------------------------------
# lifecycle edges
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("fused_rounds")
def test_carry_composes_across_declined_rounds(churn_world_cls):
    """A declined round (pool under the engine floor that round) must
    not break the trusted-origin chain: the churn record observed on
    the declined round composes into the carry, and the next engaged
    round still repairs."""
    rng = np.random.default_rng(11)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    world.arrive_workers(18)
    world.arrive_tasks(20)
    builder = _make_builder(world)
    state = SelectionState()
    # A floor no realistic pool reaches: the round goes through
    # select() but is declined after the churn is observed — exactly
    # what a small-pool gap between engaged rounds looks like.
    declined = 10**6

    assert _check_round(state, builder, world, False, True) is not None
    assert state.stats.primes == 1
    for _ in range(2):
        world.now += 0.05
        world.arrive_tasks(1)
        assert (
            _check_round(state, builder, world, False, True, declined) is None
        )
    assert state.stats.declined == 2
    world.now += 0.05
    world.arrive_tasks(1)
    assert _check_round(state, builder, world, False, True) is not None
    assert state.stats.repaired == 1, (
        "the engaged round after the gap should repair through the "
        "composed carry, not cold-prime"
    )
    assert state.stats.guard_fallbacks == 0


@pytest.mark.usefixtures("fused_rounds")
def test_mass_churn_falls_back_to_cold_build(churn_world_cls):
    """Replacing most of the population in one round overflows the
    repair economics: the state must take the total fallback (a cold
    structural build), still bit-identically."""
    rng = np.random.default_rng(13)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    world.arrive_workers(16)
    world.arrive_tasks(20)
    builder = _make_builder(world)
    state = SelectionState(repair_ratio=0.3)
    _check_round(state, builder, world, False, True)
    world.now += 0.05
    world.remove_tasks(16)
    world.arrive_tasks(18)
    _check_round(state, builder, world, False, True)
    assert state.stats.churn_fallbacks >= 1
    assert state.stats.rounds == 2


@pytest.mark.usefixtures("fused_rounds")
def test_invalidate_forces_cold_prime(churn_world_cls):
    rng = np.random.default_rng(17)
    world = churn_world_cls(rng, index_gamma=_GAMMA)
    world.arrive_workers(14)
    world.arrive_tasks(16)
    builder = _make_builder(world)
    state = SelectionState()
    _check_round(state, builder, world, False, True)
    world.now += 0.05
    state.invalidate()
    _check_round(state, builder, world, False, True)
    assert state.stats.primes == 2
    assert state.stats.repaired == 0


def test_repair_ratio_validation():
    with pytest.raises(ValueError, match="repair_ratio"):
        SelectionState(repair_ratio=0.0)
    with pytest.raises(ValueError, match="repair_ratio"):
        SelectionState(repair_ratio=1.5)


class TestTripletMinRowsBoundary:
    """The engine floor gates warm engagement exactly at the boundary."""

    def _armed_state(self, problem):
        state = SelectionState()
        state.begin_round(problem)
        return state

    def test_at_floor_engages(self, monkeypatch):
        problem = make_problem(seed=3)
        n = len(problem.pool)
        assert n > 1
        state = self._armed_state(problem)
        monkeypatch.setattr(triplet_select, "TRIPLET_MIN_ROWS", n)
        rows = np.arange(n, dtype=np.int64)
        selected = state.select(
            problem.pool, rows, _BUDGET_CURRENT, _BUDGET_MAX, _CFG
        )
        assert selected is not None
        assert state.stats.rounds == 1 and state.stats.primes == 1
        assert selected == greedy_select(
            problem.pool, rows, _BUDGET_CURRENT, _BUDGET_MAX, _CFG
        )

    def test_below_floor_declines(self, monkeypatch):
        problem = make_problem(seed=3)
        n = len(problem.pool)
        state = self._armed_state(problem)
        monkeypatch.setattr(triplet_select, "TRIPLET_MIN_ROWS", n + 1)
        selected = state.select(
            problem.pool,
            np.arange(n, dtype=np.int64),
            _BUDGET_CURRENT,
            _BUDGET_MAX,
            _CFG,
        )
        assert selected is None
        assert state.stats.declined == 1 and state.stats.rounds == 0

    def test_subset_row_sets_decline(self, monkeypatch):
        problem = make_problem(seed=3)
        n = len(problem.pool)
        state = self._armed_state(problem)
        monkeypatch.setattr(triplet_select, "TRIPLET_MIN_ROWS", 1)
        selected = state.select(
            problem.pool,
            np.arange(n - 1, dtype=np.int64),
            _BUDGET_CURRENT,
            _BUDGET_MAX,
            _CFG,
        )
        assert selected is None
        assert state.stats.declined == 1


# ---------------------------------------------------------------------------
# engine level
# ---------------------------------------------------------------------------


class TestEngineWarmEqualsCold:
    """The full streaming engine, warm selection on vs off."""

    @pytest.mark.parametrize(
        "make_assigner, engine_floor",
        [(MQAGreedy, 64), (MQADivideConquer, None), (HungarianAssigner, None)],
        ids=["greedy", "dc", "hungarian"],
    )
    def test_results_identical(self, make_assigner, engine_floor, monkeypatch):
        if engine_floor is not None:
            monkeypatch.setattr(triplet_select, "TRIPLET_MIN_ROWS", engine_floor)
        workload = BurstyWorkload(
            WorkloadParams(num_workers=110, num_tasks=110, num_instances=4),
            seed=9,
        )
        engines = {
            warm: ReferenceEngine.run(
                workload,
                make_assigner(),
                StreamConfig(round_interval=0.5, budget=25.0),
                warm_select=warm,
                seed=9,
            )
            for warm in (False, True)
        }
        assert engines[False].select_stats is None
        assert engines[True].select_stats is not None
        cold, warm = engines[False].result(), engines[True].result()
        assert warm.total_assigned == cold.total_assigned
        assert warm.total_quality == cold.total_quality
        assert warm.total_cost == cold.total_cost
        assert warm.assignments == cold.assignments


@pytest.mark.usefixtures("fused_rounds")
class TestFusedEngineWarmEqualsCold(TestEngineWarmEqualsCold):
    """The same, with the K=1 tile pipeline building the rounds: warm
    selection then repairs from the trusted ``row_origin`` map."""
