"""Differential proof for the fused round pipeline.

The streaming engine runs its delta candidate pools and warm
selection through per-tile :class:`~repro.streaming.pipeline.
TilePipeline` state at every tiling — the default engine is the K=1
case; larger K add a churn-splitting parent and (for the process
backend) a shared-memory exchange.  The proof obligation is *bit
identity*: for K ∈ {1, 2, 4} × {serial, thread, process} on both
prediction legs, the K-tile stream must reproduce the default stream
exactly — assignments, quality, costs, budget accounting, prediction
errors.

Hypothesis drives the workload shape (family, density, velocity,
deadline tightness, seed) so the equivalence is enforced across the
churn regimes the splitter has to route — arrivals, expiry waves,
relocations across tile borders — not just one golden stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MQAGreedy
from repro.model.entities import Task, Worker
from repro.model.sparse import build_problem_sparse
from repro.streaming import (
    ShardingConfig,
    StreamConfig,
    prepared_engine,
    run_stream,
)
from repro.streaming.pipeline import (
    FusedRoundBuilder,
    TileChurnSplitter,
    _net_task_ops,
)
from repro.geo.grid import GridIndex
from repro.geo.point import Point
from repro.geo.spatial_index import SpatialIndex
from repro.geo.tiles import TileGrid, TileZones
from repro.workloads import BurstyWorkload, SyntheticWorkload, WorkloadParams
from repro.workloads.quality import HashQualityModel

from test_model_delta import _GAMMA, _UNIT_COST, _assert_pools_identical
from test_streaming_equivalence import assert_results_identical

pytestmark = pytest.mark.usefixtures("fused_rounds")

#: Serial baselines are deterministic in the drawn parameters; caching
#: them keeps the 9-combination sweep from recomputing each one 9×.
_BASELINES: dict[tuple, object] = {}


def _workload(family, seed, size, velocity, deadline):
    params = WorkloadParams(
        num_workers=size,
        num_tasks=size,
        num_instances=3,
        velocity_range=(0.04, velocity),
        deadline_range=(0.4, deadline),
    )
    cls = BurstyWorkload if family == "bursty" else SyntheticWorkload
    return cls(params, seed=seed)


def _serial_baseline(key):
    result = _BASELINES.get(key)
    if result is None:
        family, seed, size, velocity, deadline, use_prediction = key
        result = run_stream(
            _workload(family, seed, size, velocity, deadline),
            MQAGreedy(),
            config=StreamConfig(
                round_interval=0.5, budget=40.0, use_prediction=use_prediction
            ),
            seed=seed,
        )
        _BASELINES[key] = result
    return result


class TestFusedBitIdentity:
    """K-tile streams == the default one-tile stream, bit for bit."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @given(
        seed=st.integers(min_value=0, max_value=999),
        family=st.sampled_from(["bursty", "synthetic"]),
        size=st.integers(min_value=40, max_value=110),
        velocity=st.floats(min_value=0.05, max_value=0.12),
        deadline=st.floats(min_value=0.6, max_value=1.3),
        use_prediction=st.booleans(),
    )
    @settings(max_examples=5, deadline=None)
    def test_stream_identity(
        self, num_shards, backend, seed, family, size, velocity, deadline,
        use_prediction,
    ):
        key = (family, seed, size, round(velocity, 6), round(deadline, 6),
               use_prediction)
        serial = _serial_baseline(key)
        sharded = run_stream(
            _workload(*key[:5]),
            MQAGreedy(),
            config=StreamConfig(
                round_interval=0.5, budget=40.0, use_prediction=use_prediction
            ),
            sharding=ShardingConfig(num_shards=num_shards, backend=backend),
            seed=seed,
        )
        assert_results_identical(serial, sharded)


class TestFusedSteadyState:
    """Steady-state contracts: incremental repair and delta-only IPC."""

    def _stream(self, backend, num_shards=4):
        workload = BurstyWorkload(
            WorkloadParams(
                num_workers=150,
                num_tasks=150,
                num_instances=5,
                velocity_range=(0.05, 0.09),
                deadline_range=(0.8, 1.5),
            ),
            seed=13,
        )
        engine, _ = prepared_engine(
            workload,
            MQAGreedy(),
            config=StreamConfig(round_interval=0.5, budget=40.0),
            sharding=ShardingConfig(num_shards=num_shards, backend=backend),
            seed=13,
        )
        return engine, workload

    def test_per_tile_repairs_are_incremental(self):
        """After the priming round, tile pools repair in O(churn):
        the per-tile incremental rate clears the health floor."""
        engine, workload = self._stream("serial")
        with engine:
            engine.advance_to(float(workload.num_instances))
            stats = engine.delta_stats
        assert stats.rounds > stats.primes
        rate = stats.incremental_rounds / max(stats.rounds - stats.primes, 1)
        assert rate >= 0.85

    def test_process_round_messages_are_deltas(self):
        """The shm backend's pipe traffic carries churn, not pools:
        steady-state rounds move far fewer bytes than the priming
        round that ships the wholesale entity lists."""
        engine, workload = self._stream("process")
        per_round = []
        with engine:
            clock = 0.5
            while clock <= float(workload.num_instances):
                engine.advance_to(clock)
                per_round.append(engine.ipc_bytes_last_round)
                clock += 0.5
        per_round = [b for b in per_round if b > 0]
        assert len(per_round) >= 4
        prime, steady = per_round[0], sorted(per_round[2:])
        # The typical steady round ships less than the priming round
        # that moved the wholesale entity lists (bursty rounds may
        # spike — that's churn, and churn is exactly what may travel).
        assert steady[len(steady) // 2] < prime
        # And no round is ever state-sized.
        assert max(per_round) < 256 * 1024

    def test_inline_backends_exchange_no_bytes(self):
        engine, workload = self._stream("thread", num_shards=2)
        with engine:
            engine.advance_to(1.0)
            assert engine.ipc_bytes_last_round == 0


class TestChurnSplitter:
    """Unit coverage for the journal-splitting parent."""

    def _setup(self):
        grid = GridIndex(8)
        zones = TileZones(TileGrid(2, 1), grid)  # tiles split at x=0.5
        zones.ensure(0.0)
        splitter = TileChurnSplitter(zones)
        return grid, zones, splitter

    def test_insert_routes_to_zone_tiles(self):
        _, _, splitter = self._setup()
        splitter.reset(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        per_tile = splitter.split([("insert", 7, 0.1, 0.1)])
        assert per_tile is not None
        assert list(per_tile.keys()) == [0]

    def test_relocation_routes_remove_and_insert_by_cell(self):
        """A relocation across the tile border is a remove of the old
        id, routed to the tiles of its last known cell, plus an insert
        of the fresh id, routed to the tiles of its new cell."""
        _, _, splitter = self._setup()
        splitter.reset(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert splitter.split([("insert", 3, 0.1, 0.1)]) is not None
        per_tile = splitter.split(
            [("remove", 3, 0.1, 0.1), ("insert", 4, 0.9, 0.1)]
        )
        assert per_tile is not None
        assert per_tile == {
            0: [("remove", 3, 0.1, 0.1)],
            1: [("insert", 4, 0.9, 0.1)],
        }

    def test_unknown_key_bails_out(self):
        _, _, splitter = self._setup()
        splitter.reset(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert splitter.split([("remove", 99, 0.5, 0.5)]) is None

    def test_net_task_ops(self):
        known = {1}
        net = _net_task_ops(
            [
                ("insert", 2, 0.1, 0.1),
                ("remove", 2, 0.1, 0.1),   # nets away
                ("insert", 3, 0.2, 0.2),
                ("remove", 1, 0.0, 0.0),
            ],
            known,
        )
        assert net is not None
        removed, new = net
        assert removed == {1}
        assert new == {3: (0.2, 0.2)}

    def test_insert_of_known_key_is_contradiction(self):
        assert _net_task_ops([("insert", 1, 0.0, 0.0)], {1}) is None


class TestFusedAdversarialCorpus:
    """The named worst-case churn scripts, against per-tile pools:
    every round of every scenario must emit a merged pool
    bit-identical to a from-scratch sparse build."""

    @pytest.mark.parametrize("num_tiles", [1, 4])
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        use_prediction=st.booleans(),
    )
    @settings(max_examples=6, deadline=None)
    def test_corpus_bit_identity(
        self, adversarial_scenario, churn_world_cls, num_tiles, seed,
        use_prediction,
    ):
        rng = np.random.default_rng(seed)
        qm = HashQualityModel((0.0, 1.0), seed=3)
        world = churn_world_cls(rng, index_gamma=_GAMMA)
        builder = FusedRoundBuilder(
            qm, _UNIT_COST, TileGrid.from_shard_count(num_tiles), world.index
        )
        for i in range(adversarial_scenario.num_rounds):
            adversarial_scenario.drive(world, i)
            pw, pt = world.predicted(use_prediction)
            fresh = build_problem_sparse(
                world.workers, world.tasks, pw, pt, qm, _UNIT_COST, world.now,
                task_index=world.index if world.tasks else None,
                index_gamma=_GAMMA,
            )
            fused = builder.build_round(
                world.workers, world.tasks, pw, pt, world.now
            )
            _assert_pools_identical(fresh, fused)
        assert builder.delta_stats.rounds > 0

    def test_border_oscillation_rejoins_bit_identical(self, churn_world_cls):
        """Tasks ping-ponging across the tile border every round, each
        hop a retire plus a re-arrival under a fresh id: the losing
        tile drops the old id, the gaining tile appends the new one,
        both repair incrementally, and the merged pool never drifts
        from the fresh build."""
        rng = np.random.default_rng(7)
        qm = HashQualityModel((0.0, 1.0), seed=3)
        world = churn_world_cls(rng, index_gamma=_GAMMA)
        builder = FusedRoundBuilder(
            qm, _UNIT_COST, TileGrid(2, 1), world.index
        )
        # Slow workers + tight deadlines keep the margin to a couple of
        # cells, so a 0.3 <-> 0.7 hop genuinely leaves the old zone.
        for x in (0.1, 0.35, 0.65, 0.9):
            world.workers.append(
                Worker(
                    id=world._new_id(), location=Point(x, 0.5),
                    velocity=0.02, arrival=0.0,
                )
            )
        # Stationary tasks keep each tile's churn under the rebuild
        # ratio, so the hops are served by incremental repair.
        for x in np.linspace(0.05, 0.95, 12):
            task = Task(
                id=world._new_id(), location=Point(float(x), 0.45),
                deadline=2.0, arrival=world.now,
            )
            world.tasks.append(task)
            world.index.insert(task.id, task.location)
        movers = set()
        for x in (0.3, 0.32, 0.68):
            task = Task(
                id=world._new_id(), location=Point(x, 0.5),
                deadline=1.0, arrival=world.now,
            )
            world.tasks.append(task)
            world.index.insert(task.id, task.location)
            movers.add(task.id)

        def check():
            fresh = build_problem_sparse(
                world.workers, world.tasks, [], [], qm, _UNIT_COST, world.now,
                task_index=world.index if world.tasks else None,
                index_gamma=_GAMMA,
            )
            fused = builder.build_round(
                world.workers, world.tasks, [], [], world.now
            )
            _assert_pools_identical(fresh, fused)

        check()
        for _ in range(5):
            world.now += 0.1
            hopping = [task for task in world.tasks if task.id in movers]
            world.tasks = [task for task in world.tasks if task.id not in movers]
            movers = set()
            for task in hopping:
                world.index.remove(task.id)
                x = task.location.x
                hopped = Task(
                    id=world._new_id(),
                    location=Point(x + 0.38 if x < 0.5 else x - 0.38, 0.5),
                    deadline=task.deadline,
                    arrival=task.arrival,
                )
                world.tasks.append(hopped)
                world.index.insert(hopped.id, hopped.location)
                movers.add(hopped.id)
            check()
        stats = builder.delta_stats
        assert stats.incremental_rounds > 0
        assert stats.primes + stats.incremental_rounds == stats.rounds


class TestFusedBuilderDirect:
    """FusedRoundBuilder driven directly against a spatial index."""

    def test_retry_protocol_surfaces_poisoned_tiles(self):
        """A tile that rejects its own refresh payload is a bug, not
        a retry loop: the builder raises instead of spinning."""
        from repro.streaming.pipeline import InlineTileRunner

        class _Refusenik(InlineTileRunner):
            def run(self, messages, now, pw, pt):
                return [None for _ in messages]

        index = SpatialIndex(8)
        builder = FusedRoundBuilder(
            HashQualityModel((1.0, 2.0), seed=0),
            0.1,
            TileGrid(1, 1),
            index,
            runner_factory=lambda spec, n: _Refusenik(n, spec),
        )
        with pytest.raises(RuntimeError, match="refresh"):
            builder.build_round([], [], [], [], 0.0)
