"""Tests for the streaming engine, events, and service facade."""

import pytest

from repro.core import MQAGreedy
from repro.geo.point import Point
from repro.model.entities import Task, Worker
from repro.streaming import (
    EventQueue,
    StreamConfig,
    StreamingEngine,
    StreamingService,
    TaskArrival,
    TaskExpiry,
    WorkerArrival,
    WorkerRelease,
    load_workload,
    run_stream,
    workload_events,
)
from repro.simulation import EngineConfig
from repro.testing import ReferenceEngine
from repro.workloads import DriftingHotspotWorkload, SyntheticWorkload, WorkloadParams
from repro.workloads.quality import HashQualityModel


def _quality_model(seed=0):
    return HashQualityModel((1.0, 2.0), seed=seed)


def _worker(wid, x, y, arrival=0.0, velocity=0.3):
    return Worker(id=wid, location=Point(x, y), velocity=velocity, arrival=arrival)


def _task(tid, x, y, deadline, arrival=0.0):
    return Task(id=tid, location=Point(x, y), deadline=deadline, arrival=arrival)


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.push(TaskExpiry(2.0, 1))
        queue.push(WorkerArrival(1.0, _worker(1, 0.5, 0.5, arrival=1.0)))
        queue.push(TaskArrival(0.5, _task(2, 0.5, 0.5, deadline=3.0, arrival=0.5)))
        times = [e.time for e in queue.pop_due(5.0)]
        assert times == [0.5, 1.0, 2.0]

    def test_boundary_expiry_stays_queued(self):
        """At the drain boundary, arrivals/releases pop, expiries wait."""
        queue = EventQueue()
        queue.push(TaskExpiry(1.0, 9))
        queue.push(WorkerArrival(1.0, _worker(1, 0.5, 0.5, arrival=1.0)))
        queue.push(WorkerRelease(1.0, Point(0.2, 0.2), 0.3, assignment_seq=0))
        popped = list(queue.pop_due(1.0))
        assert [type(e).__name__ for e in popped] == [
            "WorkerArrival",
            "WorkerRelease",
        ]
        assert len(queue) == 1  # the expiry
        assert [type(e).__name__ for e in queue.pop_due(1.5)] == ["TaskExpiry"]

    def test_stable_fifo_within_phase(self):
        queue = EventQueue()
        workers = [_worker(i, 0.5, 0.5) for i in range(5)]
        for w in workers:
            queue.push(WorkerArrival(0.0, w))
        popped = [e.worker.id for e in queue.pop_due(0.0)]
        assert popped == [0, 1, 2, 3, 4]

    def test_latest_time(self):
        queue = EventQueue()
        assert queue.latest_time() is None
        queue.push(TaskExpiry(3.5, 1))
        queue.push(TaskExpiry(1.5, 2))
        assert queue.latest_time() == 3.5

    def test_latest_time_phase_bound(self):
        from repro.streaming.events import PHASE_RELEASE

        queue = EventQueue()
        queue.push(TaskExpiry(9.0, 1))
        queue.push(WorkerRelease(2.0, Point(0.1, 0.1), 0.3, assignment_seq=0))
        queue.push(WorkerArrival(1.0, _worker(1, 0.5, 0.5, arrival=1.0)))
        assert queue.latest_time() == 9.0
        assert queue.latest_time(max_phase=PHASE_RELEASE) == 2.0


class TestStreamingEngineBehavior:
    def test_micro_batch_assigns_between_instances(self):
        """A worker arriving at t=0.5 is used by the t=0.5 round."""
        config = StreamConfig(
            round_interval=0.5, budget=100.0, use_prediction=False
        )
        engine = StreamingEngine(MQAGreedy(), _quality_model(), config)
        engine.submit_task(_task(1, 0.5, 0.5, deadline=2.0, arrival=0.0))
        engine.submit_worker(_worker(2, 0.5, 0.5, arrival=0.5))
        engine.advance_to(0.5)
        result = engine.result()
        assert result.total_assigned == 1
        assert result.assignments[0].instance == 1  # the t=0.5 round

    def test_task_expires_between_rounds(self):
        config = StreamConfig(round_interval=1.0, budget=100.0, use_prediction=False)
        engine = StreamingEngine(MQAGreedy(), _quality_model(), config)
        engine.submit_task(_task(1, 0.5, 0.5, deadline=0.4, arrival=0.0))
        # No worker at round 0; the task must be gone by round 1.
        engine.advance_to(0.0)
        assert engine.num_available_tasks == 1
        engine.submit_worker(_worker(2, 0.5, 0.5, arrival=1.0))
        engine.advance_to(1.0)
        assert engine.num_available_tasks == 0
        assert engine.result().total_assigned == 0

    def test_released_worker_rejoins_at_task_location(self):
        config = StreamConfig(round_interval=1.0, budget=100.0, use_prediction=False)
        engine = StreamingEngine(MQAGreedy(), _quality_model(), config)
        # Travel 0.3 at velocity 0.3 -> released at t=1, reusable at t=1.
        engine.submit_worker(_worker(1, 0.2, 0.5, arrival=0.0, velocity=0.3))
        engine.submit_task(_task(2, 0.5, 0.5, deadline=2.0, arrival=0.0))
        engine.submit_task(_task(3, 0.5, 0.5, deadline=3.0, arrival=1.0))
        engine.advance_to(2.0)
        result = engine.result()
        assert result.total_assigned == 2
        second = result.assignments[1]
        assert second.worker_id >= 2 * 10_000_000_000  # released-worker id range
        assert second.travel_time == 0.0

    def test_end_time_caps_rounds(self):
        config = StreamConfig(round_interval=1.0, use_prediction=False)
        engine = StreamingEngine(
            MQAGreedy(), _quality_model(), config, end_time=3.0
        )
        engine.advance_to(10.0)
        assert engine.rounds_run == 3  # rounds at t=0,1,2 only

    def test_predicted_entity_submission_rejected(self):
        engine = StreamingEngine(MQAGreedy(), _quality_model())
        predicted = Worker(
            id=1, location=Point(0.5, 0.5), velocity=0.3, predicted=True
        )
        with pytest.raises(ValueError):
            engine.submit_worker(predicted)

    def test_sparse_and_dense_rounds_agree(self):
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=80, num_tasks=80, num_instances=4), seed=13
        )
        sparse = run_stream(
            workload,
            MQAGreedy(),
            config=StreamConfig(round_interval=0.5, budget=20.0),
            seed=13,
        )
        dense = ReferenceEngine.run(
            workload,
            MQAGreedy(),
            StreamConfig(round_interval=0.5, budget=20.0),
            builder="dense",
            seed=13,
        ).result()
        assert sparse.assignments == dense.assignments
        assert [i.num_pairs for i in sparse.instances] == [
            i.num_pairs for i in dense.instances
        ]

    @pytest.mark.usefixtures("fused_rounds")
    def test_fused_and_dense_rounds_agree(self):
        """The same comparison with the production leg on the K=1 tile
        pipeline instead of the dense kernel."""
        self.test_sparse_and_dense_rounds_agree()

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            StreamConfig(round_interval=0.0)
        with pytest.raises(ValueError):
            StreamConfig(budget=-1.0)
        with pytest.raises(ValueError):
            StreamConfig.from_engine_config(EngineConfig(oracle_prediction=True))


class TestWorkloadAdapter:
    def test_event_stream_covers_workload(self):
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=50, num_tasks=40, num_instances=3), seed=1
        )
        events = list(workload_events(workload))
        workers = [e for e in events if isinstance(e, WorkerArrival)]
        tasks = [e for e in events if isinstance(e, TaskArrival)]
        assert len(workers) == workload.total_workers()
        assert len(tasks) == workload.total_tasks()
        assert all(e.time == e.worker.arrival for e in workers)

    def test_load_workload_counts(self):
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=30, num_tasks=30, num_instances=2), seed=2
        )
        engine = StreamingEngine(MQAGreedy(), workload.quality_model)
        assert load_workload(engine, workload) == 60


class TestStreamingService:
    def test_submit_drain_snapshot_cycle(self):
        config = StreamConfig(round_interval=1.0, budget=50.0, use_prediction=False)
        service = StreamingService(MQAGreedy(), _quality_model(), config)
        service.submit_worker(_worker(1, 0.4, 0.4, arrival=0.0))
        service.submit_task(_task(2, 0.45, 0.4, deadline=2.0, arrival=0.0))
        fresh = service.drain()
        assert [r.task_id for r in fresh] == [2]
        assert service.drain() == []  # nothing new
        snapshot = service.snapshot_metrics()
        assert snapshot.assignments == 1
        # The assigned worker finished traveling and rejoined the pool.
        assert snapshot.available_workers == 1
        assert snapshot.available_tasks == 0
        assert snapshot.rounds_run >= 1
        assert snapshot.events_processed == 3  # 2 submissions + 1 release
        assert snapshot.total_cost > 0.0

    def test_drain_ignores_far_deadlines(self):
        """A distant deadline must not fast-forward the clock through
        dozens of empty rounds on a no-arg drain."""
        config = StreamConfig(round_interval=1.0, budget=50.0, use_prediction=False)
        service = StreamingService(MQAGreedy(), _quality_model(), config)
        # Unreachable task (worker too slow to ever arrive in time).
        service.submit_worker(_worker(1, 0.0, 0.0, arrival=0.0, velocity=0.001))
        service.submit_task(_task(2, 1.0, 1.0, deadline=50.0, arrival=0.0))
        service.drain()
        service.drain()
        assert service.snapshot_metrics().clock <= 1.0

    def test_drain_sees_late_events(self):
        """Events stamped before the clock surface at the next round."""
        config = StreamConfig(round_interval=1.0, budget=50.0, use_prediction=False)
        service = StreamingService(MQAGreedy(), _quality_model(), config)
        service.submit_worker(_worker(1, 0.9, 0.9, arrival=5.0))
        service.drain()  # clock advances to 5.0
        assert service.snapshot_metrics().clock == 5.0
        # Late submissions, stamped in the past relative to the clock.
        service.submit_worker(_worker(2, 0.5, 0.5, arrival=2.0))
        service.submit_task(_task(3, 0.5, 0.5, deadline=99.0, arrival=2.0))
        fresh = service.drain()
        assert [r.task_id for r in fresh] == [3]

    def test_duplicate_live_ids_rejected(self):
        config = StreamConfig(round_interval=1.0, budget=50.0, use_prediction=False)
        engine = StreamingEngine(MQAGreedy(), _quality_model(), config)
        engine.submit_task(_task(1, 0.2, 0.2, deadline=9.0, arrival=0.0))
        engine.submit_task(_task(1, 0.8, 0.8, deadline=9.0, arrival=0.0))
        with pytest.raises(ValueError, match="task 1 is already pending"):
            engine.advance_to(0.0)
        engine = StreamingEngine(MQAGreedy(), _quality_model(), config)
        engine.submit_worker(_worker(4, 0.2, 0.2))
        engine.submit_worker(_worker(4, 0.8, 0.8))
        with pytest.raises(ValueError, match="worker 4 is already in the pool"):
            engine.advance_to(0.0)

    def test_drain_until(self):
        config = StreamConfig(round_interval=0.5, budget=50.0, use_prediction=False)
        service = StreamingService(MQAGreedy(), _quality_model(), config)
        service.submit_task(_task(1, 0.5, 0.5, deadline=5.0, arrival=0.0))
        service.submit_worker(_worker(2, 0.5, 0.5, arrival=2.0))
        assert service.drain(until=1.0) == []
        assert len(service.drain(until=2.0)) == 1

    def test_expected_arrivals_near(self):
        config = StreamConfig(round_interval=1.0, budget=0.0)
        service = StreamingService(MQAGreedy(), _quality_model(), config)
        # Before any round: predictors not ready.
        assert service.expected_arrivals_near(Point(0.5, 0.5), 0.2) == (0.0, 0.0)
        for i in range(8):
            service.submit_task(
                _task(10 + i, 0.5, 0.5, deadline=1.0 + i, arrival=float(i % 2))
            )
        service.drain(until=1.0)
        _, tasks_near = service.expected_arrivals_near(Point(0.5, 0.5), 0.3)
        far = service.expected_arrivals_near(Point(0.05, 0.05), 0.02)
        assert tasks_near >= far[1]

    def test_snapshot_tracks_sparse_work(self):
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=60, num_tasks=60, num_instances=3), seed=4
        )
        config = StreamConfig(round_interval=1.0, budget=20.0)
        service = StreamingService(MQAGreedy(), workload.quality_model, config)
        engine = service.engine
        load_workload(engine, workload)
        service.drain(until=2.0)
        snapshot = service.snapshot_metrics()
        assert snapshot.dense_pairs_equivalent > 0
        assert 0 < snapshot.candidate_pairs_examined

    def test_drain_with_zero_rounds_elapsed(self):
        """A drain that advances no rounds is a clean no-op: empty
        result, clock untouched, drain cursor unmoved."""
        config = StreamConfig(round_interval=1.0, budget=50.0, use_prediction=False)
        service = StreamingService(MQAGreedy(), _quality_model(), config)
        # No events at all — drain_pending finds nothing to target.
        assert service.drain() == []
        assert service.snapshot_metrics().rounds_run == 0
        assert service.drained_assignments == 0
        # With future-stamped events, a drain before their arrival
        # runs only the empty t=0 round: nothing applied, nothing
        # assigned, the cursor stays put.
        service.submit_worker(_worker(1, 0.4, 0.4, arrival=0.9))
        service.submit_task(_task(2, 0.45, 0.4, deadline=3.0, arrival=0.9))
        assert service.drain(until=0.5) == []
        assert service.snapshot_metrics().events_processed == 0
        assert service.drained_assignments == 0
        # The queued events are not lost: the next real round sees them.
        assert len(service.drain(until=1.0)) == 1

    def test_submit_after_close_raises(self):
        config = StreamConfig(round_interval=1.0, budget=50.0, use_prediction=False)
        service = StreamingService(MQAGreedy(), _quality_model(), config)
        service.submit_worker(_worker(1, 0.4, 0.4))
        service.submit_task(_task(2, 0.45, 0.4, deadline=2.0))
        service.drain()
        service.close()
        assert service.closed
        with pytest.raises(RuntimeError, match="closed; cannot submit_worker"):
            service.submit_worker(_worker(3, 0.5, 0.5))
        with pytest.raises(RuntimeError, match="closed; cannot submit_task"):
            service.submit_task(_task(4, 0.5, 0.5, deadline=9.0))
        with pytest.raises(RuntimeError, match="closed; cannot drain"):
            service.drain()
        # The read-only surface stays up for post-mortem inspection.
        assert service.snapshot_metrics().assignments == 1
        assert service.metrics_json()["schema"] == "repro.obs.metrics/v1"
        service.close()  # idempotent

    def test_close_via_context_manager(self):
        config = StreamConfig(round_interval=1.0, use_prediction=False)
        with StreamingService(MQAGreedy(), _quality_model(), config) as service:
            assert not service.closed
        assert service.closed

    def test_snapshot_under_empty_history(self):
        """A snapshot before any round: zeroed totals, no phase
        latencies, and a None clock — never an exception."""
        config = StreamConfig(round_interval=1.0, budget=50.0)
        service = StreamingService(MQAGreedy(), _quality_model(), config)
        snapshot = service.snapshot_metrics()
        assert snapshot.clock is None
        assert snapshot.rounds_run == 0
        assert snapshot.events_processed == 0
        assert snapshot.assignments == 0
        assert snapshot.total_quality == 0.0
        assert snapshot.total_cost == 0.0
        assert snapshot.phase_latencies == {}
        # The exports work on the same empty registry (no instruments
        # registered yet, so the exposition is empty but well-formed).
        assert service.metrics_prometheus().strip() == ""
        assert service.metrics_json()["histograms"] == []


class TestStreamingScenariosEndToEnd:
    def test_hotspot_scenario_runs_microbatched(self):
        workload = DriftingHotspotWorkload(
            WorkloadParams(num_workers=90, num_tasks=90, num_instances=4), seed=6
        )
        result = run_stream(
            workload,
            MQAGreedy(),
            config=StreamConfig(round_interval=0.5, budget=30.0),
            seed=6,
        )
        assert len(result.instances) == 8  # two rounds per instance
        assert result.total_assigned > 0

    def test_finer_rounds_never_crash_on_empty_world(self):
        config = StreamConfig(round_interval=0.25, use_prediction=True)
        engine = StreamingEngine(MQAGreedy(), _quality_model(), config)
        engine.advance_to(1.0)
        assert engine.rounds_run == 5
        assert engine.result().total_assigned == 0


@pytest.mark.usefixtures("fused_rounds")
class TestDeltaBuilderEngineIntegration:
    """The delta-maintained build path must reproduce the full-rebuild
    reference exactly and repair (not rebuild) the steady-state rounds
    (pinned to the fused path: rounds this small would build dense)."""

    def _run(self, use_delta: bool, use_prediction: bool = True):
        workload = SyntheticWorkload(
            WorkloadParams(num_workers=160, num_tasks=160, num_instances=6),
            seed=11,
        )
        config = StreamConfig(
            round_interval=0.5, budget=25.0, use_prediction=use_prediction
        )
        return ReferenceEngine.run(
            workload,
            MQAGreedy(),
            config,
            builder="fused" if use_delta else "sparse",
            seed=11,
        )

    @pytest.mark.parametrize("use_prediction", [True, False])
    def test_delta_reproduces_full_rebuild(self, use_prediction):
        delta = self._run(True, use_prediction)
        full = self._run(False, use_prediction)
        assert delta.result().assignments == full.result().assignments
        assert [i.num_pairs for i in delta.result().instances] == [
            i.num_pairs for i in full.result().instances
        ]
        assert delta.result().total_quality == full.result().total_quality

    def test_delta_stats_exposed_and_incremental(self):
        engine = self._run(True)
        stats = engine.delta_stats
        assert stats is not None
        assert stats.rounds == engine.rounds_run
        # At this small scale the arrival-heavy instance boundaries
        # re-prime (churn ratio); the off-boundary rounds must repair.
        assert stats.incremental_rounds >= stats.rounds // 2
        assert stats.primes + stats.incremental_rounds == stats.rounds

    def test_delta_disabled_has_no_stats(self):
        engine = self._run(False)
        assert engine.delta_stats is None

    def test_phase_timers_recorded(self):
        engine = self._run(True)
        instances = engine.result().instances
        assert all(i.build_seconds > 0.0 for i in instances)
        assert all(i.assign_seconds >= 0.0 for i in instances)
        # The phase split stays inside the measured round wall-clock.
        assert all(
            i.build_seconds + i.assign_seconds <= i.cpu_seconds for i in instances
        )

    def test_config_validation(self):
        from repro.geo import TileGrid
        from repro.geo.grid import GridIndex
        from repro.geo.spatial_index import SpatialIndex
        from repro.streaming.pipeline import FusedRoundBuilder

        with pytest.raises(ValueError, match="rebuild_churn_ratio"):
            FusedRoundBuilder(
                _quality_model(),
                10.0,
                TileGrid(1, 1),
                SpatialIndex(GridIndex(16)),
                rebuild_churn_ratio=1.5,
            )
        with pytest.raises(ValueError, match="reference builder"):
            ReferenceEngine(MQAGreedy(), _quality_model(), builder="matrix")
