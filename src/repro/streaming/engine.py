"""Continuous-time streaming assignment engine.

Where :class:`~repro.simulation.engine.SimulationEngine` batches the
world into discrete time instances, this engine consumes an *event
stream* (arrivals, expiries, worker releases) and runs assignment
rounds on a configurable micro-batch cadence: events are applied in
timestamp order between rounds, and each round prices and assigns only
the entities alive at that moment.

Every round builds its candidate pool through one builder
(:class:`~repro.streaming.pipeline.FusedRoundBuilder`): the unit square
is cut into ``K`` spatial tiles (:class:`ShardingConfig`), each tile
keeps a persistent delta pool over its zone, and a global reconcile
pass merges the tiles back into the canonical pool — bit-for-bit the
pool the dense :func:`~repro.model.instance.build_problem` would emit.  The
default ``K = 1`` runs that pipeline inline on one tile, and builds
rounds of at most :data:`~repro.streaming.pipeline.DENSE_ROUND_MAX_PAIRS`
dense pairs with the dense kernel instead (same pool, less fixed
cost); larger ``K`` fan the tiles over a thread pool or pre-forked
shared-memory workers (:mod:`repro.streaming.shm`).  Events,
prediction RNG draws and selection never depend on ``K``, so every
tiling reproduces the default run exactly
(``tests/test_streaming_sharding.py``).

Equivalence contract: with ``round_interval = 1.0`` and a workload
adapter stamping arrivals at integer instances, the engine reproduces
the batch framework's :class:`~repro.simulation.metrics.
SimulationResult` *exactly* — same assignments, same quality/cost
accounting, same prediction errors (``cpu_seconds`` is wall-clock and
necessarily differs).  Everything order- or RNG-sensitive (pool
ordering, released-worker id allocation, predictor draws) mirrors the
batch loop; the differential suite in
``tests/test_streaming_equivalence.py`` enforces the contract.
"""

from __future__ import annotations

import pickle
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.core.base import Assigner
from repro.core.triplet_select import SelectionState
from repro.geo.grid import GridIndex
from repro.geo.point import euclidean_distance
from repro.geo.spatial_index import SpatialIndex
from repro.geo.tiles import TileGrid
from repro.model.delta import ChurnRecord
from repro.model.entities import Task, Worker
from repro.model.instance import PredictedTaskColumns, PredictedWorkerColumns
from repro.model.quality import QualityModel
from repro.model.sparse import SparseBuildStats
from repro.obs.instrument import StreamObserver
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceRecorder
from repro.prediction.grid_predictor import GridPredictor
from repro.prediction.predictors import CountPredictor
from repro.simulation.engine import (
    EngineConfig,
    _PREDICTED_ID_BASE,
    observe_arrivals,
    predict_entities,
)
from repro.simulation.metrics import (
    AssignmentRecord,
    InstanceMetrics,
    SimulationResult,
)
from repro.streaming.events import (
    PHASE_RELEASE,
    Event,
    EventQueue,
    TaskArrival,
    TaskExpiry,
    WorkerArrival,
    WorkerRelease,
)
from repro.streaming.pipeline import FusedRoundBuilder, InlineTileRunner

_RELEASED_ID_BASE = _PREDICTED_ID_BASE * 2
_ASSIGNMENT_SEQ = attrgetter("assignment_seq")

#: Churn fraction above which a tile's delta pool re-primes instead of
#: repairing, and warm selection rebuilds its orders cold.
_REBUILD_RATIO = 0.5

_BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class StreamConfig:
    """Streaming engine knobs.

    The assignment-policy fields mirror :class:`~repro.simulation.
    engine.EngineConfig`; the streaming-specific ones are:

    Attributes:
        round_interval: time between micro-batch assignment rounds.
            ``1.0`` aligns rounds with the batch engine's instances.
        budget: reward budget ``B`` granted per round.
        index_gamma: grid resolution of the maintained task index.
        enable_metrics: record per-round phase histograms, counters
            and gauges into the engine's :class:`~repro.obs.metrics.
            MetricsRegistry`.  Observability never touches data,
            ordering or RNG — results are bit-identical either way
            (differentially tested); off hands out null instruments.
        enable_tracing: record per-round spans and cache instants into
            the engine's :class:`~repro.obs.trace.TraceRecorder`,
            exportable as Chrome trace-event JSON.  Same bit-identical
            contract; off by default because traces grow with rounds.
    """

    round_interval: float = 1.0
    budget: float = 300.0
    unit_cost: float = 10.0
    use_prediction: bool = True
    grid_gamma: int = 10
    window: int = 3
    discount_by_existence: bool = True
    reservation_filter: bool = True
    include_future_future_pairs: bool = True
    default_deadline_offset: float = 1.5
    default_velocity: float = 0.25
    index_gamma: int = 16
    enable_metrics: bool = True
    enable_tracing: bool = False

    def __post_init__(self) -> None:
        if self.round_interval <= 0.0:
            raise ValueError("round_interval must be positive")
        if self.budget < 0.0:
            raise ValueError("budget must be non-negative")
        if self.unit_cost < 0.0:
            raise ValueError("unit cost must be non-negative")
        if self.grid_gamma < 1:
            raise ValueError("grid_gamma must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.index_gamma < 1:
            raise ValueError("index_gamma must be >= 1")

    @classmethod
    def from_engine_config(
        cls,
        config: EngineConfig,
        round_interval: float = 1.0,
        index_gamma: int = 16,
    ) -> "StreamConfig":
        """Lift a batch :class:`EngineConfig` into streaming form."""
        if config.oracle_prediction:
            raise ValueError(
                "oracle prediction needs workload look-ahead; the streaming "
                "engine has no future to peek at"
            )
        return cls(
            round_interval=round_interval,
            budget=config.budget,
            unit_cost=config.unit_cost,
            use_prediction=config.use_prediction,
            grid_gamma=config.grid_gamma,
            window=config.window,
            discount_by_existence=config.discount_by_existence,
            reservation_filter=config.reservation_filter,
            include_future_future_pairs=config.include_future_future_pairs,
            default_deadline_offset=config.default_deadline_offset,
            default_velocity=config.default_velocity,
            index_gamma=index_gamma,
        )


@dataclass(frozen=True)
class ShardingConfig:
    """How the engine executes its round build across spatial tiles.

    ``ShardingConfig()`` is the engine's default: one tile, built
    inline.  Every tiling and backend emits the same pool, so the
    choice changes speed, never results.

    Attributes:
        num_shards: number of spatial shards ``K``; factored into the
            most-square ``nx x ny`` tiling.
        backend: ``"serial"`` (in-process loop), ``"thread"`` (NumPy's
            kernels release the GIL on large arrays, and tiles share
            the arrays) or ``"process"`` (pre-forked shared-memory tile
            workers, :mod:`repro.streaming.shm`).
        max_workers: pool size for the parallel backends (default:
            ``num_shards``).
        round_deadline_s: process backend only — how long the parent
            waits for one worker's round reply before declaring it
            hung and respawning it; ``None`` restores the unsupervised
            blocking read.
        max_respawns: process backend only — total worker respawns
            allowed before the engine degrades gracefully to the
            inline serial path (the crash-loop budget).
        respawn_backoff_s: initial respawn backoff; doubles per
            respawn, capped at ``respawn_backoff_max_s``.
        faults: an armed :class:`repro.faults.FaultInjector` threaded
            into the process backend for deterministic chaos testing;
            ``None`` (the default) injects nothing and costs nothing.
    """

    num_shards: int = 1
    backend: str = "serial"
    max_workers: int | None = None
    round_deadline_s: float | None = 30.0
    max_respawns: int = 3
    respawn_backoff_s: float = 0.05
    respawn_backoff_max_s: float = 1.0
    faults: object | None = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be positive, got {self.num_shards}")
        if self.backend not in _BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {_BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {self.max_workers}")
        if self.round_deadline_s is not None and self.round_deadline_s <= 0:
            raise ValueError(
                f"round_deadline_s must be positive or None, got "
                f"{self.round_deadline_s}"
            )
        if self.max_respawns < 0:
            raise ValueError(
                f"max_respawns must be non-negative, got {self.max_respawns}"
            )
        if self.respawn_backoff_s < 0 or self.respawn_backoff_max_s < 0:
            raise ValueError("respawn backoffs must be non-negative")


class _LazyThreadPool:
    """The thread backend's executor (shared by the tile runner and the
    reconcile pass), started on first use.  Live threads cannot be
    pickled, so :meth:`StreamingEngine.export_state` carries only the
    pool size and a restored engine starts fresh threads on demand."""

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max_workers
        self._pool: ThreadPoolExecutor | None = None

    def map(self, fn, *iterables):
        if self._pool is None:
            self._pool = ThreadPoolExecutor(self._max_workers, "repro-shard")
        return self._pool.map(fn, *iterables)

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_pool": None}


class StreamingEngine:
    """Event-driven MQA assignment over a continuous timeline.

    Feed events with :meth:`submit` (or the helpers in
    :mod:`repro.streaming.adapters`), then :meth:`advance_to` a
    timestamp: every due micro-batch round up to it is executed.  The
    engine never looks at future events — a round sees exactly the
    entities whose events were stamped at or before it.

    ``sharding`` picks how the round build executes (default: one
    tile, inline).  The build pipeline — and the thread backend's
    pool or the process backend's workers — is created lazily on the
    first round and owned by the engine; call :meth:`close` (or use
    the engine as a context manager) to release it.
    """

    def __init__(
        self,
        assigner: Assigner,
        quality_model: QualityModel,
        config: StreamConfig | None = None,
        predictor: CountPredictor | None = None,
        seed: int = 0,
        end_time: float | None = None,
        sharding: ShardingConfig | None = None,
    ) -> None:
        self._assigner = assigner
        self._quality_model = quality_model
        self._config = config if config is not None else StreamConfig()
        self._sharding = sharding if sharding is not None else ShardingConfig()
        self._tiles = TileGrid.from_shard_count(self._sharding.num_shards)
        self._end_time = end_time
        self._rng = np.random.default_rng(seed)

        grid = GridIndex(self._config.grid_gamma)
        self._worker_predictor = GridPredictor(grid, self._config.window, predictor)
        self._task_predictor = GridPredictor(grid, self._config.window, predictor)

        self._queue = EventQueue()
        self._available_workers: list[Worker] = []
        self._available_worker_ids: set[int] = set()
        self._available_tasks: list[Task] = []
        self._available_task_ids: set[int] = set()
        self._total_quality = 0.0
        self._total_cost = 0.0
        self._task_index = SpatialIndex(GridIndex(self._config.index_gamma))
        self._release_buffer: list[WorkerRelease] = []
        self._joined_workers: list[Worker] = []
        self._new_tasks: list[Task] = []

        self._next_released_id = _RELEASED_ID_BASE
        self._assignment_seq = 0
        self._next_round_index = 0
        self._last_worker_prediction: np.ndarray | None = None
        self._last_task_prediction: np.ndarray | None = None

        self._metrics: list[InstanceMetrics] = []
        self._log: list[AssignmentRecord] = []
        self.events_processed = 0
        self.build_stats = SparseBuildStats()
        # The fused round pipeline, created lazily on the first round
        # so the journal subscription starts with it.
        self._fused_builder: FusedRoundBuilder | None = None
        self._executor: _LazyThreadPool | None = None
        self._closed = False
        # Engine-side churn journal handed to the fused builder as
        # trusted hints: this round's worker arrivals (append order)
        # and the ids assigned away since the previous build.
        self._round_worker_arrivals: list[Worker] = []
        self._removed_worker_ids: list[int] = []
        # Persistent warm-start selection layer.
        self._selection_state: SelectionState | None = SelectionState(
            repair_ratio=_REBUILD_RATIO
        )
        # Observability hub: the round loop always times its phases
        # through the observer's RoundTimer (one clock, one set of
        # measurements feeding both InstanceMetrics and the registry);
        # recording is gated by the config flags.
        self._observer = StreamObserver(
            MetricsRegistry(self._config.enable_metrics),
            TraceRecorder(self._config.enable_tracing),
        )

    # -- state inspection ---------------------------------------------------

    @property
    def config(self) -> StreamConfig:
        return self._config

    @property
    def sharding(self) -> ShardingConfig:
        return self._sharding

    @property
    def tiles(self) -> TileGrid:
        return self._tiles

    @property
    def worker_predictor(self) -> GridPredictor:
        return self._worker_predictor

    @property
    def task_predictor(self) -> GridPredictor:
        return self._task_predictor

    @property
    def delta_stats(self):
        """Counters of the incremental pool maintenance (``None``
        before the first round).

        On the fused pipeline this is the per-tile aggregate —
        ``rounds`` counts tile-rounds, so the incremental rate reads
        as a per-tile average for any K."""
        if self._fused_builder is None:
            return None
        return self._fused_builder.delta_stats

    @property
    def select_stats(self):
        """Counters of the persistent selection layer."""
        if self._selection_state is None:
            return None
        return self._selection_state.stats

    @property
    def observer(self) -> StreamObserver:
        """The engine's observability hub (always present; recording
        is gated by ``enable_metrics``/``enable_tracing``)."""
        return self._observer

    @property
    def metrics_registry(self) -> MetricsRegistry:
        """The engine's metrics registry (null instruments when
        ``enable_metrics`` is off)."""
        return self._observer.metrics

    @property
    def trace_recorder(self) -> TraceRecorder:
        """The engine's trace recorder (drops events when
        ``enable_tracing`` is off)."""
        return self._observer.trace

    @property
    def clock(self) -> float | None:
        """Timestamp of the last executed round (``None`` before any)."""
        if self._next_round_index == 0:
            return None
        return (self._next_round_index - 1) * self._config.round_interval

    @property
    def rounds_run(self) -> int:
        return self._next_round_index

    @property
    def num_available_workers(self) -> int:
        return len(self._available_workers)

    @property
    def num_available_tasks(self) -> int:
        return len(self._available_tasks)

    def result(self) -> SimulationResult:
        """Metrics and audit trail of every round executed so far."""
        return SimulationResult(
            instances=list(self._metrics), assignments=list(self._log)
        )

    @property
    def num_assignments(self) -> int:
        return len(self._log)

    @property
    def total_quality(self) -> float:
        """Running realized quality (O(1); no history copy)."""
        return self._total_quality

    @property
    def total_cost(self) -> float:
        """Running realized cost (O(1); no history copy)."""
        return self._total_cost

    def assignments_since(self, start: int) -> list[AssignmentRecord]:
        """Audit-trail records from position ``start`` on (a copy).

        Lets a long-lived service hand out only the fresh tail instead
        of re-materializing the whole history every drain.
        """
        return self._log[start:]

    # -- lifecycle / durability ---------------------------------------------

    def close(self) -> None:
        """Shut down the build backend (idempotent).

        The serial backend runs inline, so closing it is inert and
        rounds keep working.  Further rounds on a closed thread or
        process engine raise rather than silently degrading to
        in-process execution; the process backend *must* be closed to
        stop its pinned workers.
        """
        if self._fused_builder is not None:
            self._fused_builder.close()
        if self._executor is not None:
            self._executor.shutdown()
        self._closed = True

    @property
    def degraded(self) -> bool:
        """True once a broken process backend has been swapped for the
        inline serial path (crash-loop budget exhausted)."""
        return bool(
            self._fused_builder is not None and self._fused_builder.degraded
        )

    @property
    def ipc_bytes_last_round(self) -> int:
        """Bytes exchanged with the round's build backend (0 for the
        in-process backends, whose arrays are shared)."""
        if self._fused_builder is None:
            return 0
        return self._fused_builder.ipc_bytes_last_round

    @property
    def ipc_bytes_total(self) -> int:
        """Cumulative bytes exchanged with the build backend across
        the run — the numerator of the bench's ``ipc_bytes_per_round``
        (shared-memory array traffic is excluded by design; the pipe
        carries only churn deltas and array descriptors)."""
        if self._fused_builder is None:
            return 0
        return self._fused_builder.ipc_bytes_total

    def __enter__(self) -> "StreamingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def export_state(self) -> bytes:
        """The engine's full round state as one opaque durable blob.

        This is the journal-export hook the recovery layer
        (:mod:`repro.streaming.recovery`) checkpoints: the candidate
        pool caches, persistent selection state, predictor windows,
        RNG state, event queue and audit log all travel in the blob,
        so :meth:`restore_state` + a replay of the operations issued
        after the export reaches bit-identical state to an engine
        that never stopped (the kill-and-replay differential suite
        proves it).  Only in-process backends are exportable — the
        process backend holds pinned workers and shared memory that
        cannot be serialized.  The thread backend's pool is left out
        and restarts on the restored engine's first parallel round.
        """
        runner = getattr(self._fused_builder, "_runner", None)
        if runner is not None and not isinstance(runner, InlineTileRunner):
            raise ValueError(
                "only engines with in-process build backends are "
                f"exportable; this engine runs {type(runner).__name__}"
            )
        return pickle.dumps(self)

    @classmethod
    def restore_state(cls, blob: bytes) -> "StreamingEngine":
        """Rebuild an engine from an :meth:`export_state` blob."""
        engine = pickle.loads(blob)
        if not isinstance(engine, StreamingEngine):
            raise ValueError(
                f"blob does not contain a streaming engine "
                f"(got {type(engine).__name__})"
            )
        return engine

    # -- event intake -------------------------------------------------------

    def submit(self, event: Event) -> None:
        """Enqueue one event.

        Events stamped before the engine's clock are not an error —
        they simply become visible at the next round, the streaming
        analogue of a late-arriving record.
        """
        self._queue.push(event)

    def submit_worker(self, worker: Worker, at: float | None = None) -> None:
        """Enqueue a worker arrival (defaults to the worker's arrival time)."""
        if worker.predicted:
            raise ValueError(f"worker {worker.id}: cannot submit a predicted entity")
        self._queue.push(WorkerArrival(worker.arrival if at is None else at, worker))

    def submit_task(self, task: Task, at: float | None = None) -> None:
        """Enqueue a task arrival (defaults to the task's arrival time)."""
        if task.predicted:
            raise ValueError(f"task {task.id}: cannot submit a predicted entity")
        self._queue.push(TaskArrival(task.arrival if at is None else at, task))

    # -- time advancement ---------------------------------------------------

    def advance_to(self, until: float) -> None:
        """Run every micro-batch round scheduled at or before ``until``.

        Rounds fire at multiples of ``round_interval``; when the engine
        was built with an ``end_time`` (workload mode), rounds at or
        past it never run — matching the batch loop's ``R`` instances.
        """
        while True:
            round_time = self._next_round_index * self._config.round_interval
            if round_time > until:
                break
            if self._end_time is not None and round_time >= self._end_time:
                break
            self._run_round(round_time, self._next_round_index)
            self._next_round_index += 1

    def drain_pending(self) -> None:
        """Advance so every queued arrival/release has seen a round.

        Expiry events are deliberately ignored when picking the target
        time: a far-future deadline on an unassignable task must not
        fast-forward the clock through dozens of empty rounds.
        """
        latest = self._queue.latest_time(max_phase=PHASE_RELEASE)
        if latest is None:
            return
        interval = self._config.round_interval
        # At least the next round, even when every queued event is
        # late-stamped (before the clock) — submit() promises late
        # events become visible at the next round.
        rounds_needed = max(
            int(np.ceil(latest / interval)), self._next_round_index
        )
        self.advance_to(rounds_needed * interval)

    # -- the round ----------------------------------------------------------

    def _apply_due_events(self, now: float) -> None:
        """Apply the events due by ``now``, popped as one batch."""
        expired: set[int] = set()
        due = self._queue.pop_due(now)
        self.events_processed += len(due)
        for event in due:
            if isinstance(event, WorkerArrival):
                worker = event.worker
                if worker.id in self._available_worker_ids:
                    raise ValueError(
                        f"worker {worker.id} is already in the pool; live "
                        "entity ids must be unique"
                    )
                self._available_worker_ids.add(worker.id)
                self._available_workers.append(worker)
                self._joined_workers.append(worker)
            elif isinstance(event, TaskArrival):
                task = event.task
                if task.id in self._available_task_ids:
                    raise ValueError(
                        f"task {task.id} is already pending; live entity "
                        "ids must be unique"
                    )
                self._available_task_ids.add(task.id)
                self._available_tasks.append(task)
                self._task_index.insert(task.id, task.location)
                self._new_tasks.append(task)
            elif isinstance(event, WorkerRelease):
                self._release_buffer.append(event)
            elif isinstance(event, TaskExpiry):
                # Expiries for tasks already assigned (or dropped) are
                # stale — deadlines only matter while still available.
                if event.task_id in self._available_task_ids:
                    expired.add(event.task_id)
                    self._available_task_ids.discard(event.task_id)
                    self._task_index.remove(event.task_id)
        if expired:
            # One filtering pass per round, not one per expiry: a burst
            # round can expire hundreds of tasks at once.
            self._available_tasks = [
                t for t in self._available_tasks if t.id not in expired
            ]

    def _flush_releases(self, now: float) -> None:
        """Re-materialize released workers in assignment order.

        The batch engine iterates its busy list in append (assignment)
        order when releasing, so released ids — which seed the hashed
        quality scores — must be allocated in that order here too, not
        in release-time order.
        """
        if not self._release_buffer:
            return
        self._release_buffer.sort(key=_ASSIGNMENT_SEQ)
        for event in self._release_buffer:
            worker = Worker(
                id=self._next_released_id,
                location=event.location,
                velocity=event.velocity,
                arrival=now,
            )
            self._next_released_id += 1
            self._available_worker_ids.add(worker.id)
            self._available_workers.append(worker)
            self._joined_workers.append(worker)
        self._release_buffer.clear()

    def _build_problem(
        self,
        now: float,
        predicted_workers: PredictedWorkerColumns | Sequence[Worker],
        predicted_tasks: PredictedTaskColumns | Sequence[Task],
        churn: ChurnRecord | None = None,
    ):
        """Assemble the round's candidate-pair problem.

        One :class:`~repro.streaming.pipeline.FusedRoundBuilder` per
        engine, created on the first round with the backend's runner —
        inline for serial, the engine's thread pool for thread (shared
        with the reconcile pass's parallel pricing), and the
        shared-memory persistent worker pool for process.  The serial
        K=1 builder builds rounds of at most
        :data:`~repro.streaming.pipeline.DENSE_ROUND_MAX_PAIRS` dense
        pairs with the dense kernel instead of its tile pipeline.

        ``churn`` is the round's shared :class:`ChurnRecord`: the
        engine stamps its worker-churn journal on it beforehand, and
        a tile-built round annotates ``row_origin`` in place so warm
        selection repairs from a trusted origin map instead of
        self-diffing (a dense round leaves it unset).
        """
        if self._closed and self._sharding.backend != "serial":
            raise RuntimeError(
                f"engine is closed; its {self._sharding.backend!r} backend "
                "is gone (create a new engine to keep streaming)"
            )
        if self._fused_builder is None:
            self._fused_builder = self._make_fused_builder()
        wants = self._observer.wants_tile_phases
        tile_phases: list[tuple[int, float]] | None = [] if wants else None
        pool_events: list[tuple[int, str]] | None = [] if wants else None
        problem = self._fused_builder.build_round(
            self._available_workers,
            self._available_tasks,
            predicted_workers,
            predicted_tasks,
            now,
            churn=churn,
            tile_phases=tile_phases,
            pool_events=pool_events,
        )
        self._removed_worker_ids = []
        if tile_phases:
            self._observer.record_tile_phases(tile_phases)
        if pool_events:
            self._observer.record_tile_pool_events(pool_events)
        supervision = self._fused_builder.drain_supervision_events()
        if supervision:
            self._observer.record_supervision_events(supervision)
        return problem

    def _make_fused_builder(self) -> FusedRoundBuilder:
        config = self._config
        sharding = self._sharding
        max_workers = sharding.max_workers or sharding.num_shards
        runner_factory = None
        if sharding.backend == "thread":
            self._executor = _LazyThreadPool(max_workers)
        elif sharding.backend == "process":
            from repro.streaming.shm import ShmTileRunner

            def runner_factory(spec, num_tiles):
                return ShmTileRunner(
                    spec,
                    num_tiles,
                    max_workers=max_workers,
                    round_deadline_s=sharding.round_deadline_s,
                    max_respawns=sharding.max_respawns,
                    respawn_backoff_s=sharding.respawn_backoff_s,
                    respawn_backoff_max_s=sharding.respawn_backoff_max_s,
                    faults=sharding.faults,
                )

        return FusedRoundBuilder(
            self._quality_model,
            config.unit_cost,
            self._tiles,
            self._task_index,
            executor=self._executor,
            runner_factory=runner_factory,
            discount_by_existence=config.discount_by_existence,
            reservation_filter=config.reservation_filter,
            include_future_future_pairs=config.include_future_future_pairs,
            index_gamma=config.index_gamma,
            rebuild_churn_ratio=_REBUILD_RATIO,
            stats=self.build_stats,
        )

    def _run_round(self, now: float, round_index: int) -> None:
        config = self._config
        timer = self._observer.begin_round(round_index, now)

        self._apply_due_events(now)
        self._flush_releases(now)

        # Prediction bookkeeping: score the previous round's forecast
        # against what actually joined, observe, forecast the next.
        worker_error, task_error = observe_arrivals(
            self._worker_predictor,
            self._task_predictor,
            self._joined_workers,
            self._new_tasks,
            (self._last_worker_prediction, self._last_task_prediction),
        )
        self._round_worker_arrivals = list(self._joined_workers)
        self._joined_workers.clear()
        self._new_tasks.clear()

        # Last-round cutoff, audited against the batch engine: the
        # batch loop predicts iff ``instance + 1 < num_instances``;
        # with ``end_time = num_instances`` and instance-aligned
        # rounds, ``now + round_interval < end_time`` is the same
        # strict comparison, so the final round skips prediction in
        # both engines and no earlier round drops it.  A prediction at
        # ``now + round_interval == end_time`` would target arrivals no
        # later round could ever assign (rounds at or past ``end_time``
        # never run — see advance_to), so the strict ``<`` is correct
        # for non-aligned intervals too.  Locked by
        # TestLastRoundPredictionCutoff in the differential suite.
        predicting = config.use_prediction and (
            self._end_time is None
            or now + config.round_interval < self._end_time
        )
        predicted_workers = predicted_tasks = ()
        if predicting:
            forecasts = (
                self._worker_predictor.predict_counts(),
                self._task_predictor.predict_counts(),
            )
            predicted_workers, predicted_tasks = predict_entities(
                self._rng,
                now,
                self._available_workers,
                self._available_tasks,
                self._worker_predictor,
                self._task_predictor,
                forecasts,
                default_velocity=config.default_velocity,
                default_deadline_offset=config.default_deadline_offset,
                step=config.round_interval,
            )
            self._last_worker_prediction = forecasts[0][0]
            self._last_task_prediction = forecasts[1][0]
        else:
            self._last_worker_prediction = None
            self._last_task_prediction = None

        num_workers = len(self._available_workers)
        num_tasks = len(self._available_tasks)

        # The round's shared churn record: engine-journaled worker
        # churn in, builder-proved row provenance out (annotated in
        # place by the fused builder inside _build_problem).
        churn = ChurnRecord(
            worker_arrivals=self._round_worker_arrivals,
            worker_removed_ids=self._removed_worker_ids,
        )
        timer.phase_start("build")
        problem = self._build_problem(now, predicted_workers, predicted_tasks, churn)
        build_seconds = timer.phase_end("build")
        budget_future = (
            config.budget if predicted_workers or predicted_tasks else 0.0
        )
        if self._selection_state is not None:
            self._assigner.begin_round(problem, churn, self._selection_state)
        self._assigner.last_finalize_seconds = 0.0
        timer.phase_start("assign")
        result = self._assigner.assign(
            problem, config.budget, budget_future, self._rng
        )
        assign_seconds = timer.phase_end("assign")
        finalize_seconds = min(self._assigner.last_finalize_seconds, assign_seconds)
        select_seconds = assign_seconds - finalize_seconds
        timer.record("select", select_seconds, start=timer.start_of("assign"))
        timer.record(
            "finalize", finalize_seconds, start=timer.start_of("assign") + select_seconds
        )
        elapsed = timer.finish()

        assigned_worker_ids = {p.worker.id for p in result.pairs}
        assigned_task_ids = {p.task.id for p in result.pairs}
        for pair in result.pairs:
            travel = euclidean_distance(pair.worker.location, pair.task.location)
            travel_time = travel / pair.worker.velocity
            release_time = now + travel_time
            self._queue.push(
                WorkerRelease(
                    time=release_time,
                    location=pair.task.location,
                    velocity=pair.worker.velocity,
                    assignment_seq=self._assignment_seq,
                )
            )
            self._assignment_seq += 1
            self._log.append(
                AssignmentRecord(
                    instance=round_index,
                    worker_id=pair.worker.id,
                    task_id=pair.task.id,
                    quality=pair.quality.mean,
                    cost=pair.cost.mean,
                    travel_time=travel_time,
                    release_time=release_time,
                )
            )

        if assigned_worker_ids:
            self._available_workers = [
                w for w in self._available_workers if w.id not in assigned_worker_ids
            ]
            self._available_worker_ids -= assigned_worker_ids
            self._removed_worker_ids.extend(assigned_worker_ids)
        if assigned_task_ids:
            self._available_tasks = [
                t for t in self._available_tasks if t.id not in assigned_task_ids
            ]
            for task_id in assigned_task_ids:
                self._available_task_ids.discard(task_id)
                self._task_index.remove(task_id)

        self._total_quality += result.total_quality
        self._total_cost += result.total_cost
        self._metrics.append(
            InstanceMetrics(
                instance=round_index,
                quality=result.total_quality,
                cost=result.total_cost,
                assigned=result.num_assigned,
                num_workers=num_workers,
                num_tasks=num_tasks,
                num_predicted_workers=len(predicted_workers),
                num_predicted_tasks=len(predicted_tasks),
                num_pairs=problem.num_pairs,
                cpu_seconds=elapsed,
                worker_prediction_error=worker_error,
                task_prediction_error=task_error,
                build_seconds=build_seconds,
                assign_seconds=assign_seconds,
                select_seconds=select_seconds,
                finalize_seconds=finalize_seconds,
            )
        )
        delta_stats = self.delta_stats
        self._observer.end_round(
            timer,
            events_processed=self.events_processed,
            num_workers=num_workers,
            num_tasks=num_tasks,
            num_pairs=problem.num_pairs,
            assigned=result.num_assigned,
            build_stats=self.build_stats,
            delta_stats=delta_stats,
            select_stats=self.select_stats,
            cached_pairs=(
                delta_stats.pairs_cached if delta_stats is not None else None
            ),
        )
