"""Grid-partitioned parallel round builds: the sharded streaming engine.

The assignment problem is spatially local — a worker can only serve
tasks within its reachable radius — so one engine round decomposes
into per-tile sub-problems plus a thin coupling layer.  The unit
square is cut into ``K`` rectangular tiles (:class:`~repro.geo.tiles.
TileGrid`); every query-side entity (current worker, predicted worker)
is *owned* by exactly one tile, and each tile keeps a persistent delta
candidate pool over the tasks inside its tile expanded by one
reachable radius.  A global reconcile pass merges the disjoint tile
outputs back into canonical row-major order and computes everything
that genuinely couples tiles (the Section III-B sample statistics,
existence, the reservation filter, pricing).  The machinery lives in
:mod:`repro.streaming.pipeline`; the assembled :class:`~repro.model.
instance.ProblemInstance` is bit-for-bit identical to
:func:`~repro.model.sparse.build_problem_sparse` on the same inputs.

:class:`ShardedStreamingEngine` plugs that fused build into the
streaming engine's ``_build_problem`` hook; events, prediction RNG
draws and selection stay byte-for-byte shared with the serial engine
(itself the K=1 case of the same pipeline), which is what makes the
whole sharded run reproduce the serial run exactly on a fixed seed
(enforced by ``tests/test_streaming_sharding`` and
``tests/test_round_pipeline``).

Backends: ``process`` (pre-forked shared-memory tile workers,
:mod:`repro.streaming.shm`, for CPU-bound scaling), ``thread`` (NumPy's
kernels release the GIL on large arrays, and tiles share the arrays),
and ``serial`` (in-process loop; the differential-testing reference).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.geo.tiles import TileGrid
from repro.model.quality import QualityModel
from repro.simulation.metrics import SimulationResult
from repro.streaming.adapters import load_workload
from repro.streaming.engine import StreamConfig, StreamingEngine

_BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ShardingConfig:
    """Knobs of the sharded execution layer.

    Attributes:
        num_shards: number of spatial shards ``K``; factored into the
            most-square ``nx x ny`` tiling.
        backend: ``"process"``, ``"thread"`` or ``"serial"``.
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

    num_shards: int = 4
    backend: str = "thread"
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


class ShardedStreamingEngine(StreamingEngine):
    """Streaming engine whose rounds build candidates across K shards.

    Everything except the problem build — event handling, prediction
    bookkeeping and RNG draws, budgeted selection, commit — is
    inherited byte-for-byte from :class:`StreamingEngine`, and the
    sharded build emits a bit-identical pool, so a sharded run
    reproduces the serial run *exactly* on a fixed seed, for every
    backend and every K.

    The fused builder (and the thread backend's executor) is created
    lazily on the first round and owned by the engine; call
    :meth:`close` (or use the engine as a context manager) to release
    it.
    """

    def __init__(
        self,
        assigner,
        quality_model: QualityModel,
        config: StreamConfig | None = None,
        sharding: ShardingConfig | None = None,
        predictor=None,
        seed: int = 0,
        end_time: float | None = None,
    ) -> None:
        super().__init__(
            assigner,
            quality_model,
            config=config,
            predictor=predictor,
            seed=seed,
            end_time=end_time,
        )
        if not (self.config.use_sparse_builder and self.config.use_delta_builder):
            raise ValueError(
                "the sharded engine runs the fused delta pipeline only; "
                "use_sparse_builder=False and use_delta_builder=False select "
                "the serial engine's reference builders"
            )
        self._sharding = sharding if sharding is not None else ShardingConfig()
        self._tiles = TileGrid.from_shard_count(self._sharding.num_shards)
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False

    @property
    def sharding(self) -> ShardingConfig:
        return self._sharding

    @property
    def tiles(self) -> TileGrid:
        return self._tiles

    def close(self) -> None:
        """Shut down the backend runner and executor (idempotent).

        Further rounds on a parallel-backend engine raise rather than
        silently degrading to in-process execution.
        """
        if self._fused_builder is not None:
            self._fused_builder.close()
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        self._closed = True

    def __enter__(self) -> "ShardedStreamingEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _build_problem(self, now, predicted_workers, predicted_tasks, churn=None):
        """The fused round pipeline: persistent per-tile delta pools.

        One :class:`~repro.streaming.pipeline.FusedRoundBuilder` per
        engine, created lazily on the first round with the backend's
        runner — inline for serial, the engine's thread pool for
        thread (shared with the reconcile pass's parallel pricing),
        and the shared-memory persistent worker pool for process.
        The builder annotates the round's ChurnRecord with a trusted
        row-origin map, so warm selection repairs instead of
        self-diffing.
        """
        config = self.config
        if self._closed and self._sharding.backend != "serial":
            raise RuntimeError(
                f"engine is closed; its {self._sharding.backend!r} backend "
                "is gone (create a new engine to keep streaming)"
            )
        if self._fused_builder is None:
            from repro.streaming.pipeline import FusedRoundBuilder

            max_workers = self._sharding.max_workers or self._sharding.num_shards
            runner_factory = None
            if self._sharding.backend == "thread":
                self._executor = ThreadPoolExecutor(
                    max_workers=max_workers, thread_name_prefix="repro-shard"
                )
            elif self._sharding.backend == "process":
                from repro.streaming.shm import ShmTileRunner

                def runner_factory(
                    spec, num_tiles, _max=max_workers, _cfg=self._sharding
                ):
                    return ShmTileRunner(
                        spec,
                        num_tiles,
                        max_workers=_max,
                        round_deadline_s=_cfg.round_deadline_s,
                        max_respawns=_cfg.max_respawns,
                        respawn_backoff_s=_cfg.respawn_backoff_s,
                        respawn_backoff_max_s=_cfg.respawn_backoff_max_s,
                        faults=_cfg.faults,
                    )

            self._fused_builder = FusedRoundBuilder(
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
                rebuild_churn_ratio=config.delta_rebuild_ratio,
                stats=self.build_stats,
            )
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


def prepared_sharded_engine(
    workload,
    assigner,
    config: StreamConfig | None = None,
    sharding: ShardingConfig | None = None,
    predictor=None,
    seed: int = 0,
) -> tuple[ShardedStreamingEngine, int]:
    """A sharded engine loaded with a workload's events (not advanced).

    The sharded analogue of :func:`repro.streaming.adapters.
    prepared_engine`; callers own the engine and should ``close()`` it
    (or use it as a context manager) when the parallel backends are in
    play.
    """
    engine = ShardedStreamingEngine(
        assigner,
        workload.quality_model,
        config=config,
        sharding=sharding,
        predictor=predictor,
        seed=seed,
        end_time=float(workload.num_instances),
    )
    return engine, load_workload(engine, workload)


def run_sharded_stream(
    workload,
    assigner,
    config: StreamConfig | None = None,
    sharding: ShardingConfig | None = None,
    predictor=None,
    seed: int = 0,
) -> SimulationResult:
    """Run a workload through the sharded engine, start to finish."""
    engine, _ = prepared_sharded_engine(
        workload, assigner, config=config, sharding=sharding,
        predictor=predictor, seed=seed,
    )
    with engine:
        engine.advance_to(float(workload.num_instances))
        return engine.result()
