"""One incremental round pipeline: per-tile persistent build state.

This module fuses the repo's two incremental layers — the
:class:`~repro.model.delta.DeltaPoolBuilder` candidate cache and warm
:class:`~repro.core.triplet_select.SelectionState` repair — into the
streaming engine's build path, for every tiling ``K`` (the default
engine is its K=1 case):

- :class:`TilePipeline` owns one tile's persistent round state: the
  tile's entity lists, a :class:`DeltaPoolBuilder` in external-journal
  mode over the tile's slice of the task-index journal, and the churn
  bookkeeping that keeps both consistent across rounds.
- :class:`TileChurnSplitter` fans the engine's single spatial-index
  mutation journal out to per-tile op streams at *cell* granularity:
  an insert or remove reaches every tile whose grow-only margin zone
  (:class:`~repro.geo.tiles.TileZones`) contains the entity's cell.
  Engine entities never move — a relocated worker re-arrives under a
  fresh id — so the journal carries inserts and removes only.
- :class:`FusedRoundBuilder` orchestrates a round: it repairs a
  parent-side mirror of the global entity columns in O(churn), splits
  the journal, drives every tile pipeline through a
  :class:`TileRunner` backend (inline for serial/thread, shared-memory
  worker pool for process — see :mod:`repro.streaming.shm`), maps the
  tile-local emissions into global coordinates, and hands the merged
  triplets to the global reconcile pass (:func:`_reconcile`: merge,
  Section III-B coupling, survivor pricing).  The emitted pool is
  therefore bit-identical to the dense
  :func:`~repro.model.instance.build_problem`.

Small single-tile rounds skip the tile machinery altogether: when the
builder runs one inline tile (the default serial K=1 engine) and the
round's dense pair count is at most :data:`DENSE_ROUND_MAX_PAIRS`,
:meth:`FusedRoundBuilder.build_round` builds the round with the dense
kernel (:func:`~repro.model.instance.build_problem`, same output)
instead.  At that size the delta pipeline's fixed per-round work
(mirror repair, journal split, delta repair, reconcile) costs more
than the dense kernel, which decides validity over the full ``W x T``
matrices but prices only the valid pairs.  Larger rounds keep the
tile pipeline: per round, the dense kernel's validity masks and its
transient memory (39-50 bytes per dense pair at 1-4.5M pairs, up to
1.3x the tile pipeline's peak) grow with ``W x T``, while the tile
pipeline touches only the candidates its cell joins gather.
Measured per-round build p50, both builds on the same rounds in
alternating order (Drifting sides 238-1428 and Bursty with 40-45
deadlines, seeds 7 and 8, 12 instances, shared 2-CPU host): on
Drifting dense takes 0.32-0.55x the tile pipeline's time up to 32k
pairs and 0.66-0.90x from 32k to 131k, is about even at 131k-185k
(0.96-1.07x) and behind above (1.07-1.23x); on Bursty dense is ahead
at every size measured (0.29-0.67x).  Before the dense kernel priced
only its valid pairs, the same measurement put the Drifting crossover
at 65k-131k, and that kernel took 53-58 bytes per dense pair.  The
bench suite's 8000 x 8000 citywide stream, built all dense by that
earlier kernel, ran at 0.2 rounds/s, under half the tile pipeline's
rate.  Tiling (``K > 1``) and the thread and process backends always
run the tile pipeline.

Warm selection composes through the same machinery: each tile's
emission carries the per-row rank it held in the tile's *previous*
emission, the parent composes those through the previous round's
merged positions into a trusted global ``row_origin`` map, and
annotates the round's :class:`~repro.model.delta.ChurnRecord` with
it — so ``SelectionState`` repairs from verbatim survivors instead of
self-diffing pair identities.

Correctness hinges on one structural invariant, preserved everywhere:
**tile entity lists are monotone subsequences of the engine's global
lists** (removals keep order, arrivals append at the tail, zone
membership never reorders).  Local→global index maps are then
monotone, tile-local canonical (row, col) order maps into global
canonical order, and per-tile ``prev_origin`` ranks compose into a
strictly increasing global origin map — the precondition the
selection layer's trusted repair path checks for.

The refresh-retry protocol
--------------------------

A churn message is a *claim* about a tile's state that the tile
itself re-verifies (population counts, consistency bounds, journal
contiguity).  A pipeline that cannot apply its delta trustworthily —
a stale worker restarted mid-stream, an expectation mismatch, any
verification guard — does **not** guess: it returns ``None`` as its
round outcome.  The parent then re-sends that tile a *refresh*
message (``_refresh_message``: the tile's wholesale entity lists
instead of a delta) within the same round, the tile cold-primes from
it, and the round's emission is still exact — a refresh is the
always-correct slow path, so degraded rounds lose speed, never
bit-identity.  A tile that rejects its own refresh payload has no
correct state to fall back to, and the parent raises ``RuntimeError``
rather than emit an unverified pool.  Retry traffic is counted into
the same round's ``ipc_bytes`` total, so the observability layer
(:mod:`repro.obs`) surfaces refresh storms instead of hiding them.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace
from concurrent.futures import Executor

import numpy as np

from repro.geo.point import Point
from repro.geo.spatial_index import SpatialIndex
from repro.geo.tiles import TileGrid, TileZones
from repro.model.delta import (
    ChurnRecord,
    DeltaBuildStats,
    DeltaPoolBuilder,
    PartitionEmission,
)
from repro.model.entities import Task, Worker
from repro.model.instance import (
    PredictedTaskColumns,
    PredictedWorkerColumns,
    ProblemInstance,
    _ids,
    _predicted_family_coupling,
    _task_columns,
    _worker_columns,
    build_problem,
    quality_sample_stats,
)
from repro.model.pairs import PairPool, PoolPart
from repro.model.quality import QualityModel
from repro.model.sparse import _EMPTY_IDX, _RADIUS_SLACK, SparseBuildStats, _reach
from repro.obs.metrics import monotonic
from repro.uncertainty.vector import distance_stats_aligned

__all__ = [
    "DENSE_ROUND_MAX_PAIRS",
    "FusedRoundBuilder",
    "InlineTileRunner",
    "PipelineSpec",
    "TileChurnSplitter",
    "TilePipeline",
    "TileRoundMessage",
    "TileRoundOutcome",
    "TileRunnerBroken",
]


class TileRunnerBroken(RuntimeError):
    """A parallel tile runner that can no longer make progress.

    Raised by a supervised backend (the shm process runner) once its
    crash-loop respawn budget is exhausted — the signal for
    :class:`FusedRoundBuilder` to degrade the stream to the inline
    serial path instead of dying.  The runner has already settled its
    surviving workers when this is raised, so ``close()`` starts from
    a known state.
    """

_EMPTY_F = np.zeros(0)

#: Dense pair count (``n*m + k*m + n*l``, plus ``k*l`` with the
#: future-future family) up to which a single inline tile's round is
#: built by the dense kernel instead of the delta pipeline: the largest
#: power of two below the measured crossover (131k-185k pairs on the
#: Drifting shape since the dense kernel prices only valid pairs; see
#: the module docstring).  Read at call time;
#: :func:`repro.testing.fused_rounds` lowers it to -1 so every round,
#: empty ones included, takes the tile pipeline.
DENSE_ROUND_MAX_PAIRS = 131072


# ---------------------------------------------------------------------------
# Round messages (parent -> tile) and outcomes (tile -> parent)
# ---------------------------------------------------------------------------


@dataclass
class TileRoundMessage:
    """One round's instructions for one tile pipeline.

    Either ``refresh`` carries the tile's wholesale entity lists (the
    pipeline replaces its state and primes), or the message is a pure
    churn delta: the tile's slice of the index journal plus the
    engine-journaled worker churn, with entity *objects* only for the
    arrivals.  This is the entire per-round payload a process-backend
    worker receives — its size is O(tile churn), not O(tile state),
    which is what shrinks the round IPC from full pools to deltas.

    ``expect_*`` / ``*_id_bounds`` are the parent's view of the tile's
    post-churn population (derived from its global mirror and the
    zones); the pipeline cross-checks them so the local→global index
    maps the parent builds are provably aligned with the tile lists.
    """

    tile: int
    ops: list = field(default_factory=list)
    refresh: tuple[list[Worker], list[Task]] | None = None
    task_arrivals: dict[int, Task] = field(default_factory=dict)
    worker_arrivals: list[Worker] = field(default_factory=list)
    worker_removed_ids: list[int] = field(default_factory=list)
    pw_rows: np.ndarray = field(default_factory=lambda: _EMPTY_IDX)
    expect_workers: int = -1
    expect_tasks: int = -1
    worker_id_bounds: tuple[int, int] = (-1, -1)
    task_id_bounds: tuple[int, int] = (-1, -1)


@dataclass
class TileRoundOutcome:
    """One tile's emission plus the stats snapshots the parent books."""

    tile: int
    emission: PartitionEmission
    delta_stats: DeltaBuildStats
    sparse_stats: SparseBuildStats
    incremental: bool


# ---------------------------------------------------------------------------
# TilePipeline: one tile's persistent round state
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineSpec:
    """Everything needed to construct one tile's pipeline.

    A plain picklable bundle so runner backends can build pipelines
    wherever they live — in the parent for the inline backends, inside
    pre-forked workers for the shared-memory process backend.
    """

    quality_model: QualityModel
    index_gamma: int
    rebuild_churn_ratio: float = 0.5
    include_future_future_pairs: bool = True

    def make(self, tile: int) -> "TilePipeline":
        return TilePipeline(tile, self)


class TilePipeline:
    """One tile's persistent build state across rounds.

    Owns the tile's entity lists and a :class:`DeltaPoolBuilder` in
    external-journal mode; :meth:`run_round` applies one round's churn
    message, repairs the pool, and emits the tile's partition.  The
    list discipline mirrors the engine's own: removals filter in
    place (order preserved), arrivals append at the tail — which keeps
    the tile lists monotone subsequences of the global lists, the
    invariant the parent's local→global index maps rely on.
    """

    def __init__(self, tile: int, spec: PipelineSpec) -> None:
        self.tile = tile
        self.workers: list[Worker] = []
        self.tasks: list[Task] = []
        self._task_ids: set[int] = set()
        self.builder = DeltaPoolBuilder(
            spec.quality_model,
            spec.index_gamma,
            include_future_future_pairs=spec.include_future_future_pairs,
            rebuild_churn_ratio=spec.rebuild_churn_ratio,
        )

    def run_round(
        self,
        message: TileRoundMessage,
        now: float,
        predicted_workers: PredictedWorkerColumns | None,
        predicted_tasks: PredictedTaskColumns | None,
    ) -> TileRoundOutcome | None:
        """Apply one round's message; ``None`` asks the parent for a
        refresh (the churn delta could not be applied trustworthily)."""
        started = monotonic()
        local = SparseBuildStats()
        if message.refresh is not None:
            workers, tasks = message.refresh
            self.workers = list(workers)
            self.tasks = list(tasks)
            self._task_ids = {t.id for t in self.tasks}
            ops = None  # untrusted feed -> the builder re-primes
            arrivals = removed = None
        else:
            if not self._apply_churn(message):
                return None
            ops = message.ops
            arrivals = message.worker_arrivals
            removed = message.worker_removed_ids
        if not self._consistent(message):
            return None
        incremental = self.builder.repair(
            self.workers,
            self.tasks,
            now,
            worker_arrivals=arrivals,
            worker_removed_ids=removed,
            ops=ops,
            local=local,
        )
        pw = None
        if predicted_workers is not None and message.pw_rows.size:
            pw = predicted_workers.take(message.pw_rows)
        emission = self.builder.emit_partition(now, pw, predicted_tasks, local=local)
        emission.incremental = incremental
        emission.build_seconds = monotonic() - started
        return TileRoundOutcome(
            tile=self.tile,
            emission=emission,
            delta_stats=replace(self.builder.delta_stats),
            sparse_stats=local,
            incremental=incremental,
        )

    def _apply_churn(self, message: TileRoundMessage) -> bool:
        """Net the tile's routed ops into list edits (same semantics as
        the delta builder's journal replay); False = cannot trust."""
        removed: set[int] = set()
        new_keys: list[int] = []
        new_seen: set[int] = set()
        for op in message.ops:
            kind, key = op[0], op[1]
            if kind == "insert":
                if key in new_seen or (key in self._task_ids and key not in removed):
                    return False
                new_keys.append(key)
                new_seen.add(key)
            elif kind == "remove":
                if key in new_seen:
                    new_keys.remove(key)
                    new_seen.discard(key)
                elif key in self._task_ids and key not in removed:
                    removed.add(key)
                else:
                    return False
            else:
                return False
        arriving: list[Task] = []
        for key in new_keys:
            obj = message.task_arrivals.get(key)
            if obj is None:
                return False
            arriving.append(obj)
        if message.worker_removed_ids:
            gone = set(message.worker_removed_ids)
            before = len(self.workers)
            self.workers = [w for w in self.workers if w.id not in gone]
            if before - len(self.workers) != len(gone):
                return False
        if message.worker_arrivals:
            self.workers.extend(message.worker_arrivals)
        if removed:
            self.tasks = [t for t in self.tasks if t.id not in removed]
            self._task_ids -= removed
        if arriving:
            self.tasks.extend(arriving)
            self._task_ids.update(t.id for t in arriving)
        return True

    def _consistent(self, message: TileRoundMessage) -> bool:
        """Cross-check the post-churn lists against the parent's view."""
        if message.expect_workers >= 0:
            if len(self.workers) != message.expect_workers:
                return False
            if self.workers and (
                (self.workers[0].id, self.workers[-1].id)
                != message.worker_id_bounds
            ):
                return False
        if message.expect_tasks >= 0:
            if len(self.tasks) != message.expect_tasks:
                return False
            if self.tasks and (
                (self.tasks[0].id, self.tasks[-1].id) != message.task_id_bounds
            ):
                return False
        return True


# ---------------------------------------------------------------------------
# TileChurnSplitter: one journal -> per-tile op streams
# ---------------------------------------------------------------------------


class TileChurnSplitter:
    """Route a spatial-index journal to per-tile op streams.

    Routing is by grid cell against the grow-only
    :class:`~repro.geo.tiles.TileZones` membership: an insert fans out
    to every tile whose zone contains the entity's cell, a remove to
    the tiles of its *last known* cell.
    """

    def __init__(self, zones: TileZones) -> None:
        self._zones = zones
        self._grid = zones.grid
        self._cell_of: dict[int, int] = {}

    def reset(self, keys: np.ndarray, cells: np.ndarray) -> None:
        """Rebuild the key→cell map after a full parent refresh."""
        self._cell_of = dict(zip(keys.tolist(), cells.tolist()))

    def split(self, ops: list) -> dict[int, list] | None:
        """One round's ops → ops per tile.  ``None`` means the feed
        contradicts the known population: refresh everything."""
        per_tile: dict[int, list] = {}
        for op in ops:
            kind, key, x, y = op
            if kind == "insert":
                if key in self._cell_of:
                    return None
                cell = int(self._grid.cell_of(Point(x, y)))
                self._cell_of[key] = cell
                for tile in self._zones.tiles_of_cell(cell).tolist():
                    per_tile.setdefault(tile, []).append(op)
            elif kind == "remove":
                cell = self._cell_of.pop(key, None)
                if cell is None:
                    return None
                for tile in self._zones.tiles_of_cell(cell).tolist():
                    per_tile.setdefault(tile, []).append(op)
            else:
                return None
        return per_tile


def _net_task_ops(
    ops: list, known: set[int]
) -> tuple[set[int], dict[int, tuple[float, float]]] | None:
    """Net one round's raw ops against the known population.

    Returns ``(removed keys, net-new key → coords)`` with the delta
    builder's replay semantics (insert of a known key is a
    contradiction, remove nets a same-round insert away), or ``None``
    when the feed contradicts ``known``.
    """
    removed: set[int] = set()
    new: dict[int, tuple[float, float]] = {}
    for kind, key, x, y in ops:
        if kind == "insert":
            if key in new or (key in known and key not in removed):
                return None
            new[key] = (x, y)
        elif kind == "remove":
            if key in new:
                del new[key]
            elif key in known and key not in removed:
                removed.add(key)
            else:
                return None
        else:
            return None
    return removed, new


# ---------------------------------------------------------------------------
# Tile runners: where the pipelines live
# ---------------------------------------------------------------------------


class InlineTileRunner:
    """Runs tile pipelines in the parent process.

    ``executor=None`` runs the tiles sequentially (the serial
    backend, including the default K=1 engine); a thread pool runs them
    concurrently (the numpy kernels release the GIL).  The process
    backend lives in :mod:`repro.streaming.shm` behind the same
    interface, with the pipelines held by pre-forked workers.
    """

    #: Inline rounds exchange no bytes — the arrays are shared already.
    ipc_bytes_total = 0

    def __init__(
        self, num_tiles: int, spec: PipelineSpec, executor: Executor | None = None
    ) -> None:
        self._pipelines = [spec.make(tile) for tile in range(num_tiles)]
        self._executor = executor

    def run(
        self,
        messages: list[TileRoundMessage],
        now: float,
        predicted_workers: PredictedWorkerColumns | None,
        predicted_tasks: PredictedTaskColumns | None,
    ) -> list[TileRoundOutcome | None]:
        def _one(message: TileRoundMessage) -> TileRoundOutcome | None:
            return self._pipelines[message.tile].run_round(
                message, now, predicted_workers, predicted_tasks
            )

        if self._executor is None or len(messages) <= 1:
            return [_one(message) for message in messages]
        return list(self._executor.map(_one, messages))

    def delta_stats_by_tile(self) -> list[DeltaBuildStats]:
        return [pipe.builder.delta_stats for pipe in self._pipelines]

    def close(self) -> None:  # symmetric with the shm runner
        pass


# ---------------------------------------------------------------------------
# The global reconcile pass: merge, couple, price, assemble
# ---------------------------------------------------------------------------


@dataclass
class _ShardResult:
    """One tile's predicted-family index pairs, in global coordinates.

    The expensive delta-method pricing of the predicted families is
    *deferred*, like in the dense kernel, because the
    reservation filter (a global decision) usually discards most of
    them — survivors are priced afterwards, in parallel chunks.
    """

    pw_ct: tuple = (_EMPTY_IDX, _EMPTY_IDX)
    cw_pt: tuple = (_EMPTY_IDX, _EMPTY_IDX)
    pw_pt: tuple = (_EMPTY_IDX, _EMPTY_IDX)


def _merge_rowmajor(parts: list[tuple]) -> tuple:
    """Merge disjoint per-tile triplets into canonical row-major order.

    Each part is ``(rows, cols, *aligned_columns)``; the ``(row, col)``
    keys are globally unique (each pair has exactly one owning tile),
    so one lexsort restores exactly the order the serial builder's
    single-pass scan would have emitted.  A single part is already in
    that order (tiles emit row-major) and passes through untouched.
    """
    parts = [p for p in parts if p[0].size]
    if not parts:
        return ()
    if len(parts) == 1:
        return parts[0]
    merged = tuple(np.concatenate([p[i] for p in parts]) for i in range(len(parts[0])))
    order = np.lexsort((merged[1], merged[0]))
    return tuple(column[order] for column in merged)


#: Survivor count below which reconcile pricing runs inline — the
#: dispatch overhead would exceed the kernel time.
_PRICE_DISPATCH_MIN = 8192


@dataclass(frozen=True)
class _PriceChunk:
    """One aligned slice of surviving pairs to price."""

    w_iv: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    t_iv: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _price_chunk(chunk: _PriceChunk):
    return distance_stats_aligned(chunk.w_iv, chunk.t_iv)


def _price_survivors(
    executor: Executor | None,
    num_chunks: int,
    jobs: list[tuple],
) -> list[tuple]:
    """Price every family's surviving pairs, chunked across workers.

    ``jobs`` holds ``(w_intervals, t_intervals, rows, cols)`` per
    family, each with at least one pair.  The delta-method kernels are elementwise, so any chunking
    of the aligned pair arrays produces bit-identical columns; chunks
    of *all* families dispatch in one ``executor.map`` so no family
    serializes behind another.  Small jobs price inline.
    """
    plans: list[list[tuple[int, _PriceChunk]]] = []
    payloads: list[_PriceChunk] = []
    for w_intervals, t_intervals, rows, cols in jobs:
        if executor is None or rows.size < _PRICE_DISPATCH_MIN or num_chunks < 2:
            plans.append([(-1, _PriceChunk(
                tuple(a[rows] for a in w_intervals),
                tuple(a[cols] for a in t_intervals),
            ))])
            continue
        chunk_plan: list[tuple[int, _PriceChunk]] = []
        for chunk_rows in np.array_split(np.arange(rows.size), num_chunks):
            if chunk_rows.size == 0:
                continue
            r = rows[chunk_rows]
            c = cols[chunk_rows]
            chunk_plan.append((len(payloads), _PriceChunk(
                tuple(a[r] for a in w_intervals),
                tuple(a[c] for a in t_intervals),
            )))
            payloads.append(chunk_plan[-1][1])
        plans.append(chunk_plan)
    priced = list(executor.map(_price_chunk, payloads)) if payloads else []
    results: list[tuple] = []
    for plan in plans:
        if plan[0][0] == -1:
            results.append(_price_chunk(plan[0][1]))
        else:
            parts = [priced[index] for index, _ in plan]
            results.append(
                tuple(np.concatenate([p[i] for p in parts]) for i in range(4))
            )
    return results


@dataclass
class _ReconcileContext:
    """Everything the global reconcile pass needs beyond the tile
    emissions: the round's entity lists, the coupling flags and the
    interval columns the survivor pricing reads."""

    current_workers: Sequence[Worker]
    current_tasks: Sequence[Task]
    predicted_workers: PredictedWorkerColumns | None
    predicted_tasks: PredictedTaskColumns | None
    quality_model: QualityModel
    unit_cost: float
    now: float
    discount_by_existence: bool
    reservation_filter: bool
    include_future_future_pairs: bool
    t_intervals: tuple | None = None
    pw_intervals: tuple | None = None
    cw_intervals: tuple | None = None
    pt_intervals: tuple | None = None


def _reconcile(
    results: list[_ShardResult],
    cc_parts: list[tuple],
    ctx: _ReconcileContext,
    executor: Executor | None,
    num_chunks: int,
    local: SparseBuildStats,
) -> tuple[ProblemInstance, tuple]:
    """Merge the disjoint tile triplets, couple, price, emit.

    ``cc_parts`` holds each tile's current×current part as ``(rows,
    cols, dist, quality, *extras)``.  The *extra* aligned columns (the
    row-origin plumbing) are merged through the same single lexsort
    and handed back as the second return value, in the emitted cc
    order.

    Everything here genuinely couples tiles: the Section III-B sample
    statistics accumulate over all current pairs in canonical order,
    existence and the reservation filter re-price border candidates
    against global competition, and the surviving predicted pairs are
    priced in parallel chunks.  Identical accumulation inputs in
    identical order make every downstream float match the serial
    builders exactly.
    """
    n, m = len(ctx.current_workers), len(ctx.current_tasks)
    k = 0 if ctx.predicted_workers is None else ctx.predicted_workers.ids.size
    l = 0 if ctx.predicted_tasks is None else ctx.predicted_tasks.ids.size
    unit_cost = ctx.unit_cost
    prior = ctx.quality_model.prior()
    parts: list[PoolPart] = []

    merged = _merge_rowmajor(cc_parts)
    if merged:
        cc_rows, cc_cols, cc_dist, cc_quality = merged[:4]
        cc_extras = tuple(merged[4:])
    else:
        cc_rows = cc_cols = _EMPTY_IDX
        cc_dist = cc_quality = _EMPTY_F
        cc_extras = ()
    if cc_rows.size:
        cost_cc = unit_cost * cc_dist
        zeros = np.zeros_like(cc_dist)
        parts.append(PoolPart(
            cc_rows, cc_cols, (cost_cc, zeros, cost_cc, cost_cc),
            (cc_quality, zeros, cc_quality, cc_quality), np.ones_like(cc_dist), True,
        ))
        local.emitted += int(cc_rows.size)

    # Global coupling statistics: identical accumulation inputs in
    # identical order, so every downstream float matches the serial
    # build exactly.
    stats_cc = quality_sample_stats(cc_rows, cc_cols, cc_quality, n, m, prior)
    exist_task = np.minimum(stats_cc.task_count / max(n, 1), 1.0)
    exist_worker = np.minimum(stats_cc.worker_count / max(m, 1), 1.0)

    def _merged_family(select) -> tuple[np.ndarray, np.ndarray]:
        parts = [pair for pair in (select(r) for r in results) if pair[0].size]
        merged = _merge_rowmajor(parts)
        if not merged:
            return _EMPTY_IDX, _EMPTY_IDX
        return merged

    # Each family: apply the global coupling (existence, quality
    # estimates, discount, reservation filter) on the merged index
    # pairs, then queue the survivors for the joint pricing pass —
    # exactly the pairs (and values) the serial builder prices.
    pending: list[dict] = []

    def _couple(rows, cols, side, existence_axis, w_intervals, t_intervals,
                worker_offset, task_offset) -> None:
        rows, cols, quality, existence = _predicted_family_coupling(
            stats_cc, side, rows, cols, existence_axis,
            ctx.discount_by_existence, ctx.reservation_filter,
        )
        if rows.size:
            pending.append(dict(
                rows=rows, cols=cols, quality=quality, existence=existence,
                w_intervals=w_intervals, t_intervals=t_intervals,
                worker_offset=worker_offset, task_offset=task_offset,
            ))

    # ---- predicted workers x current tasks --------------------------------
    if k and m:
        rows, cols = _merged_family(lambda r: r.pw_ct)
        if rows.size:
            _couple(rows, cols, "task", exist_task,
                    ctx.pw_intervals, ctx.t_intervals, n, 0)

    # ---- current workers x predicted tasks --------------------------------
    if n and l:
        rows, cols = _merged_family(lambda r: r.cw_pt)
        if rows.size:
            _couple(rows, cols, "worker", exist_worker,
                    ctx.cw_intervals, ctx.pt_intervals, 0, m)

    # ---- predicted workers x predicted tasks -------------------------------
    if k and l and ctx.include_future_future_pairs:
        rows, cols = _merged_family(lambda r: r.pw_pt)
        if rows.size:
            existence = min(stats_cc.total_valid / max(n * m, 1), 1.0)
            _couple(rows, cols, "global", existence,
                    ctx.pw_intervals, ctx.pt_intervals, n, m)

    # ---- price the survivors, emit in family order ------------------------
    priced = _price_survivors(
        executor,
        num_chunks,
        [(job["w_intervals"], job["t_intervals"], job["rows"], job["cols"])
         for job in pending],
    )
    for job, (d_mean, d_var, d_lb, d_ub) in zip(pending, priced):
        parts.append(PoolPart(
            job["rows"] + job["worker_offset"],
            job["cols"] + job["task_offset"],
            (unit_cost * d_mean, unit_cost**2 * d_var, unit_cost * d_lb, unit_cost * d_ub),
            job["quality"], job["existence"], False,
        ))
        local.emitted += int(job["rows"].size)

    instance = ProblemInstance(
        list(ctx.current_workers), list(ctx.current_tasks), n, m,
        PairPool.from_parts(parts), ctx.now, ctx.predicted_workers, ctx.predicted_tasks,
    )
    return instance, cc_extras


# ---------------------------------------------------------------------------
# FusedRoundBuilder: the parent-side orchestrator
# ---------------------------------------------------------------------------


class FusedRoundBuilder:
    """Round builder with persistent per-tile state, fused end to end.

    Same contract (and bit-identical output) as the dense
    :func:`~repro.model.instance.build_problem` on the same
    arguments — but steady-state cost O(churn + valid pairs) per
    round, across every backend.  Construct once per stream with the
    engine's maintained task index (the builder subscribes to its
    journal) and call :meth:`build_round` each round.

    ``runner_factory`` injects a backend (the shared-memory process
    runner); by default tiles run inline, optionally fanned over
    ``executor`` (also reused for the reconcile pass's parallel
    pricing).  A builder with one inline tile and no executor builds
    rounds of at most :data:`DENSE_ROUND_MAX_PAIRS` dense pairs with the
    dense kernel instead (same output, see the module docstring).
    """

    def __init__(
        self,
        quality_model: QualityModel,
        unit_cost: float,
        tiles: TileGrid,
        task_index: SpatialIndex,
        *,
        executor: Executor | None = None,
        runner_factory: Callable[[PipelineSpec, int], object] | None = None,
        discount_by_existence: bool = True,
        reservation_filter: bool = True,
        include_future_future_pairs: bool = True,
        index_gamma: int | None = None,
        rebuild_churn_ratio: float = 0.5,
        stats: SparseBuildStats | None = None,
    ) -> None:
        if unit_cost < 0.0:
            raise ValueError(f"unit cost must be non-negative, got {unit_cost}")
        self._quality_model = quality_model
        self._unit_cost = float(unit_cost)
        self._tiles = tiles
        self._grid = task_index.grid
        self._task_index = task_index
        self._log = task_index.subscribe()
        self._discount = discount_by_existence
        self._reservation = reservation_filter
        self._future_future = include_future_future_pairs
        self._stats = stats
        self._executor = executor
        self._dense_eligible = (
            runner_factory is None and executor is None and tiles.num_tiles == 1
        )
        self._zones = TileZones(tiles, self._grid)
        self._splitter = TileChurnSplitter(self._zones)
        spec = PipelineSpec(
            quality_model=quality_model,
            index_gamma=index_gamma or task_index.grid.gamma,
            rebuild_churn_ratio=rebuild_churn_ratio,
            include_future_future_pairs=include_future_future_pairs,
        )
        self._spec = spec
        if runner_factory is not None:
            self._runner = runner_factory(spec, tiles.num_tiles)
        else:
            self._runner = InlineTileRunner(tiles.num_tiles, spec, executor)
        #: True once a broken parallel backend has been swapped for the
        #: inline serial path (see :meth:`_degrade`).
        self.degraded = False
        self._supervision_events: list[tuple[str, dict]] = []
        self._ipc_bytes_base = 0
        self._respawns_base = 0
        self._respawn_seconds_base = 0.0

        # Parent-side mirror of the global entity columns, repaired in
        # O(churn) per round and verified against the engine's lists.
        self._trusted = False
        self._last_now = -np.inf
        self._w_ids = _EMPTY_IDX
        self._wx = self._wy = self._wvel = self._warr = _EMPTY_F
        self._w_owner = _EMPTY_IDX
        self._t_ids = _EMPTY_IDX
        self._tx = self._ty = self._tdl = self._tarr = _EMPTY_F
        self._t_cells = _EMPTY_IDX
        self._t_key_set: set[int] = set()
        # Previous round's merged-pool row of each tile's cc rows (in
        # tile emission order) — the origin-composition tables.
        self._prev_pos: list[np.ndarray] = [_EMPTY_IDX] * tiles.num_tiles
        self._last_total = -1
        self.last_churn: ChurnRecord | None = None
        #: Bytes exchanged with the runner backend last round (0 for
        #: the inline backends — their arrays are shared).
        self.ipc_bytes_last_round = 0

    @property
    def tiles(self) -> TileGrid:
        return self._tiles

    @property
    def zones(self) -> TileZones:
        return self._zones

    @property
    def ipc_bytes_total(self) -> int:
        """Cumulative bytes exchanged with the runner backend (0 for
        the inline backends, whose arrays are shared in-process).

        Survives a mid-stream degradation: bytes exchanged with a
        runner that was later replaced stay counted.
        """
        return self._ipc_bytes_base + int(
            getattr(self._runner, "ipc_bytes_total", 0)
        )

    @property
    def respawns_total(self) -> int:
        """Worker respawns across the builder's lifetime (0 for the
        inline backends; survives a mid-stream degradation)."""
        return self._respawns_base + int(
            getattr(self._runner, "respawns_total", 0)
        )

    @property
    def respawn_seconds_total(self) -> float:
        """Wall-clock seconds spent respawning workers (backoff +
        process start; survives a mid-stream degradation)."""
        return self._respawn_seconds_base + float(
            getattr(self._runner, "respawn_seconds_total", 0.0)
        )

    @property
    def delta_stats(self) -> DeltaBuildStats:
        """Aggregate of the per-tile builders' counters.

        ``rounds`` counts tile-rounds (K tiles × rounds), so the
        derived incremental rate is the *per-tile average* — the
        health floor the acceptance criteria gate on.
        """
        aggregate = DeltaBuildStats()
        for tile_stats in self._runner.delta_stats_by_tile():
            aggregate.rounds += tile_stats.rounds
            aggregate.primes += tile_stats.primes
            aggregate.incremental_rounds += tile_stats.incremental_rounds
            aggregate.rows_joined += tile_stats.rows_joined
            aggregate.cols_joined += tile_stats.cols_joined
            aggregate.pairs_cached += tile_stats.pairs_cached
            aggregate.revalidated += tile_stats.revalidated
        return aggregate

    def close(self) -> None:
        """Release the runner backend (workers, shared memory)."""
        self._runner.close()

    def detach(self) -> None:
        """Unsubscribe from the task index's change journal.

        For a builder that builds no further round.  :meth:`close`
        keeps the subscription: the serial engine builds on inline
        after closing its backend.
        """
        self._task_index.unsubscribe(self._log)

    # -- supervision ---------------------------------------------------------

    def _run_tiles(
        self, messages, now, pw_cols, pt_cols, refresh_message, refresh_tiles
    ):
        """One runner invocation, degradation-protected.

        A supervised backend whose respawn budget is exhausted raises
        :class:`TileRunnerBroken`; the response is to swap in the
        inline serial runner and re-prime every requested tile through
        the wholesale-refresh path — the always-correct slow path, so
        the round (and the stream) completes bit-identically.
        """
        try:
            return self._runner.run(messages, now, pw_cols, pt_cols)
        except TileRunnerBroken as exc:
            self._degrade(exc)
            refresh_tiles.update(message.tile for message in messages)
            fresh = [refresh_message(message.tile) for message in messages]
            outcomes = self._runner.run(fresh, now, pw_cols, pt_cols)
            if any(outcome is None for outcome in outcomes):
                raise RuntimeError(
                    "tile pipeline rejected its own refresh payload"
                ) from exc
            return outcomes

    def _degrade(self, exc: "TileRunnerBroken") -> None:
        """Swap the broken parallel backend for the inline serial path."""
        self._drain_runner_events()
        self._ipc_bytes_base += int(getattr(self._runner, "ipc_bytes_total", 0))
        self._respawns_base += int(getattr(self._runner, "respawns_total", 0))
        self._respawn_seconds_base += float(
            getattr(self._runner, "respawn_seconds_total", 0.0)
        )
        try:
            self._runner.close()
        except Exception:
            pass  # the backend is already broken; reclaim what we can
        self._runner = InlineTileRunner(
            self._tiles.num_tiles, self._spec, self._executor
        )
        self.degraded = True
        self._supervision_events.append(("degraded", {"reason": str(exc)}))

    def _drain_runner_events(self) -> None:
        runner_events = getattr(self._runner, "events", None)
        if runner_events:
            self._supervision_events.extend(runner_events)
            runner_events.clear()

    def drain_supervision_events(self) -> list[tuple[str, dict]]:
        """Fault-handling events since the last drain: ``(kind,
        detail)`` with kind ∈ ``deadline_timeout`` / ``worker_death`` /
        ``backoff_wait`` / ``respawn`` / ``degraded`` — the engine
        forwards them to the observer after each round."""
        self._drain_runner_events()
        events, self._supervision_events = self._supervision_events, []
        return events

    # -- the round ----------------------------------------------------------

    def build_round(
        self,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        predicted_workers: PredictedWorkerColumns | Sequence[Worker],
        predicted_tasks: PredictedTaskColumns | Sequence[Task],
        now: float,
        churn: ChurnRecord | None = None,
        tile_phases: list[tuple[int, float]] | None = None,
        pool_events: list[tuple[int, str]] | None = None,
    ) -> ProblemInstance:
        """One round's problem, repaired per tile from persistent state.

        ``churn`` plays a double role: it carries the engine's trusted
        worker-churn hints in (see :meth:`DeltaPoolBuilder.repair`),
        and is annotated with the round's ``row_origin``/
        ``prev_pool_rows`` on the way out (a record is annotated on
        :attr:`last_churn` even when the caller passes none).
        ``tile_phases`` receives ``(tile, seconds)`` per tile build plus
        a final ``(-1, seconds)`` for the reconcile pass, and
        ``pool_events`` one ``(tile, "repair" | "prime")`` entry per
        tile — both appended in place for the observer.  A round built
        by the dense kernel has no tiles: it appends to neither and
        leaves ``churn.row_origin`` unset, so warm selection self-diffs.
        Predicted entities are columns or objects flagged predicted
        (:meth:`~repro.model.instance.PredictedWorkerColumns.of`).
        """
        pw_cols = PredictedWorkerColumns.of(predicted_workers)
        pt_cols = PredictedTaskColumns.of(predicted_tasks)
        n, m = len(current_workers), len(current_tasks)
        k = 0 if pw_cols is None else pw_cols.ids.size
        l = 0 if pt_cols is None else pt_cols.ids.size
        local = SparseBuildStats()
        local.dense_equivalent = n * m + k * m + n * l
        if self._future_future:
            local.dense_equivalent += k * l
        if self._dense_eligible and local.dense_equivalent <= DENSE_ROUND_MAX_PAIRS:
            return self._build_dense(
                current_workers, current_tasks, pw_cols, pt_cols, now, churn, local,
            )
        # The runner counts pipe bytes cumulatively so a mid-round
        # retry (refresh re-send) still lands in this round's total.
        ipc_before = self.ipc_bytes_total
        num_tiles = self._tiles.num_tiles

        ops, overflowed = self._log.drain()
        full_refresh = not self._trusted or overflowed or now < self._last_now

        # ---- split the journal + repair the parent mirror -----------------
        per_tile_ops: dict[int, list] = {}
        w_arrivals_by_tile: dict[int, list[Worker]] = {}
        w_removed_by_tile: dict[int, list[int]] = {}
        new_task_objs: dict[int, Task] = {}
        if not full_refresh:
            per_tile_ops = self._splitter.split(ops)
            net = _net_task_ops(ops, self._t_key_set)
            full_refresh = per_tile_ops is None or net is None
        if not full_refresh:
            worker_hints = (
                (churn.worker_arrivals, churn.worker_removed_ids)
                if churn is not None
                else (None, None)
            )
            full_refresh = not self._repair_workers(
                current_workers, *worker_hints,
                arrivals_by_tile=w_arrivals_by_tile,
                removed_by_tile=w_removed_by_tile,
            )
        if not full_refresh:
            full_refresh = not self._repair_tasks(current_tasks, net, new_task_objs)
        if not full_refresh:
            full_refresh = not self._verify_mirror(current_workers, current_tasks)
        if full_refresh:
            self._refresh_mirror(current_workers, current_tasks)
            self._splitter.reset(self._t_ids, self._t_cells)
            per_tile_ops = {}
            w_arrivals_by_tile = {}
            w_removed_by_tile = {}
            new_task_objs = {}

        # ---- margins + zone growth (growth forces a tile re-prime) --------
        for cols in (pw_cols, pt_cols):
            if cols is not None and cols.reach is None:
                cols.reach = _reach(cols.intervals, cols.xs, cols.ys)
        build_pt_blocks = bool(l and (n or (k and self._future_future)))
        margin_ct = self._margin_ct(n, m, k, now, pw_cols)
        refresh_tiles = set(self._zones.ensure(margin_ct))
        if full_refresh:
            refresh_tiles = set(range(num_tiles))

        # ---- local→global index maps (and the tile member lists) ----------
        if m:
            t_pos = [
                np.flatnonzero(self._zones.member_mask(tile, self._t_cells))
                for tile in range(num_tiles)
            ]
        else:
            t_pos = [_EMPTY_IDX] * num_tiles
        if n:
            w_pos = [
                np.flatnonzero(self._w_owner == tile) for tile in range(num_tiles)
            ]
        else:
            w_pos = [_EMPTY_IDX] * num_tiles
        if pw_cols is not None:
            pw_owner = self._tiles.tile_of_coordinates(pw_cols.xs, pw_cols.ys)
            pw_pos = [
                np.flatnonzero(pw_owner == tile) for tile in range(num_tiles)
            ]
        else:
            pw_pos = [_EMPTY_IDX] * num_tiles

        def _refresh_message(tile: int) -> TileRoundMessage:
            message = self._expectations(tile, w_pos[tile], t_pos[tile])
            message.pw_rows = pw_pos[tile]
            message.refresh = (
                [current_workers[i] for i in w_pos[tile].tolist()],
                [current_tasks[i] for i in t_pos[tile].tolist()],
            )
            return message

        messages = []
        for tile in range(num_tiles):
            if tile in refresh_tiles:
                messages.append(_refresh_message(tile))
                continue
            message = self._expectations(tile, w_pos[tile], t_pos[tile])
            message.pw_rows = pw_pos[tile]
            message.ops = per_tile_ops.get(tile, [])
            message.task_arrivals = new_task_objs
            message.worker_arrivals = w_arrivals_by_tile.get(tile, [])
            message.worker_removed_ids = w_removed_by_tile.get(tile, [])
            messages.append(message)

        # ---- run the tiles (retrying distrusted ones with a refresh) ------
        outcomes = self._run_tiles(
            messages, now, pw_cols, pt_cols, _refresh_message, refresh_tiles
        )
        retry = [
            _refresh_message(message.tile)
            for message, outcome in zip(messages, outcomes)
            if outcome is None
        ]
        while retry:
            refresh_tiles.update(message.tile for message in retry)
            redos = self._run_tiles(
                retry, now, pw_cols, pt_cols, _refresh_message, refresh_tiles
            )
            # A worker can die *during* the refresh run too; its tiles
            # come back None with the runner marking them failed (the
            # respawn already happened), so they re-prime on the next
            # pass — bounded by the runner's finite respawn budget,
            # whose exhaustion degrades to the inline path instead.
            failed = set(getattr(self._runner, "last_failed_tiles", ()))
            next_retry = []
            for message, redo in zip(retry, redos):
                if redo is None:
                    if message.tile in failed:
                        next_retry.append(_refresh_message(message.tile))
                        continue
                    raise RuntimeError(
                        "tile pipeline rejected its own refresh payload"
                    )
                outcomes[redo.tile] = redo  # messages[i].tile == i
            retry = next_retry
        outcomes = {outcome.tile: outcome for outcome in outcomes}

        # ---- map tile emissions into global coordinates -------------------
        results: list[_ShardResult] = []
        cc_parts: list[tuple] = []
        phase_entries: list[tuple[int, float]] = []
        for tile in range(num_tiles):
            outcome = outcomes[tile]
            emission = outcome.emission
            local.candidates += outcome.sparse_stats.candidates
            local.gathered += outcome.sparse_stats.gathered
            local.queries += outcome.sparse_stats.queries
            local.price_seconds += outcome.sparse_stats.price_seconds
            phase_entries.append((tile, emission.build_seconds))
            if pool_events is not None:
                pool_events.append(
                    (tile, "repair" if outcome.incremental else "prime")
                )
            wmap, tmap, pmap = w_pos[tile], t_pos[tile], pw_pos[tile]
            result = _ShardResult()
            if emission.cc_rows is not None and emission.cc_rows.size:
                rows_g = wmap[emission.cc_rows]
                cols_g = tmap[emission.cc_cols]
                origin_g = self._compose_origin(tile, emission.prev_origin)
                tag = np.full(rows_g.size, tile, dtype=np.int64)
                cc_parts.append(
                    (rows_g, cols_g, emission.cc_dist, emission.cc_quality,
                     origin_g, tag)
                )
            pw_rows, pw_ct_cols = emission.pw_ct
            if pw_rows is not None and pw_rows.size:
                result.pw_ct = (pmap[pw_rows], tmap[pw_ct_cols])
            cw_rows, cw_cols = emission.cw_pt
            if cw_rows is not None and cw_rows.size:
                result.cw_pt = (wmap[cw_rows], cw_cols)
            ff_rows, ff_cols = emission.pw_pt
            if ff_rows is not None and ff_rows.size:
                result.pw_pt = (pmap[ff_rows], ff_cols)
            results.append(result)

        # ---- the global reconcile pass ------------------------------------
        reconcile_started = monotonic()
        ctx = _ReconcileContext(
            current_workers=current_workers,
            current_tasks=current_tasks,
            predicted_workers=pw_cols,
            predicted_tasks=pt_cols,
            quality_model=self._quality_model,
            unit_cost=self._unit_cost,
            now=now,
            discount_by_existence=self._discount,
            reservation_filter=self._reservation,
            include_future_future_pairs=self._future_future,
            t_intervals=(self._tx, self._tx, self._ty, self._ty) if m else None,
            pw_intervals=pw_cols.intervals if pw_cols is not None else None,
            cw_intervals=(self._wx, self._wx, self._wy, self._wy)
            if (n and l)
            else None,
            pt_intervals=pt_cols.intervals
            if (pt_cols is not None and build_pt_blocks)
            else None,
        )
        instance, extras = _reconcile(
            results, cc_parts, ctx, self._executor, num_tiles, local
        )
        if extras:
            origin_merged, tag_merged = extras
        else:
            origin_merged, tag_merged = _EMPTY_IDX, _EMPTY_IDX
        for tile in range(num_tiles):
            self._prev_pos[tile] = np.flatnonzero(tag_merged == tile)

        # ---- warm-selection origin annotation -----------------------------
        total = len(instance.pool)
        if churn is None:
            churn = ChurnRecord()
        churn.row_origin = np.concatenate(
            [
                origin_merged,
                np.full(total - origin_merged.size, -1, dtype=np.int64),
            ]
        )
        churn.prev_pool_rows = self._last_total
        self.last_churn = churn
        self._last_total = total

        if tile_phases is not None:
            tile_phases.extend(phase_entries)
            tile_phases.append((-1, monotonic() - reconcile_started))
        self.ipc_bytes_last_round = self.ipc_bytes_total - ipc_before
        if self._stats is not None:
            self._stats.merge(local)
        self._trusted = True
        self._last_now = now
        return instance

    def _build_dense(
        self,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        predicted_workers: PredictedWorkerColumns | None,
        predicted_tasks: PredictedTaskColumns | None,
        now: float,
        churn: ChurnRecord | None,
        local: SparseBuildStats,
    ) -> ProblemInstance:
        """One round through the dense kernel.

        The round's journal ops are drained and dropped, so the mirror
        goes untrusted: the next tile-built round refreshes every tile
        wholesale, and ``_last_total = -1`` keeps that round from
        handing selection an origin map against a stale pool size.
        The dense kernel examines every pair (its validity masks span
        the full matrices) before it prices the valid ones, so
        ``candidates`` books every dense pair and ``price_seconds`` the
        whole build.
        """
        started = monotonic()
        instance = build_problem(
            current_workers,
            current_tasks,
            predicted_workers,
            predicted_tasks,
            self._quality_model,
            self._unit_cost,
            now,
            discount_by_existence=self._discount,
            reservation_filter=self._reservation,
            include_future_future_pairs=self._future_future,
        )
        self._log.drain()
        self._trusted = False
        self._last_total = -1
        self.last_churn = churn
        local.price_seconds = monotonic() - started
        local.candidates = local.dense_equivalent
        local.emitted = len(instance.pool)
        if self._stats is not None:
            self._stats.merge(local)
        return instance

    # -- parent mirror maintenance ------------------------------------------

    def _repair_workers(
        self,
        current_workers: Sequence[Worker],
        arrivals: Sequence[Worker] | None,
        removed_ids: Sequence[int] | None,
        arrivals_by_tile: dict[int, list[Worker]],
        removed_by_tile: dict[int, list[int]],
    ) -> bool:
        """O(churn) repair of the worker columns; False = distrust.

        With engine hints the caller vouches for the list discipline;
        without them the diff is derived here (O(n), still cheap) and
        the discipline is *checked* instead.
        """
        if arrivals is None or removed_ids is None:
            current_ids = _ids(current_workers)
            keep = np.isin(self._w_ids, current_ids, assume_unique=True)
            new_mask = ~np.isin(current_ids, self._w_ids, assume_unique=True)
            if not np.array_equal(current_ids[~new_mask], self._w_ids[keep]):
                return False
            removed_ids = self._w_ids[~keep].tolist()
            arrivals = [current_workers[i] for i in np.flatnonzero(new_mask)]
        if removed_ids:
            gone = np.fromiter(removed_ids, dtype=np.int64, count=len(removed_ids))
            drop = np.isin(self._w_ids, gone)
            if int(drop.sum()) != len(removed_ids):
                return False
            for tile, wid in zip(
                self._w_owner[drop].tolist(), self._w_ids[drop].tolist()
            ):
                removed_by_tile.setdefault(tile, []).append(wid)
            keep = ~drop
            self._w_ids = self._w_ids[keep]
            self._wx, self._wy = self._wx[keep], self._wy[keep]
            self._wvel, self._warr = self._wvel[keep], self._warr[keep]
            self._w_owner = self._w_owner[keep]
        if arrivals:
            ax, ay, avel, aarr = _worker_columns(arrivals)
            aids = _ids(arrivals)
            owner = self._tiles.tile_of_coordinates(ax, ay)
            for worker, tile in zip(arrivals, owner.tolist()):
                arrivals_by_tile.setdefault(tile, []).append(worker)
            self._w_ids = np.concatenate([self._w_ids, aids])
            self._wx = np.concatenate([self._wx, ax])
            self._wy = np.concatenate([self._wy, ay])
            self._wvel = np.concatenate([self._wvel, avel])
            self._warr = np.concatenate([self._warr, aarr])
            self._w_owner = np.concatenate([self._w_owner, owner])
        return True

    def _repair_tasks(
        self,
        current_tasks: Sequence[Task],
        net: tuple,
        new_task_objs: dict[int, Task],
    ) -> bool:
        """O(churn) repair of the task columns from the netted journal.

        Journal coordinates are authoritative for cells; deadlines and
        arrivals come from the tail objects, whose ids are verified
        against the net-new keys.
        """
        removed, new = net
        if removed:
            gone = np.fromiter(removed, dtype=np.int64, count=len(removed))
            drop = np.isin(self._t_ids, gone)
            if int(drop.sum()) != len(removed):
                return False
            keep = ~drop
            self._t_ids = self._t_ids[keep]
            self._tx, self._ty = self._tx[keep], self._ty[keep]
            self._tdl, self._tarr = self._tdl[keep], self._tarr[keep]
            self._t_cells = self._t_cells[keep]
            self._t_key_set -= removed
        if new:
            tail = list(current_tasks[len(current_tasks) - len(new):])
            if [t.id for t in tail] != list(new.keys()):
                return False
            new_task_objs.update((t.id, t) for t in tail)
            _, _, deadline, arr = _task_columns(tail)
            nx = np.fromiter((xy[0] for xy in new.values()), dtype=float, count=len(new))
            ny = np.fromiter((xy[1] for xy in new.values()), dtype=float, count=len(new))
            nids = np.fromiter(new.keys(), dtype=np.int64, count=len(new))
            self._t_ids = np.concatenate([self._t_ids, nids])
            self._tx = np.concatenate([self._tx, nx])
            self._ty = np.concatenate([self._ty, ny])
            self._tdl = np.concatenate([self._tdl, deadline])
            self._tarr = np.concatenate([self._tarr, arr])
            self._t_cells = np.concatenate(
                [self._t_cells, self._grid.cells_of_coordinates(nx, ny)]
            )
            self._t_key_set |= set(new.keys())
        return True

    def _verify_mirror(
        self, current_workers: Sequence[Worker], current_tasks: Sequence[Task]
    ) -> bool:
        """Spot-check the repaired mirror against the engine lists."""
        if self._w_ids.size != len(current_workers):
            return False
        if self._t_ids.size != len(current_tasks):
            return False
        if current_workers and (
            self._w_ids[0] != current_workers[0].id
            or self._w_ids[-1] != current_workers[-1].id
        ):
            return False
        if current_tasks and (
            self._t_ids[0] != current_tasks[0].id
            or self._t_ids[-1] != current_tasks[-1].id
        ):
            return False
        return True

    def _refresh_mirror(
        self, current_workers: Sequence[Worker], current_tasks: Sequence[Task]
    ) -> None:
        """Rebuild the mirror wholesale from the entity objects."""
        n, m = len(current_workers), len(current_tasks)
        if n:
            self._wx, self._wy, self._wvel, self._warr = _worker_columns(
                current_workers
            )
            self._w_ids = _ids(current_workers)
            self._w_owner = self._tiles.tile_of_coordinates(self._wx, self._wy)
        else:
            self._w_ids = self._w_owner = _EMPTY_IDX
            self._wx = self._wy = self._wvel = self._warr = _EMPTY_F
        if m:
            self._tx, self._ty, self._tdl, self._tarr = _task_columns(current_tasks)
            self._t_ids = _ids(current_tasks)
            self._t_cells = self._grid.cells_of_coordinates(self._tx, self._ty)
        else:
            self._t_ids = self._t_cells = _EMPTY_IDX
            self._tx = self._ty = self._tdl = self._tarr = _EMPTY_F
        self._t_key_set = set(self._t_ids.tolist())

    # -- round helpers ------------------------------------------------------

    def _margin_ct(
        self, n: int, m: int, k: int, now: float,
        pw_cols: PredictedWorkerColumns | None,
    ) -> float:
        """One reachable radius for the current-task side: every task a
        tile-owned query entity can validly pair with lies within it of
        the tile (current tasks are degenerate, so no task-reach term).
        A valid pair satisfies ``d_lb <= horizon * velocity`` with
        ``horizon <= deadline_max - now``, and a predicted worker's
        point distance exceeds ``d_lb`` by at most its kernel reach;
        the slack mirrors ``_RADIUS_SLACK``."""
        radii: list[float] = []
        if m:
            deadline_max = float(self._tdl.max())
            if n:
                horizon = np.maximum(0.0, deadline_max - np.maximum(now, self._warr))
                radii.append(float((self._wvel * horizon).max()))
            if k:
                horizon = np.maximum(
                    0.0, deadline_max - np.maximum(now, pw_cols.arr)
                )
                radii.append(float((pw_cols.vel * horizon + pw_cols.reach).max()))
        radius = max(radii, default=0.0)
        return radius * (1.0 + _RADIUS_SLACK) + _RADIUS_SLACK

    def _expectations(
        self, tile: int, wmap: np.ndarray, tmap: np.ndarray
    ) -> TileRoundMessage:
        message = TileRoundMessage(tile=tile)
        message.expect_workers = int(wmap.size)
        message.expect_tasks = int(tmap.size)
        if wmap.size:
            message.worker_id_bounds = (
                int(self._w_ids[wmap[0]]), int(self._w_ids[wmap[-1]]),
            )
        if tmap.size:
            message.task_id_bounds = (
                int(self._t_ids[tmap[0]]), int(self._t_ids[tmap[-1]]),
            )
        return message

    def _compose_origin(self, tile: int, prev_origin: np.ndarray) -> np.ndarray:
        """Tile emission ranks → previous *merged-pool* rows.

        ``prev_origin[i]`` is the rank row ``i`` held in this tile's
        previous emission; ``_prev_pos[tile]`` maps those ranks to the
        rows the previous reconcile placed them at.  Survivor relative
        order is invariant under compaction + tail appends on both
        levels, so the composed map stays strictly increasing over its
        non-negative entries — the monotonicity the selection state's
        trusted repair path verifies.
        """
        table = self._prev_pos[tile]
        if prev_origin.size == 0:
            return _EMPTY_IDX
        if table.size == 0:
            return np.full(prev_origin.size, -1, dtype=np.int64)
        valid = (prev_origin >= 0) & (prev_origin < table.size)
        return np.where(valid, table[np.where(valid, prev_origin, 0)], -1)
