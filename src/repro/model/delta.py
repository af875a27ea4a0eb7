"""Incremental round-over-round candidate-pool maintenance.

The streaming engine's entity sets barely change between micro-batch
rounds, yet a fresh build regenerates the whole current×current
candidate family from scratch every round: column extraction, cell
joins, exact distances and quality scores are recomputed for pairs
that were identical one round earlier.
:class:`DeltaPoolBuilder` persists that family across rounds and
*repairs* it instead:

- Worker rows are joined once against the maintained task CSR with
  the exact reachable radius.  Engine entities never move (a relocated
  worker re-arrives under a fresh id), so a cached gather stays a
  superset of every future valid set of its pair.
- Each round only two deltas run: rows/columns of arrived, expired and
  assigned entities are spliced in or dropped, and one vectorized
  exact-validity pass re-prices time — the per-pair horizon test is
  the only quantity that changes when nothing moves, and it is a
  handful of elementwise ops over cached distances.  Validity is
  monotone in time, so the sweep also purges the pairs it proves dead.
- The predicted families are inherently fresh (prediction resamples
  entities each round) and run through the same batched join kernels,
  but against the cached CSRs and cached current-entity columns.

The builder is one tile's half of a fused round build: its
:meth:`~DeltaPoolBuilder.emit_partition` hands the raw triplets to the
global reconcile pass of :mod:`repro.streaming.pipeline`, which
computes the Section III-B quality statistics, existence
probabilities, the reservation filter and pricing over the merged
tiles.  The assembled pool is **bit-for-bit identical** to the dense
:func:`~repro.model.instance.build_problem` on the same inputs
(hypothesis-enforced by ``tests/test_model_delta.py``): cached
distances/qualities are pure functions of unchanged operands, the
cached gather is a proven
superset of the exact valid set, and the canonical pair order is
maintained under splices (engine list removals preserve relative
order; arrivals append — both verified against the passed lists
every round).

The builder is *total*: whenever the incremental path cannot be
trusted — first round, an untrusted op feed (journal overflow), clock
regression, churn above ``rebuild_churn_ratio``, or any inconsistency
between the journal and the entity lists — it falls back to a full
rebuild (re-prime) of the cache and still emits the exact pool.  The
fall back triggers are observable through :class:`DeltaBuildStats`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.geo.grid import GridIndex
from repro.model.entities import Task, Worker
from repro.model.instance import (
    PredictedTaskColumns,
    PredictedWorkerColumns,
    _ids,
    _task_columns,
    _worker_columns,
)
from repro.model.quality import QualityModel
from repro.obs.metrics import monotonic
from repro.model.sparse import (
    _EMPTY_IDX,
    SparseBuildStats,
    _CandidateCSR,
    _pair_quality,
    _uncertain_pairs_batched,
)
from repro.uncertainty.vector import _interval_gap_vec

_EMPTY_F = np.zeros(0)


@dataclass
class ChurnRecord:
    """One round's churn, shared by the pool builder and the selector.

    The streaming engine journals its own entity churn here (the
    trusted hints for the pool repair), hands the record to
    :meth:`~repro.streaming.pipeline.FusedRoundBuilder.build_round`,
    and the builder annotates it with the *row-level* consequence of
    that churn: for every row of the emitted pool, the row it occupied
    in the previous round's emission (or ``-1`` for rows with no
    verbatim predecessor — new pairs and the always-fresh predicted
    families).  Downstream, :class:`~repro.core.triplet_select.
    SelectionState` repairs its sorted orders from exactly this
    mapping.

    Attributes:
        worker_arrivals: workers that joined since the previous build
            (engine journal; ``None`` when the caller wants the
            builder to self-diff).
        worker_removed_ids: ids of workers removed since the previous
            build (same trust contract as ``worker_arrivals``).
        row_origin: per emitted pool row, the row index it had in the
            previous emission, or ``-1``; non-negative entries are
            strictly increasing (splices preserve canonical order).
        prev_pool_rows: row count of the previous emission (what
            ``row_origin`` indexes into), ``-1`` before the first.
    """

    worker_arrivals: Sequence[Worker] | None = None
    worker_removed_ids: Sequence[int] | None = None
    row_origin: np.ndarray | None = None
    prev_pool_rows: int = -1


@dataclass
class PartitionEmission:
    """One partition's half of a fused round build.

    The raw material :mod:`repro.streaming.pipeline` assembles into a
    global :class:`~repro.model.instance.ProblemInstance`: the
    partition's revalidated current×current triplets (local row/column
    indices into the partition's own worker/task lists) plus the index
    pairs of the always-fresh predicted families, with pricing and
    Section III-B coupling deferred to the global reconcile pass, which
    is what makes the merged output bit-identical to the serial
    builders.
    ``prev_origin`` maps each cc row to the rank it held in this
    partition's previous emission (or ``-1``), letting the parent
    compose a trusted global row-origin map for warm selection.
    """

    cc_rows: np.ndarray = None
    cc_cols: np.ndarray = None
    cc_dist: np.ndarray = None
    cc_quality: np.ndarray = None
    prev_origin: np.ndarray = None
    pw_ct: tuple = (None, None)
    cw_pt: tuple = (None, None)
    pw_pt: tuple = (None, None)
    incremental: bool = False
    build_seconds: float = 0.0


@dataclass
class DeltaBuildStats:
    """Observable counters of the incremental maintenance.

    Attributes:
        rounds: builds served.
        primes: full cache rebuilds (first round + every fallback).
        incremental_rounds: builds served purely by delta repair.
        rows_joined: worker rows (re)joined against the CSR.
        cols_joined: task columns (re)joined against the worker set.
        pairs_cached: current size of the cached candidate superset.
        revalidated: cached pairs swept by the exact validity pass,
            summed over rounds.
    """

    rounds: int = 0
    primes: int = 0
    incremental_rounds: int = 0
    rows_joined: int = 0
    cols_joined: int = 0
    pairs_cached: int = 0
    revalidated: int = 0


def _require_current(entities, kind: str) -> None:
    """Delta caching assumes id-stable current entities with degenerate
    boxes (the engine's invariant); reject anything else loudly."""
    for e in entities:
        if e.predicted:
            raise ValueError(f"{kind} {e.id}: predicted entities cannot enter the cache")
        box = e.box
        loc = e.location
        if (
            box.x_lo != loc.x
            or box.x_hi != loc.x
            or box.y_lo != loc.y
            or box.y_hi != loc.y
        ):
            raise ValueError(
                f"{kind} {e.id}: delta caching requires a degenerate "
                "(current-entity) box"
            )


class DeltaPoolBuilder:
    """One partition's round-over-round maintained candidate pool.

    Runs in *external-journal* mode: nothing is subscribed; the caller
    (a :class:`~repro.streaming.pipeline.TilePipeline`) feeds each
    round's pre-split task-index mutation ops to :meth:`repair`, then
    collects the partition's raw triplets with :meth:`emit_partition`.

    Args:
        quality_model: pair scorer; its ``quality_pairs_by_ids`` hook
            is used when present (scores are cached per pair, so the
            model must be a pure function of the pair — the contract
            :func:`~repro.model.sparse._pair_quality` documents).
        index_gamma: grid resolution of the cached CSRs.
        include_future_future_pairs: emit the ``<w_hat, t_hat>``
            family.
        rebuild_churn_ratio: when more than this fraction of the
            cached population changes in one round, repairing costs
            more than rebuilding — fall back to a prime.
    """

    def __init__(
        self,
        quality_model: QualityModel,
        index_gamma: int,
        *,
        include_future_future_pairs: bool = True,
        rebuild_churn_ratio: float = 0.5,
    ) -> None:
        if not 0.0 < rebuild_churn_ratio <= 1.0:
            raise ValueError(
                f"rebuild_churn_ratio must be in (0, 1], got {rebuild_churn_ratio}"
            )
        self._quality_model = quality_model
        self._future_future = include_future_future_pairs
        self._gamma = index_gamma
        self._empty_grid = GridIndex(index_gamma)
        self._churn_ratio = float(rebuild_churn_ratio)
        self._by_ids = getattr(quality_model, "quality_pairs_by_ids", None)
        self.delta_stats = DeltaBuildStats()

        self._primed = False
        self._last_now = -np.inf
        self._reset_cache()

    # -- cache state --------------------------------------------------------

    def _reset_cache(self) -> None:
        self._w_ids = _EMPTY_IDX
        self._wx = self._wy = self._wvel = self._warr = _EMPTY_F
        self._t_ids = _EMPTY_IDX
        # Mirror of _t_ids for O(1) membership in the journal replay,
        # maintained incrementally (rebuilding a set per round would
        # cost O(cached population) in Python).
        self._t_id_set: set[int] = set()
        self._tx = self._ty = self._tdl = self._tarr = _EMPTY_F
        self._csr = _CandidateCSR.empty(self._empty_grid)
        # Worker-side CSR: lets the <w, t_hat> family run *transposed*
        # (few predicted-task queries against the cached worker
        # buckets) instead of re-bucketing every worker each round.
        self._w_csr = _CandidateCSR.empty(self._empty_grid)
        self._p_w = self._p_t = _EMPTY_IDX
        self._p_dist = self._p_qual = _EMPTY_F
        # Per cached pair: its row in the previous *emission*, or -1.
        # Maintained through every splice so the emitted ChurnRecord
        # can hand the selector a verbatim-survivor mapping.
        self._p_origin = _EMPTY_IDX

    def invalidate(self) -> None:
        """Force a full rebuild on the next :meth:`repair`."""
        self._primed = False
        self._reset_cache()

    # -- pair-store maintenance (canonical (row, col) order throughout) -----

    def _pair_key_base(self) -> int:
        return int(self._t_ids.size) + 1

    def _merge_pairs(
        self, rows: np.ndarray, cols: np.ndarray, dist: np.ndarray, qual: np.ndarray
    ) -> None:
        if rows.size == 0:
            return
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        dist, qual = dist[order], qual[order]
        if self._p_w.size == 0:
            self._p_w, self._p_t = rows, cols
            self._p_dist, self._p_qual = dist, qual
            self._p_origin = np.full(rows.size, -1, dtype=np.int64)
            return
        base = self._pair_key_base()
        positions = np.searchsorted(
            self._p_w * base + self._p_t, rows * base + cols
        )
        self._p_w = np.insert(self._p_w, positions, rows)
        self._p_t = np.insert(self._p_t, positions, cols)
        self._p_dist = np.insert(self._p_dist, positions, dist)
        self._p_qual = np.insert(self._p_qual, positions, qual)
        self._p_origin = np.insert(self._p_origin, positions, -1)

    def _drop_worker_positions(self, remove: np.ndarray) -> None:
        """Remove worker rows; compaction preserves canonical order."""
        if not remove.any():
            return
        keep_pairs = ~remove[self._p_w]
        shift = np.cumsum(remove)
        self._p_w = (self._p_w - shift[self._p_w])[keep_pairs]
        self._p_t = self._p_t[keep_pairs]
        self._p_dist = self._p_dist[keep_pairs]
        self._p_qual = self._p_qual[keep_pairs]
        self._p_origin = self._p_origin[keep_pairs]
        keep = ~remove
        self._w_csr = self._w_csr.remove_columns(keep)
        self._w_ids = self._w_ids[keep]
        self._wx, self._wy = self._wx[keep], self._wy[keep]
        self._wvel, self._warr = self._wvel[keep], self._warr[keep]

    def _drop_task_positions(self, remove: np.ndarray) -> None:
        if not remove.any():
            return
        keep_pairs = ~remove[self._p_t]
        shift = np.cumsum(remove)
        self._p_t = (self._p_t - shift[self._p_t])[keep_pairs]
        self._p_w = self._p_w[keep_pairs]
        self._p_dist = self._p_dist[keep_pairs]
        self._p_qual = self._p_qual[keep_pairs]
        self._p_origin = self._p_origin[keep_pairs]
        keep = ~remove
        self._csr = self._csr.remove_columns(keep)
        self._t_id_set.difference_update(self._t_ids[remove].tolist())
        self._t_ids = self._t_ids[keep]
        self._tx, self._ty = self._tx[keep], self._ty[keep]
        self._tdl, self._tarr = self._tdl[keep], self._tarr[keep]

    # -- joins --------------------------------------------------------------

    def _join_radius(self, deadline_max: float, now: float) -> np.ndarray:
        """Per-worker gather radius: the farthest a worker can still
        travel before the latest deadline."""
        bound = np.maximum(0.0, deadline_max - np.maximum(now, self._warr))
        return self._wvel * bound

    def _quality_of(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        local: SparseBuildStats,
    ) -> np.ndarray:
        """Quality of new cache pairs (global positions this round)."""
        started = monotonic()
        if self._by_ids is not None:
            values = np.asarray(
                self._by_ids(self._w_ids[rows], self._t_ids[cols]), dtype=float
            )
        else:
            values = _pair_quality(
                self._quality_model, current_workers, current_tasks, rows, cols
            )
        local.price_seconds += monotonic() - started
        return values

    def _join_worker_rows(
        self,
        positions: np.ndarray,
        now: float,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        local: SparseBuildStats,
    ) -> None:
        """(Re)join the given worker rows against the full task CSR."""
        if positions.size == 0 or self._csr.cols.size == 0:
            return
        radius = self._join_radius(
            float(self._tdl.max()), now
        )[positions]
        rows_local, cols = self._csr.join(
            self._wx[positions], self._wy[positions], radius, local
        )
        if rows_local.size == 0:
            return
        rows = positions[rows_local]
        dist = np.hypot(self._wx[rows] - self._tx[cols], self._wy[rows] - self._ty[cols])
        qual = self._quality_of(rows, cols, current_workers, current_tasks, local)
        local.gathered += int(rows.size)
        self._merge_pairs(rows, cols, dist, qual)
        self.delta_stats.rows_joined += int(positions.size)

    def _join_task_columns(
        self,
        positions: np.ndarray,
        query_positions: np.ndarray,
        now: float,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        local: SparseBuildStats,
    ) -> None:
        """Join the given task columns against the given worker rows."""
        if positions.size == 0 or query_positions.size == 0:
            return
        target = _CandidateCSR.from_coordinates(
            self._tx[positions], self._ty[positions], self._gamma
        )
        radius = self._join_radius(
            float(self._tdl[positions].max()), now
        )[query_positions]
        rows_local, cols_local = target.join(
            self._wx[query_positions], self._wy[query_positions], radius, local
        )
        if rows_local.size == 0:
            self.delta_stats.cols_joined += int(positions.size)
            return
        rows = query_positions[rows_local]
        cols = positions[cols_local]
        dist = np.hypot(self._wx[rows] - self._tx[cols], self._wy[rows] - self._ty[cols])
        qual = self._quality_of(rows, cols, current_workers, current_tasks, local)
        local.gathered += int(rows.size)
        self._merge_pairs(rows, cols, dist, qual)
        self.delta_stats.cols_joined += int(positions.size)

    # -- prime (full rebuild) ----------------------------------------------

    def _prime(
        self,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        now: float,
        local: SparseBuildStats,
    ) -> None:
        _require_current(current_workers, "worker")
        _require_current(current_tasks, "task")
        self._reset_cache()
        n, m = len(current_workers), len(current_tasks)
        if n:
            self._wx, self._wy, self._wvel, self._warr = _worker_columns(current_workers)
            self._w_ids = _ids(current_workers)
            self._w_csr = _CandidateCSR.from_coordinates(self._wx, self._wy, self._gamma)
        if m:
            self._tx, self._ty, self._tdl, self._tarr = _task_columns(current_tasks)
            self._t_ids = _ids(current_tasks)
            self._t_id_set = set(self._t_ids.tolist())
            self._csr = _CandidateCSR.from_coordinates(self._tx, self._ty, self._gamma)
        if n and m:
            self._join_worker_rows(
                np.arange(n, dtype=np.int64), now, current_workers, current_tasks, local
            )
        self._primed = True
        self.delta_stats.primes += 1

    # -- delta application --------------------------------------------------

    def _parse_ops(self, ops) -> tuple | None:
        """Net effect of the journal batch; ``None`` when inconsistent."""
        cached = self._t_id_set
        removed: dict[int, None] = {}
        new: dict[int, None] = {}
        for op, key, _, _ in ops:
            if op == "insert":
                if key in new or (key in cached and key not in removed):
                    return None
                new[key] = None
            elif op == "remove":
                if key in new:
                    del new[key]
                elif key in cached and key not in removed:
                    removed[key] = None
                else:
                    return None
            else:
                return None
        return removed, new

    def _apply_deltas(
        self,
        ops,
        worker_arrivals,
        worker_removed_ids,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        now: float,
        local: SparseBuildStats,
    ) -> bool:
        """Repair the cache in place; ``False`` demands a re-prime."""
        parsed = self._parse_ops(ops)
        if parsed is None:
            return False
        removed_t, new_t = parsed

        if worker_arrivals is not None:
            # Trusted churn hints (the engine's own journal): no
            # per-entity diff needed.  Coherence is re-checked on the
            # aggregate counts below.
            if worker_removed_ids:
                removed_ids = np.fromiter(
                    worker_removed_ids, dtype=np.int64, count=len(worker_removed_ids)
                )
                in_round = ~np.isin(self._w_ids, removed_ids, assume_unique=True)
                if int(in_round.sum()) != self._w_ids.size - removed_ids.size:
                    return False
            else:
                in_round = np.ones(self._w_ids.size, dtype=bool)
            num_persist = self._w_ids.size - (
                len(worker_removed_ids) if worker_removed_ids else 0
            )
            num_new_w = len(worker_arrivals)
            if num_persist + num_new_w != len(current_workers):
                return False
        else:
            # Worker diff against the passed list: persistent ids must
            # keep their relative order and new ids must be appended at
            # the tail (the engine's list discipline); anything else
            # re-primes.
            w_ids_round = _ids(current_workers)
            in_round = np.isin(self._w_ids, w_ids_round, assume_unique=True)
            new_w_mask = ~np.isin(w_ids_round, self._w_ids, assume_unique=True)
            num_persist = int(in_round.sum())
            if not np.array_equal(self._w_ids[in_round], w_ids_round[~new_w_mask]):
                return False
            if new_w_mask.any() and not new_w_mask[num_persist:].all():
                return False
            num_new_w = int(new_w_mask.sum())

        churn = (
            (self._w_ids.size - num_persist)
            + num_new_w
            + len(removed_t)
            + len(new_t)
        )
        population = max(self._w_ids.size + self._t_ids.size, 1)
        if churn > self._churn_ratio * population:
            return False

        # 1. removals
        self._drop_worker_positions(~in_round)
        if removed_t:
            removed_ids = np.fromiter(removed_t, dtype=np.int64, count=len(removed_t))
            remove_mask = np.isin(self._t_ids, removed_ids)
            if int(remove_mask.sum()) != len(removed_t):
                return False
            self._drop_task_positions(remove_mask)

        # 2. new tasks: append columns, join them against the persistent
        #    workers, splice their buckets in.
        num_old_w = self._w_ids.size
        if new_t:
            tail = list(current_tasks[len(current_tasks) - len(new_t):])
            if [t.id for t in tail] != list(new_t):
                return False
            _require_current(tail, "task")
            ntx, nty, ntdl, ntarr = _task_columns(tail)
            offset = self._t_ids.size
            self._t_id_set.update(new_t)
            self._t_ids = np.concatenate((self._t_ids, _ids(tail)))
            self._tx = np.concatenate((self._tx, ntx))
            self._ty = np.concatenate((self._ty, nty))
            self._tdl = np.concatenate((self._tdl, ntdl))
            self._tarr = np.concatenate((self._tarr, ntarr))
            new_cols = np.arange(offset, self._t_ids.size, dtype=np.int64)
            self._join_task_columns(
                new_cols,
                np.arange(num_old_w, dtype=np.int64),
                now,
                current_workers,
                current_tasks,
                local,
            )
            self._csr = self._csr.insert_columns(
                self._csr.grid.cells_of_coordinates(ntx, nty), new_cols
            )

        # 3. new workers (appended at the tail) get full rows against
        #    the spliced CSR.
        if num_new_w:
            tail_w = list(current_workers[num_persist:])
            _require_current(tail_w, "worker")
            nwx, nwy, nwvel, nwarr = _worker_columns(tail_w)
            offset_w = self._w_ids.size
            self._w_ids = np.concatenate((self._w_ids, _ids(tail_w)))
            self._wx = np.concatenate((self._wx, nwx))
            self._wy = np.concatenate((self._wy, nwy))
            self._wvel = np.concatenate((self._wvel, nwvel))
            self._warr = np.concatenate((self._warr, nwarr))
            self._w_csr = self._w_csr.insert_columns(
                self._w_csr.grid.cells_of_coordinates(nwx, nwy),
                np.arange(offset_w, self._w_ids.size, dtype=np.int64),
            )
        join_rows = np.arange(num_old_w, self._w_ids.size, dtype=np.int64)
        if join_rows.size and self._t_ids.size:
            self._join_worker_rows(
                join_rows, now, current_workers, current_tasks, local
            )

        # Final coherence: the repaired cache must mirror the passed
        # lists — id-for-id, position-for-position.  With trusted
        # hints, the per-entity comparison is replaced by size and
        # endpoint checks (the engine's list discipline guarantees the
        # rest, and the hypothesis suite drives both modes).
        if self._w_ids.size != len(current_workers) or self._t_ids.size != len(
            current_tasks
        ):
            return False
        if worker_arrivals is not None:
            if len(current_workers) and (
                current_workers[0].id != self._w_ids[0]
                or current_workers[-1].id != self._w_ids[-1]
            ):
                return False
            if len(current_tasks) and (
                current_tasks[0].id != self._t_ids[0]
                or current_tasks[-1].id != self._t_ids[-1]
            ):
                return False
            return True
        if not np.array_equal(self._w_ids, w_ids_round):
            return False
        if not np.array_equal(self._t_ids, _ids(current_tasks)):
            return False
        return True

    # -- the round ----------------------------------------------------------

    def repair(
        self,
        current_workers: Sequence[Worker],
        current_tasks: Sequence[Task],
        now: float,
        worker_arrivals: Sequence[Worker] | None = None,
        worker_removed_ids: Sequence[int] | None = None,
        ops=None,
        local: SparseBuildStats | None = None,
    ) -> bool:
        """Bring the cache up to date with one round's churn.

        Consumes the caller-split ``ops`` batch (``None`` means "cannot
        trust the feed" and forces a re-prime, the analogue of a
        journal overflow), applies the deltas, and falls back to a
        full prime whenever the incremental path cannot be trusted.

        ``worker_arrivals``/``worker_removed_ids`` are the engine's own
        churn journal for the query side since the previous round:
        when provided they replace the per-entity id diff (an O(n)
        Python pass), and the caller vouches that the list discipline
        holds (removals preserve order, arrivals append at the tail).
        Omit them to have the builder derive the diff itself; ``now``
        may not decrease without forcing a re-prime.  Returns ``True``
        when the round was served incrementally.
        """
        if local is None:
            local = SparseBuildStats()
        incremental = (
            self._primed
            and ops is not None
            and now >= self._last_now
            and self._apply_deltas(
                ops, worker_arrivals, worker_removed_ids,
                current_workers, current_tasks, now, local,
            )
        )
        if not incremental:
            self._prime(current_workers, current_tasks, now, local)
        else:
            self.delta_stats.incremental_rounds += 1
        self.delta_stats.rounds += 1
        self._last_now = now
        return incremental

    # -- emission -----------------------------------------------------------

    def _sweep_current(self, now: float, local: SparseBuildStats):
        """One exact revalidation sweep over the cached cc pairs.

        Returns ``(rows, cols, dist, quality, prev_origin)`` — the
        valid current×current triplets in canonical order plus each
        emitted row's rank in the previous emission — and shrinks the
        cache to exactly the valid set: joins are exact and nothing
        moves, so validity is monotone in time and a pair invalid *now*
        can never become valid again (the emission gather doubles as
        the purge).
        """
        if self._p_w.size:
            departure = np.maximum(
                now, np.maximum(self._warr[self._p_w], self._tarr[self._p_t])
            )
            horizon = self._tdl[self._p_t] - departure
            valid = (horizon > 0.0) & (
                self._p_dist <= horizon * self._wvel[self._p_w]
            )
            cc_rows = self._p_w[valid]
            cc_cols = self._p_t[valid]
            cc_dist = self._p_dist[valid]
            cc_quality = self._p_qual[valid]
            # Origins of the emitted cc rows (previous-emission rows),
            # gathered before the per-pair origins roll forward to
            # *this* emission's row numbering.
            prev_origin = self._p_origin[valid]
            local.gathered += int(self._p_w.size)
            self.delta_stats.revalidated += int(self._p_w.size)
            self._p_w, self._p_t = cc_rows, cc_cols
            self._p_dist, self._p_qual = cc_dist, cc_quality
            self._p_origin = np.arange(cc_rows.size, dtype=np.int64)
        else:
            cc_rows = cc_cols = _EMPTY_IDX
            cc_dist = cc_quality = _EMPTY_F
            prev_origin = _EMPTY_IDX
        local.candidates += int(cc_rows.size)
        return cc_rows, cc_cols, cc_dist, cc_quality, prev_origin

    def _join_current_predicted_tasks(
        self,
        ptx: np.ndarray,
        pty: np.ndarray,
        pt_deadline: np.ndarray,
        pt_arr: np.ndarray,
        pt_intervals,
        pt_reach: np.ndarray,
        now: float,
        local: SparseBuildStats,
    ) -> tuple[np.ndarray, np.ndarray]:
        """The ``<w, t_hat>`` family against the cached worker CSR.

        Transposed join: the few predicted tasks query the cached
        worker buckets, so the per-round cost scales with the
        prediction volume instead of the standing worker pool.  The
        gather stays a superset (the radius covers the fastest worker
        over each task's horizon plus the kernel reach), and the exact
        validity predicate runs the same float
        arithmetic as ``_uncertain_pairs_batched`` on the same
        operands, so the surviving pairs — and their canonical
        ``(row, col)`` order — are identical to the query-by-worker
        orientation.  Pricing is deferred, as everywhere.
        """
        pt_hb = np.maximum(0.0, pt_deadline - np.maximum(now, pt_arr))
        vel_max = float(self._wvel.max())
        radius = vel_max * pt_hb + pt_reach
        t_rows, w_cols = self._w_csr.join(ptx, pty, radius, local)
        if t_rows.size == 0:
            return _EMPTY_IDX, _EMPTY_IDX
        local.gathered += int(t_rows.size)
        departure = np.maximum(
            now, np.maximum(self._warr[w_cols], pt_arr[t_rows])
        )
        horizon = pt_deadline[t_rows] - departure
        wx_g = self._wx[w_cols]
        wy_g = self._wy[w_cols]
        d_lb = np.hypot(
            _interval_gap_vec(
                wx_g, wx_g, pt_intervals[0][t_rows], pt_intervals[1][t_rows]
            ),
            _interval_gap_vec(
                wy_g, wy_g, pt_intervals[2][t_rows], pt_intervals[3][t_rows]
            ),
        )
        valid = (horizon > 0.0) & (d_lb <= horizon * self._wvel[w_cols])
        rows, cols = w_cols[valid], t_rows[valid]
        local.candidates += int(rows.size)
        if rows.size == 0:
            return _EMPTY_IDX, _EMPTY_IDX
        order = np.lexsort((cols, rows))
        return rows[order], cols[order]

    def emit_partition(
        self,
        now: float,
        predicted_workers: PredictedWorkerColumns | None = None,
        predicted_tasks: PredictedTaskColumns | None = None,
        local: SparseBuildStats | None = None,
    ) -> PartitionEmission:
        """This partition's families, raw, for a global reconcile pass.

        The fused round pipeline's emission half: the revalidated
        current×current triplets (cached distances and qualities,
        local indices) plus the index pairs of the predicted families
        joined against the cached CSRs — no Section III-B statistics,
        no coupling, no pricing.  Those are genuinely global and run
        once in the parent's reconcile pass over the merged triplets
        (:func:`repro.streaming.pipeline._reconcile`), which is what
        keeps the assembled pool bit-identical to the serial builders.

        Call :meth:`repair` first; predicted entities arrive as columns
        with their ``reach`` filled in, so shard workers can source
        them from shared memory without object serialization.
        """
        started = monotonic()
        if local is None:
            local = SparseBuildStats()
        out = PartitionEmission()
        out.cc_rows, out.cc_cols, out.cc_dist, out.cc_quality, out.prev_origin = (
            self._sweep_current(now, local)
        )
        pw = predicted_workers
        pt = predicted_tasks
        out.pw_ct = (_EMPTY_IDX, _EMPTY_IDX)
        out.cw_pt = (_EMPTY_IDX, _EMPTY_IDX)
        out.pw_pt = (_EMPTY_IDX, _EMPTY_IDX)
        if pw is not None and pw.ids.size and self._t_ids.size:
            t_intervals = (self._tx, self._tx, self._ty, self._ty)
            out.pw_ct = _uncertain_pairs_batched(
                self._csr, pw.xs, pw.ys, pw.vel, pw.arr, pw.intervals, pw.reach,
                t_intervals, self._tdl, self._tarr, float(self._tdl.max()), 0.0,
                now, local,
            )
        if pt is not None and pt.ids.size and self._w_ids.size:
            out.cw_pt = self._join_current_predicted_tasks(
                pt.xs, pt.ys, pt.deadline, pt.arr, pt.intervals, pt.reach,
                now, local,
            )
        if (
            pw is not None and pw.ids.size
            and pt is not None and pt.ids.size
            and self._future_future
        ):
            pt_csr = _CandidateCSR.from_coordinates(pt.xs, pt.ys, self._gamma)
            out.pw_pt = _uncertain_pairs_batched(
                pt_csr, pw.xs, pw.ys, pw.vel, pw.arr, pw.intervals, pw.reach,
                pt.intervals, pt.deadline, pt.arr, float(pt.deadline.max()),
                float(pt.reach.max()),
                now, local,
            )
        self.delta_stats.pairs_cached = int(self._p_w.size)
        out.build_seconds = monotonic() - started
        return out
