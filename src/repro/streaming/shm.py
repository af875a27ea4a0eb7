"""Shared-memory process backend for the fused round pipeline.

The legacy process backend pickled every shard payload — the full
candidate CSR, entity columns, the works — through a
``ProcessPoolExecutor`` every round, which is why its committed
numbers ran *below* serial (K4-process ≈ 0.88×).  This backend
replaces that exchange wholesale:

- **Persistent pre-pinned workers.** A fixed pool of forked processes
  is spawned once per engine; each owns a static subset of tiles and
  holds those tiles' :class:`~repro.streaming.pipeline.TilePipeline`
  state (entity lists + delta pool caches) across rounds.  Round
  messages shrink to churn deltas: the tile's slice of the index
  journal, arrival objects, and consistency bounds — O(churn), not
  O(state).
- **Array exchange over ``multiprocessing.shared_memory``.** The
  parent packs the round's predicted-entity columns into a
  shared-memory arena that workers map as NumPy views (no
  serialization); each worker packs its tiles' emission arrays into
  its own grow-by-doubling arena and replies with byte offsets.  The
  parent reads the arrays back as views and copies them out in one
  memcpy — nothing downstream may alias a buffer the worker will
  overwrite next round.  Pipe traffic is bookkept per byte and
  surfaced as ``ipc_bytes_per_round``.
- **Deterministic hygiene.** Python 3.11 registers a segment with the
  resource tracker on *attach* as well as create (bpo-39959), and the
  forked workers share the parent's tracker process — so the
  tracker's name set must see each segment unregistered exactly once,
  or it prints KeyError/leak noise at shutdown.  The registrations
  themselves are idempotent (the tracker keeps a set), and
  ``SharedMemory.unlink()`` performs the single matching unregister;
  :class:`SegmentRegistry` therefore makes the parent the sole
  unlinker — on replacement, on :meth:`ShmTileRunner.close`, or from
  a pid-guarded ``atexit`` hook if the engine is dropped without
  closing — and nobody unregisters manually.  A worker killed
  mid-round leaks nothing: its segments are still known to (and
  unlinked by) the parent, and no tracker ever warns.

This module is the process-backend leg of the incremental round
pipeline described in ``docs/architecture.md``; the inline/thread
legs and the refresh-retry protocol live in
:mod:`repro.streaming.pipeline`.
"""

from __future__ import annotations

import atexit
import itertools
import os
import pickle
import time
from multiprocessing import get_context, resource_tracker
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.model.delta import DeltaBuildStats, PartitionEmission
from repro.model.instance import PredictedTaskColumns, PredictedWorkerColumns
from repro.obs.metrics import monotonic
from repro.streaming.pipeline import (
    PipelineSpec,
    TileRoundMessage,
    TileRoundOutcome,
    TileRunnerBroken,
)

__all__ = ["SegmentRegistry", "ShmTileRunner"]

_ARENA_IDS = itertools.count()


class SegmentRegistry:
    """Parent-side ledger owning every shared-memory segment's unlink.

    ``adopt`` takes custody of a segment (created or attached);
    ``release`` closes and unlinks one by name; ``close`` sweeps the
    rest.  A pid guard keeps forked children from running the
    inherited ``atexit`` hook against the parent's segments.
    """

    def __init__(self) -> None:
        self._pid = os.getpid()
        self._segments: dict[str, SharedMemory] = {}
        atexit.register(self.close)

    def adopt(self, segment: SharedMemory) -> None:
        self._segments[segment.name] = segment

    def release(self, name: str) -> None:
        segment = self._segments.pop(name, None)
        if segment is None:
            return
        try:
            segment.close()
        except BufferError:
            pass  # a live view blocks the munmap, never the unlink
        try:
            segment.unlink()
        except FileNotFoundError:
            pass

    def close(self) -> None:
        if os.getpid() != self._pid:
            return
        for name in list(self._segments):
            self.release(name)


class _ShmArena:
    """A grow-by-doubling shared-memory scratch segment.

    One round's arrays are packed back to back after a single
    :meth:`begin` sizing call; growth allocates a fresh (larger)
    segment under a new name, so a peer still mapping the old one is
    never resized under its feet — the old name is unlinked by the
    registry (parent) or left to the parent's ledger (worker).
    """

    def __init__(self, prefix: str, registry: SegmentRegistry | None = None) -> None:
        self._prefix = prefix
        self._registry = registry
        self._shm: SharedMemory | None = None
        self._capacity = 0
        self._offset = 0
        self._serial = 0

    @property
    def name(self) -> str | None:
        return self._shm.name if self._shm is not None else None

    def begin(self, total: int) -> None:
        """Start one round's packing; guarantees ``total`` capacity."""
        if self._shm is None or self._capacity < total:
            capacity = max(4096, self._capacity)
            while capacity < total:
                capacity *= 2
            segment = SharedMemory(
                create=True,
                size=capacity,
                name=f"{self._prefix}-{self._serial}",
            )
            self._serial += 1
            if self._registry is not None:
                self._registry.adopt(segment)
            if self._shm is not None:
                old = self._shm
                try:
                    old.close()
                except BufferError:
                    pass
                if self._registry is not None:
                    self._registry.release(old.name)
            self._shm = segment
            self._capacity = capacity
        self._offset = 0

    def put(self, array: np.ndarray) -> tuple[int, int, str]:
        """Copy one array in; returns ``(offset, count, dtype)``."""
        array = np.ascontiguousarray(array)
        offset = self._offset
        if array.nbytes:
            view = np.frombuffer(
                self._shm.buf, dtype=array.dtype, count=array.size, offset=offset
            )
            view[:] = array
        self._offset = offset + array.nbytes
        return (offset, int(array.size), array.dtype.str)

    def close(self) -> None:
        if self._shm is None:
            return
        try:
            self._shm.close()
        except BufferError:
            pass
        if self._registry is not None:
            self._registry.release(self._shm.name)
        self._shm = None
        self._capacity = 0


def _pack_arrays(arena: _ShmArena, arrays: list) -> list:
    total = sum(a.nbytes for a in arrays if a is not None)
    arena.begin(total)
    return [None if a is None else arena.put(a) for a in arrays]


def _take(segment: SharedMemory | None, desc, copy: bool):
    """One array back out of a segment (``copy`` detaches it)."""
    if desc is None:
        return None
    offset, count, dtype = desc
    if count == 0:
        return np.empty(0, dtype=np.dtype(dtype))
    view = np.frombuffer(
        segment.buf, dtype=np.dtype(dtype), count=count, offset=offset
    )
    return np.array(view) if copy else view


#: Flat packing order of one emission's arrays.
_EMISSION_FIELDS = (
    "cc_rows", "cc_cols", "cc_dist", "cc_quality", "prev_origin",
)


def _emission_to_arrays(emission: PartitionEmission) -> list:
    arrays = [getattr(emission, field) for field in _EMISSION_FIELDS]
    for pair in (emission.pw_ct, emission.cw_pt, emission.pw_pt):
        arrays.extend(pair)
    return arrays


def _emission_from_arrays(arrays: list) -> PartitionEmission:
    emission = PartitionEmission()
    for field, array in zip(_EMISSION_FIELDS, arrays[:5]):
        setattr(emission, field, array)
    emission.pw_ct = (arrays[5], arrays[6])
    emission.cw_pt = (arrays[7], arrays[8])
    emission.pw_pt = (arrays[9], arrays[10])
    return emission


#: Packing order of the predicted-entity column arrays.
def _columns_to_arrays(pw: PredictedWorkerColumns | None,
                       pt: PredictedTaskColumns | None) -> list:
    arrays: list = []
    if pw is not None:
        arrays += [pw.ids, pw.xs, pw.ys, pw.vel, pw.arr, *pw.intervals, pw.reach]
    if pt is not None:
        arrays += [pt.ids, pt.xs, pt.ys, pt.deadline, pt.arr, *pt.intervals, pt.reach]
    return arrays


def _unpack_columns(segment: SharedMemory | None, header: dict):
    """Worker-side: rebuild the packed predicted columns as views."""
    descs = header["descs"]
    at = 0

    def grab(count):
        nonlocal at
        arrays = [_take(segment, d, copy=False) for d in descs[at:at + count]]
        at += count
        return arrays

    pw = pt = None
    if header["pw"]:
        ids, xs, ys, vel, arr, *intervals, reach = grab(10)
        pw = PredictedWorkerColumns(ids, xs, ys, vel, arr, tuple(intervals), reach)
    if header["pt"]:
        ids, xs, ys, deadline, arr, *intervals, reach = grab(10)
        pt = PredictedTaskColumns(ids, xs, ys, deadline, arr, tuple(intervals), reach)
    return pw, pt


def _worker_main(conn, spec: PipelineSpec, tiles: list[int]) -> None:
    """A pinned worker: holds its tiles' pipelines for the stream's
    lifetime, answering one churn-delta message per round."""
    pipelines = {tile: spec.make(tile) for tile in tiles}
    arena = _ShmArena(prefix=f"repro-w{os.getpid()}-{next(_ARENA_IDS)}")
    attached: dict[str, SharedMemory] = {}

    def attach(name: str) -> SharedMemory:
        segment = attached.get(name)
        if segment is None:
            for old in attached.values():  # parent replaced its arena
                old.close()
            attached.clear()
            segment = SharedMemory(name=name)
            attached[name] = segment
        return segment

    try:
        while True:
            try:
                data = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                message = pickle.loads(data)
            except Exception:
                # An undecodable frame (a garbled pipe, or injected
                # corruption) leaves nothing to act on: exit quietly
                # and let the parent's supervisor respawn this slot.
                break
            if message.get("stop"):
                break
            fault = message.get("fault")
            if fault is not None:
                # Deterministic fault injection (repro.faults): the
                # parent rides a one-shot directive inside the round
                # message, so the fault lands at an exact round on an
                # exact worker — and a respawned worker, primed with a
                # directive-free refresh, can never re-trip it.
                if fault["kind"] == "kill":
                    os._exit(1)
                if fault["kind"] == "hang":
                    time.sleep(fault["seconds"])
            pw = pt = None
            columns = message["columns"]
            if columns is not None:
                segment = attach(columns["segment"]) if columns["segment"] else None
                pw, pt = _unpack_columns(segment, columns)
            outcomes = []
            for tile_message in message["messages"]:
                outcomes.append(
                    pipelines[tile_message.tile].run_round(
                        tile_message, message["now"], pw, pt
                    )
                )
            all_arrays: list = []
            for outcome in outcomes:
                if outcome is not None:
                    all_arrays.extend(_emission_to_arrays(outcome.emission))
            descs = iter(_pack_arrays(arena, all_arrays))
            entries = []
            for outcome in outcomes:
                if outcome is None:
                    entries.append(None)
                    continue
                entries.append({
                    "tile": outcome.tile,
                    "incremental": outcome.incremental,
                    "build_seconds": outcome.emission.build_seconds,
                    "delta_stats": outcome.delta_stats,
                    "sparse_stats": outcome.sparse_stats,
                    "arrays": [next(descs) for _ in range(11)],
                })
            conn.send_bytes(
                pickle.dumps({"segment": arena.name, "outcomes": entries})
            )
    finally:
        conn.close()


class ShmTileRunner:
    """The process backend: persistent forked workers + shm arenas.

    Implements the same runner interface as
    :class:`~repro.streaming.pipeline.InlineTileRunner`; construct via
    the engine's ``runner_factory`` hook.  Tiles are assigned to
    workers statically (round robin), so a tile's pipeline state lives
    in one process for the whole stream.

    **Supervision.**  Replies are awaited with a per-round deadline
    (``round_deadline_s``; poll-then-recv, never a blocking read), so
    a dead, hung or silenced worker is *detected* instead of wedging
    the stream.  A failed worker is killed and respawned from the
    stored :class:`~repro.streaming.pipeline.PipelineSpec` under
    capped exponential backoff; its tiles report ``None`` outcomes,
    which routes them through the builder's wholesale-refresh retry —
    the respawned worker is cold-primed on the always-correct slow
    path, so the round completes bit-identically.  Once
    ``max_respawns`` is exhausted the runner settles its surviving
    workers and raises :class:`~repro.streaming.pipeline.
    TileRunnerBroken`, which the builder answers by degrading to the
    inline serial path.

    ``faults`` arms a :class:`repro.faults.FaultInjector` whose
    shard-domain faults (kill/hang directives ride inside the round
    message; drop/garble act on the parent's send) fire one-shot at
    deterministic (worker, round) coordinates; ``None`` costs nothing.
    """

    def __init__(
        self,
        spec: PipelineSpec,
        num_tiles: int,
        max_workers: int | None = None,
        *,
        round_deadline_s: float | None = 30.0,
        max_respawns: int = 3,
        respawn_backoff_s: float = 0.05,
        respawn_backoff_max_s: float = 1.0,
        faults=None,
    ) -> None:
        self._ctx = get_context("fork")
        # Start the resource tracker *before* forking: children then
        # inherit its pipe and the whole family shares one tracker
        # (and one name set).  Left lazy, each worker would spawn its
        # own tracker on first attach, and those trackers — never
        # seeing the parent's unlinks — would warn about (and re-free)
        # segments at worker exit.
        resource_tracker.ensure_running()
        count = max(1, min(max_workers or num_tiles, num_tiles))
        self._spec = spec
        self._registry = SegmentRegistry()
        self._arena = _ShmArena(
            prefix=f"repro-p{os.getpid()}-{next(_ARENA_IDS)}",
            registry=self._registry,
        )
        self._tiles_by_worker = [
            list(range(num_tiles))[i::count] for i in range(count)
        ]
        self._tile_to_worker = {
            tile: i
            for i, tiles in enumerate(self._tiles_by_worker)
            for tile in tiles
        }
        self._conns = [None] * count
        self._procs = [None] * count
        for i in range(count):
            self._spawn(i)
        self._worker_segments: dict[int, SharedMemory] = {}
        self._latest_stats = [DeltaBuildStats() for _ in range(num_tiles)]
        #: Cumulative pipe bytes both ways (the shm arrays are not
        #: counted — they are exchanged, not copied through the pipe).
        #: Only *delivered* payloads count: a send that fails, or a
        #: reply never received, books nothing.
        self.ipc_bytes_total = 0
        self._closed = False
        self._round = 0
        self._faults = faults
        self._deadline = round_deadline_s
        self._max_respawns = int(max_respawns)
        self._backoff = float(respawn_backoff_s)
        self._backoff_max = float(respawn_backoff_max_s)
        #: Supervision events since the last drain (``(kind, detail)``);
        #: the builder forwards them to the observer each round.
        self.events: list[tuple[str, dict]] = []
        self.respawns_total = 0
        self.respawn_seconds_total = 0.0

    # -- the runner interface ----------------------------------------------

    def run(self, messages, now, predicted_workers, predicted_tasks):
        if self._closed:
            raise RuntimeError("shm tile runner is closed")
        self._round += 1
        round_index = self._round
        #: Tiles whose ``None`` outcome this call means "worker failed,
        #: fresh worker needs a re-prime" — distinguishing them from a
        #: pipeline genuinely rejecting a payload.
        self.last_failed_tiles: set[int] = set()
        columns = self._pack_columns(predicted_workers, predicted_tasks)
        groups: dict[int, list[TileRoundMessage]] = {}
        for message in messages:
            groups.setdefault(self._tile_to_worker[message.tile], []).append(message)
        failed: dict[int, str] = {}
        for worker, group in groups.items():
            body = {"now": now, "columns": columns, "messages": group}
            if self._faults is not None:
                directive = self._faults.shard_directive(worker, round_index)
                if directive is not None:
                    body["fault"] = directive
            payload = pickle.dumps(body)
            if self._faults is not None:
                action = self._faults.pipe_fault(worker, round_index)
                if action == "drop":
                    # Never sent: the worker stays silently healthy and
                    # only the recv deadline can tell — the detection
                    # path a lost message exercises in production.
                    continue
                if action == "garble":
                    payload = b"\xde\xad" + payload[:32]
            try:
                self._conns[worker].send_bytes(payload)
            except (BrokenPipeError, OSError):
                failed[worker] = "worker_death"
                continue
            self.ipc_bytes_total += len(payload)
        outcome_by_tile: dict[int, TileRoundOutcome | None] = {}
        for worker, group in groups.items():
            if worker in failed:
                continue
            try:
                if self._deadline is not None and not self._conns[worker].poll(
                    self._deadline
                ):
                    failed[worker] = "deadline_timeout"
                    continue
                data = self._conns[worker].recv_bytes()
            except (EOFError, OSError):
                failed[worker] = "worker_death"
                continue
            self.ipc_bytes_total += len(data)
            reply = pickle.loads(data)
            segment = self._worker_segment(worker, reply["segment"])
            for tile_message, entry in zip(group, reply["outcomes"]):
                if entry is None:
                    outcome_by_tile[tile_message.tile] = None
                    continue
                arrays = [
                    _take(segment, desc, copy=True) for desc in entry["arrays"]
                ]
                outcome = TileRoundOutcome(
                    tile=entry["tile"],
                    emission=_emission_from_arrays(arrays),
                    delta_stats=entry["delta_stats"],
                    sparse_stats=entry["sparse_stats"],
                    incremental=entry["incremental"],
                )
                outcome.emission.incremental = entry["incremental"]
                outcome.emission.build_seconds = entry["build_seconds"]
                self._latest_stats[outcome.tile] = outcome.delta_stats
                outcome_by_tile[outcome.tile] = outcome
        # Surviving workers are fully settled (sent + received) by the
        # time any failure is acted on, so a respawn — or a
        # crash-loop abort — always starts from a known state.
        for worker, cause in failed.items():
            self.events.append(
                ("worker_death" if cause == "worker_death" else "deadline_timeout",
                 {"worker": worker, "round": round_index}),
            )
            self._respawn(worker)
            for tile_message in groups[worker]:
                outcome_by_tile[tile_message.tile] = None
                self.last_failed_tiles.add(tile_message.tile)
        return [outcome_by_tile.get(message.tile) for message in messages]

    def delta_stats_by_tile(self) -> list[DeltaBuildStats]:
        return list(self._latest_stats)

    def close(self) -> None:
        """Stop the workers and unlink every segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        stop = pickle.dumps({"stop": True})
        for conn in self._conns:
            try:
                conn.send_bytes(stop)
            except (BrokenPipeError, OSError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                # SIGKILL, not SIGTERM: a SIGSTOPped worker queues
                # SIGTERM until continued, but nothing stops SIGKILL.
                proc.kill()
                proc.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._arena.close()
        self._registry.close()
        atexit.unregister(self._registry.close)

    # -- internals -----------------------------------------------------------

    def _spawn(self, worker: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._spec, self._tiles_by_worker[worker]),
            daemon=True,
            name=f"repro-shard-{worker}",
        )
        proc.start()
        child_conn.close()
        self._conns[worker] = parent_conn
        self._procs[worker] = proc

    def _respawn(self, worker: int) -> None:
        """Replace a failed worker, budgeted and backed off.

        The dead/hung process is SIGKILLed (works on stopped processes
        too), its pipe and reply segment reclaimed, and a fresh worker
        forked over the same tile set.  The fresh worker's pipelines
        are cold; the caller reports its tiles as ``None`` so the
        builder's refresh retry re-primes them this same round.
        Exhausting ``max_respawns`` raises
        :class:`~repro.streaming.pipeline.TileRunnerBroken` instead.
        """
        if self.respawns_total >= self._max_respawns:
            raise TileRunnerBroken(
                f"shard worker {worker} failed after {self.respawns_total} "
                f"respawns (budget {self._max_respawns}); degrading to the "
                "serial path"
            )
        started = monotonic()
        self.respawns_total += 1
        proc = self._procs[worker]
        if proc.is_alive():
            proc.kill()
        proc.join(timeout=5.0)
        try:
            self._conns[worker].close()
        except OSError:
            pass
        segment = self._worker_segments.pop(worker, None)
        if segment is not None:
            self._registry.release(segment.name)
        delay = min(
            self._backoff * (2.0 ** (self.respawns_total - 1)), self._backoff_max
        )
        if delay > 0.0:
            self.events.append(
                ("backoff_wait", {"worker": worker, "seconds": delay})
            )
            time.sleep(delay)
        self._spawn(worker)
        elapsed = monotonic() - started
        self.respawn_seconds_total += elapsed
        self.events.append(
            ("respawn", {"worker": worker, "seconds": elapsed})
        )

    def _pack_columns(self, pw, pt):
        if pw is None and pt is None:
            return None
        descs = _pack_arrays(self._arena, _columns_to_arrays(pw, pt))
        return {
            "segment": self._arena.name,
            "descs": descs,
            "pw": pw is not None,
            "pt": pt is not None,
        }

    def _worker_segment(self, worker: int, name: str | None):
        if name is None:
            return None
        current = self._worker_segments.get(worker)
        if current is not None and current.name == name:
            return current
        segment = SharedMemory(name=name)
        self._registry.adopt(segment)
        if current is not None:
            self._registry.release(current.name)
        self._worker_segments[worker] = segment
        return segment
