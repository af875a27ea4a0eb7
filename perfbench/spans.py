"""Span tracer installed around each layer's public entry points.

The benchmark measures the program from the outside: :class:`Tracer`
replaces a handful of class attributes (and the ``predict_entities``
binding the streaming engine calls) with timing wrappers for the
duration of a traced run, and restores the originals afterwards.  No
source file is edited.

Each span records its name, start, end, parent, the op it belongs to
and, inside a round, the round index.  The parent comes from a
per-thread stack.  A span that opens with an empty stack in a server
worker thread is the thread-side half of a served op; it finds its
parent, the still-open ``server.*`` span, through a key both halves
can compute from their arguments (service identity, op kind and
entity id or drain time).  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import threading
from pathlib import Path
from time import perf_counter

from repro.core import MQAGreedy
from repro.obs.trace import TraceRecorder
from repro.streaming import (
    CheckpointWriter,
    JournaledService,
    OpJournal,
    StreamingService,
    StreamServer,
)
from repro.streaming import engine as engine_module
from repro.streaming.engine import StreamingEngine
from repro.streaming.pipeline import FusedRoundBuilder


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "round", "thread", "value")

    def __init__(self, name, parent, op, round_index, thread):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.op = op
        self.round = round_index
        self.thread = thread
        self.value = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _op_key(service, kind: str, arg) -> tuple:
    if kind == "drain":
        return (id(service), kind, arg)
    return (id(service), kind, arg.id)


class Tracer:
    """Records spans around the entry points it is installed on."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._open_ops: dict[tuple, Span] = {}
        self._saved: list[tuple[object, str, object]] = []
        #: Ids of every predicted worker the engine generated.
        self.predicted_worker_ids: set[int] = set()

    # -- span bookkeeping ----------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, key=None, round_index=None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            op = parent.op
            round_index = parent.round if round_index is None else round_index
        else:
            parent = self._open_ops.get(key) if key is not None else None
            op = parent.op if parent is not None else None
        span = Span(name, parent, op, round_index, threading.get_ident())
        stack.append(span)
        with self._lock:
            self.spans.append(span)
        # Start the clock last so the bookkeeping above is not charged
        # to the measured call.
        span.start = perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def _open_async(self, name: str, key: tuple, op: int) -> Span:
        # Coroutines of many ops interleave on the loop thread, so a
        # served op's outer span is kept off the thread stack.
        span = Span(name, None, op, None, threading.get_ident())
        with self._lock:
            self.spans.append(span)
        self._open_ops[key] = span
        span.start = perf_counter()
        return span

    def _close_async(self, span: Span, key: tuple) -> None:
        span.end = perf_counter()
        self._open_ops.pop(key, None)

    # -- wrappers --------------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str, key=None, round_of=None, value_of=None):
        """Time ``owner.attr`` as span ``name``.

        ``key(args)`` names the served op a thread-side root belongs
        to; ``round_of(args)`` stamps the round index; ``value_of``
        extracts a count from the return value.
        """
        fn = vars(owner)[attr]
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(
                name,
                key(args) if key is not None else None,
                round_of(args) if round_of is not None else None,
            )
            try:
                result = fn(*args, **kwargs)
                if value_of is not None:
                    span.value = value_of(result)
                return result
            finally:
                tracer._close(span)

        self._replace(owner, attr, wrapper)

    def wrap_server(self, attr: str, name: str, kind: str, next_op) -> None:
        """Time a ``StreamServer`` coroutine method as span ``name``."""
        fn = vars(StreamServer)[attr]
        tracer = self

        @functools.wraps(fn)
        async def wrapper(server, tenant, *args, **kwargs):
            key = _op_key(server.service(tenant), kind, args[0])
            span = tracer._open_async(name, key, next_op())
            try:
                return await fn(server, tenant, *args, **kwargs)
            finally:
                tracer._close_async(span, key)

        self._replace(StreamServer, attr, wrapper)

    def install(self, next_op) -> None:
        """Wrap every measured layer's entry points.

        ``next_op`` hands out the op id of each served op.  The thread
        side of a served op opens in the tenant's outermost service, a
        ``JournaledService`` or a plain ``StreamingService``, so both
        carry the key that finds the op's ``server.*`` span.
        """
        for attr, kind in (
            ("submit_worker", "worker"),
            ("submit_task", "task"),
            ("drain", "drain"),
        ):
            layer_op = "drain" if kind == "drain" else "submit"
            self.wrap_server(attr, f"server.{layer_op}", kind, next_op)
            self.wrap(
                JournaledService, attr, f"recovery.{layer_op}",
                key=lambda a, kind=kind: _op_key(a[0], kind, a[1]),
            )
            self.wrap(
                StreamingService, attr, f"service.{layer_op}",
                key=lambda a, kind=kind: _op_key(a[0], kind, a[1]),
            )
        self.wrap(OpJournal, "append", "recovery.wal_append")
        self.wrap(CheckpointWriter, "write", "recovery.checkpoint")
        self.wrap(
            StreamingEngine, "advance_to", "engine.advance",
            round_of=lambda a: a[0].rounds_run,
        )
        self.wrap(
            engine_module, "predict_entities", "prediction.predict",
            value_of=self._note_predicted,
        )
        self.wrap(FusedRoundBuilder, "build_round", "pipeline.build")
        self.wrap(MQAGreedy, "assign", "core.assign")

    def _note_predicted(self, result) -> int:
        workers, tasks = result
        self.predicted_worker_ids.update(w.id for w in workers)
        return len(workers) + len(tasks)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- readers ---------------------------------------------------------------

    def children(self) -> dict[int, list[Span]]:
        """Child spans keyed by ``id`` of their parent."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                out.setdefault(id(span.parent), []).append(span)
        return out

    def write_chrome(self, path: Path) -> None:
        """Write the spans as Chrome trace-event JSON, one track per thread."""
        recorder = TraceRecorder(max_events=max(1, len(self.spans)))
        threads: dict[int, int] = {}
        for span in self.spans:
            args = {"op": span.op}
            if span.round is not None:
                args["round"] = span.round
            tid = threads.setdefault(span.thread, len(threads))
            recorder.add_span(span.name, span.start, span.duration, tid=tid, args=args)
        recorder.write(path)
