"""Event vocabulary and priority queue of the streaming engine.

The streaming layer models the world as a continuous-time stream of
entity lifecycle events instead of pre-batched time instances:

- :class:`WorkerArrival` / :class:`TaskArrival` — an entity joins;
- :class:`TaskExpiry` — a task's deadline passes unassigned;
- :class:`WorkerRelease` — a previously assigned worker finishes
  traveling and rejoins the pool at the task's location.

Events at equal timestamps are ordered by a *phase* so the engine's
micro-batch rounds see exactly the sets the batch framework would:
arrivals and releases stamped at a round boundary are visible to that
round, while an expiry stamped at the boundary removes the task only
afterwards (the batch engine keeps a task whose deadline equals the
current instance in the pool — it simply has no valid pairs left).
Ties beyond the phase fall back to a submission sequence number, so
ordering is total and deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Union

from repro.geo.point import Point
from repro.model.entities import Task, Worker

#: Same-timestamp processing order (smaller first).
PHASE_ARRIVAL = 0
PHASE_RELEASE = 1
PHASE_EXPIRY = 2


@dataclass(frozen=True, slots=True)
class WorkerArrival:
    """A worker joins the available pool at ``time``."""

    time: float
    worker: Worker

    phase = PHASE_ARRIVAL


@dataclass(frozen=True, slots=True)
class TaskArrival:
    """A task is posted at ``time``."""

    time: float
    task: Task

    phase = PHASE_ARRIVAL


@dataclass(frozen=True, slots=True)
class TaskExpiry:
    """Task ``task_id`` reaches its deadline at ``time``."""

    time: float
    task_id: int

    phase = PHASE_EXPIRY


@dataclass(frozen=True, slots=True)
class WorkerRelease:
    """An assigned worker finishes traveling at ``time``.

    ``assignment_seq`` is the global order in which the assignment was
    booked; the engine re-materializes released workers in that order
    (not release-time order), matching the batch engine's busy-list
    iteration so released-worker ids — and therefore their hashed
    quality scores — line up exactly.
    """

    time: float
    location: Point
    velocity: float
    assignment_seq: int

    phase = PHASE_RELEASE


Event = Union[WorkerArrival, TaskArrival, TaskExpiry, WorkerRelease]


class EventQueue:
    """Priority queue over ``(time, phase, seq)`` with stable ties."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, event: Event) -> None:
        heapq.heappush(self._heap, (event.time, event.phase, self._seq, event))
        self._seq += 1

    def latest_time(self, max_phase: int | None = None) -> float | None:
        """Largest queued timestamp, optionally phase-bounded (O(n)).

        ``max_phase=PHASE_RELEASE`` ignores expiry events — the engine
        uses that to avoid fast-forwarding to a far-future deadline
        when deciding how far a no-arg drain must advance.
        """
        times = [
            entry[0]
            for entry in self._heap
            if max_phase is None or entry[1] <= max_phase
        ]
        return max(times) if times else None

    def pop_due(self, time: float, max_phase: int = PHASE_RELEASE) -> list[Event]:
        """Pop the events up to ``time``, in order, as one batch.

        Pops every event strictly before ``time`` and, at exactly
        ``time``, those whose phase is ``<= max_phase`` — the engine
        calls this with ``PHASE_RELEASE`` before a round so boundary
        expiries stay queued until after the round has run.  Each popped
        :class:`TaskArrival` queues its task's :class:`TaskExpiry` on
        the spot: the heap evolves exactly as when each arrival was
        applied as it popped, and an expiry already due (a late-stamped
        arrival) joins the batch in order.
        """
        heap = self._heap
        due = []
        while heap:
            event_time, phase, _, event = heap[0]
            if event_time > time or (event_time == time and phase > max_phase):
                break
            heapq.heappop(heap)
            due.append(event)
            if isinstance(event, TaskArrival):
                task = event.task
                expiry = TaskExpiry(task.deadline, task.id)
                heapq.heappush(heap, (expiry.time, expiry.phase, self._seq, expiry))
                self._seq += 1
        return due
