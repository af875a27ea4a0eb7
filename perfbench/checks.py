"""Correctness checks on what each pass produced.

Every check reads only the public surface: a service's audit log
(``result().assignments``) judged against the generated op list, and
for the served workload each tenant's ``state_digest`` against a
serial in-process replay.  A check returns a list of violation
messages; an empty list is a pass.

The audit log carries worker ids only, so a worker id outside the
submitted set is taken for a released re-materialization, and the
check bounds how many such ids can exist by each round.  Predicted
ids are told apart only when the caller passes them in: the traced
run collects them from the ``predict_entities`` binding.
"""

from __future__ import annotations

import bisect
import hashlib
from collections import defaultdict

from repro.streaming import state_digest

_EPS = 1e-9


def audit(
    service, ops: list[tuple], config, label: str, predicted=frozenset()
) -> list[str]:
    """Model invariants of one service's assignments.

    - every task is a submitted task, assigned at most once, in a round
      at or after its arrival, released no later than its deadline;
    - every worker is a submitted worker (assigned at or after its
      arrival) or a released re-materialization, never one of the
      ``predicted`` ids, and is assigned at most once; by any round,
      no more distinct released ids are assigned than releases were
      due by then;
    - the realized cost of each round stays within the budget.
    """
    workers = {op[1].id: op[2] for op in ops if op[0] == "worker"}
    tasks = {op[1].id: (op[1], op[2]) for op in ops if op[0] == "task"}
    records = service.result().assignments
    releases = sorted(r.release_time for r in records)
    interval = config.round_interval
    seen_workers: set[int] = set()
    seen_tasks: set[int] = set()
    seen_released: set[int] = set()
    cost: dict[int, float] = defaultdict(float)
    problems: list[str] = []

    def fail(message: str) -> None:
        if len(problems) < 10:
            problems.append(f"{label}: {message}")

    for r in records:
        now = r.instance * interval
        cost[r.instance] += r.cost
        if r.task_id not in tasks:
            fail(f"round {r.instance} assigned unknown task {r.task_id}")
        else:
            task, arrived = tasks[r.task_id]
            if now + _EPS < arrived:
                fail(f"task {r.task_id} assigned at {now} before arriving at {arrived}")
            if r.release_time > task.deadline + _EPS:
                fail(
                    f"task {r.task_id} reached at {r.release_time} after its "
                    f"deadline {task.deadline}"
                )
        if r.task_id in seen_tasks:
            fail(f"task {r.task_id} assigned twice")
        seen_tasks.add(r.task_id)

        if r.worker_id in workers:
            if now + _EPS < workers[r.worker_id]:
                fail(f"worker {r.worker_id} assigned before arriving")
        elif r.worker_id in predicted:
            fail(f"round {r.instance} assigned predicted worker {r.worker_id}")
        else:
            seen_released.add(r.worker_id)
            due = bisect.bisect_right(releases, now + _EPS)
            if len(seen_released) > due:
                fail(
                    f"round {r.instance} assigned worker {r.worker_id}, one of "
                    f"{len(seen_released)} unsubmitted ids with {due} releases due"
                )
        if r.worker_id in seen_workers:
            fail(f"worker {r.worker_id} assigned twice")
        seen_workers.add(r.worker_id)

    budget = config.budget
    for round_index, spent in cost.items():
        if spent > budget + _EPS * max(1.0, budget):
            fail(f"round {round_index} spent {spent} of budget {budget}")
    return problems


def audit_digest(service) -> str:
    """A short hash of the audit log, for comparing runs of one seed."""
    h = hashlib.sha256()
    for r in service.result().assignments:
        h.update(repr(r).encode())
    return h.hexdigest()[:16]


def replay_digest(make_service, ops: list[tuple]) -> dict[str, str]:
    """``state_digest`` of a serial in-process replay of ``ops``."""
    service = make_service()
    try:
        for op in ops:
            if op[0] == "worker":
                service.submit_worker(op[1], op[2])
            elif op[0] == "task":
                service.submit_task(op[1], op[2])
            else:
                service.drain(op[1])
        return state_digest(service.engine)
    finally:
        service.close()
