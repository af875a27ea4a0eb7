"""Timing-free performance gate: Python calls per served round.

Wall-clock gates cannot be tight on a shared host, but the number of
Python-level calls a round makes is deterministic for a fixed input.
This test replays the benchmark's served input shape (one tenant of
``perfbench``'s workloads: Drifting hotspot, 238 workers x 238 tasks,
25 instances, tenant seed 7000 = benchmark seed 7, tenant 0) through a
:class:`~repro.streaming.StreamingService` and counts, with
``sys.setprofile``, every call into a ``repro`` function during the
drains.  Comprehension frames are not counted: Python 3.12 inlines
list/dict/set comprehensions (PEP 709), so counting them would make
the figure depend on the interpreter version.

The ceiling is the current code's count plus a little headroom; a
change that adds Python work to the round has to lower the work
somewhere else or raise the ceiling on purpose.  Ceilings are kept
per interpreter version, and the gate runs only where a figure has
been recorded.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

import repro
from repro.core import MQAGreedy
from repro.streaming import StreamConfig, StreamingService
from repro.workloads import DriftingHotspotWorkload, WorkloadParams

#: Ceiling on calls into ``repro`` per round on the input below, by
#: ``(major, minor)`` interpreter version.  CPython 3.11 measures
#: 1,072.7 (1,264.4 before small single-tile rounds switched to the
#: dense kernel); its ceiling leaves 5% headroom.  Record a version's figure
#: here before the gate enforces on it.
CALLS_PER_ROUND_CEILING = {(3, 11): 1125}

_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"})
_PACKAGE = str(Path(repro.__file__).resolve().parent)


def _served_input():
    params = WorkloadParams(
        num_workers=238,
        num_tasks=238,
        num_instances=25,
        velocity_range=(0.05, 0.08),
        deadline_range=(1.0, 2.0),
    )
    workload = DriftingHotspotWorkload(params, seed=7000)
    service = StreamingService(
        MQAGreedy(),
        workload.quality_model,
        config=StreamConfig(round_interval=1.0),
        seed=7000,
    )
    return workload, service


def calls_per_round() -> tuple[float, int]:
    """``(repro calls per round, rounds)`` over the whole served stream."""
    workload, service = _served_input()
    in_package: dict[object, bool] = {}
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event != "call":
            return
        code = frame.f_code
        inside = in_package.get(code)
        if inside is None:
            inside = in_package[code] = (
                code.co_name not in _COMPREHENSIONS
                and code.co_filename.startswith(_PACKAGE)
            )
        if inside:
            count += 1

    for instance in range(workload.num_instances):
        workers, tasks = workload.arrivals(instance)
        for worker in workers:
            service.submit_worker(worker, float(instance))
        for task in tasks:
            service.submit_task(task, float(instance))
        sys.setprofile(profile)
        try:
            service.drain(float(instance))
        finally:
            sys.setprofile(None)
    rounds = service.engine.rounds_run
    service.close()
    return count / rounds, rounds


@pytest.mark.skipif(
    sys.version_info[:2] not in CALLS_PER_ROUND_CEILING,
    reason="no call figure recorded for this Python version",
)
def test_served_round_call_budget():
    ceiling = CALLS_PER_ROUND_CEILING[sys.version_info[:2]]
    per_round, rounds = calls_per_round()
    assert rounds == 25
    assert per_round > 0, "the profiler saw no repro frames"
    assert per_round <= ceiling, (
        f"{per_round:.0f} repro calls per served round exceeds the ceiling "
        f"{ceiling}"
    )


if __name__ == "__main__":
    print("%.1f calls per round over %d rounds" % calls_per_round())
