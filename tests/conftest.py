"""Shared fixtures for the test suite.

The entity/problem builders live in :mod:`repro.testing` (they are
part of the public API); test modules import them directly with
``from repro.testing import make_problem`` — never ``from conftest
import ...``, which is ambiguous when several conftest modules are
collected in one pytest run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Iterator

import numpy as np
import pytest
from hypothesis import settings

from repro import testing
from repro.geo.box import Box
from repro.geo.grid import GridIndex
from repro.geo.point import Point
from repro.geo.spatial_index import SpatialIndex
from repro.model.entities import Task, Worker
from repro.model.instance import ProblemInstance
from repro.testing import (
    make_predicted_tasks,
    make_predicted_workers,
    make_problem,
)

# Hypothesis profiles: local runs stay fast on the library defaults;
# the CI matrix exports HYPOTHESIS_PROFILE=ci for a deeper, fully
# reproducible sweep (derandomized, so a red CI run is replayable
# locally with the same profile; tests that pin their own
# max_examples keep it, everything else gets the deeper default).
settings.register_profile("dev", settings.get_profile("default"))
settings.register_profile(
    "ci", max_examples=200, derandomize=True, deadline=None, print_blob=True
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)


@pytest.fixture
def fused_rounds() -> Iterator[None]:
    """Build every round through the fused tile pipeline.

    A serial K=1 engine builds its rounds with the dense kernel, so
    tests whose subject is the fused, delta or tile pipeline at K=1
    take this fixture (``pytest.mark.usefixtures("fused_rounds")``);
    see :func:`repro.testing.fused_rounds`.
    """
    with testing.fused_rounds():
        yield


def _clip01(value: float) -> float:
    return float(min(max(value, 0.0), 1.0))


class ChurnWorld:
    """A scriptable stream of entity lifecycle events.

    The shared substrate of the adversarial churn corpus: the delta
    differential (``test_model_delta``), the selection-state
    differential (``test_selection_state``) and the per-tile pipeline
    differential (``test_round_pipeline``) all drive one of these
    through the same :class:`AdversarialScenario` scripts, so the
    incremental layers — pool maintenance and selection repair — face
    the exact same worst-case event streams.

    Entities never move in place: a relocation retires the entity and
    re-arrives it under a fresh id at the new point, which is how the
    streaming engine models movement (a released worker rejoins at its
    task's location under a new id).
    """

    def __init__(self, rng: np.random.Generator, index_gamma: int = 16):
        self.rng = rng
        self.index = SpatialIndex(GridIndex(index_gamma))
        self.workers: list[Worker] = []
        self.tasks: list[Task] = []
        self.now = 0.0
        self._next_id = 0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def arrive_workers(self, count: int) -> None:
        for _ in range(count):
            self.workers.append(
                Worker(
                    id=self._new_id(),
                    location=Point(*self.rng.uniform(0.0, 1.0, 2)),
                    velocity=float(self.rng.uniform(0.05, 0.4)),
                    arrival=self.now,
                )
            )

    def arrive_tasks(self, count: int) -> None:
        for _ in range(count):
            task = Task(
                id=self._new_id(),
                location=Point(*self.rng.uniform(0.0, 1.0, 2)),
                deadline=self.now + float(self.rng.uniform(0.3, 3.0)),
                arrival=self.now,
            )
            self.tasks.append(task)
            self.index.insert(task.id, task.location)

    def remove_workers(self, count: int) -> list[int]:
        removed = []
        for _ in range(min(count, len(self.workers))):
            position = int(self.rng.integers(len(self.workers)))
            removed.append(self.workers.pop(position).id)
        return removed

    def remove_tasks(self, count: int) -> None:
        for _ in range(min(count, len(self.tasks))):
            position = int(self.rng.integers(len(self.tasks)))
            task = self.tasks.pop(position)
            self.index.remove(task.id)

    def _displaced(self, location: Point, scale: float) -> Point:
        step = self.rng.uniform(-scale, scale, 2)
        return Point(_clip01(location.x + step[0]), _clip01(location.y + step[1]))

    def move_tasks(self, count: int, scale: float) -> None:
        """Relocate random tasks: each re-arrives under a fresh id up to
        ``scale`` away (same deadline), appended at the list tail."""
        for _ in range(min(count, len(self.tasks))):
            position = int(self.rng.integers(len(self.tasks)))
            task = self.tasks.pop(position)
            self.index.remove(task.id)
            point = self._displaced(task.location, scale)
            moved = replace(
                task, id=self._new_id(), location=point, box=Box.from_point(point)
            )
            self.tasks.append(moved)
            self.index.insert(moved.id, point)

    def move_workers(self, count: int, scale: float) -> None:
        """Relocate random workers: each re-arrives under a fresh id up
        to ``scale`` away, arriving now, appended at the list tail."""
        for _ in range(min(count, len(self.workers))):
            position = int(self.rng.integers(len(self.workers)))
            worker = self.workers.pop(position)
            point = self._displaced(worker.location, scale)
            self.workers.append(
                replace(
                    worker,
                    id=self._new_id(),
                    location=point,
                    box=Box.from_point(point),
                    arrival=self.now,
                )
            )

    def predicted(self, use_prediction: bool):
        """Fresh predicted entities for this round (empty when off)."""
        if not use_prediction:
            return [], []
        k = int(self.rng.integers(0, 5))
        l = int(self.rng.integers(0, 5))
        seed = int(self.rng.integers(0, 2**31))
        prng = np.random.default_rng(seed)
        return (
            make_predicted_workers(
                prng, k, arrival=self.now + 0.5, id_offset=5_000_000
            ),
            make_predicted_tasks(
                prng, l, arrival=self.now + 0.5, id_offset=6_000_000
            ),
        )


@dataclass(frozen=True)
class AdversarialScenario:
    """One named worst-case churn script.

    ``drive(world, i)`` mutates the world for round ``i``; the test
    then asserts its incremental layer against a from-scratch rebuild.
    """

    name: str
    description: str
    num_rounds: int
    drive: Callable[[ChurnWorld, int], None]


def _relocation_oscillator(world: ChurnWorld, i: int) -> None:
    # Entities relocate (retire + re-arrive under a fresh id) by short
    # hops that mostly stay in their grid cell on even rounds and by
    # long jumps across cell and tile borders on odd rounds, so every
    # round splices rows and columns out of the middle and back in at
    # the tail, and per-tile pools see entities leave and enter their
    # zones.
    world.now += 0.3
    if i == 0:
        world.arrive_workers(10)
        world.arrive_tasks(12)
    scale = 0.02 if i % 2 == 0 else 0.35
    world.move_tasks(6, scale)
    world.move_workers(4, scale)
    world.arrive_tasks(1)


def _mass_expiry_cliff(world: ChurnWorld, i: int) -> None:
    # Rounds of accumulation, then one round wipes out most of the
    # population at once — the survivor set is a sliver and the repair
    # economics flip (fallback territory for ratio-based guards).
    world.now += 0.25
    if i < 3:
        world.arrive_workers(8)
        world.arrive_tasks(10)
    elif i == 3:
        world.remove_tasks((len(world.tasks) * 4) // 5)
        world.remove_workers((len(world.workers) * 4) // 5)
    else:
        world.arrive_workers(2)
        world.arrive_tasks(2)
        world.remove_tasks(1)


def _churn_storm(world: ChurnWorld, i: int) -> None:
    # Half the population is replaced every round while a few more
    # tasks relocate: survivors, dead rows and fresh rows are all large
    # simultaneously.
    world.now += 0.4
    if i == 0:
        world.arrive_workers(12)
        world.arrive_tasks(12)
        return
    world.remove_tasks(len(world.tasks) // 2)
    world.arrive_tasks(len(world.tasks) // 2 + 3)
    world.remove_workers(len(world.workers) // 2)
    world.arrive_workers(len(world.workers) // 2 + 2)
    world.move_tasks(3, 0.15)


def _burst_then_quiet(world: ChurnWorld, i: int) -> None:
    # Arrival bursts separated by dead-quiet rounds (zero churn): the
    # quiet rounds must take the identity-repair path, the bursts the
    # fresh-heavy merge path, back to back.
    world.now += 0.5
    if i % 3 == 0:
        world.arrive_workers(14)
        world.arrive_tasks(16)


#: The named corpus.  Keep scripts deterministic given the world's rng:
#: every entry must drive only the ChurnWorld protocol.
ADVERSARIAL_CHURN_CORPUS = (
    AdversarialScenario(
        "relocation_oscillator",
        "relocations alternating in-cell hops and cross-tile jumps",
        6,
        _relocation_oscillator,
    ),
    AdversarialScenario(
        "mass_expiry_cliff",
        "accumulate, then expire 80% of the population in one round",
        6,
        _mass_expiry_cliff,
    ),
    AdversarialScenario(
        "churn_storm",
        "half the population replaced every round, a few relocating",
        5,
        _churn_storm,
    ),
    AdversarialScenario(
        "burst_then_quiet",
        "arrival bursts separated by zero-churn rounds",
        7,
        _burst_then_quiet,
    ),
)


@pytest.fixture(
    params=ADVERSARIAL_CHURN_CORPUS,
    ids=lambda scenario: scenario.name,
    scope="session",
)
def adversarial_scenario(request) -> AdversarialScenario:
    """Parametrizes a test over the whole adversarial churn corpus."""
    return request.param


@pytest.fixture(scope="session")
def churn_world_cls() -> type[ChurnWorld]:
    """The world class the corpus scripts drive (session-scoped so
    hypothesis tests can take it without a function-scope health-check
    violation)."""
    return ChurnWorld


@pytest.fixture
def small_problem() -> ProblemInstance:
    """Current-only problem, a dozen workers and tasks."""
    return make_problem(seed=3)


@pytest.fixture
def mixed_problem() -> ProblemInstance:
    """Problem with current and predicted entities."""
    return make_problem(
        seed=5, num_predicted_workers=6, num_predicted_tasks=5
    )
