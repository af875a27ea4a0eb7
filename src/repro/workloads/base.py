"""The workload interface and the Table IV parameter space.

A workload feeds the simulation engine the entities that *newly join*
the system at each time instance; the engine handles carry-over,
deadline expiry and worker release.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

from repro.model.entities import Task, Worker
from repro.model.quality import QualityModel


@dataclass(frozen=True)
class WorkloadParams:
    """The experimental parameter space of Table IV.

    Defaults are the paper's bold settings; parameters the paper leaves
    unbolded default to mid-range values (see EXPERIMENTS.md,
    "Deviation analysis").
    """

    num_workers: int = 5000
    num_tasks: int = 5000
    num_instances: int = 15
    quality_range: tuple[float, float] = (1.0, 2.0)
    deadline_range: tuple[float, float] = (1.0, 2.0)
    velocity_range: tuple[float, float] = (0.2, 0.3)
    worker_distribution: str = "gaussian"
    task_distribution: str = "zipf"
    zipf_skew: float = 0.3
    arrival_wave_amplitude: float = 0.3
    count_noise: float = 0.04
    intensity_resolution: int = 10

    def __post_init__(self) -> None:
        if self.num_workers < 0 or self.num_tasks < 0:
            raise ValueError("entity counts must be non-negative")
        if self.num_instances < 1:
            raise ValueError("need at least one time instance")
        for name, (low, high) in (
            ("quality_range", self.quality_range),
            ("deadline_range", self.deadline_range),
            ("velocity_range", self.velocity_range),
        ):
            if low > high:
                raise ValueError(f"{name}: lower bound {low} exceeds upper bound {high}")
        if not 0.0 < self.velocity_range[0]:
            raise ValueError("velocities must be positive")
        if self.deadline_range[0] <= 0.0:
            raise ValueError("deadlines must leave positive remaining time")
        if not 0.0 <= self.arrival_wave_amplitude < 1.0:
            raise ValueError("arrival_wave_amplitude must be in [0, 1)")
        if self.count_noise < 0.0:
            raise ValueError("count_noise must be non-negative")
        if self.intensity_resolution < 1:
            raise ValueError("intensity_resolution must be >= 1")


@runtime_checkable
class Workload(Protocol):
    """Per-instance entity arrivals plus the quality score model."""

    @property
    def num_instances(self) -> int:
        """Number of time instances ``R``."""
        ...

    @property
    def quality_model(self) -> QualityModel:
        """Quality scores ``q_ij`` for this workload's entities."""
        ...

    def arrivals(self, instance: int) -> tuple[list[Worker], list[Task]]:
        """Workers and tasks newly joining at time instance ``instance``."""
        ...
