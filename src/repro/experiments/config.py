"""Experiment configuration: Table IV defaults and proportional scaling.

The paper's default setting is ``n = m = 5K`` entities over ``R = 15``
instances with budget ``B = 300`` — roughly 333 workers/tasks per
instance of which the budget affords a large but not complete fraction.
``scaled_config`` shrinks ``n``, ``m`` and ``B`` by the same factor so
the contention regime (and therefore every qualitative shape) is
preserved while the runtime drops quadratically.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.workloads.base import WorkloadParams


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment cell needs besides the algorithm.

    Attributes:
        params: workload parameters (Table IV).
        budget: per-instance budget ``B``.
        unit_cost: unit price ``C``.
        window: prediction sliding-window size ``w``.
        grid_gamma: prediction grid resolution.
        seed: workload + engine seed.
    """

    params: WorkloadParams
    budget: float = 300.0
    unit_cost: float = 10.0
    window: int = 3
    grid_gamma: int = 10
    seed: int = 7

    def with_params(self, **overrides) -> "ExperimentConfig":
        """A copy with workload-parameter fields replaced."""
        return replace(self, params=replace(self.params, **overrides))

    def with_fields(self, **overrides) -> "ExperimentConfig":
        """A copy with top-level fields replaced."""
        return replace(self, **overrides)


#: Table IV defaults (bold values; see EXPERIMENTS.md, "Deviation analysis",
#: for unbolded choices).
PAPER_DEFAULTS = ExperimentConfig(params=WorkloadParams())


def scaled_config(scale: float = 1.0, seed: int = 7) -> ExperimentConfig:
    """Paper defaults with entity counts and budget scaled by ``scale``.

    ``scale=1.0`` is the full paper setting (n = m = 5000, B = 300);
    ``scale=0.1`` gives the CI-sized run recorded in EXPERIMENTS.md.
    """
    if scale <= 0.0:
        raise ValueError(f"scale must be positive, got {scale}")
    base = PAPER_DEFAULTS
    params = replace(
        base.params,
        num_workers=max(int(round(base.params.num_workers * scale)), 1),
        num_tasks=max(int(round(base.params.num_tasks * scale)), 1),
    )
    return ExperimentConfig(
        params=params,
        budget=base.budget * scale,
        unit_cost=base.unit_cost,
        window=base.window,
        grid_gamma=base.grid_gamma,
        seed=seed,
    )
