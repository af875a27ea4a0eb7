"""One function per paper figure (Section VI + appendices).

Every public ``fig*`` function sweeps the figure's parameter and
returns a :class:`~repro.experiments.runner.FigureResult` whose curves
mirror the published series.  ``scale`` shrinks entity counts and the
budget proportionally (1.0 = the paper's size); EXPERIMENTS.md records
the scales used for the committed runs.

Real-data figures (10, 12, 13, 23, 24) run on synthesized
Gowalla/Foursquare-style check-in streams (see docs/scenarios.md,
"Check-in based real data", for the substitution rationale); the record counts keep the paper's worker:task
ratio (6,143 : 8,481 in the San Francisco extraction).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.config import ExperimentConfig, scaled_config
from repro.experiments.runner import (
    AlgorithmSpec,
    FigureResult,
    SeriesPoint,
    run_figure,
    run_simulation,
    standard_algorithms,
    wp_wop_algorithms,
)
from repro.core.random_assign import RandomAssigner
from repro.workloads.checkins import (
    SAN_FRANCISCO_BOUNDS,
    CheckinGeneratorConfig,
    generate_checkins,
)
from repro.workloads.real import RealWorkload
from repro.workloads.synthetic import SyntheticWorkload

# The paper's San Francisco extraction: 6,143 Gowalla users as workers
# and 8,481 Foursquare check-ins as tasks.
_REAL_WORKERS_FULL = 6143
_REAL_TASKS_FULL = 8481

_BUDGETS_FULL = (100.0, 200.0, 300.0, 400.0, 500.0)
_QUALITY_RANGES = ((0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0))
_DEADLINE_RANGES = ((0.25, 0.5), (0.5, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0))
_VELOCITY_RANGES = ((0.1, 0.2), (0.2, 0.3), (0.3, 0.4), (0.4, 0.5))
_UNIT_PRICES = (5.0, 10.0, 15.0, 20.0)
_TIME_INSTANCES = (10, 15, 20, 25)
_ENTITY_COUNTS_FULL = (1000, 3000, 5000, 8000, 10000)
_WINDOW_SIZES = (1, 2, 3, 4, 5)
_DISTRIBUTION_COMBOS = (
    "G-U", "G-G", "G-Z", "U-U", "U-G", "U-Z", "Z-U", "Z-G", "Z-Z",
)


def _mean_or_nan(values) -> float:
    present = [v for v in values if v is not None]
    if not present:
        return float("nan")
    return sum(present) / len(present)


def _range_label(bounds: tuple[float, float]) -> str:
    low, high = bounds
    fmt = lambda v: f"{v:g}"  # noqa: E731 - tiny local formatter
    return f"[{fmt(low)},{fmt(high)}]"


def _synthetic(config: ExperimentConfig) -> SyntheticWorkload:
    return SyntheticWorkload(config.params, seed=config.seed)


def _real(config: ExperimentConfig, scale: float) -> RealWorkload:
    """Check-in-based workload at the paper's worker:task ratio."""
    rng = np.random.default_rng(config.seed + 104729)
    worker_records = generate_checkins(
        CheckinGeneratorConfig(
            num_records=max(int(round(_REAL_WORKERS_FULL * scale)), 1),
            num_users=max(int(round(_REAL_WORKERS_FULL * scale / 4)), 1),
        ),
        rng,
    )
    task_records = generate_checkins(
        CheckinGeneratorConfig(
            num_records=max(int(round(_REAL_TASKS_FULL * scale)), 1),
            num_users=max(int(round(_REAL_TASKS_FULL * scale / 4)), 1),
            num_hotspots=10,
            drift_amplitude=0.35,
        ),
        rng,
    )
    # Explicit bounds keep the unit-square mapping aligned with the
    # generator's intensity grid (exact cell nesting; see checkins.py).
    return RealWorkload(
        worker_records,
        task_records,
        config.params,
        seed=config.seed,
        bounds=SAN_FRANCISCO_BOUNDS,
    )


# --------------------------------------------------------------------------
# Fig. 10 — prediction accuracy vs window size w
# --------------------------------------------------------------------------

def fig10(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 10: average relative error of count prediction vs ``w``.

    Curves: Worker(S) / Task(S) on synthetic data, Worker(R) / Task(R)
    on (simulated) real data.  The ``quality`` field of each point
    holds the error in percent (this figure measures accuracy, not
    assignment quality).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    curves = ["Worker(S)", "Task(S)", "Worker(R)", "Task(R)"]
    points: list[SeriesPoint] = []
    for window in _WINDOW_SIZES:
        # Zero budget: the probe makes no assignments, so the observed
        # arrival stream is exactly the workload's (no released-worker
        # feedback) — Fig. 10 evaluates the predictor, not an assigner.
        spec = AlgorithmSpec("probe", RandomAssigner, use_prediction=True)
        for suffix in ("S", "R"):
            worker_errors, task_errors, cpu = [], [], []
            for r in range(repeats):
                config = scaled_config(scale, seed + 1000 * r).with_fields(
                    window=window, budget=0.0
                )
                workload = (
                    _synthetic(config) if suffix == "S" else _real(config, scale)
                )
                result = run_simulation(workload, spec, config)
                worker_errors.append(result.average_worker_prediction_error)
                task_errors.append(result.average_task_prediction_error)
                cpu.append(result.average_cpu_seconds)
            means = {
                "Worker": _mean_or_nan(worker_errors),
                "Task": _mean_or_nan(task_errors),
            }
            for kind, error in means.items():
                points.append(
                    SeriesPoint(
                        x_label=str(window),
                        algorithm=f"{kind}({suffix})",
                        quality=100.0 * error,
                        cpu_seconds=sum(cpu) / len(cpu),
                        assigned=0,
                        cost=0.0,
                        worker_prediction_error=_mean_or_nan(worker_errors),
                        task_prediction_error=_mean_or_nan(task_errors),
                    )
                )
    return FigureResult(
        figure_id="fig10",
        title="Prediction accuracy vs window size w (avg relative error, %)",
        x_name="w",
        x_labels=[str(w) for w in _WINDOW_SIZES],
        algorithms=curves,
        points=points,
    )


# --------------------------------------------------------------------------
# Fig. 11 — effect of budget B (synthetic, WP vs WoP)
# --------------------------------------------------------------------------

def fig11(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 11: quality and runtime vs budget ``B``, six WP/WoP curves."""
    budgets = [b * scale for b in _BUDGETS_FULL]
    return run_figure(
        figure_id="fig11",
        title="Effect of the budget B (synthetic)",
        x_name="B",
        x_values=budgets,
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_fields(budget=float(x)),
        algorithms=wp_wop_algorithms(),
        x_formatter=lambda b: f"{b / scale:g}",
        repeats=repeats,
    )


# --------------------------------------------------------------------------
# Figs. 12-16 — one-parameter sweeps, three algorithms
# --------------------------------------------------------------------------

def fig12(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 12: quality range ``[q-, q+]`` sweep (real data)."""
    return run_figure(
        figure_id="fig12",
        title="Effect of the quality score range (real data)",
        x_name="[q-,q+]",
        x_values=list(_QUALITY_RANGES),
        make_workload=lambda x, config: _real(config, scale),
        make_config=lambda x: scaled_config(scale, seed).with_params(quality_range=x),
        algorithms=standard_algorithms(),
        x_formatter=_range_label,
        repeats=repeats,
    )


def fig13(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 13: deadline range ``[e-, e+]`` sweep (real data)."""
    return run_figure(
        figure_id="fig13",
        title="Effect of the task deadline range (real data)",
        x_name="[e-,e+]",
        x_values=list(_DEADLINE_RANGES),
        make_workload=lambda x, config: _real(config, scale),
        make_config=lambda x: scaled_config(scale, seed).with_params(deadline_range=x),
        algorithms=standard_algorithms(),
        x_formatter=_range_label,
        repeats=repeats,
    )


def fig14(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 14: velocity range ``[v-, v+]`` sweep (synthetic)."""
    return run_figure(
        figure_id="fig14",
        title="Effect of the worker velocity range (synthetic)",
        x_name="[v-,v+]",
        x_values=list(_VELOCITY_RANGES),
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_params(velocity_range=x),
        algorithms=standard_algorithms(),
        x_formatter=_range_label,
        repeats=repeats,
    )


def fig15(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 15: number of tasks ``m`` sweep (synthetic)."""
    counts = [max(int(round(m * scale)), 1) for m in _ENTITY_COUNTS_FULL]
    return run_figure(
        figure_id="fig15",
        title="Effect of the number of tasks m (synthetic)",
        x_name="m",
        x_values=counts,
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_params(num_tasks=int(x)),
        algorithms=standard_algorithms(),
        x_formatter=lambda m: f"{int(round(m / scale)):d}",
        repeats=repeats,
    )


def fig16(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 16: number of workers ``n`` sweep (synthetic)."""
    counts = [max(int(round(n * scale)), 1) for n in _ENTITY_COUNTS_FULL]
    return run_figure(
        figure_id="fig16",
        title="Effect of the number of workers n (synthetic)",
        x_name="n",
        x_values=counts,
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_params(num_workers=int(x)),
        algorithms=standard_algorithms(),
        x_formatter=lambda n: f"{int(round(n / scale)):d}",
        repeats=repeats,
    )


# --------------------------------------------------------------------------
# Figs. 18-19 — worker x task distribution combinations
# --------------------------------------------------------------------------

def fig18_19(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Figs. 18-19: the nine ``<worker-task>`` distribution combos.

    Fig. 18 is the ``quality`` series, Fig. 19 the ``cpu_seconds``
    series of the same sweep.
    """
    def _config(combo: str) -> ExperimentConfig:
        worker_key, task_key = combo.split("-")
        return scaled_config(scale, seed).with_params(
            worker_distribution=worker_key, task_distribution=task_key
        )

    return run_figure(
        figure_id="fig18_19",
        title="Effect of worker/task location distributions (synthetic)",
        x_name="<workers-tasks>",
        x_values=list(_DISTRIBUTION_COMBOS),
        make_workload=lambda x, config: _synthetic(config),
        make_config=_config,
        algorithms=standard_algorithms(),
        repeats=repeats,
    )


# --------------------------------------------------------------------------
# Figs. 20-21 — time instances R and unit price C
# --------------------------------------------------------------------------

def fig20(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 20: number of time instances ``R`` sweep (synthetic)."""
    return run_figure(
        figure_id="fig20",
        title="Effect of the number of time instances R (synthetic)",
        x_name="R",
        x_values=list(_TIME_INSTANCES),
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_params(
            num_instances=int(x)
        ),
        algorithms=standard_algorithms(),
        repeats=repeats,
    )


def fig21(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 21: unit price ``C`` sweep (synthetic)."""
    return run_figure(
        figure_id="fig21",
        title="Effect of the unit price C (synthetic)",
        x_name="C",
        x_values=list(_UNIT_PRICES),
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_fields(
            unit_cost=float(x)
        ),
        algorithms=standard_algorithms(),
        x_formatter=lambda c: f"{c:g}",
        repeats=repeats,
    )


# --------------------------------------------------------------------------
# Fig. 22 — window size w under three worker distributions
# --------------------------------------------------------------------------

def fig22(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 22: quality vs ``w`` for Gaussian/Uniform/Zipf workers.

    The paper splits this into three panels; here each panel's curves
    carry a distribution suffix (e.g. ``GREEDY (GAUS)``).
    """
    panels = (("GAUS", "gaussian"), ("UNIF", "uniform"), ("ZIPF", "zipf"))
    points: list[SeriesPoint] = []
    curve_labels: list[str] = []
    for panel_label, distribution in panels:
        for base_spec in standard_algorithms():
            curve_labels.append(f"{base_spec.label} ({panel_label})")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for window in _WINDOW_SIZES:
        for panel_label, distribution in panels:
            configs = [
                scaled_config(scale, seed + 1000 * r)
                .with_fields(window=window)
                .with_params(worker_distribution=distribution)
                for r in range(repeats)
            ]
            workloads = [_synthetic(c) for c in configs]
            for base_spec in standard_algorithms():
                runs = [
                    run_simulation(workload, base_spec, config)
                    for workload, config in zip(workloads, configs)
                ]
                points.append(
                    SeriesPoint(
                        x_label=str(window),
                        algorithm=f"{base_spec.label} ({panel_label})",
                        quality=sum(r.total_quality for r in runs) / repeats,
                        cpu_seconds=sum(r.average_cpu_seconds for r in runs) / repeats,
                        assigned=round(sum(r.total_assigned for r in runs) / repeats),
                        cost=sum(r.total_cost for r in runs) / repeats,
                    )
                )
    return FigureResult(
        figure_id="fig22",
        title="Effect of the window size w per worker distribution (synthetic)",
        x_name="w",
        x_labels=[str(w) for w in _WINDOW_SIZES],
        algorithms=curve_labels,
        points=points,
    )


# --------------------------------------------------------------------------
# Figs. 23-27 — WP vs WoP across the main parameters (appendix G)
# --------------------------------------------------------------------------

def fig23(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 23: WP vs WoP across the quality range (real data)."""
    return run_figure(
        figure_id="fig23",
        title="WP vs WoP: quality score range (real data)",
        x_name="[q-,q+]",
        x_values=list(_QUALITY_RANGES),
        make_workload=lambda x, config: _real(config, scale),
        make_config=lambda x: scaled_config(scale, seed).with_params(quality_range=x),
        algorithms=wp_wop_algorithms(),
        x_formatter=_range_label,
        repeats=repeats,
    )


def fig24(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 24: WP vs WoP across the deadline range (real data)."""
    return run_figure(
        figure_id="fig24",
        title="WP vs WoP: task deadline range (real data)",
        x_name="[e-,e+]",
        x_values=list(_DEADLINE_RANGES),
        make_workload=lambda x, config: _real(config, scale),
        make_config=lambda x: scaled_config(scale, seed).with_params(deadline_range=x),
        algorithms=wp_wop_algorithms(),
        x_formatter=_range_label,
        repeats=repeats,
    )


def fig25(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 25: WP vs WoP across the velocity range (synthetic)."""
    return run_figure(
        figure_id="fig25",
        title="WP vs WoP: worker velocity range (synthetic)",
        x_name="[v-,v+]",
        x_values=list(_VELOCITY_RANGES),
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_params(velocity_range=x),
        algorithms=wp_wop_algorithms(),
        x_formatter=_range_label,
        repeats=repeats,
    )


def fig26(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 26: WP vs WoP across the number of tasks (synthetic)."""
    counts = [max(int(round(m * scale)), 1) for m in _ENTITY_COUNTS_FULL]
    return run_figure(
        figure_id="fig26",
        title="WP vs WoP: number of tasks m (synthetic)",
        x_name="m",
        x_values=counts,
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_params(num_tasks=int(x)),
        algorithms=wp_wop_algorithms(),
        x_formatter=lambda m: f"{int(round(m / scale)):d}",
        repeats=repeats,
    )


def fig27(scale: float = 0.1, seed: int = 7, repeats: int = 1) -> FigureResult:
    """Fig. 27: WP vs WoP across the number of workers (synthetic)."""
    counts = [max(int(round(n * scale)), 1) for n in _ENTITY_COUNTS_FULL]
    return run_figure(
        figure_id="fig27",
        title="WP vs WoP: number of workers n (synthetic)",
        x_name="n",
        x_values=counts,
        make_workload=lambda x, config: _synthetic(config),
        make_config=lambda x: scaled_config(scale, seed).with_params(num_workers=int(x)),
        algorithms=wp_wop_algorithms(),
        x_formatter=lambda n: f"{int(round(n / scale)):d}",
        repeats=repeats,
    )


#: Registry: figure id -> (function, short description).
FIGURES = {
    "fig10": (fig10, "Prediction accuracy vs window size w"),
    "fig11": (fig11, "Quality/runtime vs budget B (WP vs WoP, synthetic)"),
    "fig12": (fig12, "Quality/runtime vs quality range (real)"),
    "fig13": (fig13, "Quality/runtime vs deadline range (real)"),
    "fig14": (fig14, "Quality/runtime vs velocity range (synthetic)"),
    "fig15": (fig15, "Quality/runtime vs number of tasks m (synthetic)"),
    "fig16": (fig16, "Quality/runtime vs number of workers n (synthetic)"),
    "fig18_19": (fig18_19, "Quality/runtime vs worker-task distributions"),
    "fig20": (fig20, "Quality/runtime vs number of time instances R"),
    "fig21": (fig21, "Quality/runtime vs unit price C"),
    "fig22": (fig22, "Quality vs window size w per worker distribution"),
    "fig23": (fig23, "WP vs WoP: quality range (real)"),
    "fig24": (fig24, "WP vs WoP: deadline range (real)"),
    "fig25": (fig25, "WP vs WoP: velocity range (synthetic)"),
    "fig26": (fig26, "WP vs WoP: number of tasks m (synthetic)"),
    "fig27": (fig27, "WP vs WoP: number of workers n (synthetic)"),
}


def get_figure(figure_id: str):
    """The ``(function, description)`` entry for ``figure_id``."""
    try:
        return FIGURES[figure_id]
    except KeyError:
        known = ", ".join(sorted(FIGURES))
        raise KeyError(f"unknown figure {figure_id!r}; expected one of: {known}") from None


def run_figure_by_id(
    figure_id: str, scale: float = 0.1, seed: int = 7, repeats: int = 1
) -> FigureResult:
    """Run one registered figure sweep (``repeats`` averages seeds)."""
    function, _ = get_figure(figure_id)
    return function(scale=scale, seed=seed, repeats=repeats)
