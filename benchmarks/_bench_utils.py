"""Shared machinery for the figure-regeneration benches.

Every bench runs one paper figure at a reduced scale (documented in
EXPERIMENTS.md), prints the same series the paper plots, saves them
under ``benchmarks/results/``, and asserts the qualitative shape the
paper reports.  ``pytest benchmarks/ --benchmark-only`` regenerates
everything.

This module is deliberately *not* a conftest: a second ``conftest``
module on ``sys.path`` shadows ``tests/conftest.py`` during root-level
collection, so the bench helpers live here and bench modules import
them with ``from _bench_utils import ...``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.experiments.figures import run_figure_by_id
from repro.experiments.reporting import format_figure, format_figure_csv

#: Default scale for figure benches (fraction of the paper's entity
#: counts and budget).  Heavier sweeps use _SCALE_HEAVY.
SCALE = 0.06
SCALE_HEAVY = 0.04
SEED = 7

RESULTS_DIR = Path(__file__).parent / "results"

#: Machine-readable perf results live at the repo root (checked in, so
#: the bench trajectory is tracked across PRs; benchmarks/results/ is
#: regenerated output and stays gitignored).
REPO_ROOT = Path(__file__).parent.parent


def bench_writes_enabled() -> bool:
    """True when bench runs may rewrite the committed baselines.

    Only ``REPRO_SCALING_BENCH=1`` (the CI bench job, or a deliberate
    local re-baseline) writes ``BENCH_*.json``; a plain test run only
    asserts, so it leaves the working tree clean.
    """
    return os.environ.get("REPRO_SCALING_BENCH") == "1"


def write_bench_json(name: str, payload: dict) -> Path:
    """Persist one bench's machine-readable results.

    Writes ``BENCH_<name>.json`` at the repository root (only when
    :func:`bench_writes_enabled`) and returns the path.  Numbers are
    rounded by the caller; this helper only fixes the location and
    format so successive PRs diff cleanly.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    if not bench_writes_enabled():
        return path
    path.write_text(
        json.dumps({"bench": name, **payload}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


def merge_bench_json(name: str, payload: dict) -> Path:
    """Merge top-level keys into an existing ``BENCH_<name>.json``.

    Several benches contribute *sections* of one shared trajectory
    file (the throughput legs and the sharded-scaling matrix both
    land in ``BENCH_streaming.json``); merging instead of rewriting
    means a run that only regenerates one section keeps the committed
    others untouched, so partial runs never silently drop trajectory
    data and the file always diffs cleanly.  Like
    :func:`write_bench_json`, a no-op unless :func:`bench_writes_enabled`.
    """
    path = REPO_ROOT / f"BENCH_{name}.json"
    if not bench_writes_enabled():
        return path
    existing: dict = {}
    if path.exists():
        existing = json.loads(path.read_text(encoding="utf-8"))
    existing.update(payload)
    return write_bench_json(name, {k: v for k, v in existing.items() if k != "bench"})


def run_figure_bench(benchmark, figure_id: str, scale: float = SCALE, seed: int = SEED):
    """Run one figure sweep under pytest-benchmark and persist output."""
    result = benchmark.pedantic(
        lambda: run_figure_by_id(figure_id, scale=scale, seed=seed),
        rounds=1,
        iterations=1,
    )
    report = format_figure(result)
    print()
    print(report)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{figure_id}.txt").write_text(report, encoding="utf-8")
    (RESULTS_DIR / f"{figure_id}.csv").write_text(
        format_figure_csv(result), encoding="utf-8"
    )
    return result


def series_mean(result, algorithm: str, measure: str = "quality") -> float:
    values = result.series(algorithm, measure)
    return sum(values) / len(values)
