#!/usr/bin/env python
"""Gate the bench trajectory: fresh BENCH_*.json vs committed baselines.

The bench CI job regenerates the machine-readable bench results and
then runs this checker against the baselines committed in the repo.
The job fails when:

- a throughput figure (``events_per_second``, ``rounds_per_second``,
  ``speedup_at_500``) drops more than ``--tolerance`` (default 30%)
  below the committed baseline, or
- a pruning ratio falls below the floor *recorded in the baseline*
  (``pair_ratio`` vs ``pair_ratio_floor`` for both streaming legs;
  ``speedup_at_500`` vs ``speedup_floor`` for the matching bench) —
  these are machine-independent and carry no tolerance, or
- an observability ``health`` rate (delta incremental, warm-select
  repair) falls below its recorded floor, or
  the metrics-layer overhead ratio exceeds its recorded ceiling, or
- a sharded variant's ``ipc_bytes_per_round`` exceeds the ceiling
  recorded in the baseline (round messages regressing from churn
  deltas back to full pools), or — on a scaling-asserted fresh run
  with at least 4 cores — the K=4 process backend falls below the
  recorded ``scaling_floor``, or
- the ``serving`` section regresses: recovery stops being
  ``bit_identical``, admission control stops engaging, the tenant
  count falls below its recorded floor, or the admission-latency /
  recovery-time measurements silently disappear.

A baseline file that does not exist passes with a note (first run); a
*fresh* file that does not exist fails, because that means the bench
silently stopped producing its results.

Usage::

    python benchmarks/check_bench_regression.py --baseline ci-baseline --fresh .

Exit code 0 = trajectory holds, 1 = regression (reasons on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Bench files under trajectory control.
BENCH_FILES = ("BENCH_matching.json", "BENCH_streaming.json")

DEFAULT_TOLERANCE = 0.30


def _load(path: Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _check_drop(
    errors: list[str], label: str, fresh: float, baseline: float, tolerance: float
) -> None:
    """Relative-drop rule for wall-clock-derived throughput figures."""
    floor = (1.0 - tolerance) * baseline
    if fresh < floor:
        errors.append(
            f"{label}: {fresh:.1f} dropped more than {tolerance:.0%} below "
            f"the committed {baseline:.1f} (floor {floor:.1f})"
        )


def _check_delta_section(
    baseline: dict, fresh: dict, tolerance: float
) -> list[str]:
    """Guards for the incremental pool-maintenance section.

    The steady-state build speedup is checked against the floor
    *recorded in the baseline* (machine-independent: a ratio of two
    runs from the same process), and both speedups get the relative
    drop rule against the committed values.
    """
    errors: list[str] = []
    base_delta = baseline.get("delta")
    fresh_delta = fresh.get("delta")
    if base_delta is None:
        return errors
    if fresh_delta is None:
        errors.append(
            "streaming: the baseline has a 'delta' section but the fresh "
            "results do not — the delta maintenance bench silently stopped "
            "running"
        )
        return errors
    floor = base_delta.get("build_speedup_floor")
    speedup = fresh_delta.get("steady_state_build_speedup")
    if speedup is None:
        errors.append("streaming delta: fresh results miss steady_state_build_speedup")
        return errors
    if floor is not None and speedup < floor:
        errors.append(
            f"streaming delta: steady_state_build_speedup {speedup} fell "
            f"below the recorded floor {floor}"
        )
    round_floor = base_delta.get("round_speedup_floor")
    round_speedup = fresh_delta.get("round_speedup")
    if round_floor is not None and (
        round_speedup is None or round_speedup < round_floor
    ):
        errors.append(
            f"streaming delta: round_speedup {round_speedup} fell below "
            f"the recorded floor {round_floor}"
        )
    if base_delta.get("steady_state_build_speedup") is not None:
        _check_drop(
            errors,
            "streaming delta: steady_state_build_speedup",
            speedup,
            base_delta["steady_state_build_speedup"],
            tolerance,
        )
    if base_delta.get("round_speedup") is not None and round_speedup is not None:
        _check_drop(
            errors,
            "streaming delta: round_speedup",
            round_speedup,
            base_delta["round_speedup"],
            tolerance,
        )
    return errors


def _check_warm_select_section(
    baseline: dict, fresh: dict, tolerance: float
) -> list[str]:
    """Guards for the persistent-selection (warm-select) section.

    The steady-state select speedup — median cold select phase over
    median warm select phase, both from the same process on the same
    scenario — is machine-independent, so it is checked against the
    floor *recorded in the baseline* with no tolerance; the committed
    speedup values additionally get the relative drop rule.
    """
    errors: list[str] = []
    base_ws = baseline.get("warm_select")
    fresh_ws = fresh.get("warm_select")
    if base_ws is None:
        return errors
    if fresh_ws is None:
        errors.append(
            "streaming: the baseline has a 'warm_select' section but the "
            "fresh results do not — the warm-select bench silently stopped "
            "running"
        )
        return errors
    floor = base_ws.get("select_speedup_floor")
    speedup = fresh_ws.get("steady_state_select_speedup")
    if speedup is None:
        errors.append(
            "streaming warm_select: fresh results miss "
            "steady_state_select_speedup"
        )
        return errors
    if floor is not None and speedup < floor:
        errors.append(
            f"streaming warm_select: steady_state_select_speedup {speedup} "
            f"fell below the recorded floor {floor}"
        )
    if base_ws.get("steady_state_select_speedup") is not None:
        _check_drop(
            errors,
            "streaming warm_select: steady_state_select_speedup",
            speedup,
            base_ws["steady_state_select_speedup"],
            tolerance,
        )
    if (
        base_ws.get("mean_select_speedup") is not None
        and fresh_ws.get("mean_select_speedup") is not None
    ):
        _check_drop(
            errors,
            "streaming warm_select: mean_select_speedup",
            fresh_ws["mean_select_speedup"],
            base_ws["mean_select_speedup"],
            tolerance,
        )
    return errors


#: ``health`` rates checked against the floor *recorded in the
#: baseline*: ``(fresh value key, baseline floor key)``.  The health
#: runs are seeded and bit-identical across machines, so the rates
#: carry no tolerance.
_HEALTH_RATE_FLOORS = (
    ("delta_incremental_rate", "delta_incremental_rate_floor"),
    ("warm_select_repair_rate", "warm_select_repair_rate_floor"),
)


def _check_health_section(baseline: dict, fresh: dict) -> list[str]:
    """Guards for the observability ``health`` section.

    The cache-path service rates (delta incremental, warm-select
    repair) must stay above the floors recorded
    in the baseline — a prime/fallback storm that still produces
    correct results would otherwise regress silently.  The metrics
    layer's per-round overhead ratio must stay under the recorded
    ceiling.
    """
    errors: list[str] = []
    base_health = baseline.get("health")
    fresh_health = fresh.get("health")
    if base_health is None:
        return errors
    if fresh_health is None:
        errors.append(
            "streaming: the baseline has a 'health' section but the fresh "
            "results do not — the observability health bench silently "
            "stopped running"
        )
        return errors
    for value_key, floor_key in _HEALTH_RATE_FLOORS:
        floor = base_health.get(floor_key)
        if floor is None:
            continue
        value = fresh_health.get(value_key)
        if value is None:
            errors.append(f"streaming health: fresh results miss {value_key}")
        elif value < floor:
            errors.append(
                f"streaming health: {value_key} {value} fell below the "
                f"recorded floor {floor}"
            )
    ceiling = base_health.get("metrics_overhead_ratio_ceil")
    overhead = fresh_health.get("metrics_overhead_ratio")
    if ceiling is not None:
        if overhead is None:
            errors.append(
                "streaming health: fresh results miss metrics_overhead_ratio"
            )
        elif overhead > ceiling:
            errors.append(
                f"streaming health: metrics_overhead_ratio {overhead} exceeds "
                f"the recorded ceiling {ceiling}"
            )
    return errors


def _check_phases(
    errors: list[str], leg: str, base_leg: dict, fresh_leg: dict
) -> None:
    """A phase timing that exists in the baseline must keep existing.

    Phase means are machine-dependent, so values are not compared; the
    guard is against a phase silently dropping out of the breakdown
    (e.g. the select/finalize split regressing to a lumped figure).
    """
    base_phases = base_leg.get("phases")
    if base_phases is None:
        return
    fresh_phases = fresh_leg.get("phases")
    if fresh_phases is None:
        errors.append(
            f"streaming {leg}: the baseline records a phase breakdown "
            "but the fresh results do not — phase timing silently "
            "stopped being measured"
        )
        return
    for key in base_phases:
        if key not in fresh_phases:
            errors.append(
                f"streaming {leg}: phase {key!r} is in the committed "
                "breakdown but missing from the fresh results"
            )


def check_streaming(
    baseline: dict, fresh: dict, tolerance: float
) -> list[str]:
    errors: list[str] = []
    floor = baseline.get("pair_ratio_floor")
    for leg in ("no_prediction", "with_prediction"):
        fresh_leg = fresh.get(leg)
        base_leg = baseline.get(leg)
        if fresh_leg is None:
            errors.append(f"streaming: fresh results miss the {leg!r} leg")
            continue
        if floor is not None and fresh_leg["pair_ratio"] < floor:
            errors.append(
                f"streaming {leg}: pair_ratio {fresh_leg['pair_ratio']} fell "
                f"below the recorded floor {floor}"
            )
        if base_leg is not None:
            _check_drop(
                errors,
                f"streaming {leg}: events_per_second",
                fresh_leg["events_per_second"],
                base_leg["events_per_second"],
                tolerance,
            )
            _check_phases(errors, leg, base_leg, fresh_leg)
    errors.extend(_check_delta_section(baseline, fresh, tolerance))
    errors.extend(_check_warm_select_section(baseline, fresh, tolerance))
    errors.extend(_check_health_section(baseline, fresh))
    errors.extend(_check_sharded_section(baseline, fresh, tolerance))
    errors.extend(_check_serving_section(baseline, fresh))
    errors.extend(_check_resilience_section(baseline, fresh))
    return errors


def _check_resilience_section(baseline: dict, fresh: dict) -> list[str]:
    """Guards for the self-healing supervision section.

    Machine-independent facts are hard-gated: ``completed_with_faults``
    is a digest comparison (the faulted run must be bit-identical to
    the fault-free one), and ``rounds_to_recover`` is a deterministic
    count of extra runner invocations per injected fault — creeping
    past the baseline means recovery started needing multiple retry
    passes.  The no-fault polling overhead ratio is gated against the
    ``deadline_overhead_ceil`` recorded in the baseline.  Respawn wall
    time is trajectory data: its presence is enforced, its value is
    not.
    """
    errors: list[str] = []
    base_res = baseline.get("resilience")
    fresh_res = fresh.get("resilience")
    if base_res is None:
        return errors
    if fresh_res is None:
        errors.append(
            "streaming: the baseline has a 'resilience' section but the "
            "fresh results do not — the chaos bench silently stopped running"
        )
        return errors
    if fresh_res.get("completed_with_faults") is not True:
        errors.append(
            "streaming resilience: completed_with_faults is not true — the "
            "faulted run no longer matches the fault-free digest"
        )
    base_rounds = base_res.get("rounds_to_recover")
    rounds = fresh_res.get("rounds_to_recover")
    if base_rounds is not None:
        if rounds is None:
            errors.append(
                "streaming resilience: fresh results miss rounds_to_recover "
                "— the recovery-cost measurement silently stopped"
            )
        elif rounds > base_rounds:
            errors.append(
                f"streaming resilience: rounds_to_recover {rounds} exceeds "
                f"the baseline {base_rounds} — recovery now needs extra "
                "retry passes per fault"
            )
    ceiling = base_res.get("deadline_overhead_ceil")
    overhead = fresh_res.get("deadline_overhead_ratio")
    if ceiling is not None:
        if overhead is None:
            errors.append(
                "streaming resilience: fresh results miss "
                "deadline_overhead_ratio — the no-fault overhead "
                "measurement silently stopped"
            )
        elif overhead > ceiling:
            errors.append(
                f"streaming resilience: deadline_overhead_ratio {overhead} "
                f"exceeds the recorded ceiling {ceiling} — supervised "
                "polling is slowing down the fault-free path"
            )
    for key in ("respawn_seconds", "respawns"):
        if not isinstance(fresh_res.get(key), (int, float)):
            errors.append(
                f"streaming resilience: fresh results miss {key} — the "
                "respawn-cost measurement silently stopped"
            )
    return errors


def _check_serving_section(baseline: dict, fresh: dict) -> list[str]:
    """Guards for the serving-layer section.

    Everything gated here is machine-independent: recovery
    ``bit_identical`` is a digest comparison, admission ``engaged`` is
    a deterministic queue-overflow construction, and the tenant count
    is a configuration fact checked against the floor recorded in the
    baseline.  The wall-clock figures (admission wait percentiles,
    checkpoint/recovery milliseconds) are trajectory data: their
    *presence* is enforced — the measurement silently disappearing is
    a regression — but their values are not.
    """
    errors: list[str] = []
    base_serving = baseline.get("serving")
    fresh_serving = fresh.get("serving")
    if base_serving is None:
        return errors
    if fresh_serving is None:
        errors.append(
            "streaming: the baseline has a 'serving' section but the fresh "
            "results do not — the serving bench silently stopped running"
        )
        return errors
    floor = base_serving.get("tenants_floor")
    tenants = fresh_serving.get("tenants")
    if floor is not None and (tenants is None or tenants < floor):
        errors.append(
            f"streaming serving: tenants {tenants} fell below the recorded "
            f"floor {floor}"
        )
    admission = fresh_serving.get("admission") or {}
    if admission.get("engaged") is not True:
        errors.append(
            "streaming serving: admission control did not engage — the "
            "bounded queue never produced a typed rejection"
        )
    wait_ms = admission.get("wait_ms") or {}
    for quantile in ("p50", "p95", "p99"):
        if not isinstance(wait_ms.get(quantile), (int, float)):
            errors.append(
                f"streaming serving: admission wait_ms misses {quantile} — "
                "the admission-latency measurement silently stopped"
            )
    recovery = fresh_serving.get("recovery") or {}
    if recovery.get("bit_identical") is not True:
        errors.append(
            "streaming serving: recovery is not bit_identical — "
            "checkpoint+journal replay diverged from the uninterrupted run"
        )
    for key in ("checkpoint_ms", "recovery_ms", "replayed_ops"):
        if not isinstance(recovery.get(key), (int, float)):
            errors.append(
                f"streaming serving: recovery section misses {key} — the "
                "recovery-time measurement silently stopped"
            )
    return errors


#: Cores a machine needs before the absolute parallel-scaling floor is
#: armed — below this, process-backend speedup is scheduler noise.
_SCALING_MIN_CORES = 4


def _check_sharded_section(
    baseline: dict, fresh: dict, tolerance: float
) -> list[str]:
    """Guards for the sharded-scaling section.

    Three machine-independence tiers: the serial round throughput gets
    the relative drop rule; the per-variant ``ipc_bytes_per_round`` is
    deterministic for a seeded scenario and is checked against the
    ceiling *recorded in the baseline* with no tolerance (round
    messages regressing from churn deltas back to full pools is a
    many-orders-of-magnitude jump); and the absolute K=4 process
    scaling floor is armed only when the fresh run itself asserted
    scaling (``scaling_asserted`` on a machine with at least
    ``_SCALING_MIN_CORES`` cores) — a laptop run records its numbers
    without being held to a parallelism bar it cannot reach.
    """
    errors: list[str] = []
    base_sharded = baseline.get("sharded")
    fresh_sharded = fresh.get("sharded")
    if base_sharded is None:
        return errors
    if fresh_sharded is None:
        errors.append(
            "streaming: the baseline has a 'sharded' section but the fresh "
            "results do not — the scaling bench silently stopped running"
        )
        return errors
    _check_drop(
        errors,
        "streaming sharded serial: rounds_per_second",
        fresh_sharded["serial"]["rounds_per_second"],
        base_sharded["serial"]["rounds_per_second"],
        tolerance,
    )
    ipc_ceil = base_sharded.get("ipc_bytes_per_round_ceil")
    for label, base_variant in base_sharded.get("variants", {}).items():
        fresh_variant = fresh_sharded.get("variants", {}).get(label)
        if fresh_variant is None:
            continue  # missing variants are caught by the speedup walk
        if ipc_ceil is None or base_variant.get("ipc_bytes_per_round") is None:
            continue
        ipc = fresh_variant.get("ipc_bytes_per_round")
        if ipc is None:
            errors.append(
                f"streaming sharded {label}: fresh results miss "
                "ipc_bytes_per_round — the IPC accounting silently "
                "stopped being measured"
            )
        elif ipc > ipc_ceil:
            errors.append(
                f"streaming sharded {label}: ipc_bytes_per_round {ipc} "
                f"exceeds the recorded ceiling {ipc_ceil} — round "
                "messages regressed toward full pools"
            )
    floor = base_sharded.get("scaling_floor")
    if (
        floor is not None
        and fresh_sharded.get("scaling_asserted")
        and fresh_sharded.get("cpu_count", 0) >= _SCALING_MIN_CORES
    ):
        k4 = fresh_sharded.get("variants", {}).get("K4_process")
        speedup = None if k4 is None else k4.get("speedup_vs_serial")
        if speedup is None:
            errors.append(
                "streaming sharded: fresh results assert scaling but miss "
                "the K4_process speedup_vs_serial figure"
            )
        elif speedup < floor:
            errors.append(
                f"streaming sharded K4_process: speedup_vs_serial {speedup} "
                f"fell below the recorded scaling floor {floor} on a "
                f"{fresh_sharded['cpu_count']}-core scaling-asserted run"
            )
    # The relative speedup trajectory is only comparable between
    # machines with the same core budget.
    if (
        base_sharded.get("scaling_asserted")
        and fresh_sharded.get("scaling_asserted")
        and fresh_sharded.get("cpu_count") == base_sharded.get("cpu_count")
    ):
        for label, base_variant in base_sharded.get("variants", {}).items():
            fresh_variant = fresh_sharded.get("variants", {}).get(label)
            if fresh_variant is None:
                errors.append(f"streaming sharded: fresh results miss {label!r}")
                continue
            _check_drop(
                errors,
                f"streaming sharded {label}: speedup_vs_serial",
                fresh_variant["speedup_vs_serial"],
                base_variant["speedup_vs_serial"],
                tolerance,
            )
    return errors


def check_matching(baseline: dict, fresh: dict, tolerance: float) -> list[str]:
    errors: list[str] = []
    floor = baseline.get("speedup_floor")
    speedup = fresh.get("speedup_at_500")
    if speedup is None:
        errors.append("matching: fresh results miss speedup_at_500")
        return errors
    if floor is not None and speedup < floor:
        errors.append(
            f"matching: speedup_at_500 {speedup} fell below the recorded "
            f"floor {floor}"
        )
    if baseline.get("speedup_at_500") is not None:
        _check_drop(
            errors,
            "matching: speedup_at_500",
            speedup,
            baseline["speedup_at_500"],
            tolerance,
        )
    return errors


_CHECKERS = {
    "BENCH_streaming.json": check_streaming,
    "BENCH_matching.json": check_matching,
}


def check_file(
    name: str, baseline_dir: Path, fresh_dir: Path, tolerance: float
) -> list[str]:
    baseline = _load(baseline_dir / name)
    fresh = _load(fresh_dir / name)
    if baseline is None:
        print(f"{name}: no committed baseline, nothing to compare (pass)")
        return []
    if fresh is None:
        return [f"{name}: bench produced no fresh results at {fresh_dir / name}"]
    return _CHECKERS[name](baseline, fresh, tolerance)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        metavar="DIR",
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        metavar="DIR",
        help="directory holding the freshly produced BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="relative throughput drop that fails the gate (default 0.30)",
    )
    parser.add_argument(
        "--bench",
        action="append",
        choices=BENCH_FILES,
        help="check only these files (default: all)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"tolerance must be in [0, 1), got {args.tolerance}")

    errors: list[str] = []
    for name in args.bench or BENCH_FILES:
        errors.extend(check_file(name, args.baseline, args.fresh, args.tolerance))
    if errors:
        for error in errors:
            print(f"REGRESSION: {error}", file=sys.stderr)
        return 1
    print("bench trajectory holds: no regressions against the committed baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
