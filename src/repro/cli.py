"""Command-line entry point: figure regeneration and streaming runs.

Usage::

    mqa-experiments list
    mqa-experiments fig11 --scale 0.1 --seed 7
    mqa-experiments all --scale 0.05 --csv out/
    mqa-experiments stream --scenario bursty --round-interval 0.5
    mqa-experiments serve --tenants 4 --num-workers 2

Each figure command runs the corresponding sweep and prints the quality
and runtime series (the same rows the paper plots); ``stream`` replays
a scenario through the event-driven engine and reports throughput;
``serve`` runs the async multi-tenant serving layer (admission
control, per-tenant SLO metrics, optional checkpoint/replay recovery).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.obs.metrics import monotonic
from repro.experiments.figures import FIGURES, run_figure_by_id
from repro.experiments.reporting import figure_to_json, format_figure, format_figure_csv


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqa-experiments",
        description="Regenerate the figures of 'Prediction-Based Task "
        "Assignment in Spatial Crowdsourcing' (ICDE 2017).",
        epilog="The `stream` command runs the event-driven streaming "
        "engine instead of a figure sweep; see `mqa-experiments stream "
        "--help` for its options.",
    )
    parser.add_argument(
        "figure",
        help="figure id (see `list`), `all`, `list`, `stream`, or `serve`",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.1,
        help="entity-count/budget scale relative to the paper (default 0.1)",
    )
    parser.add_argument("--seed", type=int, default=7, help="random seed (default 7)")
    parser.add_argument(
        "--csv",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write <figure>.csv files into DIR",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="independent repetitions per sweep point, averaged (default 1)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=None,
        metavar="DIR",
        help="also write <figure>.json files into DIR",
    )
    return parser


def _run_one(
    figure_id: str,
    scale: float,
    seed: int,
    csv_dir: Path | None,
    json_dir: Path | None,
    repeats: int = 1,
) -> None:
    result = run_figure_by_id(figure_id, scale=scale, seed=seed, repeats=repeats)
    print(format_figure(result))
    if csv_dir is not None:
        csv_dir.mkdir(parents=True, exist_ok=True)
        path = csv_dir / f"{figure_id}.csv"
        path.write_text(format_figure_csv(result), encoding="utf-8")
        print(f"wrote {path}")
    if json_dir is not None:
        json_dir.mkdir(parents=True, exist_ok=True)
        path = json_dir / f"{figure_id}.json"
        path.write_text(figure_to_json(result), encoding="utf-8")
        print(f"wrote {path}")


def _build_stream_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqa-experiments stream",
        description="Run a scenario through the event-driven streaming engine.",
    )
    parser.add_argument(
        "--scenario",
        choices=("bursty", "hotspot", "citywide", "synthetic"),
        default="bursty",
        help="arrival scenario (default bursty)",
    )
    parser.add_argument("--workers", type=int, default=1000, help="total workers")
    parser.add_argument("--tasks", type=int, default=1000, help="total tasks")
    parser.add_argument("--instances", type=int, default=10, help="time instances")
    parser.add_argument(
        "--round-interval",
        type=float,
        default=0.5,
        help="micro-batch round cadence (1.0 = batch-aligned, default 0.5)",
    )
    parser.add_argument("--budget", type=float, default=60.0, help="budget per round")
    parser.add_argument("--unit-cost", type=float, default=10.0, help="unit price C")
    parser.add_argument(
        "--velocity",
        type=float,
        nargs=2,
        default=(0.2, 0.3),
        metavar=("LOW", "HIGH"),
        help="worker velocity range (default 0.2 0.3)",
    )
    parser.add_argument(
        "--algorithm",
        choices=("greedy", "dc", "random"),
        default="greedy",
        help="assignment algorithm (default greedy)",
    )
    parser.add_argument(
        "--no-prediction", action="store_true", help="disable grid prediction"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="K",
        help="partition the grid into K spatial shards (default 1)",
    )
    parser.add_argument(
        "--backend",
        choices=("process", "thread", "serial"),
        default="serial",
        help="shard execution backend (default serial)",
    )
    parser.add_argument(
        "--hotspots",
        type=int,
        default=4,
        help="hotspot count for the citywide scenario (default 4)",
    )
    parser.add_argument("--seed", type=int, default=7, help="random seed (default 7)")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="FILE", help="write summary JSON"
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the engine's metrics registry snapshot (counters, "
        "gauges, phase histograms with p50/p95/p99) as JSON",
    )
    parser.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="record per-round spans and write Chrome trace-event JSON "
        "(load in chrome://tracing or https://ui.perfetto.dev)",
    )
    return parser


def _stream_workload(args):
    from repro.workloads import (
        BurstyWorkload,
        CitywideMultiHotspotWorkload,
        DriftingHotspotWorkload,
        SyntheticWorkload,
        WorkloadParams,
    )

    params = WorkloadParams(
        num_workers=args.workers,
        num_tasks=args.tasks,
        num_instances=args.instances,
        velocity_range=tuple(args.velocity),
    )
    if args.scenario == "bursty":
        return BurstyWorkload(params, seed=args.seed)
    if args.scenario == "hotspot":
        return DriftingHotspotWorkload(params, seed=args.seed)
    if args.scenario == "citywide":
        return CitywideMultiHotspotWorkload(
            params, seed=args.seed, num_hotspots=args.hotspots
        )
    return SyntheticWorkload(params, seed=args.seed)


def _run_stream_command(argv: list[str]) -> int:
    args = _build_stream_parser().parse_args(argv)
    from repro.core import MQADivideConquer, MQAGreedy, RandomAssigner
    from repro.streaming import ShardingConfig, StreamConfig, prepared_engine

    assigner = {
        "greedy": MQAGreedy,
        "dc": MQADivideConquer,
        "random": RandomAssigner,
    }[args.algorithm]()
    if args.hotspots < 1:
        print("--hotspots must be >= 1", file=sys.stderr)
        return 2
    try:
        config = StreamConfig(
            round_interval=args.round_interval,
            budget=args.budget,
            unit_cost=args.unit_cost,
            use_prediction=not args.no_prediction,
            enable_tracing=args.trace_out is not None,
        )
        sharding = ShardingConfig(num_shards=args.shards, backend=args.backend)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2
    workload = _stream_workload(args)
    engine, events_in = prepared_engine(
        workload, assigner, config=config, seed=args.seed, sharding=sharding
    )
    started = monotonic()
    with engine:
        engine.advance_to(float(workload.num_instances))
    wall = monotonic() - started
    result = engine.result()

    # Phase accounting reads from the engine's metrics registry (the
    # same measurements that populate InstanceMetrics — one timing
    # source); the per-instance sums only back it up when metrics are
    # disabled.
    from repro.obs.export import phase_percentiles

    phases = phase_percentiles(engine.metrics_registry)

    def _mean_ms(phase: str, fallback_field: str) -> float:
        if phase in phases:
            return phases[phase]["mean"]
        total = sum(getattr(i, fallback_field) for i in result.instances)
        return 1000.0 * total / max(len(result.instances), 1)

    mean_latency_ms = _mean_ms("round", "cpu_seconds")
    assign_ms = 1000.0 * sum(i.assign_seconds for i in result.instances)
    rounds_count = max(len(result.instances), 1)
    summary = {
        "scenario": args.scenario,
        "algorithm": args.algorithm,
        "round_interval": args.round_interval,
        "mean_build_ms": _mean_ms("build", "build_seconds"),
        "mean_assign_ms": assign_ms / rounds_count,
        "mean_select_ms": _mean_ms("select", "select_seconds"),
        "mean_finalize_ms": _mean_ms("finalize", "finalize_seconds"),
        "phase_latencies": phases,
        "shards": args.shards,
        "backend": args.backend,
        "events_in": events_in,
        "events_processed": engine.events_processed,
        "rounds": engine.rounds_run,
        "assignments": result.total_assigned,
        "total_quality": result.total_quality,
        "total_cost": result.total_cost,
        "wall_seconds": wall,
        "events_per_second": engine.events_processed / wall if wall > 0 else 0.0,
        "mean_round_latency_ms": mean_latency_ms,
        "candidate_pairs_examined": engine.build_stats.candidates,
        "dense_pairs_equivalent": engine.build_stats.dense_equivalent,
    }
    print(
        f"{args.scenario} / {args.algorithm} / "
        f"{args.shards} shard{'s' if args.shards != 1 else ''} ({args.backend}): "
        f"{summary['rounds']} rounds, {summary['events_processed']} events"
    )
    print(
        f"  assignments {summary['assignments']}  "
        f"quality {summary['total_quality']:.3f}  cost {summary['total_cost']:.3f}"
    )
    print(
        f"  throughput {summary['events_per_second']:.0f} events/s  "
        f"mean round latency {mean_latency_ms:.2f} ms "
        f"(build {summary['mean_build_ms']:.2f} ms, "
        f"select {summary['mean_select_ms']:.2f} ms, "
        f"finalize {summary['mean_finalize_ms']:.2f} ms)"
    )
    if phases:
        detail = "  ".join(
            f"{name} {p['p50']:.2f}/{p['p95']:.2f}/{p['p99']:.2f}"
            for name, p in (
                (n, phases[n])
                for n in ("round", "build", "price", "select", "finalize")
                if n in phases
            )
        )
        print(f"  phase latency p50/p95/p99 ms: {detail}")
    tile_hists = engine.metrics_registry.find("stream_tile_build_seconds")
    if tile_hists:
        parts = [
            f"{dict(h.labels).get('tile', '?')}: {1000.0 * h.mean:.2f}"
            for h in tile_hists
        ]
        reconcile = engine.metrics_registry.find("stream_reconcile_seconds")
        if reconcile and reconcile[0].count:
            parts.append(f"reconcile: {1000.0 * reconcile[0].mean:.2f}")
        print(f"  tile build mean ms: {'  '.join(parts)}")
    select_stats = engine.select_stats
    summary["warm_select"] = {
        "rounds": select_stats.rounds,
        "primes": select_stats.primes,
        "repaired": select_stats.repaired,
        "declined": select_stats.declined,
        "guard_fallbacks": select_stats.guard_fallbacks,
        "churn_fallbacks": select_stats.churn_fallbacks,
    }
    print(
        f"  warm selection: {select_stats.repaired} repaired rounds, "
        f"{select_stats.primes} cold primes, "
        f"{select_stats.churn_fallbacks} churn fallbacks"
    )
    delta_stats = engine.delta_stats
    if delta_stats is not None:
        summary["delta"] = {
            "primes": delta_stats.primes,
            "incremental_rounds": delta_stats.incremental_rounds,
            "rows_joined": delta_stats.rows_joined,
            "cols_joined": delta_stats.cols_joined,
            "pairs_cached": delta_stats.pairs_cached,
        }
        print(
            f"  delta maintenance: {delta_stats.incremental_rounds} incremental "
            f"rounds, {delta_stats.primes} full rebuilds, "
            f"{delta_stats.pairs_cached} pairs cached"
        )
    ratio = (
        summary["dense_pairs_equivalent"] / summary["candidate_pairs_examined"]
        if summary["candidate_pairs_examined"]
        else float("inf")
    )
    print(
        f"  candidate pairs {summary['candidate_pairs_examined']} "
        f"(dense would touch {summary['dense_pairs_equivalent']}, "
        f"{ratio:.1f}x fewer)"
    )
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(summary, indent=2), encoding="utf-8")
        print(f"wrote {args.json}")
    if args.metrics_out is not None:
        from repro.obs.export import write_metrics_json

        write_metrics_json(args.metrics_out, engine.metrics_registry)
        print(f"wrote {args.metrics_out}")
    if args.trace_out is not None:
        engine.trace_recorder.write(args.trace_out)
        print(f"wrote {args.trace_out}")
    return 0


def _build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mqa-experiments serve",
        description="Run the async multi-tenant serving layer: N tenant "
        "engines (one scenario replay each) multiplexed over a worker "
        "pool with admission control and per-tenant SLO metrics.",
    )
    parser.add_argument(
        "--tenants",
        type=int,
        default=4,
        help="concurrent tenant instances (default 4)",
    )
    parser.add_argument(
        "--scenario",
        choices=("bursty", "hotspot", "citywide", "synthetic"),
        default="bursty",
        help="arrival scenario replayed by every tenant (default bursty)",
    )
    parser.add_argument("--workers", type=int, default=30, help="workers per instance")
    parser.add_argument("--tasks", type=int, default=40, help="tasks per instance")
    parser.add_argument("--instances", type=int, default=4, help="instances per tenant")
    parser.add_argument(
        "--hotspots", type=int, default=4, help="hotspots for citywide (default 4)"
    )
    parser.add_argument(
        "--velocity",
        type=float,
        nargs=2,
        default=(0.2, 0.4),
        metavar=("LO", "HI"),
        help="worker velocity range (default 0.2 0.4)",
    )
    parser.add_argument(
        "--round-interval", type=float, default=0.5, help="round cadence (default 0.5)"
    )
    parser.add_argument("--seed", type=int, default=7, help="base seed (default 7)")
    parser.add_argument(
        "--num-workers",
        type=int,
        default=2,
        help="concurrent engine execution slots across tenants (default 2)",
    )
    parser.add_argument(
        "--max-queue-depth",
        type=int,
        default=64,
        help="per-tenant submit queue bound (default 64)",
    )
    parser.add_argument(
        "--recovery-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="journal + checkpoint every tenant under DIR/<tenant> "
        "(crash recovery via replay; see docs/operations.md)",
    )
    parser.add_argument(
        "--op-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-operation execution deadline; an overrunning op "
        "fails with a typed timeout error and wedges its tenant "
        "instead of holding a worker slot (default: no deadline)",
    )
    parser.add_argument(
        "--metrics-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the server registry (admission counters, queue "
        "depth, per-tenant SLO gauges) as a JSON snapshot",
    )
    parser.add_argument(
        "--prometheus-out",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the same registry in Prometheus text exposition",
    )
    return parser


def _run_serve_command(argv: list[str] | None) -> int:
    args = _build_serve_parser().parse_args(argv)
    if args.tenants < 1:
        print("--tenants must be >= 1", file=sys.stderr)
        return 2
    import asyncio

    from repro.core import MQAGreedy
    from repro.streaming import (
        RecoveryError,
        ServerConfig,
        StreamConfig,
        StreamingService,
        StreamServer,
        TenantSpec,
        workload_events,
    )
    from repro.streaming.events import WorkerArrival

    try:
        config = StreamConfig(round_interval=args.round_interval)
    except ValueError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 2

    def tenant_factory(seed):
        workload = _stream_workload(argparse.Namespace(**{**vars(args), "seed": seed}))
        quality_model = workload.quality_model

        def factory():
            return StreamingService(
                MQAGreedy(), quality_model, config=config, seed=seed
            )

        return workload, factory

    async def _serve() -> dict:
        server = StreamServer(
            ServerConfig(
                num_workers=args.num_workers, op_timeout_s=args.op_timeout
            )
        )
        async with server:
            workloads = {}
            for i in range(args.tenants):
                name = f"tenant-{i}"
                workload, factory = tenant_factory(args.seed + i)
                recovery = (
                    args.recovery_dir / name if args.recovery_dir is not None else None
                )
                server.add_tenant(
                    TenantSpec(
                        name=name,
                        max_queue_depth=args.max_queue_depth,
                        recovery_dir=recovery,
                    ),
                    factory,
                )
                workloads[name] = workload

            async def run_tenant(name, workload):
                boundary = args.round_interval
                for event in workload_events(workload):
                    while event.time > boundary:
                        await server.drain(name, boundary)
                        boundary += args.round_interval
                    if isinstance(event, WorkerArrival):
                        await server.submit_worker(name, event.worker, event.time)
                    else:
                        await server.submit_task(name, event.task, event.time)
                await server.drain(name, boundary + 1.0)
                return await server.snapshot(name)

            started = monotonic()
            snapshots = await asyncio.gather(
                *(run_tenant(n, w) for n, w in workloads.items())
            )
            wall = monotonic() - started
            for name, snap in zip(workloads, snapshots):
                print(
                    f"{name}: {snap.rounds_run} rounds, "
                    f"{snap.assignments} assignments, "
                    f"quality {snap.total_quality:.3f}"
                )
            admitted = sum(
                c.value for c in server.registry.find("server_admitted_total")
            )
            rejected = sum(
                c.value for c in server.registry.find("server_rejected_total")
            )
            print(
                f"served {args.tenants} tenants in {wall:.2f}s "
                f"({args.num_workers} slots): {admitted:.0f} ops admitted, "
                f"{rejected:.0f} rejected"
            )
            return {
                "prometheus": server.metrics_prometheus(),
                "json": server.metrics_json(),
            }

    try:
        exports = asyncio.run(_serve())
    except RecoveryError as exc:
        print(f"error: cannot recover tenant state: {exc}", file=sys.stderr)
        print(
            "the recovery directory holds corrupt or divergent state "
            "(checkpoints and journal from different histories, or an "
            "unreadable journal tail).  Follow the recovery procedure in "
            "docs/operations.md: inspect the newest intact checkpoint, "
            "then either restore the matching journal or move the "
            "directory aside to start the tenant fresh.",
            file=sys.stderr,
        )
        return 2
    if args.metrics_out is not None:
        args.metrics_out.parent.mkdir(parents=True, exist_ok=True)
        args.metrics_out.write_text(
            json.dumps(exports["json"], indent=1) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.metrics_out}")
    if args.prometheus_out is not None:
        args.prometheus_out.parent.mkdir(parents=True, exist_ok=True)
        args.prometheus_out.write_text(exports["prometheus"], encoding="utf-8")
        print(f"wrote {args.prometheus_out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "stream":
        return _run_stream_command(argv[1:])
    if argv and argv[0] == "serve":
        return _run_serve_command(argv[1:])
    args = _build_parser().parse_args(argv)

    if args.figure == "list":
        width = max(len(f) for f in FIGURES) + 2
        for figure_id, (_, description) in sorted(FIGURES.items()):
            print(f"{figure_id:<{width}}{description}")
        return 0

    if args.figure == "all":
        for figure_id in sorted(FIGURES):
            _run_one(figure_id, args.scale, args.seed, args.csv, args.json, args.repeats)
        return 0

    if args.figure not in FIGURES:
        known = ", ".join(sorted(FIGURES))
        print(f"unknown figure {args.figure!r}; expected one of: {known}", file=sys.stderr)
        return 2

    _run_one(args.figure, args.scale, args.seed, args.csv, args.json, args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
