"""The repository benchmark: one command, two named served workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-journaled --seed 1 --seconds 45 --trace 0

Both workloads send the same seeded traffic, open loop, through a
``StreamServer`` to two tenants (parameters in ``perfbench/inputs.py``):

- ``serve-journaled`` — each tenant is an fsync'ed ``JournaledService``
  with a checkpoint every 8 rounds, so every op crosses the write-ahead
  journal;
- ``serve-memory`` — each tenant is an in-memory ``StreamingService``:
  the same ops, bypassing the recovery layer.

The run generates its inputs from ``--seed``, warms the process up on
a small copy of the workload, then repeats passes over the generated
ops for ``--seconds`` seconds, each against a freshly started server.
Every pass is checked (audit-log invariants, and each tenant's
``state_digest`` against a serial replay).  With ``--trace 0`` the last
stdout line reports the end-to-end metrics; with ``--trace 1`` it runs
one untraced and one traced pass and reports the per-layer metrics, and
writes the spans as Chrome trace JSON under ``perfbench/out/``.  The
metric names and units are those declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"

#: A pass is flagged invalid (the server did not keep up with the
#: offered rate) when more ops than this are still in flight as the
#: schedule ends, or its last reply lands this late after its due time.
#: Its latencies stay honest, being timed from due times, and its
#: outputs are still checked; the flag does not make them wrong.
BACKLOG_LIMIT = 32
TAIL_LIMIT_S = 1.0
#: Set-up samples per run beyond the one each pass takes.
SETUP_REPEATS = 50


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Evidence:
    """Correctness evidence gathered pass by pass."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.invalid: list[str] = []
        self.outcomes: set[tuple] = set()
        self.digests: dict[str, list[tuple[dict, list]]] = {}

    def record(self, spec, p, predicted=frozenset()) -> None:
        from checks import audit, audit_digest

        for name, service in p.services.items():
            self.problems += audit(
                service, p.accepted_ops[name], spec.config, name, predicted
            )
        self.outcomes.add(
            (p.quality, p.assignments,
             tuple(audit_digest(s) for s in p.services.values()))
        )
        for name, digest in p.digests.items():
            self.digests.setdefault(name, []).append((digest, p.accepted_ops[name]))
        if p.backlog_end > BACKLOG_LIMIT:
            self.invalid.append(
                f"open loop fell behind: {p.backlog_end} ops queued at schedule end"
            )
        if p.tail_s > TAIL_LIMIT_S:
            self.invalid.append(
                f"open loop fell behind: last reply {p.tail_s:.3f} s after due"
            )

    def finish(self, spec, inputs) -> None:
        """Checks that run once, after the timed window."""
        from checks import replay_digest

        if len(self.outcomes) != 1:
            self.problems.append(
                f"quality/assignments differ between passes: {sorted(self.outcomes)}"
            )
        by_name = {tenant.name: tenant for tenant in inputs}
        for name, runs in self.digests.items():
            make = functools.partial(by_name[name].make_service, spec)
            references: dict[tuple, dict] = {}
            for digest, ops in runs:
                key = tuple(map(id, ops))
                if key not in references:
                    references[key] = replay_digest(make, ops)
                if digest != references[key]:
                    differing = sorted(k for k in digest if digest[k] != references[key][k])
                    self.problems.append(
                        f"{name}: served state differs from serial replay in {differing}"
                    )
        print(
            "checks: "
            + ("pass" if not self.problems else "FAIL")
            + f" (audit invariants on every pass; digest replay on "
            f"{len(self.digests)} tenant(s))"
        )
        for quality, assignments, audits in sorted(self.outcomes):
            print(
                f"  outcome: quality {quality!r}, engine.assignments {assignments}, "
                f"audit-log sha256 {' '.join(audits)}"
            )
        for problem in self.problems:
            print(f"  violation: {problem}")
        for reason in self.invalid:
            print(f"INVALID pass: {reason}")


def _end_to_end(passes, setups, peak_rss_mb) -> dict[str, float]:
    """End-to-end metrics: each timing is the median over passes of
    that pass's own figure, so one disturbed pass cannot move it."""
    from layers import pct

    def per_pass(figure) -> float:
        return statistics.median(figure(p) for p in passes)

    return {
        "events_per_s": per_pass(lambda p: p.arrivals / p.wall_s),
        "round_ms.p50": per_pass(lambda p: 1e3 * pct(p.round_s, 50)),
        "round_ms.p90": per_pass(lambda p: 1e3 * pct(p.round_s, 90)),
        "op_ms.p50": per_pass(lambda p: 1e3 * pct(p.op_s, 50)),
        "op_ms.p99": per_pass(lambda p: 1e3 * pct(p.op_s, 99)),
        "quality": passes[0].quality,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }


def _report(spec, passes, metrics: dict[str, float], units: dict[str, str]) -> None:
    p = passes[0]
    print(f"workload {spec.name}: {json.dumps(spec.describe())}")
    print(
        f"passes {len(passes)}; per pass: {p.attempted} ops, {len(p.round_s)} rounds, "
        f"quality {p.quality!r}, engine.assignments {p.assignments}"
    )
    print("pass wall s: " + ", ".join(f"{q.wall_s:.3f}" for q in passes))
    lags = sorted(x for q in passes for x in q.lag_s)
    print(
        f"loadgen: lag p99 {1e3 * lags[int(0.99 * (len(lags) - 1))]:.3f} ms, "
        f"backlog at schedule end {max(q.backlog_end for q in passes)}, "
        f"last reply {max(q.tail_s for q in passes):.3f} s after due"
    )
    for name, value in metrics.items():
        print(f"  {name} = {value!r} {units[name]}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    declared_file = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in declared_file[section]}

    import open_loop
    from inputs import WORKLOADS, make_inputs

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = make_inputs(spec, args.seed)
    warm = make_inputs(spec, args.seed, warmup=True)
    workdir = OUT / f"work-{os.getpid()}"
    run_pass = functools.partial(open_loop.run_pass, spec, workdir=workdir)
    setup_once = functools.partial(open_loop.setup_once, spec, workdir=workdir)

    # Warm-up: imports, lazy set-up and allocator state, untimed.
    run_pass(warm).release()
    setup_once(warm)

    evidence = Evidence()
    if args.trace:
        from layers import per_layer
        from spans import Tracer

        untraced = run_pass(inputs)
        evidence.record(spec, untraced)
        untraced.release()
        tracer = Tracer()
        traced = run_pass(inputs, tracer=tracer)
        evidence.record(spec, traced, tracer.predicted_worker_ids)
        passes = [untraced, traced]
        metrics = per_layer(traced, untraced, tracer)
        traced.release()
        tracer.write_chrome(OUT / f"trace-{spec.name}-seed{args.seed}.json")
    else:
        passes = []
        setups = []
        # Start another pass only if one more, as long as the last,
        # still ends inside the window.
        deadline = perf_counter() + args.seconds
        while not passes or perf_counter() + passes[-1].wall_s <= deadline:
            p = run_pass(inputs)
            setups.append(p.setup_s)
            evidence.record(spec, p)
            p.release()
            passes.append(p)
        peak_rss_mb = _peak_rss_mb()
        setups += [setup_once(inputs) for _ in range(SETUP_REPEATS)]
        metrics = _end_to_end(passes, setups, peak_rss_mb)
    evidence.finish(spec, inputs)

    if set(metrics) != set(declared):
        print(
            f"error: measured metrics differ from BENCHMARK.json {section}: "
            f"missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}",
            file=sys.stderr,
        )
        return 3
    _report(spec, passes, metrics, declared)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": not evidence.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in declared.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
