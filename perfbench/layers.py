"""Per-layer metrics of one traced pass.

Span times come from :mod:`spans`; counts come from each layer's
public counters (``build_stats``, ``delta_stats``, ``select_stats``,
the server registry, the WAL and checkpoint file sizes), read from the
services the traced pass left behind.  A layer the workload never
crosses reports 0.  Every ratio is reported next to its numerator and
denominator.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.obs.metrics import Histogram

#: Child layers of a round (``engine.advance`` span).
ROUND_CHILDREN = ("prediction", "pipeline", "core")


def pct(samples, q: float) -> float:
    return float(np.percentile(samples, q)) if len(samples) else 0.0


def mean(samples) -> float:
    return float(np.mean(samples)) if len(samples) else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer(span) -> str:
    return span.name.split(".", 1)[0]


def _pooled_histogram(registry, name: str) -> Histogram | None:
    """Merge a histogram's per-tenant series (same bucket bounds)."""
    series = registry.find(name) if registry is not None else []
    if not series:
        return None
    pooled = Histogram(name, bounds=series[0].bounds)
    for h in series:
        pooled.counts = [a + b for a, b in zip(pooled.counts, h.counts)]
        pooled.count += h.count
        pooled.sum += h.sum
        pooled.min = min(pooled.min, h.min)
        pooled.max = max(pooled.max, h.max)
    return pooled


class _Tree:
    """Self time per span and per layer over a span's subtree."""

    def __init__(self, tracer) -> None:
        self.kids = tracer.children()

    def self_time(self, span) -> float:
        return span.duration - sum(c.duration for c in self.kids.get(id(span), ()))

    def layer_self(self, span, out: dict[str, float]) -> None:
        out[_layer(span)] += self.self_time(span)
        for child in self.kids.get(id(span), ()):
            self.layer_self(child, out)

    def child_layers(self, span) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for child in self.kids.get(id(span), ()):
            out[_layer(child)] += child.duration
        return out


def _round_shares(tree: _Tree, rounds, prefix: str, m: dict) -> None:
    total = sum(s.duration for s in rounds)
    children: dict[str, float] = defaultdict(float)
    for span in rounds:
        for layer, seconds in tree.child_layers(span).items():
            children[layer] += seconds
    for layer in ROUND_CHILDREN:
        m[f"{prefix}.share.{layer}"] = ratio(children[layer], total)
    m[f"{prefix}.share.engine_self"] = ratio(total - sum(children.values()), total)


def per_layer(traced, untraced, tracer) -> dict[str, float]:
    """Every per-layer metric of the traced pass ``traced``.

    ``untraced`` is the same op list run without the tracer: the base
    of ``trace.overhead_ratio`` and the pass whose generator health
    (``loadgen.*``) is reported.
    """
    by_name = defaultdict(list)
    for span in tracer.spans:
        by_name[span.name].append(span)
    tree = _Tree(tracer)
    ms = 1e3

    def durations(name: str, nested_only: bool = False) -> list[float]:
        return [
            s.duration for s in by_name[name]
            if not nested_only or s.parent is not None
        ]

    m: dict[str, float] = {}

    # streaming.server
    submit = durations("server.submit")
    drain = durations("server.drain")
    m["server.submit_ms.p50"] = ms * pct(submit, 50)
    m["server.submit_ms.p99"] = ms * pct(submit, 99)
    m["server.drain_ms.p50"] = ms * pct(drain, 50)
    m["server.drain_ms.p99"] = ms * pct(drain, 99)
    wait = _pooled_histogram(traced.registry, "server_admission_wait_seconds")
    m["server.admission_wait_ms.p99"] = ms * wait.percentile(0.99) if wait else 0.0
    rejected = traced.registry.find("server_rejected_total") if traced.registry else []
    m["server.rejected"] = float(sum(c.value for c in rejected))
    m["server.queue_depth.max"] = float(traced.queue_depth_max)

    # streaming.recovery — checkpoints inside a drain, not the one
    # written when the server closes.
    wal = durations("recovery.wal_append")
    checkpoints = durations("recovery.checkpoint", nested_only=True)
    m["recovery.wal_append_ms.p50"] = ms * pct(wal, 50)
    m["recovery.wal_append_ms.p99"] = ms * pct(wal, 99)
    m["recovery.wal_frames"] = float(len(wal))
    m["recovery.wal_bytes"] = float(traced.sizes.get("wal_bytes", 0))
    m["recovery.checkpoint_ms.p50"] = ms * pct(checkpoints, 50)
    m["recovery.checkpoint_ms.max"] = ms * max(checkpoints, default=0.0)
    m["recovery.checkpoints"] = float(len(checkpoints))
    m["recovery.checkpoint_bytes.last"] = float(
        traced.sizes.get("checkpoint_bytes_last", 0)
    )

    # streaming.service
    m["service.drain_ms.p50"] = ms * pct(durations("service.drain"), 50)
    m["service.submit_us.p50"] = 1e6 * pct(durations("service.submit"), 50)

    # streaming.engine: one advance_to per drain, one round each.
    rounds = by_name["engine.advance"]
    engines = [service.engine for service in traced.services.values()]
    m["engine.round_ms.p50"] = ms * pct([s.duration for s in rounds], 50)
    m["engine.self_ms.mean"] = ms * mean([tree.self_time(s) for s in rounds])
    m["engine.rounds"] = float(sum(e.rounds_run for e in engines))
    m["engine.events"] = float(sum(e.events_processed for e in engines))
    m["engine.assignments"] = float(sum(e.num_assignments for e in engines))

    # prediction
    predictions = by_name["prediction.predict"]
    m["prediction.predict_ms.mean"] = ms * mean([s.duration for s in predictions])
    m["prediction.entities.mean"] = mean([s.value for s in predictions])

    # streaming.pipeline + model.delta + model.sparse
    builds = durations("pipeline.build")
    m["pipeline.build_ms.p50"] = ms * pct(builds, 50)
    m["pipeline.build_ms.mean"] = ms * mean(builds)
    candidates = sum(e.build_stats.candidates for e in engines)
    dense = sum(e.build_stats.dense_equivalent for e in engines)
    m["pipeline.candidates"] = float(candidates)
    m["pipeline.dense_equivalent"] = float(dense)
    m["pipeline.pair_ratio"] = ratio(dense, candidates)
    delta = [e.delta_stats for e in engines if e.delta_stats is not None]
    delta_rounds = sum(d.rounds for d in delta)
    incremental = sum(d.incremental_rounds for d in delta)
    m["pipeline.delta_rounds"] = float(delta_rounds)
    m["pipeline.delta_incremental_rounds"] = float(incremental)
    m["pipeline.delta_incremental_rate"] = ratio(incremental, delta_rounds)
    m["pipeline.delta_primes"] = float(sum(d.primes for d in delta))
    m["pipeline.revalidated"] = float(sum(d.revalidated for d in delta))

    # core: assign spans; the select/finalize split from the engine's
    # per-round records.
    assigns = durations("core.assign")
    instances = [i for e in engines for i in e.result().instances]
    m["core.assign_ms.p50"] = ms * pct(assigns, 50)
    m["core.assign_ms.mean"] = ms * mean(assigns)
    m["core.select_ms.mean"] = ms * mean([i.select_seconds for i in instances])
    m["core.finalize_ms.mean"] = ms * mean([i.finalize_seconds for i in instances])
    select = [e.select_stats for e in engines if e.select_stats is not None]
    select_rounds = sum(s.rounds for s in select)
    repaired = sum(s.repaired for s in select)
    m["core.select_rounds"] = float(select_rounds)
    m["core.warm_repaired"] = float(repaired)
    m["core.warm_repair_rate"] = ratio(repaired, select_rounds)
    m["core.rows_survived"] = float(sum(s.rows_survived for s in select))
    m["core.rows_fresh"] = float(sum(s.rows_fresh for s in select))
    m["core.churn_fallbacks"] = float(sum(s.churn_fallbacks for s in select))

    # loadgen: the open loop's own health.
    m["loadgen.lag_ms.p99"] = ms * pct(untraced.lag_s, 99)
    m["loadgen.backlog_end"] = float(untraced.backlog_end)

    # Layer shares of a round, over all rounds and over the middle
    # fifth of rounds by duration (the median round, smoothed).
    _round_shares(tree, rounds, "round", m)
    by_duration = sorted(rounds, key=lambda s: s.duration)
    lo = int(0.4 * len(by_duration))
    hi = max(int(0.6 * len(by_duration)), lo + 1)
    _round_shares(tree, by_duration[lo:hi], "median_round", m)

    # Layer shares of a submit op's service time, from its outermost
    # span, the server's.
    roots = by_name["server.submit"]
    layers: dict[str, float] = defaultdict(float)
    for span in roots:
        tree.layer_self(span, layers)
    total = sum(s.duration for s in roots)
    for layer in ("server", "recovery", "service"):
        m[f"submit.share.{layer}"] = ratio(layers[layer], total)

    # Tracing overhead: summed op time, traced over untraced.
    traced_s = float(sum(traced.op_s))
    untraced_s = float(sum(untraced.op_s))
    m["trace.traced_op_s"] = traced_s
    m["trace.untraced_op_s"] = untraced_s
    m["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
    return m
