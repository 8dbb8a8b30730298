"""Metric tables and the span arithmetic behind the per-layer numbers.

``END_TO_END`` and ``PER_LAYER`` are the single definition of every
metric name, unit and direction; ``run.py --manifest`` renders
``BENCHMARK.json`` from them.  A layer a workload does not exercise
reports 0 (the contract wants every metric on every workload).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Sequence

from spans import ROOTS

# name, unit, better, bound (share of the parent's median by which the
# metric may worsen).  The timing bounds are the contract's maximum:
# even with the host-speed correction, ten-seed quartile spreads on the
# recorded 2-vCPU host reach 6-8 % (README, "Noise"), so the 10 % the
# issue hoped for would not hold.  failed_share is not listed: the
# contract wants metrics that are never 0, so it travels as
# attempted / failed.
END_TO_END = (
    ("events_per_s", "1/s", "higher", 0.25),
    ("cpu_s_per_mevent", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
)

PER_LAYER = (
    ("workloads.generate_ns_per_event", "ns", "lower"),
    ("workloads.reference_ns_per_event", "ns", "lower"),
    ("workloads.cookie_keys_ns_per_event", "ns", "lower"),
    ("workloads.share", "ratio", "lower"),
    ("cookie_cache.encode_ns_per_event", "ns", "lower"),
    ("cookie_cache.hit_ratio", "ratio", "higher"),
    ("cookie_cache.share", "ratio", "lower"),
    ("larkswitch.process_ns_per_packet", "ns", "lower"),
    ("larkswitch.batch_ms_p50", "ms", "lower"),
    ("larkswitch.batch_ms_p90", "ms", "lower"),
    ("larkswitch.end_period_ms_p50", "ms", "lower"),
    ("larkswitch.payloads_per_kpacket", "count", "lower"),
    ("larkswitch.share", "ratio", "lower"),
    ("aggswitch.fold_ns_per_payload", "ns", "lower"),
    ("aggswitch.payloads", "count", "lower"),
    ("aggswitch.dead_letters", "count", "lower"),
    ("aggswitch.readout_ms", "ms", "lower"),
    ("aggswitch.share", "ratio", "lower"),
    ("pipeline.self_ns_per_event", "ns", "lower"),
    ("pipeline.self_share", "ratio", "lower"),
    ("pipeline.batches", "count", "lower"),
    ("pipeline.periods", "count", "lower"),
    ("executor.partition_ns_per_packet", "ns", "lower"),
    ("executor.run_ms_p50", "ms", "lower"),
    ("executor.shard_imbalance", "ratio", "lower"),
    ("executor.share", "ratio", "lower"),
    ("worker.spawn_s", "s", "lower"),
    ("worker.push_ns_per_row", "ns", "lower"),
    ("worker.drain_wait_ms_p50", "ms", "lower"),
    ("worker.drain_wait_share", "ratio", "lower"),
    ("worker.share", "ratio", "lower"),
    ("shm_ring.occupancy_mean", "count", "lower"),
    ("shm_ring.full_share", "ratio", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.spans", "count", "lower"),
)

# Counts that repeat exactly for a seed; run.py refuses a run in which
# two traced repetitions disagree on one of them.
EXACT_COUNTS = (
    "cookie_cache.hit_ratio",
    "aggswitch.payloads",
    "aggswitch.dead_letters",
    "pipeline.batches",
    "pipeline.periods",
    "trace.spans",
)

# A percentile is reported only with at least ten samples beyond it.
P90_MIN_SAMPLES = 100


def percentile(values: Sequence[float], q: float) -> float:
    """Exact nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: List[list],
    span_mark: int,
    pushes: List[list],
    counts: Dict[str, Any],
) -> Dict[str, float]:
    """Every per-layer metric except ``trace.overhead_pct`` (which
    needs the untraced repetitions and is filled in by ``run.py``).
    ``spans[span_mark:]`` and ``pushes`` cover the timed run only;
    earlier spans are set-up (worker spawn, the warm-up run).

    Self time is a span's duration minus its direct children's; a
    layer's share is its spans' self time over the summed root spans,
    so the shares (with ``pipeline.self_share``) sum to 1.
    """
    duration = [end - start for _name, start, end, _parent in spans]
    self_ns = list(duration)
    for index, span in enumerate(spans):
        if span[3] >= 0:
            self_ns[span[3]] -= duration[index]
    total: Dict[str, int] = {}  # summed duration by span name
    own: Dict[str, int] = {}  # summed self time by span name
    samples: Dict[str, List[float]] = {}  # per-call ms by span name
    for index in range(span_mark, len(spans)):
        name = spans[index][0]
        total[name] = total.get(name, 0) + duration[index]
        own[name] = own.get(name, 0) + self_ns[index]
        samples.setdefault(name, []).append(duration[index] / 1e6)
    wall = sum(total.get(root, 0) for root in ROOTS)

    def layer_share(layer: str) -> float:
        return _ratio(
            sum(
                ns
                for name, ns in own.items()
                if name.split(".")[0] == layer and name != "pipeline.run"
            ),
            wall,
        )

    events = counts["events"]
    payloads = counts["payloads"]
    lark_ms = samples.get("larkswitch.process", [])
    rows_pushed = sum(rows for _occupied, _full, rows in pushes)
    shard_packets = counts.get("shard_packets") or []
    lookups = counts["cache_hits"] + counts["cache_misses"]
    return {
        "workloads.generate_ns_per_event": _ratio(
            own.get("workloads.generate", 0), events
        ),
        "workloads.reference_ns_per_event": _ratio(
            own.get("workloads.reference", 0), events
        ),
        "workloads.cookie_keys_ns_per_event": _ratio(
            own.get("workloads.cookie_keys", 0), events
        ),
        "workloads.share": layer_share("workloads"),
        "cookie_cache.encode_ns_per_event": _ratio(
            own.get("cookie_cache.encode", 0), events
        ),
        "cookie_cache.hit_ratio": _ratio(counts["cache_hits"], lookups),
        "cookie_cache.share": layer_share("cookie_cache"),
        "larkswitch.process_ns_per_packet": _ratio(
            own.get("larkswitch.process", 0), events
        ),
        "larkswitch.batch_ms_p50": percentile(lark_ms, 0.5),
        "larkswitch.batch_ms_p90": (
            percentile(lark_ms, 0.9)
            if len(lark_ms) >= P90_MIN_SAMPLES
            else 0.0
        ),
        "larkswitch.end_period_ms_p50": percentile(
            samples.get("larkswitch.end_period", []), 0.5
        ),
        "larkswitch.payloads_per_kpacket": (
            _ratio(payloads * 1000.0, events)
            if "larkswitch.process" in own
            else 0.0
        ),
        "larkswitch.share": layer_share("larkswitch"),
        "aggswitch.fold_ns_per_payload": _ratio(
            own.get("aggswitch.process", 0), payloads
        ),
        "aggswitch.payloads": payloads,
        "aggswitch.dead_letters": counts["dead_letters"],
        "aggswitch.readout_ms": (
            total.get("aggswitch.report", 0)
            + total.get("aggswitch.merge", 0)
        )
        / 1e6,
        "aggswitch.share": layer_share("aggswitch"),
        "pipeline.self_ns_per_event": _ratio(
            own.get("pipeline.run", 0), events
        ),
        "pipeline.self_share": _ratio(own.get("pipeline.run", 0), wall),
        "pipeline.batches": counts["batches"],
        "pipeline.periods": counts["periods"],
        "executor.partition_ns_per_packet": _ratio(
            total.get("executor.partition", 0), events
        ),
        "executor.run_ms_p50": percentile(
            samples.get("executor.run", []), 0.5
        ),
        "executor.shard_imbalance": (
            max(shard_packets) * len(shard_packets) / sum(shard_packets)
            if shard_packets and sum(shard_packets)
            else 0.0
        ),
        "executor.share": layer_share("executor"),
        "worker.spawn_s": sum(
            duration[i]
            for i, span in enumerate(spans)
            if span[0] == "worker.spawn"
        )
        / 1e9,
        "worker.push_ns_per_row": _ratio(
            total.get("worker.push", 0), rows_pushed
        ),
        "worker.drain_wait_ms_p50": percentile(
            samples.get("worker.drain", []), 0.5
        ),
        "worker.drain_wait_share": _ratio(
            total.get("worker.drain", 0), wall
        ),
        "worker.share": layer_share("worker"),
        "shm_ring.occupancy_mean": _ratio(
            sum(occupied for occupied, _full, _rows in pushes),
            len(pushes),
        ),
        "shm_ring.full_share": _ratio(
            sum(1 for _occupied, full, _rows in pushes if full),
            len(pushes),
        ),
        "trace.spans": len(spans),
    }
