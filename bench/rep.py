"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition so that set-up time,
CPU and peak RSS belong to exactly one construct / run / close cycle of
the system under test.  It builds the system through the public entry
points (``StreamingPipeline`` / ``ShardExecutor``), times the ``run()``
call(s), checks the output against the ground truth ``run.py`` worked
out from the seed, and prints one JSON object.

The entry point is guarded: ring workers use the ``spawn`` context and
re-import this file as ``__mp_main__``.
"""

from __future__ import annotations

import argparse
import gc
import json
import multiprocessing
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from metrics import layer_metrics
from spans import Tracer, install_pipeline_proxies, install_worker_proxies
from truth import cookie_key, report_digest
from workloads import (
    APP_ID,
    CACHE_CAPACITY,
    PERIOD_MS,
    REQUESTS_PER_SECOND,
    RUN_PACKETS,
    WARMUP_PACKETS,
    WORKLOADS,
    Workload,
)

SHM_DIR = "/dev/shm"
# Passes of the reference kernel per host-speed sample (about 60 ms).
CALIBRATION_PASSES = 6


def host_speed_sample() -> Tuple[float, float]:
    """Seconds this host takes, right now, for a fixed reference kernel
    that shares no code with the program under test: an interpreter
    loop over a dict plus numpy bincount / sort, the two kinds of work
    the pipeline does.  Taken directly before and after the timed
    region, so ``run.py`` can take the shared host's speed drift out of
    the timings (README, "Noise").  Also returns the CPU seconds the
    sample itself used, which are not the program's."""
    import numpy

    keys = (numpy.arange(200000, dtype=numpy.uint32) * 2654435761) & 0xFFFF
    cpu_started = time.process_time()
    started = time.perf_counter()
    for _pass in range(CALIBRATION_PASSES):
        total = 0
        table = {}
        for i in range(60000):
            table[i & 1023] = total
            total += i * i
        for _ in range(4):
            numpy.bincount(keys, minlength=65536)
            numpy.sort(keys)
    return (
        time.perf_counter() - started,
        time.process_time() - cpu_started,
    )


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime
    )


def _peak_rss_mb() -> float:
    """Linux ru_maxrss is KiB; the children figure is the largest
    reaped child, not their sum."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _shm_segments() -> set:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _leaks(shm_before: set) -> List[str]:
    """After close(): no live child, no new shared-memory segment."""
    problems = []
    alive = multiprocessing.active_children()
    if alive:
        problems.append("%d child process(es) alive after close" % len(alive))
        for child in alive:
            child.kill()
            child.join()
    leaked = _shm_segments() - shm_before
    if leaked:
        problems.append("leaked shm segments: %s" % sorted(leaked))
    return problems


def run_pipeline(
    spec: Workload, seed: int, tracer: Optional[Tracer]
) -> Dict[str, Any]:
    from repro.testbed.pipeline import StreamingPipeline
    from repro.workloads.adcampaign import AdCampaignWorkload

    cpu_start = _cpu_seconds()
    workload = AdCampaignWorkload(num_users=spec.num_users, seed=seed)
    pipeline = StreamingPipeline(
        workload,
        app_id=APP_ID,
        seed=seed,
        period_ms=PERIOD_MS,
        cache_capacity=CACHE_CAPACITY,
        **spec.pipeline,
    )
    try:
        if tracer is not None:
            install_pipeline_proxies(tracer, pipeline)
            tracer.mark_ready()
        ready_at = time.time()
        gc.collect()
        host_before, sample_cpu = host_speed_sample()
        started = time.perf_counter()
        result = pipeline.run(REQUESTS_PER_SECOND, spec.duration_ms)
        wall_s = time.perf_counter() - started
        host_after, more_cpu = host_speed_sample()
    finally:
        pipeline.close()
    cpu_s = _cpu_seconds() - cpu_start - sample_cpu - more_cpu
    problems = []
    if not result.counts_match_reference():
        problems.append("report does not match the pipeline's reference")
    if result.merged != result.payloads - result.dead_letters:
        problems.append(
            "merged %d != payloads %d - dead letters %d"
            % (result.merged, result.payloads, result.dead_letters)
        )
    stats = result.cache_stats
    return {
        "ready_at": ready_at,
        "host_s": [host_before, host_after],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "report": result.report,
        "problems": problems,
        "counts": {
            "events": result.events,
            "batches": result.batches,
            "periods": result.periods,
            "payloads": result.payloads,
            "dead_letters": result.dead_letters,
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"] + stats["queued_hits"],
        },
    }


def run_executor(
    spec: Workload, seed: int, tracer: Optional[Tracer], packets_path: str
) -> Dict[str, Any]:
    import numpy

    from repro.testbed.executor import ShardExecutor, ShardSpec
    from repro.testbed.placement import PartitionMap
    from repro.switch.columns import PacketColumns
    from repro.workloads.adcampaign import AdCampaignWorkload

    # Loading the pre-encoded input is bench preparation, not set-up.
    load_started = time.time()
    packets = numpy.load(packets_path)
    load_s = time.time() - load_started

    cpu_start = _cpu_seconds()
    workload = AdCampaignWorkload(num_users=spec.num_users, seed=seed)
    shards = min(2, os.cpu_count() or 1)
    executor = ShardExecutor(
        ShardSpec(
            kind="lark",
            app_id=APP_ID,
            schema=workload.schema(),
            key=cookie_key(seed),
            specs=tuple(workload.specs()),
            seed=seed,
            mode="periodical",
            period_ms=PERIOD_MS,
        ),
        shards=shards,
        backend="columnar",
        persistent=True,
        placement=PartitionMap(shards),
    )
    problems = []
    report: Dict[str, Dict[Any, int]] = {}
    shard_packets = [0] * shards
    folded = 0

    def checked_run(matrix):
        result = executor.run(PacketColumns.from_matrix(matrix))
        if not result.used_workers or result.fallback_cause:
            problems.append(
                "run left the ring workers: %s" % result.fallback_cause
            )
        return result

    try:
        if tracer is not None:
            tracer.wrap_attr("executor.run", executor, "run")
        # The first run spawns the worker fleet and its rings.
        checked_run(packets[:WARMUP_PACKETS])
        if tracer is not None:
            tracer.mark_ready()
        ready_at = time.time() - load_s
        gc.collect()
        host_before, sample_cpu = host_speed_sample()
        wall_s = 0.0
        for lo in range(0, len(packets), RUN_PACKETS):
            chunk = packets[lo:lo + RUN_PACKETS]
            started = time.perf_counter()
            result = checked_run(chunk)
            wall_s += time.perf_counter() - started
            folded += sum(result.shard_folded)
            for shard, count in enumerate(result.shard_packets):
                shard_packets[shard] += count
            for stat, cells in result.report.items():
                total = report.setdefault(stat, {})
                for key, count in cells.items():
                    total[key] = total.get(key, 0) + count
        host_after, more_cpu = host_speed_sample()
    finally:
        executor.close()
    cpu_s = _cpu_seconds() - cpu_start - sample_cpu - more_cpu
    if sum(shard_packets) != len(packets):
        problems.append(
            "workers saw %d of %d packets"
            % (sum(shard_packets), len(packets))
        )
    return {
        "ready_at": ready_at,
        "host_s": [host_before, host_after],
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "report": report,
        "problems": problems,
        "counts": {
            "events": len(packets),
            "batches": 0,
            "periods": 0,
            "payloads": 0,
            # A packet no replica could decode is this workload's dead
            # letter.
            "dead_letters": sum(shard_packets) - folded,
            "cache_hits": 0,
            "cache_misses": 0,
            "shard_packets": shard_packets,
        },
    }


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--expect-events", type=int, required=True)
    parser.add_argument("--expect-digest", required=True)
    parser.add_argument("--packets")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]

    shm_before = _shm_segments()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install_worker_proxies(tracer)
    if spec.kind == "pipeline":
        out = run_pipeline(spec, args.seed, tracer)
    else:
        out = run_executor(spec, args.seed, tracer, args.packets)

    counts = out["counts"]
    problems = out["problems"] + _leaks(shm_before)
    digest = report_digest(out.pop("report"))
    if counts["events"] != args.expect_events:
        problems.append(
            "events %d != expected %d"
            % (counts["events"], args.expect_events)
        )
    if digest != args.expect_digest:
        problems.append("report digest differs from ground truth")
    out.update(
        problems=problems,
        digest=digest,
        setup_s=out.pop("ready_at") - args.spawned_at,
        peak_rss_mb=_peak_rss_mb(),
        # Operations are events: a dead letter fails one, a failed
        # check fails them all.
        failed=counts["events"] if problems else counts["dead_letters"],
    )
    if tracer is not None:
        out["layers"] = layer_metrics(
            tracer.spans,
            tracer.span_mark,
            tracer.pushes[tracer.push_mark:],
            counts,
        )
        out["spans"] = tracer.spans
        out["span_mark"] = tracer.span_mark
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
