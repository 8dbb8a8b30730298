"""End-to-end ingest benchmark: whole-run events/sec per backend.

``repro.testbed.fastpath`` times the switch kernels on a pre-built
CID stream; this module times the *entire* ingest pipeline — event
generation, cookie encode, LarkSwitch, AggSwitch, verification — via
:class:`~repro.testbed.pipeline.StreamingPipeline`, one fresh pipeline
per (backend, round).  The scalar backend is the pre-optimization
baseline (uncached per-event encode, per-packet switches), so
``speedup_vs_scalar`` is the honest whole-run win of the fast path.

Timings are interleaved best-of-``repeats`` like the other benchmark
drivers: each round runs every backend back to back so a noisy
neighbour penalizes one (backend, round) sample, not a whole backend.

Used by ``python -m repro.cli bench --e2e`` and
``benchmarks/test_e2e.py``; both write ``BENCH_e2e.json``.
"""

from __future__ import annotations

import cProfile
import gc
import time
from typing import Any, Dict, Optional

from repro.core.aggregation import ForwardingMode
from repro.testbed.pipeline import (
    BACKENDS,
    PIPELINE_BACKENDS,
    StreamingPipeline,
)
from repro.testbed.shm_ring import shared_memory_available
from repro.workloads.adcampaign import AdCampaignWorkload

__all__ = ["run_e2e_bench", "profile_e2e", "BACKENDS", "E2E_BACKENDS"]

# What `bench --e2e` measures: the in-process tiers plus the
# persistent ring-fed worker tier (skipped automatically where POSIX
# shared memory is unavailable).
E2E_BACKENDS = PIPELINE_BACKENDS


def _throughput(seconds: float, events: int) -> Dict[str, float]:
    return {
        "seconds": seconds,
        "events_per_second": events / seconds if seconds > 0 else 0.0,
    }


def _new_pipeline(
    backend: str,
    num_users: int,
    seed: int,
    mode: str,
    period_ms: float,
    batch_size: int,
    cache_admission: str = "lru",
) -> StreamingPipeline:
    workload = AdCampaignWorkload(num_users=num_users, seed=seed)
    return StreamingPipeline(
        workload,
        seed=seed,
        mode=mode,
        period_ms=period_ms,
        backend=backend,
        batch_size=batch_size,
        cache_admission=cache_admission,
    )


def _cache_experiment(
    requests_per_second: float,
    duration_ms: float,
    num_users: int,
    mode: str,
    period_ms: float,
    batch_size: int,
    seed: int,
) -> Dict[str, Any]:
    """LRU vs TinyLFU admission on the e2e encode cache, one columnar
    pass each.

    Why the cache runs cold here in the first place (the ``--e2e``
    ``~14%`` hit rate at 2000 users / capacity 4096): the cache key is
    the full cookie tuple ``(user, campaign, click)``, so the key
    space is ``2000 x |campaigns| x 2`` — about 32k distinct keys —
    and the workload draws campaign/click (near-)uniformly per event.
    A capacity-4096 cache over ~32k equiprobable keys cannot beat
    ``capacity / keys ~ 12.8%`` no matter the admission policy; the
    observed rate is cardinality-bound, not churn from epoch
    invalidations (``invalidations`` stays 0) or CID turnover.
    TinyLFU only wins when the key popularity is skewed, so this
    experiment records the measured delta instead of assuming one.
    """
    cells: Dict[str, Any] = {}
    for admission in ("lru", "tinylfu"):
        pipe = _new_pipeline(
            "columnar", num_users, seed, mode, period_ms, batch_size,
            cache_admission=admission,
        )
        try:
            gc.collect()
            t0 = time.perf_counter()
            result = pipe.run(requests_per_second, duration_ms)
            elapsed = time.perf_counter() - t0
        finally:
            pipe.close()
        stats = result.cache_stats
        lookups = stats["hits"] + stats["queued_hits"] + stats["misses"]
        cells[admission] = {
            "seconds": elapsed,
            "hit_rate": stats["hits"] / lookups if lookups else 0.0,
            "stats": stats,
        }
    delta = cells["tinylfu"]["hit_rate"] - cells["lru"]["hit_rate"]
    return {
        **cells,
        "hit_rate_delta": delta,
        "winner": "tinylfu" if delta > 0.005 else "lru",
        "key_space": "user x campaign x click (uniform draws)",
        "diagnosis": (
            "hit rate is bound by key-space cardinality "
            "(capacity / distinct keys), not admission policy or "
            "epoch invalidation"
        ),
    }


def run_e2e_bench(
    requests_per_second: float = 20_000.0,
    duration_ms: float = 1000.0,
    num_users: int = 2000,
    mode: str = ForwardingMode.PERIODICAL,
    period_ms: float = 250.0,
    batch_size: int = 1024,
    seed: int = 42,
    repeats: int = 3,
    cache_admission: str = "lru",
) -> Dict[str, Any]:
    """Whole-run events/sec for scalar / columnar / persistent
    ingest (the persistent tier streams agg batches to a long-lived
    shared-memory ring worker; it is skipped on hosts without POSIX
    shared memory and the result's ``backends`` list says what ran).

    Returns a JSON-ready dict following the ``BENCH_columnar.json``
    conventions (seed, repeats, per-backend ``_throughput`` sections,
    ``speedup_vs_scalar``), plus ``reports_match`` (all backends
    produced the identical aggregation report) and ``verified`` (that
    report matches the workload's independently accumulated ground
    truth).
    """
    backends = [
        backend for backend in E2E_BACKENDS
        if backend != "persistent" or shared_memory_available()
    ]
    best = {backend: float("inf") for backend in backends}
    reports: Dict[str, Any] = {}
    verified: Dict[str, bool] = {}
    events = 0
    cache_stats: Dict[str, Any] = {}
    for _ in range(max(1, repeats)):
        for backend in backends:
            pipe = _new_pipeline(
                backend, num_users, seed, mode, period_ms, batch_size,
                cache_admission=cache_admission,
            )
            try:
                gc.collect()  # same GC starting state for every timed run
                t0 = time.perf_counter()
                result = pipe.run(requests_per_second, duration_ms)
                elapsed = time.perf_counter() - t0
            finally:
                pipe.close()
            best[backend] = min(best[backend], elapsed)
            reports[backend] = result.report
            verified[backend] = result.counts_match_reference()
            events = result.events
            if backend != "scalar":
                cache_stats[backend] = result.cache_stats
    scalar_s = best["scalar"]
    cache_experiment = _cache_experiment(
        requests_per_second, duration_ms, num_users, mode, period_ms,
        batch_size, seed,
    )
    return {
        "events": events,
        "requests_per_second": requests_per_second,
        "duration_ms": duration_ms,
        "unique_users": num_users,
        "mode": mode,
        "period_ms": period_ms,
        "batch_size": batch_size,
        "seed": seed,
        "repeats": repeats,
        "backends": backends,
        **{backend: _throughput(best[backend], events)
           for backend in backends},
        "speedup_vs_scalar": {
            backend: scalar_s / best[backend] if best[backend] > 0 else 0.0
            for backend in backends
        },
        "reports_match": all(
            reports[backend] == reports["scalar"] for backend in backends
        ),
        "verified": all(verified.values()),
        "cache": cache_stats,
        "cache_admission": cache_admission,
        "cache_experiment": cache_experiment,
    }


def profile_e2e(
    path: str,
    backend: str = "columnar",
    requests_per_second: float = 20_000.0,
    duration_ms: float = 1000.0,
    num_users: int = 2000,
    mode: str = ForwardingMode.PERIODICAL,
    period_ms: float = 250.0,
    batch_size: int = 1024,
    seed: int = 42,
) -> Dict[str, Any]:
    """Run one e2e pass under cProfile and dump stats to ``path``
    (inspect with ``python -m pstats`` or snakeviz).  Returns a small
    summary dict (events, seconds, where the dump went)."""
    pipe = _new_pipeline(
        backend, num_users, seed, mode, period_ms, batch_size
    )
    profiler = cProfile.Profile()
    try:
        gc.collect()
        t0 = time.perf_counter()
        profiler.enable()
        result = pipe.run(requests_per_second, duration_ms)
        profiler.disable()
        elapsed = time.perf_counter() - t0
    finally:
        pipe.close()
    profiler.dump_stats(path)
    return {
        "backend": backend,
        "events": result.events,
        "seconds": elapsed,
        "events_per_second": result.events / elapsed if elapsed else 0.0,
        "profile": path,
        "verified": result.counts_match_reference(),
    }
