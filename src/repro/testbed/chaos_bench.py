"""Crash-recovery benchmark for the supervised shard runtime.

``python -m repro.cli bench --chaos`` drives this: for each seed and
execution backend it runs one hash-partitioned stream through the
:class:`~repro.testbed.supervisor.ShardSupervisor` twice — fault-free,
then with a scripted single-shard crash plus (on the columnar backend)
a scripted mid-run degradation to scalar — and checks the
acceptance-criteria invariants:

* **differential proof** — the faulted run's merged snapshot and
  rendered report are byte-identical to the fault-free run's, and both
  match the scalar-backend reference;
* **tail-only recovery** — the crash replays at most one epoch
  (``recovered_packets <= checkpoint_batches x chunk_size``), i.e. the
  events since the last checkpoint, never the whole run;
* **overhead** — wall-clock and replayed-packet overhead of recovery,
  recorded per seed/backend for the BENCH_chaos.json artifact.

Epochs run over the in-process transport: the replica code is the same
one the ring-fed workers drive, and the CI artifact must not depend on
the runner's shared-memory support.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.chaos.shard_faults import ShardFaultPlan
from repro.core.aggregation import ForwardingMode
from repro.testbed.executor import BACKENDS, ShardSpec
from repro.testbed.fastpath import BENCH_APP_ID, FastpathFixture
from repro.testbed.supervisor import ShardSupervisor

__all__ = ["run_chaos_bench", "DEFAULT_SEEDS"]

DEFAULT_SEEDS: Tuple[int, ...] = (11, 23, 37)


def _spec(fixture: FastpathFixture) -> ShardSpec:
    return ShardSpec(
        kind="lark",
        app_id=BENCH_APP_ID,
        schema=fixture.schema,
        key=fixture.key,
        specs=tuple(fixture.specs),
        seed=fixture.seed,
        mode=ForwardingMode.PERIODICAL,
        period_ms=1000.0,
        dedup=False,
    )


def _supervisor(
    spec: ShardSpec,
    shards: int,
    backend: str,
    chunk_size: int,
    checkpoint_batches: int,
    plan: Optional[ShardFaultPlan],
) -> ShardSupervisor:
    return ShardSupervisor(
        spec,
        shards=shards,
        backend=backend,
        chunk_size=chunk_size,
        checkpoint_batches=checkpoint_batches,
        fault_plan=plan,
        backoff_base_s=0.0,  # benchmark measures replay, not sleeps
        sleep=lambda _s: None,
    )


def run_chaos_bench(
    packets: int = 4000,
    num_users: int = 500,
    shards: int = 3,
    chunk_size: int = 64,
    checkpoint_batches: int = 4,
    seeds: Sequence[int] = DEFAULT_SEEDS,
    backends: Sequence[str] = BACKENDS,
    crash_shard: int = 1,
) -> Dict[str, Any]:
    """Measure recovery overhead and prove crash/degradation identity.

    Returns a JSON-serializable summary; ``all_identical`` and
    ``all_tail_only`` are the gate bits the CLI turns into an exit
    code.
    """
    if crash_shard >= shards:
        raise ValueError("crash_shard must be < shards")
    epoch_size = chunk_size * checkpoint_batches
    by_seed: Dict[str, Any] = {}
    all_identical = True
    all_tail_only = True
    for seed in seeds:
        fixture = FastpathFixture(num_users=num_users, seed=seed)
        stream = [bytes(c) for c in fixture.make_cids(packets)]
        spec = _spec(fixture)
        # The crash lands in epoch 1, so exactly one checkpoint exists
        # to restore from and the replay is a strict tail.
        kill_at = checkpoint_batches
        reference: Optional[Dict[str, Any]] = None
        per_backend: Dict[str, Any] = {}
        for backend in backends:
            baseline_sup = _supervisor(
                spec, shards, backend, chunk_size, checkpoint_batches, None
            )
            started = time.perf_counter()
            baseline = baseline_sup.run(stream)
            baseline_s = time.perf_counter() - started

            plan = ShardFaultPlan(seed=seed).kill_shard(
                crash_shard, at_batch=kill_at
            )
            degraded_to = BACKENDS[0]
            if degraded_to != backend:
                # Mid-run controller degradation, halfway through.
                plan.degrade_backend(
                    max(2, max(baseline.epochs) // 2), degraded_to
                )
            faulted_sup = _supervisor(
                spec, shards, backend, chunk_size, checkpoint_batches, plan
            )
            started = time.perf_counter()
            faulted = faulted_sup.run(stream)
            faulted_s = time.perf_counter() - started

            identical = (
                faulted.snapshot == baseline.snapshot
                and faulted.report == baseline.report
            )
            if reference is None:
                reference = {
                    "snapshot": baseline.snapshot,
                    "report": baseline.report,
                }
            cross_identical = (
                baseline.snapshot == reference["snapshot"]
                and baseline.report == reference["report"]
            )
            # Events replayed must not exceed one epoch per crash —
            # the tail since the last checkpoint, never the whole run.
            tail_only = (
                faulted.crashes >= 1
                and faulted.recovered_packets
                <= faulted.crashes * epoch_size
            )
            all_identical = all_identical and identical and cross_identical
            all_tail_only = all_tail_only and tail_only
            per_backend[backend] = {
                "baseline_s": baseline_s,
                "faulted_s": faulted_s,
                "time_overhead_pct": (
                    (faulted_s - baseline_s) / baseline_s * 100.0
                    if baseline_s > 0
                    else 0.0
                ),
                "crashes": faulted.crashes,
                "retries": faulted.retries,
                "recovered_packets": faulted.recovered_packets,
                "recovered_pct": (
                    faulted.recovered_packets / max(1, len(stream)) * 100.0
                ),
                "checkpoints": faulted.checkpoints,
                "epochs": faulted.epochs,
                "backends_by_epoch": faulted.backends,
                "degraded_to": degraded_to if degraded_to != backend else None,
                "salvaged": faulted.salvaged,
                "identical": identical,
                "cross_backend_identical": cross_identical,
                "tail_only": tail_only,
            }
        by_seed[str(seed)] = per_backend
    return {
        "packets": packets,
        "num_users": num_users,
        "shards": shards,
        "chunk_size": chunk_size,
        "checkpoint_batches": checkpoint_batches,
        "epoch_size": epoch_size,
        "crash_shard": crash_shard,
        "seeds": by_seed,
        "all_identical": all_identical,
        "all_tail_only": all_tail_only,
    }
