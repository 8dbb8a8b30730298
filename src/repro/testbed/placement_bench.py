"""Skew-aware placement benchmark (``python -m repro.cli bench --placement``).

Three sections, one JSON artifact (``BENCH_placement.json``):

* **skew** — synthetic uniform and zipfian key populations at 100k+
  users: per-shard packet counts and ``max/mean`` imbalance under the
  static default :class:`~repro.testbed.placement.PartitionMap` versus
  the map a :class:`~repro.testbed.placement.PlacementController`
  converges to after epoch-boundary rebalancing, plus the wall time of
  every ``end_epoch`` planner call (the epoch-barrier overhead
  placement adds).
* **verify** — supervised runs on a real zipfian CID stream: the
  static runtime, the elastic rebalancing runtime, and the elastic
  runtime with a scripted shard crash must produce byte-identical
  snapshots and reports (``reports_match`` is the gate bit — placement
  may move buckets between epochs with zero state migration).
* **partition** — the scalar ``partition_packets`` loop versus the
  vectorized ``partition_columns`` gather on one lark stream,
  best-of-N, with an identical-output check.

The acceptance bar the CLI enforces: zipfian rebalanced imbalance
``<= 1.15`` and ``reports_match`` true.
"""

from __future__ import annotations

import bisect
import gc
import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.chaos.shard_faults import ShardFaultPlan
from repro.core.aggregation import ForwardingMode
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs.registry import MetricsRegistry
from repro.switch.columns import PacketColumns, get_numpy
from repro.switch.hashing import crc32, crc32_many
from repro.testbed.executor import (
    ShardSpec,
    partition_columns,
    partition_packets,
)
from repro.testbed.fastpath import BENCH_APP_ID, FastpathFixture
from repro.testbed.placement import (
    DEFAULT_BUCKETS,
    PartitionMap,
    PlacementController,
)
from repro.testbed.supervisor import ShardSupervisor

__all__ = ["run_placement_bench"]


def _zipf_weights(users: int, s: float) -> List[float]:
    """Normalized zipf(s) rank weights — the scale workload's head
    shape.  At ``s = 1.0`` over 100k users the hottest user carries
    ~8% of traffic: heavy enough to wreck ``crc32 % shards``, light
    enough that bucket moves can still balance it."""
    weights = [1.0 / (rank ** s) for rank in range(1, users + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _user_buckets(users: int, buckets: int, seed: int) -> List[int]:
    """Each user's virtual bucket (vectorized CRC when numpy is up)."""
    keys = [("user-%07d-%04d" % (u, seed)).encode() for u in range(users)]
    np = get_numpy()
    if np is not None:
        crcs = crc32_many(PacketColumns(keys))
        return [int(c) % buckets for c in crcs]
    return [crc32(key) % buckets for key in keys]


def _draw_epoch_loads(
    rng: random.Random,
    cumulative: Sequence[float],
    user_bucket: Sequence[int],
    buckets: int,
    draws: int,
) -> List[float]:
    """Sample one epoch of per-bucket packet counts from the user
    popularity distribution."""
    loads = [0.0] * buckets
    for _ in range(draws):
        user = bisect.bisect_left(cumulative, rng.random())
        if user >= len(user_bucket):
            user = len(user_bucket) - 1
        loads[user_bucket[user]] += 1.0
    return loads


def _skew_cell(
    distribution: str,
    users: int,
    packets: int,
    shards: int,
    buckets: int,
    epochs: int,
    zipf_s: float,
    seed: int,
) -> Dict[str, Any]:
    if distribution == "zipfian":
        weights = _zipf_weights(users, zipf_s)
    else:
        weights = [1.0 / users] * users
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cumulative.append(acc)
    user_bucket = _user_buckets(users, buckets, seed)
    rng = random.Random(seed * 7919 + 13)
    per_epoch = max(1, packets // epochs)

    static = PartitionMap(shards=shards, buckets=buckets)
    controller = PlacementController(
        shards=shards,
        buckets=buckets,
        target_imbalance=1.15,
        rebalance_margin=0.05,
        cooldown_epochs=0,
        registry=MetricsRegistry(),
    )
    total = [0.0] * buckets
    trajectory: List[float] = []
    barrier_s: List[float] = []
    for _ in range(epochs):
        loads = _draw_epoch_loads(
            rng, cumulative, user_bucket, buckets, per_epoch
        )
        for bucket, load in enumerate(loads):
            total[bucket] += load
        controller.observe(loads)
        started = time.perf_counter()
        controller.end_epoch()
        barrier_s.append(time.perf_counter() - started)
        trajectory.append(controller.map.imbalance(loads))

    rebalanced = controller.map
    return {
        "distribution": distribution,
        "static_imbalance": static.imbalance(total),
        "rebalanced_imbalance": rebalanced.imbalance(total),
        "static_shard_packets": [
            int(load) for load in static.shard_loads(total)
        ],
        "rebalanced_shard_packets": [
            int(load) for load in rebalanced.shard_loads(total)
        ],
        "imbalance_by_epoch": trajectory,
        "rebalances": controller.rebalances,
        "moved_buckets": controller.moves,
        "map_version": rebalanced.version,
        "epoch_barrier_s": {
            "mean": sum(barrier_s) / len(barrier_s),
            "max": max(barrier_s),
        },
    }


def _zipfian_cids(
    fixture: FastpathFixture,
    packets: int,
    zipf_s: float,
    seed: int,
) -> List[bytes]:
    """A zipfian replay over the fixture's per-user semantic CIDs."""
    codec = TransportCookieCodec(
        BENCH_APP_ID,
        fixture.schema,
        fixture.key,
        random.Random(fixture.seed + 3),
    )
    rng = random.Random(fixture.seed + 4)
    per_user = [
        bytes(
            codec.encode(
                user.semantic_values(
                    rng.choice(fixture.workload.campaigns),
                    rng.choice(("view", "click")),
                )
            )
        )
        for user in fixture.workload.users
    ]
    weights = _zipf_weights(len(per_user), zipf_s)
    cumulative: List[float] = []
    acc = 0.0
    for weight in weights:
        acc += weight
        cumulative.append(acc)
    draw = random.Random(seed * 104729 + 7)
    stream: List[bytes] = []
    for _ in range(packets):
        user = bisect.bisect_left(cumulative, draw.random())
        stream.append(per_user[min(user, len(per_user) - 1)])
    return stream


def _verify_spec(fixture: FastpathFixture) -> ShardSpec:
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


def _verify_supervisor(
    spec: ShardSpec,
    shards: int,
    chunk_size: int,
    checkpoint_batches: int,
    plan: Optional[ShardFaultPlan],
    placement: Optional[PlacementController],
) -> ShardSupervisor:
    return ShardSupervisor(
        spec,
        shards=shards,
        backend="columnar",
        chunk_size=chunk_size,
        checkpoint_batches=checkpoint_batches,
        fault_plan=plan,
        registry=MetricsRegistry(),
        backoff_base_s=0.0,
        sleep=lambda _s: None,
        placement=placement,
    )


def _controller(shards: int) -> PlacementController:
    return PlacementController(
        shards=shards,
        target_imbalance=1.1,
        rebalance_margin=0.05,
        cooldown_epochs=0,
        registry=MetricsRegistry(),
    )


def _verify_section(
    users: int,
    packets: int,
    shards: int,
    chunk_size: int,
    checkpoint_batches: int,
    zipf_s: float,
    seed: int,
    crash_shard: int,
) -> Dict[str, Any]:
    fixture = FastpathFixture(num_users=users, seed=seed)
    stream = _zipfian_cids(fixture, packets, zipf_s, seed)
    spec = _verify_spec(fixture)

    started = time.perf_counter()
    static = _verify_supervisor(
        spec, shards, chunk_size, checkpoint_batches, None, None
    ).run(stream)
    static_s = time.perf_counter() - started

    started = time.perf_counter()
    elastic = _verify_supervisor(
        spec, shards, chunk_size, checkpoint_batches, None,
        _controller(shards),
    ).run(stream)
    elastic_s = time.perf_counter() - started

    plan = ShardFaultPlan(seed=seed).kill_shard(
        crash_shard, at_batch=checkpoint_batches
    )
    crashed = _verify_supervisor(
        spec, shards, chunk_size, checkpoint_batches, plan,
        _controller(shards),
    ).run(stream)

    rebalanced_match = (
        elastic.snapshot == static.snapshot
        and elastic.report == static.report
    )
    crashed_match = (
        crashed.snapshot == static.snapshot
        and crashed.report == static.report
    )
    epochs = max(1, len(elastic.map_versions))
    return {
        "users": users,
        "packets": packets,
        "shards": shards,
        "static_s": static_s,
        "elastic_s": elastic_s,
        "epoch_barrier_overhead_s": (elastic_s - static_s) / epochs,
        "static_shard_packets": static.shard_packets,
        "elastic_shard_packets": elastic.shard_packets,
        "map_versions": elastic.map_versions,
        "rebalances": len(
            [h for h in elastic.placement_history
             if h["action"] == "rebalance"]
        ),
        "moved_buckets": sum(
            h.get("moves", 0) for h in elastic.placement_history
        ),
        "crashes": crashed.crashes,
        "retries": crashed.retries,
        "recovered_packets": crashed.recovered_packets,
        "rebalanced_match": rebalanced_match,
        "crashed_match": crashed_match,
        "reports_match": rebalanced_match and crashed_match,
    }


def _partition_section(
    users: int,
    packets: int,
    shards: int,
    buckets: int,
    seed: int,
    repeats: int,
) -> Dict[str, Any]:
    fixture = FastpathFixture(num_users=users, seed=seed)
    stream = [bytes(c) for c in fixture.make_cids(packets)]
    spec = _verify_spec(fixture)
    pmap = PartitionMap(shards=shards, buckets=buckets)
    columns = PacketColumns(stream)

    scalar_best = columnar_best = float("inf")
    scalar_parts: List[List[bytes]] = []
    columnar_parts: List[PacketColumns] = []
    for _ in range(max(1, repeats)):
        gc.collect()
        started = time.perf_counter()
        scalar_parts = partition_packets(spec, shards, stream, pmap)
        scalar_best = min(scalar_best, time.perf_counter() - started)
        gc.collect()
        started = time.perf_counter()
        columnar_parts, _counts = partition_columns(spec, pmap, columns)
        columnar_best = min(
            columnar_best, time.perf_counter() - started
        )
    identical = [part.raw for part in columnar_parts] == scalar_parts
    return {
        "packets": packets,
        "shards": shards,
        "vectorized": get_numpy() is not None,
        "scalar_s": scalar_best,
        "columnar_s": columnar_best,
        "scalar_packets_per_s": (
            packets / scalar_best if scalar_best > 0 else 0.0
        ),
        "columnar_packets_per_s": (
            packets / columnar_best if columnar_best > 0 else 0.0
        ),
        "speedup": (
            scalar_best / columnar_best if columnar_best > 0 else 0.0
        ),
        "identical": identical,
    }


def run_placement_bench(
    users: int = 100_000,
    packets: int = 200_000,
    shards: int = 8,
    buckets: int = DEFAULT_BUCKETS,
    epochs: int = 8,
    zipf_s: float = 1.0,
    seed: int = 7,
    verify_users: int = 400,
    verify_packets: int = 4096,
    verify_shards: int = 4,
    chunk_size: int = 64,
    checkpoint_batches: int = 2,
    partition_packets_n: int = 30_000,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Measure placement skew relief and prove rebalanced identity.

    Returns a JSON-serializable summary; ``all_match`` and
    ``zipfian_balanced`` are the gate bits the CLI turns into an exit
    code.
    """
    skew = {
        distribution: _skew_cell(
            distribution, users, packets, shards, buckets, epochs,
            zipf_s, seed,
        )
        for distribution in ("uniform", "zipfian")
    }
    verify = _verify_section(
        verify_users, verify_packets, verify_shards, chunk_size,
        checkpoint_batches, zipf_s, seed,
        crash_shard=min(1, verify_shards - 1),
    )
    partition = _partition_section(
        min(users, 2000), partition_packets_n, shards, buckets, seed,
        repeats,
    )
    zipfian_balanced = (
        skew["zipfian"]["rebalanced_imbalance"] <= 1.15
        and skew["zipfian"]["rebalanced_imbalance"]
        < skew["zipfian"]["static_imbalance"]
    )
    return {
        "users": users,
        "packets": packets,
        "shards": shards,
        "buckets": buckets,
        "epochs": epochs,
        "zipf_s": zipf_s,
        "seed": seed,
        "skew": skew,
        "verify": verify,
        "partition": partition,
        "zipfian_balanced": zipfian_balanced,
        "all_match": bool(
            verify["reports_match"] and partition["identical"]
        ),
    }
