"""Differential proof that the shard split changes nothing observable.

The shard runtime splits a stream by ``crc32(key) % shards`` and merges
the per-shard register snapshots.  Every per-shard fold is associative
and commutative, so the merged snapshot and rendered report must equal
a one-shard run byte for byte, whatever the shard count and however
lopsided the split.  (Per-shard packet counts differ between shard
counts; the snapshot and report are the cross-split comparands.)

Covered here, at three seeds each: agg shards, inline and on ring-fed
workers, under both kernel forms, against one shard and one scalar
switch; lark shards; a
hash-adversary stream that piles most packets on one shard; several
shard counts against each other — plus the check that an explicit
``PartitionMap`` reproduces the default split exactly, per-shard
packet counts included.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.switch import columns
from repro.switch.hashing import crc32
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.testbed.placement import PartitionMap
from repro.testbed.shm_ring import shared_memory_available

from tests.differential.workloads import (
    APP_ID,
    DifferentialWorkload,
)

SEEDS = (11, 23, 37)
PACKETS = 400

TRANSPORTS = pytest.mark.parametrize(
    "persistent",
    [False, pytest.param(True, marks=pytest.mark.skipif(
        not shared_memory_available(),
        reason="POSIX shared memory unavailable",
    ))],
    ids=["inline", "workers"],
)


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    """The shards' kernel form; forked ring workers inherit it."""
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield
    finally:
        columns._FORCED = previous


def _agg_spec(wl: DifferentialWorkload) -> ShardSpec:
    return ShardSpec(
        kind="agg", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7,
    )


def _lark_spec(wl: DifferentialWorkload) -> ShardSpec:
    return ShardSpec(
        kind="lark", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7, dedup=False,
    )


def _executor(spec, placement=None, shards=2, persistent=False):
    return ShardExecutor(
        spec,
        shards=shards,
        chunk_size=32,
        checkpoint_batches=2,
        registry=MetricsRegistry(),
        persistent=persistent,
        placement=placement,
    )


class TestExecutorSplit:
    """The inline executor on several shards vs one shard."""

    @pytest.mark.parametrize("seed", SEEDS)
    @TRANSPORTS
    @pytest.mark.usefixtures("kernel_form")
    def test_agg_split_matches_one_shard(self, seed, persistent):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", PACKETS)
        single = wl.new_agg()
        for payload in packets:
            single.process_packet(payload)
        whole = _executor(spec, shards=1).run(packets)
        with _executor(
            spec, shards=3, persistent=persistent
        ) as executor:
            split = executor.run(packets)
        assert split.used_workers == persistent, split.fallback_cause
        assert split.snapshot == whole.snapshot, seed
        assert split.report == whole.report, seed
        assert split.snapshot == single.checkpoint(APP_ID), seed
        assert split.report == single.report(APP_ID), seed
        assert split.shard_packets == [
            sum(1 for p in packets if crc32(p) % 3 == s) for s in range(3)
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lark_split_matches_one_shard(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _lark_spec(wl)
        packets = [bytes(c) for c in wl.cids("zipfian", PACKETS)]
        whole = _executor(spec, shards=1).run(packets)
        split = _executor(spec, shards=3).run(packets)
        assert split.snapshot == whole.snapshot, seed
        assert split.report == whole.report, seed
        assert split.shard_packets == [
            sum(1 for p in packets if crc32(p[1:18]) % 3 == s)
            for s in range(3)
        ]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skewed_stream_matches(self, seed):
        """The hash adversary piles most packets on shard 0: the split
        is lopsided, and still changes nothing observable."""
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        pool = wl.payloads("uniform", PACKETS)
        hot = [p for p in pool if crc32(p) % 2 == 0]
        packets = pool[:PACKETS // 4] + (hot * 4)[:PACKETS * 3 // 4]
        whole = _executor(spec, shards=1).run(packets)
        split = _executor(spec, shards=2).run(packets)
        assert split.shard_packets[0] > 3 * split.shard_packets[1], seed
        assert split.snapshot == whole.snapshot, seed
        assert split.report == whole.report, seed

    def test_default_map_reproduces_static_partition(self):
        """An explicit ``PartitionMap`` routes every packet exactly like
        the default split — per-shard packet counts included."""
        wl = DifferentialWorkload(seed=SEEDS[0])
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", PACKETS)
        static = _executor(spec).run(packets)
        mapped = _executor(
            spec, placement=PartitionMap(shards=2)
        ).run(packets)
        assert mapped.shards == 2
        assert mapped.shard_packets == static.shard_packets
        assert mapped.snapshot == static.snapshot
        assert mapped.report == static.report

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shard_count_changes_nothing_observable(self, seed):
        """2, 5 and 7 shards move the per-shard counts, not the merge."""
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", PACKETS)
        runs = {
            n: ShardExecutor(spec, shards=n, chunk_size=96).run(packets)
            for n in (2, 5, 7)
        }
        for n, result in runs.items():
            assert len(result.shard_packets) == n
            assert result.total_packets == len(packets)
            assert result.snapshot == runs[2].snapshot, (seed, n)
            assert result.report == runs[2].report, (seed, n)
