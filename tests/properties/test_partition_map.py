"""Property suite for the virtual-bucket placement layer.

Pins the invariants the elastic runtimes lean on:

* every bucket is always owned by exactly one live shard, through any
  sequence of rebalances and resizes;
* plans are deterministic — same loads, same map, in this process and
  in a fresh interpreter (the executor and its crash-replay must
  agree on placement without communicating);
* the default map reproduces the legacy ``crc32 % shards`` partition
  bit for bit whenever ``shards`` divides ``buckets``;
* resizing moves the minimum: growing touches only buckets that land
  on the *new* shards (bounded by the per-shard quota), shrinking
  touches only the retired shards' buckets;
* the vectorized ``partition_columns`` gather is byte-identical to the
  scalar ``partition_packets`` loop, bucket counts included, with the
  numpy gate open or closed.
"""

import random
import subprocess
import sys

import pytest

from repro.switch.columns import PacketColumns, force_numpy, get_numpy
from repro.switch.hashing import crc32
from repro.testbed.executor import (
    ShardSpec,
    partition_columns,
    partition_packets,
)
from repro.testbed.placement import (
    DEFAULT_BUCKETS,
    PartitionMap,
    PlacementController,
)
from repro.obs.registry import MetricsRegistry

from tests.differential.workloads import APP_ID, DifferentialWorkload

SEEDS = (3, 17, 4)
BUCKETS = DEFAULT_BUCKETS


def _loads(seed, buckets=BUCKETS, users=200):
    """Deterministic zipf(1) user population scattered over buckets:
    skewed enough that the static map sits well above the 1.15 bar,
    granular enough (hottest user ~17% of traffic) that bucket moves
    can rebalance it — the same shape the placement bench uses."""
    harmonic = sum(1.0 / rank for rank in range(1, users + 1))
    rng = random.Random(seed)
    loads = [0.0] * buckets
    for user in range(users):
        weight = 10_000.0 / ((user + 1) * harmonic)
        loads[rng.randrange(buckets)] += weight
    return loads


def _owned(pmap):
    assert len(pmap.assignment) == pmap.buckets
    assert all(0 <= s < pmap.shards for s in pmap.assignment)
    # No shard is ever left bucket-less by construction or planning.
    assert set(pmap.assignment) == set(range(pmap.shards))


class TestPartitionMapInvariants:
    @pytest.mark.parametrize("shards", (1, 2, 4, 5, 7))
    def test_every_bucket_owned(self, shards):
        _owned(PartitionMap(shards=shards))

    def test_default_map_is_legacy_modulo(self):
        """``shards`` dividing ``buckets`` makes the default table the
        literal ``crc32 % shards``: map-aware and map-less callers
        agree on every key."""
        keys = [("key-%d" % i).encode() for i in range(500)]
        for shards in (1, 2, 4):
            pmap = PartitionMap(shards=shards, buckets=BUCKETS)
            for key in keys:
                assert pmap.shard_for(key) == crc32(key) % shards

    def test_bad_assignment_rejected(self):
        with pytest.raises(ValueError):
            PartitionMap(shards=2, buckets=8, assignment=(0,) * 7)
        with pytest.raises(ValueError):
            PartitionMap(shards=2, buckets=8, assignment=(0, 2) * 4)
        with pytest.raises(ValueError):
            PartitionMap(shards=0)
        with pytest.raises(ValueError):
            PartitionMap(shards=9, buckets=8)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rebalance_keeps_coverage_and_improves(self, seed):
        loads = _loads(seed)
        pmap = PartitionMap(shards=4)
        after = pmap.rebalanced(loads, target=1.05)
        _owned(after)
        assert after.imbalance(loads) <= pmap.imbalance(loads)
        if after is not pmap:
            assert after.version == pmap.version + 1

    def test_rebalance_noop_below_target(self):
        loads = [1.0] * BUCKETS  # perfectly even
        pmap = PartitionMap(shards=4)
        assert pmap.rebalanced(loads, target=1.05) is pmap

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rebalance_deterministic_same_process(self, seed):
        loads = _loads(seed)
        pmap = PartitionMap(shards=4)
        first = pmap.rebalanced(loads, target=1.02)
        second = pmap.rebalanced(loads, target=1.02)
        assert first.assignment == second.assignment

    def test_rebalance_deterministic_across_processes(self):
        """A fresh interpreter plans the identical assignment — the
        property crash replay and multi-process supervision rest on."""
        loads = _loads(SEEDS[0])
        local = PartitionMap(shards=4).rebalanced(loads, target=1.02)
        script = (
            "import sys\n"
            "sys.path.insert(0, 'src')\n"
            "from tests.properties.test_partition_map import "
            "_loads, SEEDS\n"
            "from repro.testbed.placement import PartitionMap\n"
            "pmap = PartitionMap(shards=4).rebalanced("
            "_loads(SEEDS[0]), target=1.02)\n"
            "print(','.join(map(str, pmap.assignment)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, cwd=".",
        )
        assert proc.returncode == 0, proc.stderr
        remote = tuple(
            int(s) for s in proc.stdout.strip().split(",")
        )
        assert remote == local.assignment

    @pytest.mark.parametrize("old,new", ((4, 5), (4, 6), (2, 8), (8, 3),
                                         (4, 1), (5, 4)))
    def test_resize_minimal_movement(self, old, new):
        pmap = PartitionMap(shards=old)
        resized = pmap.resized(new)
        _owned(resized)
        assert resized.shards == new
        assert resized.version == pmap.version + 1
        moved = [
            (bucket, was, now)
            for bucket, (was, now) in enumerate(
                zip(pmap.assignment, resized.assignment)
            )
            if was != now
        ]
        quota = BUCKETS // new
        if new > old:
            # Growing: every move lands on a new shard, each filled to
            # at most its quota — so the total movement is bounded by
            # (new - old) * ceil(buckets / new).
            assert all(now >= old for _b, _was, now in moved)
            assert len(moved) <= (new - old) * (quota + 1)
            for shard in range(old, new):
                assert 0 < len(resized.shard_buckets(shard)) <= quota + 1
        else:
            # Shrinking: exactly the retired shards' buckets move.
            assert all(was >= new for _b, was, _now in moved)
            assert len(moved) == sum(
                1 for s in pmap.assignment if s >= new
            )

    def test_resize_same_size_is_identity(self):
        pmap = PartitionMap(shards=4)
        assert pmap.resized(4) is pmap

    def test_moved_buckets_counts(self):
        pmap = PartitionMap(shards=4)
        assert pmap.moved_buckets(pmap) == 0
        loads = _loads(SEEDS[1])
        after = pmap.rebalanced(loads, target=1.02)
        assert pmap.moved_buckets(after) == sum(
            1 for a, b in zip(pmap.assignment, after.assignment)
            if a != b
        )


class TestPlacementController:
    def _controller(self, **kw):
        kw.setdefault("shards", 4)
        kw.setdefault("registry", MetricsRegistry())
        return PlacementController(**kw)

    def test_hysteresis_leaves_balanced_loads_alone(self):
        controller = self._controller(cooldown_epochs=0)
        for _ in range(4):
            controller.observe([1.0] * BUCKETS)
            assert controller.end_epoch().version == 0
        assert controller.history == []

    def test_skew_triggers_one_rebalance_then_settles(self):
        controller = self._controller(cooldown_epochs=0)
        loads = _loads(SEEDS[0])
        before = controller.map.imbalance(loads)
        for _ in range(6):
            controller.observe(loads)
            controller.end_epoch()
        assert controller.rebalances >= 1
        assert controller.map.imbalance(loads) <= 1.15 < before
        # Settled: the same loads stop producing new versions.
        version = controller.map.version
        controller.observe(loads)
        assert controller.end_epoch().version == version

    def test_cooldown_blocks_back_to_back_changes(self):
        controller = self._controller(cooldown_epochs=3)
        hot = _loads(SEEDS[2])
        cold = _loads(SEEDS[2] + 1)
        controller.observe(hot)
        controller.end_epoch()
        changed_at = controller.map.version
        assert changed_at >= 1
        for _ in range(3):  # within the cooldown window
            controller.observe(cold)
            assert controller.end_epoch().version == changed_at

    def test_elastic_resize_tracks_epoch_load(self):
        controller = self._controller(
            shards=2, target_shard_load=100.0, max_shards=6,
            cooldown_epochs=0,
        )
        heavy = [2.0] * BUCKETS  # 512 packets -> wants 6 shards
        controller.observe(heavy)
        grown = controller.end_epoch()
        assert grown.shards == 6
        _owned(grown)
        light = [0.1] * BUCKETS  # 25 packets -> wants min_shards
        controller.observe(light)
        shrunk = controller.end_epoch()
        assert shrunk.shards == 1
        _owned(shrunk)
        assert controller.resizes == 2
        assert [h["action"] for h in controller.history] == [
            "resize", "resize",
        ]

    def test_observe_validates_width(self):
        controller = self._controller()
        with pytest.raises(ValueError):
            controller.observe([1.0] * (BUCKETS - 1))


class TestVectorizedPartition:
    """``partition_columns`` == ``partition_packets``, gate open or
    closed, for both partition-key kinds."""

    def _specs(self, wl):
        agg = ShardSpec(
            kind="agg", app_id=APP_ID, schema=wl.schema, key=wl.key,
            specs=tuple(wl.specs), seed=7,
        )
        lark = ShardSpec(
            kind="lark", app_id=APP_ID, schema=wl.schema, key=wl.key,
            specs=tuple(wl.specs), seed=7, dedup=False,
        )
        return {"agg": agg, "lark": lark}

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("kind", ("agg", "lark"))
    def test_matches_scalar_loop(self, seed, kind):
        wl = DifferentialWorkload(seed=seed)
        spec = self._specs(wl)[kind]
        if kind == "agg":
            packets = wl.payloads("zipfian", 300)
        else:
            packets = [bytes(c) for c in wl.cids("zipfian", 300)]
        pmap = PartitionMap(shards=3).rebalanced(
            _loads(seed), target=1.02
        )
        scalar, counts = partition_packets(spec, pmap, packets)
        parts, vec_counts = partition_columns(spec, pmap, packets)
        assert [part.raw for part in parts] == scalar
        assert vec_counts == counts
        assert sum(vec_counts) == len(packets)

    def test_matches_with_numpy_gate_closed(self):
        wl = DifferentialWorkload(seed=SEEDS[0])
        spec = self._specs(wl)["agg"]
        packets = wl.payloads("uniform", 200)
        pmap = PartitionMap(shards=4)
        open_parts, open_counts = partition_columns(spec, pmap, packets)
        force_numpy(False)
        try:
            closed_parts, closed_counts = partition_columns(
                spec, pmap, packets
            )
        finally:
            force_numpy(None)
        assert [p.raw for p in closed_parts] == [
            p.raw for p in open_parts
        ]
        assert closed_counts == open_counts

    def test_columns_input_accepted(self):
        if get_numpy() is None:
            pytest.skip("numpy unavailable")
        wl = DifferentialWorkload(seed=SEEDS[1])
        spec = self._specs(wl)["lark"]
        packets = [bytes(c) for c in wl.cids("uniform", 150)]
        pmap = PartitionMap(shards=2)
        from_list, counts_list = partition_columns(spec, pmap, packets)
        from_cols, counts_cols = partition_columns(
            spec, pmap, PacketColumns(packets)
        )
        assert [p.raw for p in from_cols] == [p.raw for p in from_list]
        assert counts_cols == counts_list
