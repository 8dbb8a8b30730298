"""Differential proof for skew-aware elastic placement.

Moving virtual buckets between shards at epoch boundaries — or
resizing the shard fleet outright — is only an optimization if it
changes nothing observable: every elastic run must produce the same
merged register snapshot and rendered report as the static
``crc32 % shards`` runtime, byte for byte.  (Per-shard packet counts
intentionally differ once buckets move; the snapshot and report are
the cross-placement comparands.)

Covered here, at three seeds each: the inline elastic executor
across the scalar and columnar backends, an aggressive rebalancer that
moves buckets every epoch, elastic fleet resizes (grow and shrink)
and the persistent ring-fed executor — plus the no-rebalance sanity
check that a default map reproduces the static per-shard packet counts
exactly.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.testbed.executor import (
    ShardExecutor,
    ShardSpec,
    partition_columns,
)
from repro.testbed.placement import PartitionMap, PlacementController
from repro.testbed.shm_ring import shared_memory_available

from tests.differential.workloads import (
    APP_ID,
    DifferentialWorkload,
)

SEEDS = (11, 23, 37)
PACKETS = 400
BACKENDS = ("scalar", "columnar")

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable",
)


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


def _aggressive(shards, **kw):
    """A controller that rebalances at every barrier it legally can."""
    kw.setdefault("target_imbalance", 1.05)
    kw.setdefault("rebalance_margin", 0.05)
    kw.setdefault("cooldown_epochs", 0)
    return PlacementController(
        shards=shards, registry=MetricsRegistry(), **kw
    )


def _executor(spec, backend="columnar", placement=None, shards=2,
              persistent=False):
    return ShardExecutor(
        spec,
        shards=shards,
        backend=backend,
        chunk_size=32,
        checkpoint_batches=2,
        registry=MetricsRegistry(),
        persistent=persistent,
        placement=placement,
    )


class TestExecutorElastic:
    """Inline elastic executor vs the static runtime."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_agg_rebalanced_matches_static(self, seed, backend):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", PACKETS)
        static = _executor(spec, backend).run(packets)
        elastic = _executor(
            spec, backend, placement=_aggressive(2)
        ).run(packets)
        assert elastic.snapshot == static.snapshot, (seed, backend)
        assert elastic.report == static.report, (seed, backend)
        assert len(elastic.map_versions) >= 2

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lark_rebalanced_matches_static(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _lark_spec(wl)
        packets = [bytes(c) for c in wl.cids("zipfian", PACKETS)]
        static = _executor(spec, "columnar").run(packets)
        elastic = _executor(
            spec, "columnar", placement=_aggressive(2)
        ).run(packets)
        assert elastic.snapshot == static.snapshot, seed
        assert elastic.report == static.report, seed

    @pytest.mark.parametrize("seed", SEEDS)
    def test_skewed_stream_rebalances_and_matches(self, seed):
        """The hash adversary pins most packets on one shard: the
        controller must actually move buckets, and still change
        nothing observable."""
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.skewed_payloads(PACKETS, shards=2)
        static = _executor(spec, "columnar").run(packets)
        controller = _aggressive(2)
        elastic = _executor(
            spec, "columnar", placement=controller
        ).run(packets)
        assert elastic.snapshot == static.snapshot, seed
        assert elastic.report == static.report, seed
        assert controller.rebalances >= 1, seed

    def test_default_map_reproduces_static_partition(self):
        """With no rebalance pressure the elastic runtime routes every
        packet exactly like the legacy modulo — per-shard packet
        counts included."""
        wl = DifferentialWorkload(seed=SEEDS[0])
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", PACKETS)
        static = _executor(spec, "columnar").run(packets)
        calm = PlacementController(
            shards=2, target_imbalance=50.0, cooldown_epochs=0,
            registry=MetricsRegistry(),
        )
        elastic = _executor(
            spec, "columnar", placement=calm
        ).run(packets)
        assert elastic.shard_packets == static.shard_packets
        assert elastic.snapshot == static.snapshot
        assert elastic.report == static.report
        assert calm.map.version == 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_elastic_resize_matches_static(self, seed):
        """Mid-run fleet grow/shrink driven by target_shard_load: the
        windows land on different shard counts, the fold does not
        care."""
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", PACKETS)
        static = _executor(spec, "columnar").run(packets)
        controller = PlacementController(
            shards=2, target_shard_load=40.0, max_shards=4,
            cooldown_epochs=0, registry=MetricsRegistry(),
        )
        elastic = _executor(
            spec, "columnar", placement=controller
        ).run(packets)
        assert elastic.snapshot == static.snapshot, seed
        assert elastic.report == static.report, seed
        assert controller.resizes >= 1, seed


@needs_shm
class TestExecutorElasticPersistent:
    """The elastic runtime on real ring-fed worker processes."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_persistent_rebalanced_matches_static(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", PACKETS)
        static = _executor(spec, "columnar").run(packets)
        with _executor(
            spec, "columnar", placement=_aggressive(2), persistent=True,
        ) as executor:
            elastic = executor.run(packets)
        assert elastic.used_workers, elastic.fallback_cause
        assert elastic.snapshot == static.snapshot, seed
        assert elastic.report == static.report, seed


class TestExecutorPlacement:
    """Static executor with an explicit map vs the bare modulo."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rebalanced_map_changes_nothing_observable(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", PACKETS)
        base = ShardExecutor(
            spec, shards=2, backend="columnar",
            chunk_size=96,
        ).run(packets)
        pmap = PartitionMap(shards=2)
        default_map = ShardExecutor(
            spec, backend="columnar", chunk_size=96, placement=pmap,
        ).run(packets)
        assert default_map.shard_packets == base.shard_packets
        assert default_map.snapshot == base.snapshot
        _, counts = partition_columns(spec, pmap, packets)
        moved = pmap.rebalanced(counts, target=1.02)
        rebalanced = ShardExecutor(
            spec, backend="columnar", chunk_size=96, placement=moved,
        ).run(packets)
        assert rebalanced.snapshot == base.snapshot, seed
        assert rebalanced.report == base.report, seed

