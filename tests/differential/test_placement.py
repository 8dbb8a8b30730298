"""Differential proof for skew-aware elastic placement.

Moving virtual buckets between shards at epoch boundaries — or
resizing the shard fleet outright — is only an optimization if it
changes nothing observable: every elastic run must produce the same
merged register snapshot and rendered report as the static
``crc32 % shards`` runtime, byte for byte.  (Per-shard packet counts
intentionally differ once buckets move; the snapshot and report are
the cross-placement comparands.)

Covered here, at three seeds each: the inline supervised runtime
across the scalar and columnar backends, an aggressive rebalancer that
moves buckets every epoch, elastic fleet resizes (grow and shrink),
the persistent ring-fed supervisor, and the streaming pipeline's
placement fleet — plus the no-rebalance sanity check that a default
map reproduces the static per-shard packet counts exactly.
"""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.testbed.pipeline import StreamingPipeline
from repro.testbed.placement import PartitionMap, PlacementController
from repro.testbed.shm_ring import shared_memory_available
from repro.testbed.supervisor import ShardSupervisor
from repro.workloads.adcampaign import AdCampaignWorkload

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


def _supervisor(spec, backend="columnar", placement=None, shards=2,
                persistent=False):
    return ShardSupervisor(
        spec,
        shards=shards,
        backend=backend,
        chunk_size=32,
        checkpoint_batches=2,
        registry=MetricsRegistry(),
        backoff_base_s=0.0,
        sleep=lambda _s: None,
        persistent=persistent,
        placement=placement,
    )


class TestSupervisorElastic:
    """Inline elastic supervisor vs the static runtime."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_agg_rebalanced_matches_static(self, seed, backend):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", PACKETS)
        static = _supervisor(spec, backend).run(packets)
        elastic = _supervisor(
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
        static = _supervisor(spec, "columnar").run(packets)
        elastic = _supervisor(
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
        static = _supervisor(spec, "columnar").run(packets)
        controller = _aggressive(2)
        elastic = _supervisor(
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
        static = _supervisor(spec, "columnar").run(packets)
        calm = PlacementController(
            shards=2, target_imbalance=50.0, cooldown_epochs=0,
            registry=MetricsRegistry(),
        )
        elastic = _supervisor(
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
        static = _supervisor(spec, "columnar").run(packets)
        controller = PlacementController(
            shards=2, target_shard_load=40.0, max_shards=4,
            cooldown_epochs=0, registry=MetricsRegistry(),
        )
        elastic = _supervisor(
            spec, "columnar", placement=controller
        ).run(packets)
        assert elastic.snapshot == static.snapshot, seed
        assert elastic.report == static.report, seed
        assert controller.resizes >= 1, seed


@needs_shm
class TestSupervisorElasticPersistent:
    """The elastic runtime on real ring-fed worker processes."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_persistent_rebalanced_matches_static(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", PACKETS)
        static = _supervisor(spec, "columnar").run(packets)
        elastic = _supervisor(
            spec, "columnar", placement=_aggressive(2), persistent=True,
        ).run(packets)
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
        executor = ShardExecutor(
            spec, backend="columnar", chunk_size=96,
            placement=pmap,
        )
        default_map = executor.run(packets)
        assert default_map.shard_packets == base.shard_packets
        assert default_map.snapshot == base.snapshot
        counts = executor.last_bucket_counts
        moved = pmap.rebalanced(counts, target=1.02)
        executor.set_placement(moved)
        rebalanced = executor.run(packets)
        assert rebalanced.snapshot == base.snapshot, seed
        assert rebalanced.report == base.report, seed


RATE = 3000.0
DURATION_MS = 400.0
PERIOD_MS = 100.0


def _pipeline_run(backend, seed, placement=None,
                  mode=ForwardingMode.PERIODICAL, on_batch=None):
    workload = AdCampaignWorkload(num_users=80, seed=seed)
    pipe = StreamingPipeline(
        workload,
        seed=seed,
        mode=mode,
        period_ms=PERIOD_MS,
        backend=backend,
        batch_size=64,
        registry=MetricsRegistry(),
        placement=placement,
        on_batch=on_batch,
    )
    try:
        result = pipe.run(RATE, DURATION_MS)
    finally:
        pipe.close()
    return (
        result.events,
        result.payloads,
        result.merged,
        result.periods,
        result.report,
        result.register_state,
        result.dead_letters,
    ), result


@needs_shm
class TestPipelinePlacement:
    """The streaming pipeline's elastic agg fleet vs the inline tiers."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fleet_matches_inline_backends(self, seed):
        controller = _aggressive(3)
        got, result = _pipeline_run(
            "persistent", seed, placement=controller,
            mode=ForwardingMode.PER_PACKET,
        )
        assert result.counts_match_reference()
        assert result.agg_shards == controller.map.shards
        assert sum(result.agg_shard_packets) == result.payloads
        for backend in BACKENDS:
            assert got == _pipeline_run(
                backend, seed, mode=ForwardingMode.PER_PACKET
            )[0], (seed, backend)

    def test_fleet_shrink_matches_columnar(self):
        """Periodical mode ticks the controller at period flushes; a
        harsh target_shard_load retires workers mid-run."""
        controller = PlacementController(
            shards=4, target_shard_load=10_000.0, min_shards=1,
            cooldown_epochs=0, registry=MetricsRegistry(),
        )
        got, result = _pipeline_run(
            "persistent", SEEDS[1], placement=controller
        )
        assert result.agg_shards == 1
        assert any(
            h["action"] == "resize" for h in result.placement_history
        )
        assert got == _pipeline_run("columnar", SEEDS[1])[0]

    def test_shard_spawned_after_rekey_uses_the_live_key(self):
        """Periodical mode emits one payload per period, so under an
        8-shard map most shards see their first payload — and spawn —
        late in the run.  A rekey at a period boundary must reach those
        not-yet-spawned workers too: they are built from the fleet's
        recipe, which therefore has to carry the live key."""
        new_key = bytes(range(16))
        spawned_at_rekey = []

        def make_hook():
            def hook(pipe, cols):
                if pipe.periods == 2 and pipe._key != new_key:
                    if pipe._fleet is not None:
                        spawned_at_rekey.extend(pipe._fleet.workers)
                    pipe.rekey(new_key)

            return hook

        got, result = _pipeline_run(
            "persistent", SEEDS[0], placement=_aggressive(8),
            on_batch=make_hook(),
        )
        used = {
            shard for shard, count in enumerate(result.agg_shard_packets)
            if count
        }
        assert used - set(spawned_at_rekey), "no shard spawned post-rekey"
        assert result.dead_letters == 0
        assert result.counts_match_reference()
        assert got == _pipeline_run(
            "columnar", SEEDS[0], on_batch=make_hook()
        )[0]

    def test_placement_requires_persistent_backend(self):
        workload = AdCampaignWorkload(num_users=8, seed=1)
        with pytest.raises(ValueError):
            StreamingPipeline(
                workload, backend="columnar",
                placement=_aggressive(2),
            )
