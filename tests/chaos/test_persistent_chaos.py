"""Chaos and soak coverage for the persistent worker tier.

Two promises a long-lived ring-fed fleet must keep under fire:

* **crash-invisible results** — SIGKILL a worker mid-epoch (via
  :class:`ShardFaultPlan` injection inside the child) and the
  executor's checkpoint-replay must reconverge on byte-identical
  snapshots, reports and per-shard counters vs the fault-free run;
* **resource-tight lifecycle** — hundreds of epochs through one fleet
  leave the shared-memory namespace exactly as they found it: no
  leaked segments after clean shutdown, after SIGKILL + respawn, nor
  after an externally killed worker was respawned.

Everything is seeded and deterministic; the module skips where POSIX
shared memory is unavailable.
"""

import pytest

from repro.chaos import ShardFaultPlan
from repro.obs.registry import MetricsRegistry
from repro.switch.hashing import crc32
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.testbed.shm_ring import shared_memory_available
from repro.testbed.worker import ShardWorker, WorkerDied, WorkerFleet

from tests.differential.workloads import APP_ID, DifferentialWorkload

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable",
)


def _agg_spec(wl):
    return ShardSpec(
        kind="agg", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7,
    )


def _executor(spec, plan=None, **kwargs):
    defaults = dict(
        shards=2,
        chunk_size=64,
        checkpoint_batches=2,
        max_retries=3,
        fault_plan=plan,
        sleep=lambda _s: None,
        registry=MetricsRegistry(),
        persistent=True,
    )
    defaults.update(kwargs)
    return ShardExecutor(spec, **defaults)


def _run(spec, packets, plan=None, **kwargs):
    """One run on a fresh executor, its workers closed afterwards."""
    with _executor(spec, plan, **kwargs) as executor:
        return executor.run(packets)


def _equal(a, b):
    return (
        a.snapshot == b.snapshot
        and a.report == b.report
        and a.shard_packets == b.shard_packets
        and a.shard_folded == b.shard_folded
    )


class TestKillMidEpoch:
    """SIGKILL lands inside the child while an epoch is in flight."""

    @pytest.mark.parametrize("seed", (3, 19))
    def test_recovery_is_byte_identical(self, seed, shm_leakcheck):
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", 1200)
        baseline = _run(spec, packets)
        assert baseline.used_workers, baseline.fallback_cause
        assert baseline.crashes == 0 and baseline.worker_respawns == 0

        plan = ShardFaultPlan(seed=seed).kill_shard(1, at_batch=3)
        chaos = _run(spec, packets, plan=plan)
        assert chaos.used_workers, chaos.fallback_cause
        assert chaos.crashes >= 1
        assert chaos.worker_respawns >= 1
        assert chaos.recovered_packets > 0
        assert _equal(chaos, baseline)

    def test_kill_in_first_epoch_restarts_from_empty(self, shm_leakcheck):
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 800)
        baseline = _run(spec, packets)
        plan = ShardFaultPlan().kill_shard(0, at_batch=0)
        chaos = _run(spec, packets, plan=plan)
        assert chaos.used_workers and chaos.worker_respawns >= 1
        assert _equal(chaos, baseline)

    def test_repeated_kills_exhaust_into_salvage(self, shm_leakcheck):
        """A shard that dies every attempt exhausts its retries; the
        executor salvages in-process and the fleet still closes
        without leaking its rings."""
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 800)
        baseline = _run(spec, packets)
        plan = ShardFaultPlan().kill_shard(1, at_batch=2, times=10)
        chaos = _run(spec, packets, plan=plan, max_retries=2)
        assert chaos.salvaged == [1]
        assert _equal(chaos, baseline)

    def test_kill_coordinates_count_chunks_not_ring_slots(
        self, shm_leakcheck
    ):
        """An 8-row ring lane splits each 20-row chunk into three
        slots; the worker still counts one chunk per push, so the kill
        scripted for chunk 1 spares all of chunk 0 and lands in chunk 1."""
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 40)
        plan = ShardFaultPlan().kill_shard(0, at_batch=1)
        with ShardWorker(
            spec, 0, row_capacity=8, fault_plan=plan
        ) as worker:
            worker.await_ready()
            worker.set_epoch(0)
            worker.push_batch(packets[:20])
            assert worker.drain()["counters"]["packets"] == 20
            worker.push_batch(packets[20:])
            with pytest.raises(WorkerDied):
                worker.drain()
            assert worker.wait_dead(5.0)


class TestKillOnSkewedSplit:
    """SIGKILL lands on a lopsided or wider split: replay re-derives the
    same ``crc32 % shards`` parts and reconverges byte for byte."""

    @pytest.mark.parametrize("seed", (3, 19))
    def test_crash_mid_skewed_run_is_byte_identical(
        self, seed, shm_leakcheck
    ):
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        # Most packets hash to shard 0, so the kill hits the long part.
        pool = wl.payloads("uniform", 1200)
        hot = [p for p in pool if crc32(p) % 2 == 0]
        packets = pool[:300] + (hot * 4)[:900]
        baseline = _run(spec, packets)
        assert baseline.shard_packets[0] > 3 * baseline.shard_packets[1]

        plan = ShardFaultPlan(seed=seed).kill_shard(0, at_batch=3)
        chaos = _run(spec, packets, plan=plan)
        assert chaos.used_workers, chaos.fallback_cause
        assert chaos.crashes >= 1
        assert chaos.recovered_packets > 0
        assert _equal(chaos, baseline)

    def test_crash_on_wider_split_is_byte_identical(self, shm_leakcheck):
        """A kill on three shards merges to the two-shard report."""
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", 1200)
        static = _run(spec, packets)
        plan = ShardFaultPlan(seed=7).kill_shard(2, at_batch=2)
        chaos = _run(spec, packets, plan=plan, shards=3)
        assert chaos.used_workers, chaos.fallback_cause
        assert chaos.crashes >= 1
        assert chaos.shards == 3
        assert chaos.snapshot == static.snapshot
        assert chaos.report == static.report


class TestExecutorFallback:
    def test_dead_fleet_falls_back_and_cleans_up(self, shm_leakcheck):
        """An externally SIGKILLed worker (kill -9, OOM) must not fail
        the run: the executor respawns it on its ring, replays the
        shard's epoch, and leaks nothing."""
        wl = DifferentialWorkload(seed=23)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 400)
        reference = ShardExecutor(spec, shards=2).run(packets)
        with ShardExecutor(spec, shards=2, persistent=True) as executor:
            warm = executor.run(packets)
            assert warm.used_workers
            executor._fleet.workers[1].kill()
            recovered = executor.run(packets)
        assert recovered.used_workers, recovered.fallback_cause
        assert recovered.crashes == 1 and recovered.worker_respawns == 1
        assert _equal(recovered, reference)

    def test_packet_wider_than_a_slot_falls_back(self, shm_leakcheck):
        """chunk_size 64 gives 4 KiB ring slots; a 5000-byte packet
        fits none of them.  The ring refuses it on every attempt, so
        the shard's epoch ends in salvage with the cause on record, and
        the report is the in-process run's."""
        wl = DifferentialWorkload(seed=23)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 400)
        packets.insert(150, bytes(range(250)) * 20)
        reference = ShardExecutor(spec, shards=2, chunk_size=64).run(packets)
        with ShardExecutor(
            spec, shards=2, chunk_size=64, persistent=True,
            sleep=lambda _s: None,
        ) as executor:
            result = executor.run(packets)
        assert result.used_workers, result.fallback_cause
        # The wide packet hashes to shard 1.  The numpy partition keeps
        # the batch's matrix width, so shard 0's part may be too wide
        # for a slot as well.
        assert 1 in result.salvaged
        assert executor.last_error.startswith("ValueError: row of 5000")
        assert _equal(result, reference)


class TestSoak:
    def test_200_epoch_soak_leaks_nothing(self, monkeypatch, shm_leakcheck):
        """>= 200 checkpointed epochs through one persistent fleet:
        segment namespace stays flat, the ring is empty after every
        drain (stable slot accounting), zero respawns."""
        wl = DifferentialWorkload(seed=37)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 800)
        during = []
        drain_shard = WorkerFleet.drain_shard

        def spy(fleet, shard):
            drained = drain_shard(fleet, shard)
            ring = fleet.workers[shard].ring
            during.append((len(ring), ring.capacity))
            return drained

        monkeypatch.setattr(WorkerFleet, "drain_shard", spy)
        result = _run(
            spec, packets, shards=1, chunk_size=4, checkpoint_batches=1,
        )
        assert result.used_workers, result.fallback_cause
        assert sum(result.epochs) >= 200
        assert result.crashes == 0 and result.worker_respawns == 0
        # Every epoch fully drained its ring and the slot count never
        # moved — the fleet could run forever at constant memory.
        assert len(during) >= 200
        assert set(during) == {(0, during[0][1])}

    def test_soak_with_periodic_kills_leaks_nothing(self, shm_leakcheck):
        """Respawns replace segments; they must also retire the old
        ones, even though the dying child never ran its teardown."""
        wl = DifferentialWorkload(seed=41)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 800)
        baseline = _run(
            spec, packets, shards=1, chunk_size=8, checkpoint_batches=2,
        )
        plan = (
            ShardFaultPlan()
            .kill_shard(0, at_batch=10)
            .kill_shard(0, at_batch=30)
            .kill_shard(0, at_batch=60)
        )
        chaos = _run(
            spec, packets, plan, shards=1, chunk_size=8,
            checkpoint_batches=2,
        )
        assert chaos.worker_respawns >= 3
        assert _equal(chaos, baseline)

    def test_worker_close_after_kill_unlinks_segment(self, shm_leakcheck):
        """Direct worker-level check: create, kill -9, close —
        the ring segment must be unlinked by the parent."""
        wl = DifferentialWorkload(seed=59)
        spec = _agg_spec(wl)
        worker = ShardWorker(spec, 0)
        try:
            assert worker.alive
            worker.kill()
            assert worker.wait_dead(5.0)
        finally:
            worker.close()
