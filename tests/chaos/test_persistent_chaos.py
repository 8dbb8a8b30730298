"""Chaos and soak coverage for the persistent worker tier.

Two promises a long-lived ring-fed fleet must keep under fire:

* **crash-invisible results** — SIGKILL a worker mid-epoch (via
  :class:`ShardFaultPlan` injection inside the child) and the
  supervisor's checkpoint-replay must reconverge on byte-identical
  snapshots, reports and per-shard counters vs the fault-free run;
* **resource-tight lifecycle** — hundreds of epochs through one fleet
  leave the shared-memory namespace exactly as they found it: no
  leaked segments after clean shutdown, after SIGKILL + respawn, nor
  after an executor-level fallback reaped a dead fleet.

Everything is seeded and deterministic; the module skips where POSIX
shared memory is unavailable.
"""

import os

import pytest

from repro.chaos import ShardFaultPlan
from repro.obs.registry import MetricsRegistry
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.testbed.placement import PlacementController
from repro.testbed.shm_ring import shared_memory_available
from repro.testbed.supervisor import ShardSupervisor
from repro.testbed.worker import ShardWorker, WorkerDied

from tests.differential.workloads import APP_ID, DifferentialWorkload

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable",
)

_SHM_DIR = "/dev/shm"


def _shm_entries():
    """Current shared-memory segment names (empty set when the
    platform hides them — the leak assertions then degrade to no-ops
    rather than false alarms)."""
    try:
        return set(os.listdir(_SHM_DIR))
    except OSError:  # pragma: no cover - non-Linux shm namespaces
        return set()


@pytest.fixture
def shm_leakcheck():
    before = _shm_entries()
    yield
    leaked = _shm_entries() - before
    assert not leaked, "leaked shared-memory segments: %s" % sorted(leaked)


def _agg_spec(wl):
    return ShardSpec(
        kind="agg", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7,
    )


def _supervisor(spec, plan=None, **kwargs):
    defaults = dict(
        shards=2,
        backend="columnar",
        chunk_size=64,
        checkpoint_batches=2,
        job_timeout_s=30.0,
        max_retries=3,
        backoff_base_s=0.0,
        fault_plan=plan,
        sleep=lambda _s: None,
        registry=MetricsRegistry(),
        persistent=True,
    )
    defaults.update(kwargs)
    return ShardSupervisor(spec, **defaults)


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
        baseline = _supervisor(spec).run(packets)
        assert baseline.used_workers, baseline.fallback_cause
        assert baseline.crashes == 0 and baseline.worker_respawns == 0

        plan = ShardFaultPlan(seed=seed).kill_shard(1, at_batch=3)
        chaos = _supervisor(spec, plan=plan).run(packets)
        assert chaos.used_workers, chaos.fallback_cause
        assert chaos.crashes >= 1
        assert chaos.worker_respawns >= 1
        assert chaos.recovered_packets > 0
        assert _equal(chaos, baseline)

    def test_kill_in_first_epoch_restarts_from_empty(self, shm_leakcheck):
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 800)
        baseline = _supervisor(spec).run(packets)
        plan = ShardFaultPlan().kill_shard(0, at_batch=0)
        chaos = _supervisor(spec, plan=plan).run(packets)
        assert chaos.used_workers and chaos.worker_respawns >= 1
        assert _equal(chaos, baseline)

    def test_repeated_kills_exhaust_into_salvage(self, shm_leakcheck):
        """A shard that dies every attempt exhausts its retries; the
        supervisor salvages in-process and the fleet still closes
        without leaking its rings."""
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 800)
        baseline = _supervisor(spec).run(packets)
        plan = ShardFaultPlan().kill_shard(1, at_batch=2, times=10)
        chaos = _supervisor(spec, plan=plan, max_retries=2).run(packets)
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


class TestKillDuringRebalance:
    """SIGKILL lands while the placement controller is live: the crash
    replay must re-derive the same epoch's partition map (version and
    all) and reconverge on the static runtime's observable state."""

    def _elastic(self):
        return PlacementController(
            shards=2,
            target_imbalance=1.05,
            rebalance_margin=0.05,
            cooldown_epochs=0,
            registry=MetricsRegistry(),
        )

    @pytest.mark.parametrize("seed", (3, 19))
    def test_crash_mid_rebalanced_run_is_byte_identical(
        self, seed, shm_leakcheck
    ):
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        # The hash adversary pins most packets on one shard, so the
        # controller is guaranteed to move buckets mid-run.
        packets = wl.skewed_payloads(1200, shards=2)
        static = _supervisor(spec).run(packets)

        plan = ShardFaultPlan(seed=seed).kill_shard(1, at_batch=3)
        controller = self._elastic()
        chaos = _supervisor(
            spec, plan=plan, placement=controller
        ).run(packets)
        assert chaos.used_workers, chaos.fallback_cause
        assert chaos.crashes >= 1
        assert chaos.recovered_packets > 0
        # The controller actually moved buckets before/around the kill.
        assert controller.rebalances >= 1
        assert len(set(chaos.map_versions)) >= 2
        # Per-shard counts legitimately differ once buckets move; the
        # merged snapshot and report are the placement-proof comparands.
        assert chaos.snapshot == static.snapshot
        assert chaos.report == static.report

    def test_crash_during_elastic_resize_is_byte_identical(
        self, shm_leakcheck
    ):
        """The kill lands while target_shard_load is reshaping the
        fleet: replay must respawn into the same post-resize map."""
        wl = DifferentialWorkload(seed=11)
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", 1200)
        static = _supervisor(spec).run(packets)
        controller = PlacementController(
            shards=2,
            target_shard_load=100.0,
            max_shards=4,
            cooldown_epochs=0,
            registry=MetricsRegistry(),
        )
        plan = ShardFaultPlan(seed=7).kill_shard(0, at_batch=4)
        chaos = _supervisor(
            spec, plan=plan, placement=controller
        ).run(packets)
        assert chaos.used_workers, chaos.fallback_cause
        assert chaos.crashes >= 1
        assert controller.resizes >= 1
        assert chaos.final_shards == controller.map.shards
        assert chaos.snapshot == static.snapshot
        assert chaos.report == static.report


class TestExecutorFallback:
    def test_dead_fleet_falls_back_and_cleans_up(self, shm_leakcheck):
        """An externally SIGKILLed worker (kill -9, OOM) must not fail
        the run: the executor reaps the fleet, reprocesses through the
        stateless path, and leaks nothing."""
        wl = DifferentialWorkload(seed=23)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 400)
        reference = ShardExecutor(
            spec, shards=2, backend="columnar"
        ).run(packets)
        with ShardExecutor(
            spec, shards=2, backend="columnar", persistent=True
        ) as executor:
            warm = executor.run(packets)
            assert warm.used_workers
            executor._workers[1].kill()
            recovered = executor.run(packets)
        assert not recovered.used_workers
        assert recovered.fallback_cause
        assert recovered.snapshot == reference.snapshot
        assert recovered.report == reference.report

    def test_packet_wider_than_a_slot_falls_back(self, shm_leakcheck):
        """chunk_size 64 gives 4 KiB ring slots; a 5000-byte packet
        fits none of them.  The ring refuses it, the run goes
        in-process with the cause on record, and the report is the
        in-process run's."""
        wl = DifferentialWorkload(seed=23)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 400)
        packets.insert(150, bytes(range(250)) * 20)
        reference = ShardExecutor(
            spec, shards=2, backend="columnar", chunk_size=64
        ).run(packets)
        with ShardExecutor(
            spec, shards=2, backend="columnar", chunk_size=64,
            persistent=True,
        ) as executor:
            result = executor.run(packets)
        assert not result.used_workers
        assert result.fallback_cause.startswith("ValueError: row of 5000")
        assert result.snapshot == reference.snapshot
        assert result.report == reference.report
        assert result.shard_folded == reference.shard_folded


class TestSoak:
    def test_200_epoch_soak_leaks_nothing(self, shm_leakcheck):
        """>= 200 supervised epochs through one persistent fleet:
        segment namespace stays flat, the ring is empty after every
        drain (stable slot accounting), zero respawns."""
        wl = DifferentialWorkload(seed=37)
        spec = _agg_spec(wl)
        packets = wl.payloads("uniform", 800)
        supervisor = _supervisor(
            spec, shards=1, chunk_size=4, checkpoint_batches=1,
        )
        during = []
        original = supervisor._persistent_epoch

        def spy(state, worker, bases):
            original(state, worker, bases)
            during.append((len(worker.ring), worker.ring.capacity))

        supervisor._persistent_epoch = spy
        result = supervisor.run(packets)
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
        baseline = _supervisor(
            spec, shards=1, chunk_size=8, checkpoint_batches=2,
        ).run(packets)
        plan = (
            ShardFaultPlan()
            .kill_shard(0, at_batch=10)
            .kill_shard(0, at_batch=30)
            .kill_shard(0, at_batch=60)
        )
        chaos = _supervisor(
            spec, shards=1, chunk_size=8, checkpoint_batches=2, plan=plan,
        ).run(packets)
        assert chaos.worker_respawns >= 3
        assert _equal(chaos, baseline)

    def test_worker_close_after_kill_unlinks_segment(self, shm_leakcheck):
        """Direct worker-level check: create, kill -9, close —
        the ring segment must be unlinked by the parent."""
        wl = DifferentialWorkload(seed=59)
        spec = _agg_spec(wl)
        worker = ShardWorker(spec, 0, backend="columnar")
        try:
            assert worker.alive
            worker.kill()
            assert worker.wait_dead(5.0)
        finally:
            worker.close()
