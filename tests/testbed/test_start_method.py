"""Ring workers start by ``fork`` or by ``spawn``; nothing else changes.

:func:`repro.testbed.worker._start_context` forks a worker from the
warm parent while the parent runs exactly one Python thread, and spawns
a fresh interpreter otherwise.  A live idle thread is how these tests
reach the spawn path: there is no option for it.  Under spawn a
worker's arguments (``ShardSpec``, ``ShardFaultPlan``, the ring
descriptor) are pickled, under fork they are inherited, so the spawn
leg is also what keeps them picklable.

A forked worker inherits the parent's owner ``ColumnRing`` objects,
finalizers included; the lifecycle tests below show that no worker
ever unlinks a segment, whichever way it exits.
"""

import contextlib
import os
import threading

import pytest

from repro.chaos import ShardFaultPlan
from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.testbed.pipeline import StreamingPipeline
from repro.testbed.shm_ring import shared_memory_available
from repro.testbed.worker import ShardWorker, WorkerFleet
from repro.workloads.adcampaign import AdCampaignWorkload
from tests.differential.workloads import APP_ID, DifferentialWorkload
from tests.shm import ring_segments

pytestmark = pytest.mark.skipif(
    not shared_memory_available() or not os.path.isdir("/dev/shm"),
    reason="needs POSIX shared memory under /dev/shm",
)


@contextlib.contextmanager
def _live_thread():
    """A second, idle Python thread for the duration of the block."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


def _both_ways(monkeypatch, run):
    """``run()`` as this process is, then again beside a live thread.
    Returns ``(methods, observed)`` for each leg: the start method every
    worker's readiness message named (respawns included), and what
    ``run()`` returned."""
    started = []
    real = ShardWorker.await_ready

    def await_ready(self):
        real(self)
        started.append(self.start_method)

    monkeypatch.setattr(ShardWorker, "await_ready", await_ready)
    assert threading.active_count() == 1, "the test process runs a thread"
    forked = run()
    forked_methods = list(started)
    del started[:]
    with _live_thread():
        spawned = run()
    return (forked_methods, forked), (started, spawned)


def _spec(kind):
    wl = DifferentialWorkload(seed=11)
    return wl, ShardSpec(
        kind=kind, app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7,
    )


def _segment(worker):
    return worker.ring.descriptor["name"]


# -- the same results on both paths ------------------------------------------


def _lark_executor_run():
    wl, spec = _spec("lark")
    packets = [bytes(c) for c in wl.cids("zipfian", 1500)]
    with ShardExecutor(
        spec, shards=2, persistent=True, chunk_size=256
    ) as executor:
        result = executor.run(packets)
    assert result.used_workers, result.fallback_cause
    return repr((
        result.snapshot, result.report,
        result.shard_packets, result.shard_folded,
    ))


def _persistent_pipeline_run():
    workload = AdCampaignWorkload(num_users=300, seed=5)
    with StreamingPipeline(
        workload, app_id=0x5C, seed=5, period_ms=250.0,
        backend="persistent", batch_size=256, cache_capacity=256,
    ) as pipeline:
        result = pipeline.run(4000.0, 1000.0)
    assert result.counts_match_reference()
    return repr((
        result.report, result.register_state, result.merged,
        result.dead_letters, result.payloads,
    ))


def _faulted_pipeline_run(backend, mode):
    """Corrupt and reorder stages, a rekey at the third batch and a
    checkpoint at every period close."""
    batches = []

    def rekey_at_third_batch(pipeline, _cols):
        batches.append(len(_cols))
        if len(batches) == 3:
            pipeline.rekey(bytes(range(16)))

    workload = AdCampaignWorkload(num_users=300, seed=5)
    with StreamingPipeline(
        workload, app_id=0x5C, seed=5, mode=mode, period_ms=250.0,
        backend=backend, batch_size=256, cache_capacity=256,
        corrupt_probability=0.5, reorder_probability=0.2,
        checkpoint_every_periods=1, on_batch=rekey_at_third_batch,
        registry=MetricsRegistry(),
    ) as pipeline:
        result = pipeline.run(4000.0, 1000.0)
    assert result.dead_letters > 0
    return repr((
        result.events, result.payloads, result.merged, result.periods,
        result.report, result.register_state, result.dead_letters,
        result.checkpoints, pipeline.last_checkpoint,
    ))


def _faulted_persistent_runs():
    runs = []
    for mode in (ForwardingMode.PERIODICAL, ForwardingMode.PER_PACKET):
        persistent = _faulted_pipeline_run("persistent", mode)
        assert persistent == _faulted_pipeline_run("columnar", mode), mode
        runs.append(persistent)
    return runs


def _killed_executor_run():
    """A ``ShardFaultPlan`` rides into the workers and SIGKILLs shard 1
    mid-epoch: the respawn starts by the same method as the fleet."""
    wl, spec = _spec("agg")
    with ShardExecutor(
        spec,
        shards=2,
        chunk_size=64,
        checkpoint_batches=2,
        fault_plan=ShardFaultPlan(seed=3).kill_shard(1, at_batch=3),
        sleep=lambda _s: None,
        registry=MetricsRegistry(),
        persistent=True,
    ) as executor:
        result = executor.run(wl.payloads("zipfian", 800))
    assert result.used_workers, result.fallback_cause
    assert result.worker_respawns >= 1
    return repr((
        result.snapshot, result.report,
        result.shard_packets, result.shard_folded,
    ))


def test_lark_executor_is_identical_forked_and_spawned(monkeypatch):
    (fork_methods, forked), (spawn_methods, spawned) = _both_ways(
        monkeypatch, _lark_executor_run
    )
    assert fork_methods == ["fork", "fork"]
    assert spawn_methods == ["spawn", "spawn"]
    assert forked == spawned


def test_persistent_pipeline_is_identical_forked_and_spawned(monkeypatch):
    (fork_methods, forked), (spawn_methods, spawned) = _both_ways(
        monkeypatch, _persistent_pipeline_run
    )
    assert fork_methods == ["fork"]
    assert spawn_methods == ["spawn"]
    assert forked == spawned


def test_faulted_persistent_pipeline_is_columnar_forked_and_spawned(
    monkeypatch,
):
    (fork_methods, forked), (spawn_methods, spawned) = _both_ways(
        monkeypatch, _faulted_persistent_runs
    )
    assert fork_methods == ["fork", "fork"]
    assert spawn_methods == ["spawn", "spawn"]
    assert forked == spawned


def test_respawn_after_a_kill_is_identical_forked_and_spawned(monkeypatch):
    (fork_methods, forked), (spawn_methods, spawned) = _both_ways(
        monkeypatch, _killed_executor_run
    )
    assert len(fork_methods) >= 3 and set(fork_methods) == {"fork"}
    assert len(spawn_methods) >= 3 and set(spawn_methods) == {"spawn"}
    assert forked == spawned


# -- a forked worker never touches rings it does not own ---------------------


def test_forked_workers_leave_every_segment_to_its_owner():
    """Worker 1 is forked after ring 0 exists, so it holds a copy of
    ring 0's owner handle and finalizer.  Neither worker 0's SIGKILL
    nor worker 1's clean exit may unlink a segment: each goes when the
    parent closes it, and worker 0 folds again on its own ring."""
    wl, spec = _spec("agg")
    payloads = wl.payloads("uniform", 200)
    before = ring_segments(os.getpid())
    fleet = WorkerFleet(spec, row_capacity=64)
    try:
        fleet.bring_up(range(2))
        zero, one = fleet.workers[0], fleet.workers[1]
        assert (zero.start_method, one.start_method) == ("fork", "fork")
        segments = [_segment(zero), _segment(one)]

        zero.kill()
        assert zero.wait_dead(5.0)
        assert set(segments) <= ring_segments(os.getpid())

        fleet.workers.pop(1).close()  # shuts worker 1 down, closes ring 1
        assert one._proc.exitcode == 0, "not a clean exit"
        assert segments[0] in ring_segments(os.getpid())
        assert segments[1] not in ring_segments(os.getpid())

        fleet.respawn(0)
        assert _segment(zero) == segments[0]
        fleet.push(0, payloads, 64)
        _snapshot, counters = fleet.drain_shard(0)
        assert counters["packets"] == len(payloads)
        assert counters["folded"] == len(payloads)
        assert segments[0] in ring_segments(os.getpid())
    finally:
        fleet.close()
    assert not ring_segments(os.getpid()) - before


def _run_inherited_finalizer(worker):
    # What a collection of the inherited owner handle would run.
    worker.ring._finalizer()


def test_an_inherited_owner_finalizer_does_not_unlink():
    import multiprocessing

    _wl, spec = _spec("agg")
    before = ring_segments(os.getpid())
    with ShardWorker(spec, 0, row_capacity=64) as owner:
        owner.await_ready()
        child = multiprocessing.get_context("fork").Process(
            target=_run_inherited_finalizer, args=(owner,)
        )
        child.start()
        child.join(10.0)
        assert child.exitcode == 0
        assert _segment(owner) in ring_segments(os.getpid())
        assert owner.drain()["counters"]["packets"] == 0
    assert not ring_segments(os.getpid()) - before
