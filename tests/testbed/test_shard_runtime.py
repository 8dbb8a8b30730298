"""The shard runtime: crash recovery must be invisible.

The contract under test: a :class:`ShardExecutor` run with injected
worker crashes, timeouts or retry exhaustion produces
**byte-identical** snapshots and reports to the fault-free run — and
the recovery replays only the failed epoch's tail, never the whole
stream.

Almost everything here runs over the in-process transport so the
assertions are exact and cheap; the parametrised cases drive the same
streams and scripted kills through both transports (in-process,
ring-fed workers) under both kernel forms (numpy and pure Python),
check the columnar shards against one scalar switch fed the whole
stream, and pin what may never differ between them.
The ring-worker cases also pin the loop's shape: every busy shard's
epoch is pushed before any is drained, and one executor's consecutive
runs never see each other's state.
"""

import pytest

from repro.chaos import ShardCrash, ShardFaultPlan
from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.quic.connection_id import ConnectionID
from repro.switch import columns
from repro.testbed.executor import (
    BACKOFF_BASE_S,
    BACKOFF_MAX_S,
    Replica,
    ShardExecutor,
    ShardSpec,
)
from repro.testbed.placement import PartitionMap
from repro.testbed.shm_ring import shared_memory_available
from repro.testbed.worker import ShardWorker

from tests.differential.workloads import APP_ID, DifferentialWorkload

SEEDS = (3, 19, 71)

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable",
)
TRANSPORTS = pytest.mark.parametrize(
    "persistent",
    [False, pytest.param(True, marks=needs_shm)],
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


def _lark_spec(fixture, dedup=False):
    return ShardSpec(
        kind="lark",
        app_id=APP_ID,
        schema=fixture.schema,
        key=fixture.key,
        specs=tuple(fixture.specs),
        seed=fixture.seed,
        mode=ForwardingMode.PERIODICAL,
        period_ms=1000.0,
        dedup=dedup,
    )


def _agg_spec(fixture):
    return ShardSpec(
        kind="agg",
        app_id=APP_ID,
        schema=fixture.schema,
        key=fixture.key,
        specs=tuple(fixture.specs),
        seed=fixture.seed,
    )


def _stream(fixture, packets=600):
    return [bytes(c) for c in fixture.cids("uniform", packets)]


def _single_lark(fixture, stream):
    """One scalar LarkSwitch fed the whole stream, packet by packet:
    the reference every sharded lark run must equal."""
    lark = fixture.new_lark()
    for cid in stream:
        lark.process_quic_packet(ConnectionID(cid))
    return lark.checkpoint(APP_ID), lark.stats_report(APP_ID)


def _executor(spec, plan=None, **kwargs):
    defaults = dict(
        shards=3,
        chunk_size=32,
        checkpoint_batches=2,
        fault_plan=plan,
        sleep=lambda _s: None,
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return ShardExecutor(spec, **defaults)


class TestFaultFreeEquivalence:
    """No faults: checkpointing every epoch changes nothing, and the
    columnar shards equal one scalar switch."""

    @pytest.mark.parametrize("seed", SEEDS)
    @TRANSPORTS
    @pytest.mark.usefixtures("kernel_form")
    def test_matches_one_epoch_run_on_lark(self, seed, persistent):
        fixture = DifferentialWorkload(seed, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        reference = ShardExecutor(spec, shards=3, chunk_size=64).run(stream)
        with _executor(spec, persistent=persistent) as executor:
            checkpointed = executor.run(stream)
        assert checkpointed.used_workers == persistent
        assert checkpointed.snapshot == reference.snapshot
        assert checkpointed.report == reference.report
        assert (checkpointed.snapshot, checkpointed.report) == _single_lark(
            fixture, stream
        )
        assert checkpointed.crashes == 0
        assert checkpointed.retries == 0
        assert checkpointed.recovered_packets == 0
        assert checkpointed.total_packets == len(stream)
        assert reference.epochs == [1, 1, 1]

    def test_matches_one_epoch_run_on_agg(self):
        fixture = DifferentialWorkload(5, num_users=150)
        payloads = fixture.payloads("uniform", 400)
        spec = _agg_spec(fixture)
        reference = ShardExecutor(spec, shards=3, chunk_size=64).run(payloads)
        checkpointed = _executor(spec).run(payloads)
        assert checkpointed.snapshot == reference.snapshot
        assert checkpointed.report == reference.report

    def test_checkpoints_taken_at_epoch_boundaries(self):
        fixture = DifferentialWorkload(5, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        executor = _executor(spec)
        result = executor.run(stream)
        # one checkpoint per completed epoch, across all shards
        checkpoints = executor.registry.value("shard_executor.checkpoints")
        assert checkpoints == sum(result.epochs)
        assert min(result.epochs) >= 2


class TestCrashRecovery:
    @pytest.mark.parametrize("seed", SEEDS)
    @TRANSPORTS
    @pytest.mark.usefixtures("kernel_form")
    def test_scripted_kill_recovers_bit_identical(self, seed, persistent):
        fixture = DifferentialWorkload(seed, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        plan = ShardFaultPlan(seed=seed).kill_shard(1, at_batch=2)
        with _executor(
            spec, plan=plan, persistent=persistent
        ) as executor:
            faulted = executor.run(stream)
        assert faulted.used_workers == persistent
        assert (faulted.snapshot, faulted.report) == _single_lark(
            fixture, stream
        )
        assert faulted.crashes == 1
        assert faulted.retries == 1
        # tail-only recovery: at most one epoch replayed per crash
        assert 0 < faulted.recovered_packets <= executor.epoch_size
        assert executor.registry.value("shard_executor.crashes") == 1
        assert executor.registry.value(
            "shard_executor.recovered_packets"
        ) == faulted.recovered_packets

    def test_crash_in_first_epoch_restarts_from_empty(self):
        fixture = DifferentialWorkload(7, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _executor(spec).run(stream)
        plan = ShardFaultPlan().kill_shard(0, at_batch=0)
        faulted = _executor(spec, plan=plan).run(stream)
        assert faulted.snapshot == baseline.snapshot
        assert faulted.crashes == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_crash_probability_recovers_and_is_deterministic(
        self, seed
    ):
        fixture = DifferentialWorkload(seed, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _executor(spec).run(stream)
        plan = ShardFaultPlan(seed=seed, crash_probability=0.25)
        first = _executor(spec, plan=plan, max_retries=5).run(stream)
        second = _executor(spec, plan=plan, max_retries=5).run(stream)
        assert first.snapshot == baseline.snapshot
        assert first.report == baseline.report
        # same plan, same seed: same crash schedule, same tallies
        assert first.crashes == second.crashes
        assert first.recovered_packets == second.recovered_packets
        assert first.snapshot == second.snapshot

    def test_retry_exhaustion_salvages_in_process(self):
        fixture = DifferentialWorkload(9, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _executor(spec).run(stream)
        # dies on every attempt the executor is willing to make
        plan = ShardFaultPlan().kill_shard(2, at_batch=2, times=10)
        executor = _executor(spec, plan=plan, max_retries=2)
        faulted = executor.run(stream)
        assert faulted.salvaged == [2]
        assert faulted.snapshot == baseline.snapshot
        assert faulted.report == baseline.report
        assert executor.registry.value("shard_executor.salvages") == 1

    def test_backoff_is_bounded_and_exponential(self):
        fixture = DifferentialWorkload(9, num_users=100)
        stream = _stream(fixture, packets=400)
        spec = _lark_spec(fixture)
        retries = 8
        plan = ShardFaultPlan().kill_shard(0, at_batch=0, times=retries)
        slept = []
        _executor(
            spec, plan=plan, max_retries=retries, sleep=slept.append,
        ).run(stream)
        # doubled from the base, then clamped at the cap
        assert slept == [
            min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2 ** k)
            for k in range(retries)
        ]
        assert slept[0] == BACKOFF_BASE_S
        assert slept[-1] == BACKOFF_MAX_S > slept[-2]

    def test_continued_pieces_are_one_chunk_to_the_fault_plan(self):
        """A ring worker feeds a chunk the ring split as a first piece
        plus ``continued`` ones: the kill scripted for chunk 1 spares
        every piece of chunk 0 and fires, before any fold, on chunk 1."""
        fixture = DifferentialWorkload(5, num_users=150)
        payloads = fixture.payloads("uniform", 60)
        replica = Replica(
            _agg_spec(fixture), 0, ShardFaultPlan().kill_shard(0, at_batch=1)
        )
        replica.arm(0, 0, 0)
        replica.feed(payloads[:20])
        replica.feed(payloads[20:40], continued=True)
        assert replica.counters()["packets"] == 40
        with pytest.raises(ShardCrash, match="batch 1 "):
            replica.feed(payloads[40:])
        assert replica.counters()["packets"] == 40


class TestValidation:
    def test_lark_dedup_is_rejected_with_checkpoints(self):
        fixture = DifferentialWorkload(3, num_users=50)
        spec = _lark_spec(fixture, dedup=True)
        with pytest.raises(ValueError, match="dedup"):
            ShardExecutor(spec, checkpoint_batches=4)
        ShardExecutor(spec)  # one epoch per run: accepted

    def test_placement_must_match_shards(self):
        fixture = DifferentialWorkload(3, num_users=50)
        spec = _lark_spec(fixture)
        with pytest.raises(ValueError, match="placement"):
            ShardExecutor(spec, shards=3, placement=PartitionMap(2))
        with pytest.raises(ValueError):
            PartitionMap(0)
        assert ShardExecutor(
            spec, shards=3, placement=PartitionMap(3)
        ).shards == 3

    def test_bad_parameters_rejected(self):
        fixture = DifferentialWorkload(3, num_users=50)
        spec = _lark_spec(fixture)
        with pytest.raises(ValueError):
            ShardExecutor(spec, backend="gpu")
        with pytest.raises(ValueError):
            ShardExecutor(spec, shards=0)
        with pytest.raises(ValueError):
            ShardExecutor(spec, checkpoint_batches=0)
        with pytest.raises(ValueError):
            ShardExecutor(spec, max_retries=-1)


class TestDedupOneEpoch:
    """A one-epoch run replays a crashed shard from a fresh replica, so
    Bloom dedup state needs no checkpoint: the report is the
    fault-free one."""

    @TRANSPORTS
    def test_scripted_kill_on_dedup_run_is_invisible(
        self, persistent, shm_leakcheck
    ):
        fixture = DifferentialWorkload(13, num_users=150)
        stream = _stream(fixture)
        stream += stream[::3]  # resent cookies for the filter to drop
        spec = _lark_spec(fixture, dedup=True)
        baseline = ShardExecutor(spec, shards=2, chunk_size=32).run(stream)
        with ShardExecutor(
            spec, shards=2, chunk_size=32, persistent=persistent,
            fault_plan=ShardFaultPlan().kill_shard(1, at_batch=3),
            sleep=lambda _s: None, registry=MetricsRegistry(),
        ) as executor:
            faulted = executor.run(stream)
        assert faulted.used_workers == persistent, faulted.fallback_cause
        assert faulted.crashes == 1
        assert faulted.snapshot == baseline.snapshot
        assert faulted.report == baseline.report
        assert faulted.shard_folded == baseline.shard_folded


class TestOneLoopEveryMode:
    """In-process and ring workers under the same scripted kill: the
    merged snapshot is the same everywhere, every packet is folded
    exactly once, and a crash replays at most one epoch."""

    @TRANSPORTS
    def test_scripted_kill_is_invisible(self, persistent):
        fixture = DifferentialWorkload(19, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        reference = _executor(spec, shards=2).run(stream)
        with _executor(
            spec,
            shards=2,
            plan=ShardFaultPlan(seed=19).kill_shard(1, at_batch=2),
            persistent=persistent,
        ) as executor:
            result = executor.run(stream)
        assert result.used_workers == persistent, result.fallback_cause
        assert result.snapshot == reference.snapshot
        assert result.report == reference.report
        # Conservation.
        assert sum(result.shard_packets) == len(stream)
        assert result.crashes == 1
        if persistent:
            assert result.worker_respawns == 1
        assert (
            0
            < result.recovered_packets
            <= result.crashes * executor.epoch_size
        )

    def test_unavailable_workers_fall_back_with_a_cause(self, monkeypatch):
        """No spawn, no shared memory: the run completes in-process,
        says so, and says why."""
        import multiprocessing

        def _broken(method):
            raise OSError("no process spawning here")

        monkeypatch.setattr(multiprocessing, "get_context", _broken)
        fixture = DifferentialWorkload(21, num_users=100)
        stream = _stream(fixture, packets=300)
        spec = _lark_spec(fixture)
        inline = _executor(spec, chunk_size=64).run(stream)
        executor = _executor(spec, chunk_size=64, persistent=True)
        result = executor.run(stream)
        assert not result.used_workers
        assert result.fallback_cause
        assert result.snapshot == inline.snapshot
        assert result.report == inline.report
        assert executor.registry.value(
            "shard_executor.worker_fallbacks"
        ) == 1


@needs_shm
class TestPushOrder:
    """Over ring workers each epoch round pushes every busy shard
    before it drains any, so the shards fold side by side; a
    drain-each-shard-before-pushing-the-next order would serialize
    them."""

    @pytest.mark.parametrize("checkpoint_batches", [None, 2])
    def test_every_push_of_a_round_precedes_its_first_drain(
        self, monkeypatch, checkpoint_batches
    ):
        calls = []
        push, drain = ShardWorker.push_batch, ShardWorker.drain

        def spy_push(self, rows, *args, **kwargs):
            calls.append(("push", self.shard_index))
            return push(self, rows, *args, **kwargs)

        def spy_drain(self, *args, **kwargs):
            calls.append(("drain", self.shard_index))
            return drain(self, *args, **kwargs)

        monkeypatch.setattr(ShardWorker, "push_batch", spy_push)
        monkeypatch.setattr(ShardWorker, "drain", spy_drain)
        fixture = DifferentialWorkload(27, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        with _executor(
            spec, shards=2, persistent=True,
            checkpoint_batches=checkpoint_batches,
        ) as executor:
            result = executor.run(stream)
        assert result.used_workers, result.fallback_cause
        # Cut the call log into rounds: pushes, then the drains.
        rounds = []
        for op, shard in calls:
            if op == "push" and (not rounds or rounds[-1][1]):
                rounds.append((set(), set()))
            rounds[-1][op == "drain"].add(shard)
        epochs = result.epochs
        assert len(rounds) == max(epochs)
        if checkpoint_batches is not None:
            assert min(epochs) >= 2
        for number, (pushed, drained) in enumerate(rounds):
            busy = {s for s, count in enumerate(epochs) if count > number}
            assert pushed == drained == busy, (number, calls)


@needs_shm
class TestRunToRunIsolation:
    """One persistent executor, three consecutive runs, the third's
    scripted kill landing past the earlier runs' chunk counts: each
    equals a fresh in-process run byte for byte, per-shard counts
    included."""

    def test_consecutive_runs_share_no_state(self, shm_leakcheck):
        fixture = DifferentialWorkload(31, num_users=150)
        spec = _agg_spec(fixture)
        streams = [
            fixture.payloads("uniform", 150),
            fixture.payloads("zipfian", 500),
            fixture.payloads("uniform", 900),
        ]
        plan = ShardFaultPlan().kill_shard(0, at_batch=8)
        results = []
        with _executor(
            spec, shards=3, plan=plan, persistent=True,
        ) as executor:
            for stream in streams:
                results.append(executor.run(stream))
        for stream, result in zip(streams, results):
            fresh = ShardExecutor(spec, shards=3, chunk_size=32).run(stream)
            assert result.used_workers, result.fallback_cause
            assert result.snapshot == fresh.snapshot
            assert result.report == fresh.report
            assert result.total_packets == len(stream)
            assert result.shard_packets == fresh.shard_packets
        first, second, killed = results
        assert first.crashes == second.crashes == 0
        assert killed.crashes == 1 and killed.worker_respawns == 1

    def test_shard_idle_in_a_later_run_holds_nothing_from_an_earlier_one(
        self, shm_leakcheck
    ):
        """A worker that folded the first run but none of the second
        was reset at the end of the first all the same: the third run,
        which routes to it again, equals a fresh run."""
        fixture = DifferentialWorkload(33, num_users=150)
        spec = _agg_spec(fixture)
        stream = fixture.payloads("uniform", 129)
        streams = [stream, stream[:1], stream]
        with _executor(spec, shards=2, persistent=True) as executor:
            runs = [executor.run(each) for each in streams]
        assert 0 in runs[1].shard_packets
        for each, result in zip(streams, runs):
            fresh = ShardExecutor(spec, shards=2, chunk_size=32).run(each)
            assert result.used_workers, result.fallback_cause
            assert result.shard_packets == fresh.shard_packets
            assert result.snapshot == fresh.snapshot
            assert result.report == fresh.report

    def test_salvaged_last_epoch_leaves_a_fresh_worker(self, shm_leakcheck):
        """Salvage finishes a run's last epoch in-process; the worker
        respawned after it starts empty, as a reset drain would have
        left it.  The second run is too short to reach the kill."""
        fixture = DifferentialWorkload(35, num_users=150)
        spec = _agg_spec(fixture)
        streams = [
            fixture.payloads("uniform", 300),
            fixture.payloads("zipfian", 60),
        ]
        with _executor(
            spec, shards=2, persistent=True, checkpoint_batches=None,
            plan=ShardFaultPlan().kill_shard(1, at_batch=3, times=10),
            max_retries=1,
        ) as executor:
            runs = [executor.run(stream) for stream in streams]
        assert [run.salvaged for run in runs] == [[1], []]
        assert runs[1].crashes == 0
        for stream, result in zip(streams, runs):
            fresh = ShardExecutor(spec, shards=2, chunk_size=32).run(stream)
            assert result.snapshot == fresh.snapshot
            assert result.report == fresh.report

class TestExecutorFallbackCause:
    def test_worker_failure_surfaces_cause_and_counter(self, monkeypatch):
        import multiprocessing

        fixture = DifferentialWorkload(31, num_users=100)
        stream = _stream(fixture, packets=300)
        spec = _lark_spec(fixture)

        def _broken(method):
            raise OSError("no process spawning here")

        monkeypatch.setattr(multiprocessing, "get_context", _broken)
        registry = MetricsRegistry()
        executor = ShardExecutor(
            spec, shards=2, registry=registry, persistent=True,
        )
        result = executor.run(stream)
        assert not result.used_workers
        assert result.fallback_cause is not None
        assert executor.last_error == result.fallback_cause
        assert registry.value("shard_executor.worker_fallbacks") == 1
        reference = ShardExecutor(spec, shards=2).run(stream)
        assert result.snapshot == reference.snapshot
        assert result.report == reference.report

    def test_sequential_run_has_no_fallback_cause(self):
        fixture = DifferentialWorkload(31, num_users=100)
        stream = _stream(fixture, packets=200)
        spec = _lark_spec(fixture)
        result = ShardExecutor(
            spec, shards=2, registry=MetricsRegistry()
        ).run(stream)
        assert not result.used_workers
        assert result.fallback_cause is None
