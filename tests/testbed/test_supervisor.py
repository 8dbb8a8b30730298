"""Supervised shard runtime: crash recovery must be invisible.

The contract under test: a :class:`ShardSupervisor` run with injected
worker crashes, timeouts or retry exhaustion produces
**byte-identical** snapshots and reports to the
fault-free :class:`ShardExecutor` reference — and the recovery replays
only the failed epoch's tail, never the whole stream.

Almost everything here runs over the in-process transport so the
assertions are exact and cheap; one parametrised case drives the same
scripted kill through both transports (in-process, ring-fed workers)
and both placements (static, elastic) and pins what may never differ
between them.
"""

import pytest

from repro.chaos import ShardCrash, ShardFaultPlan
from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.testbed.executor import Replica, ShardExecutor, ShardSpec
from repro.testbed.placement import PlacementController
from repro.testbed.shm_ring import shared_memory_available
from repro.testbed.supervisor import ShardSupervisor

from tests.differential.workloads import APP_ID, DifferentialWorkload

SEEDS = (3, 19, 71)


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


def _supervisor(spec, plan=None, **kwargs):
    defaults = dict(
        shards=3,
        backend="columnar",
        chunk_size=32,
        checkpoint_batches=2,
        fault_plan=plan,
        backoff_base_s=0.0,
        sleep=lambda _s: None,
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return ShardSupervisor(spec, **defaults)


class TestFaultFreeEquivalence:
    """No faults: the supervisor is just a checkpointing executor."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend", ["scalar", "columnar"])
    def test_matches_shard_executor_on_lark(self, seed, backend):
        fixture = DifferentialWorkload(seed, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        reference = ShardExecutor(
            spec, shards=3, backend=backend, chunk_size=64
        ).run(stream)
        supervised = _supervisor(spec, backend=backend).run(stream)
        assert supervised.snapshot == reference.snapshot
        assert supervised.report == reference.report
        assert supervised.crashes == 0
        assert supervised.retries == 0
        assert supervised.recovered_packets == 0
        assert supervised.total_packets == len(stream)

    def test_matches_shard_executor_on_agg(self):
        fixture = DifferentialWorkload(5, num_users=150)
        payloads = fixture.payloads("uniform", 400)
        spec = _agg_spec(fixture)
        reference = ShardExecutor(
            spec, shards=3, backend="columnar", chunk_size=64
        ).run(payloads)
        supervised = _supervisor(spec).run(payloads)
        assert supervised.snapshot == reference.snapshot
        assert supervised.report == reference.report

    def test_checkpoints_taken_at_epoch_boundaries(self):
        fixture = DifferentialWorkload(5, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        supervisor = _supervisor(spec)
        result = supervisor.run(stream)
        # one checkpoint per completed epoch, across all shards
        assert result.checkpoints == sum(result.epochs)
        assert result.checkpoints >= result.shards
        registry = supervisor.registry
        assert registry.value("supervisor.checkpoints") == result.checkpoints


class TestCrashRecovery:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("backend", ["scalar", "columnar"])
    def test_scripted_kill_recovers_bit_identical(self, seed, backend):
        fixture = DifferentialWorkload(seed, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        plan = ShardFaultPlan(seed=seed).kill_shard(1, at_batch=2)
        supervisor = _supervisor(spec, plan=plan, backend=backend)
        faulted = supervisor.run(stream)
        assert faulted.snapshot == baseline.snapshot
        assert faulted.report == baseline.report
        assert faulted.crashes == 1
        assert faulted.retries == 1
        # tail-only recovery: at most one epoch replayed per crash
        assert 0 < faulted.recovered_packets <= supervisor.epoch_size
        assert supervisor.registry.value("supervisor.crashes") == 1
        assert supervisor.registry.value(
            "supervisor.recovered_packets"
        ) == faulted.recovered_packets

    def test_crash_in_first_epoch_restarts_from_empty(self):
        fixture = DifferentialWorkload(7, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        plan = ShardFaultPlan().kill_shard(0, at_batch=0)
        faulted = _supervisor(spec, plan=plan).run(stream)
        assert faulted.snapshot == baseline.snapshot
        assert faulted.crashes == 1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seeded_crash_probability_recovers_and_is_deterministic(
        self, seed
    ):
        fixture = DifferentialWorkload(seed, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        baseline = _supervisor(spec).run(stream)
        plan = ShardFaultPlan(seed=seed, crash_probability=0.25)
        first = _supervisor(spec, plan=plan, max_retries=5).run(stream)
        second = _supervisor(spec, plan=plan, max_retries=5).run(stream)
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
        baseline = _supervisor(spec).run(stream)
        # dies on every attempt the supervisor is willing to make
        plan = ShardFaultPlan().kill_shard(2, at_batch=2, times=10)
        supervisor = _supervisor(spec, plan=plan, max_retries=2)
        faulted = supervisor.run(stream)
        assert faulted.salvaged == [2]
        assert faulted.snapshot == baseline.snapshot
        assert faulted.report == baseline.report
        assert supervisor.registry.value("supervisor.salvages") == 1

    def test_backoff_is_bounded_and_exponential(self):
        fixture = DifferentialWorkload(9, num_users=100)
        stream = _stream(fixture, packets=400)
        spec = _lark_spec(fixture)
        plan = ShardFaultPlan().kill_shard(0, at_batch=0, times=3)
        slept = []
        _supervisor(
            spec,
            plan=plan,
            max_retries=3,
            backoff_base_s=0.1,
            backoff_max_s=0.25,
            sleep=slept.append,
        ).run(stream)
        assert slept == [0.1, 0.2, 0.25]  # doubled, then clamped

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
        replica.feed(payloads[:20], "columnar")
        replica.feed(payloads[20:40], "columnar", continued=True)
        assert replica.counters()["packets"] == 40
        with pytest.raises(ShardCrash, match="batch 1 "):
            replica.feed(payloads[40:], "columnar")
        assert replica.counters()["packets"] == 40


class TestValidation:
    def test_lark_dedup_is_rejected(self):
        fixture = DifferentialWorkload(3, num_users=50)
        spec = _lark_spec(fixture, dedup=True)
        with pytest.raises(ValueError, match="dedup"):
            ShardSupervisor(spec)

    def test_bad_parameters_rejected(self):
        fixture = DifferentialWorkload(3, num_users=50)
        spec = _lark_spec(fixture)
        with pytest.raises(ValueError):
            ShardSupervisor(spec, backend="gpu")
        with pytest.raises(ValueError):
            ShardSupervisor(spec, shards=0)
        with pytest.raises(ValueError):
            ShardSupervisor(spec, checkpoint_batches=0)


class TestOneLoopEveryMode:
    """{static, elastic} x {in-process, ring workers} under the same
    scripted kill: the merged snapshot is the same everywhere, every
    packet is folded exactly once whatever the placement history, and
    a static crash replays at most one epoch."""

    @pytest.mark.parametrize("elastic", [False, True],
                             ids=["static", "elastic"])
    @pytest.mark.parametrize(
        "persistent",
        [
            False,
            pytest.param(
                True,
                marks=pytest.mark.skipif(
                    not shared_memory_available(),
                    reason="POSIX shared memory unavailable",
                ),
            ),
        ],
        ids=["inline", "workers"],
    )
    def test_scripted_kill_is_invisible(self, elastic, persistent):
        fixture = DifferentialWorkload(19, num_users=150)
        stream = _stream(fixture)
        spec = _lark_spec(fixture)
        reference = _supervisor(spec, shards=2).run(stream)
        controller = (
            PlacementController(
                shards=2,
                target_imbalance=1.05,
                rebalance_margin=0.05,
                cooldown_epochs=0,
                registry=MetricsRegistry(),
            )
            if elastic
            else None
        )
        supervisor = _supervisor(
            spec,
            shards=2,
            plan=ShardFaultPlan(seed=19).kill_shard(1, at_batch=2),
            persistent=persistent,
            placement=controller,
            job_timeout_s=30.0,
        )
        result = supervisor.run(stream)
        assert result.used_workers == persistent, result.fallback_cause
        assert result.snapshot == reference.snapshot
        assert result.report == reference.report
        # Conservation under any placement history.
        assert sum(result.shard_packets) == len(stream)
        assert result.crashes == 1
        if persistent:
            assert result.worker_respawns == 1
        if elastic:
            assert len(result.map_versions) >= 2
        else:
            assert (
                0
                < result.recovered_packets
                <= result.crashes * supervisor.epoch_size
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
        inline = _supervisor(spec, chunk_size=64).run(stream)
        supervisor = _supervisor(spec, chunk_size=64, persistent=True)
        result = supervisor.run(stream)
        assert not result.used_workers
        assert result.fallback_cause
        assert result.snapshot == inline.snapshot
        assert result.report == inline.report
        assert supervisor.registry.value("supervisor.worker_fallbacks") == 1


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
            spec, shards=2, backend="columnar", registry=registry,
            persistent=True,
        )
        result = executor.run(stream)
        assert not result.used_workers
        assert result.fallback_cause is not None
        assert executor.last_error == result.fallback_cause
        assert registry.value("shard_executor.worker_fallbacks") == 1
        reference = ShardExecutor(spec, shards=2, backend="columnar").run(stream)
        assert result.snapshot == reference.snapshot
        assert result.report == reference.report

    def test_sequential_run_has_no_fallback_cause(self):
        fixture = DifferentialWorkload(31, num_users=100)
        stream = _stream(fixture, packets=200)
        spec = _lark_spec(fixture)
        result = ShardExecutor(
            spec, shards=2, backend="columnar",
            registry=MetricsRegistry(),
        ).run(stream)
        assert not result.used_workers
        assert result.fallback_cause is None
