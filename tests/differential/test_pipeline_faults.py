"""Fault stages of the streaming pipeline: dead letters, one batch in
flight, and period-boundary checkpoints.

Extends the streaming differential suite with the robustness contract:
corrupted aggregation payloads become counted **dead letters** instead
of aborting or silently skewing the fold; the ``on_batch`` hook sees
the pipeline in lockstep, every earlier batch folded; and the period
checkpoints the pipeline takes are exactly the snapshots a crashed
replica would restore.
"""

import gc

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggResult
from repro.obs.registry import MetricsRegistry
from repro.quic.connection_id import ConnectionID
from repro.testbed.executor import Replica, ShardSpec, process_isolated
from repro.testbed.pipeline import BACKENDS, StreamingPipeline
from repro.workloads.adcampaign import AdCampaignWorkload

RATE = 3000.0
DURATION_MS = 400.0
PERIOD_MS = 100.0
ONE_SHOT = 1 << 20


def _pipe(backend, **kwargs):
    workload = AdCampaignWorkload(num_users=80, seed=11)
    defaults = dict(
        seed=11,
        mode=ForwardingMode.PERIODICAL,
        period_ms=PERIOD_MS,
        backend=backend,
        batch_size=64,
        registry=MetricsRegistry(),
    )
    defaults.update(kwargs)
    return StreamingPipeline(workload, **defaults)


def _observables(result):
    return (
        result.report,
        result.register_state,
        result.payloads,
        result.merged,
        result.periods,
    )


class TestDeadLetters:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_corrupted_payloads_become_dead_letters(self, backend):
        pipe = _pipe(backend, corrupt_probability=0.3)
        result = pipe.run(RATE, DURATION_MS)
        corrupted = result.hop["corrupted"]
        assert corrupted > 0  # the hop's corrupt fault actually fired
        assert result.dead_letters > 0
        assert result.dead_letters <= corrupted
        assert (
            pipe.registry.value("pipeline.dead_letters")
            == result.dead_letters
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_surviving_payloads_still_fold_correctly(self, backend):
        """Dead letters are dropped, never double-counted: the merged
        total is exactly (payloads - dead letters)."""
        result = _pipe(backend, corrupt_probability=0.3).run(RATE, DURATION_MS)
        assert result.merged == result.payloads - result.dead_letters

    def test_corruption_is_batch_shape_invariant(self):
        one_shot = _pipe(
            "columnar", corrupt_probability=0.3, batch_size=ONE_SHOT
        ).run(RATE, DURATION_MS)
        for batch_size in (5, 64):
            streamed = _pipe(
                "columnar", corrupt_probability=0.3, batch_size=batch_size
            ).run(RATE, DURATION_MS)
            assert _observables(streamed) == _observables(one_shot)
            assert streamed.dead_letters == one_shot.dead_letters

    @pytest.mark.parametrize("backend", ("scalar", "columnar"))
    def test_results_are_counted_not_kept(self, backend):
        """merged / dead letters are counted as batches pass; no
        per-payload result outlives its batch (a per-packet stream has
        one payload per event)."""
        kwargs = dict(mode=ForwardingMode.PER_PACKET, corrupt_probability=0.2)

        def live_results():
            gc.collect()
            return sum(isinstance(o, AggResult) for o in gc.get_objects())

        before = live_results()
        held = []
        result = _pipe(
            backend, on_batch=lambda _p, _c: held.append(live_results()),
            **kwargs
        ).run(RATE, DURATION_MS)
        assert len(held) > 10 and max(held) - before <= 64  # one batch
        assert result.dead_letters == result.payloads - result.merged > 0

    def test_columnar_run_counts_off_the_batch_without_a_result(
        self, monkeypatch
    ):
        """``_deliver`` reads ``AggBatchResult.merged``: a columnar
        per-packet run nobody collects results from builds not one
        ``AggResult``, and counts what the scalar run counts."""
        from repro.core import aggswitch

        kwargs = dict(mode=ForwardingMode.PER_PACKET, corrupt_probability=0.2)
        scalar = _pipe("scalar", **kwargs).run(RATE, DURATION_MS)

        def forbidden(*_args, **_kwargs):
            raise AssertionError("rendered a per-payload result")

        monkeypatch.setattr(aggswitch, "AggResult", forbidden)
        columnar = _pipe("columnar", **kwargs).run(RATE, DURATION_MS)
        assert columnar.dead_letters == scalar.dead_letters > 0
        assert _observables(columnar) == _observables(scalar)

    def test_no_corruption_no_dead_letters(self):
        result = _pipe("columnar").run(RATE, DURATION_MS)
        assert result.dead_letters == 0
        assert result.counts_match_reference()


class TestBoundedInflight:
    def test_on_batch_hook_forces_lockstep(self):
        """One thread runs generate, encode, lark and agg, so one
        micro-batch is in flight: when the hook sees a batch, every
        earlier batch is already folded and no later one has begun."""
        for backend in BACKENDS:
            seen = []
            result = _pipe(
                backend,
                mode=ForwardingMode.PER_PACKET,
                on_batch=lambda pipe, cols: seen.append(
                    (pipe.half.merged, len(cols))
                ),
            ).run(RATE, DURATION_MS)
            folded = 0
            for merged, rows in seen:
                assert merged == folded, backend
                folded += rows
            assert folded == result.merged == result.payloads > 0
            assert len(seen) == result.batches > 1


class TestPeriodCheckpoints:
    def test_checkpoints_taken_every_n_periods(self):
        pipe = _pipe("columnar", checkpoint_every_periods=2)
        result = pipe.run(RATE, DURATION_MS)
        assert result.periods >= 4
        assert result.checkpoints == result.periods // 2
        assert (
            pipe.registry.value("pipeline.checkpoints")
            == result.checkpoints
        )

    def test_last_checkpoint_restores_into_fresh_switches(self):
        """The pipeline's period checkpoint is a real recovery point:
        restoring it into fresh switches reproduces the registers."""
        pipe = _pipe("columnar", checkpoint_every_periods=1)
        pipe.run(RATE, DURATION_MS)
        checkpoint = pipe.last_checkpoint
        assert checkpoint is not None
        assert checkpoint["period"] == pipe.periods

        clone = _pipe("columnar")
        clone.lark.restore(clone.app_id, checkpoint["lark"])
        clone.agg.restore(clone.app_id, checkpoint["agg"])
        assert (
            clone.lark.checkpoint(clone.app_id) == checkpoint["lark"]
        )
        assert clone.agg.checkpoint(clone.app_id) == checkpoint["agg"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_period_checkpoint_holds_the_whole_period(self, backend):
        """A period checkpoint is taken once the period's payloads have
        reached the AggSwitch: the tail period's checkpoint is the
        end-of-run register state."""
        pipe = _pipe(backend, checkpoint_every_periods=1)
        pipe.run(RATE, DURATION_MS)
        assert pipe.last_checkpoint["agg"] == pipe.agg.checkpoint(
            pipe.app_id
        )

    def test_zero_means_no_checkpoints(self):
        pipe = _pipe("columnar")
        result = pipe.run(RATE, DURATION_MS)
        assert result.checkpoints == 0
        assert pipe.last_checkpoint is None


class TestPoisonIsolation:
    """One routine (``process_isolated``) keeps a raising entry point
    from taking a whole chunk down, for the pipeline's agg stage and
    for shard replicas alike."""

    @staticmethod
    def _poisoning(inner):
        """Wrap an entry point so the first row of the first multi-row
        chunk it sees raises whenever it is present."""
        poison = []

        def process(rows):
            rows = list(rows)
            if not poison and len(rows) > 1:
                poison.append(bytes(rows[0]))
            if poison and poison[0] in [bytes(r) for r in rows]:
                raise RuntimeError("poison packet")
            return inner(rows)

        return process

    def test_chunk_is_retried_row_by_row_and_single_rows_are_not(self):
        calls = []

        def process(rows):
            calls.append(len(rows))
            if b"poison" in rows:
                raise RuntimeError("poison packet")
            return [row.upper() for row in rows]

        assert process_isolated(process, [b"a", b"poison", b"b"]) == (
            [b"A", b"B"], 1
        )
        assert calls == [3, 1, 1, 1]
        del calls[:]
        assert process_isolated(process, [b"poison"]) == ([], 1)
        assert calls == [1]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pipeline_books_the_poison_as_one_dead_letter(self, backend):
        pipe = _pipe(backend, mode=ForwardingMode.PER_PACKET)
        pipe.half._agg_process = self._poisoning(pipe.half._agg_process)
        result = pipe.run(RATE, DURATION_MS)
        assert result.dead_letters == 1
        assert result.merged == result.payloads - 1

    def test_replica_leaves_the_poison_unfolded(self):
        pipe = _pipe("columnar", mode=ForwardingMode.PER_PACKET)
        payloads = []
        pipe.half._deliver = payloads.extend
        pipe.run(RATE, DURATION_MS)
        replica = Replica(
            ShardSpec(
                kind="agg", app_id=pipe.app_id,
                schema=pipe.workload.schema(), key=pipe._key,
                specs=tuple(pipe.workload.specs()),
            ),
            0,
        )
        replica._process = self._poisoning(replica._process)
        replica.feed(payloads[:50])
        assert replica.counters() == {
            "packets": 50, "folded": 49, "unmerged": 1,
        }


class TestLarkReplicaCounters:
    """A lark replica counts folded packets off the columnar batch: the
    count a scalar switch folds, without rendering a single value dict
    from its wire rows."""

    def test_folded_count_needs_no_rendered_values(self, monkeypatch):
        import random

        from repro.core.transport_cookie import TransportCookieCodec

        workload = AdCampaignWorkload(num_users=80, seed=11)
        schema, key = workload.schema(), bytes(range(16))
        spec = ShardSpec(
            kind="lark", app_id=0x5C, schema=schema, key=key,
            specs=tuple(workload.specs()), dedup=True,
        )
        rng = random.Random(2)
        good = TransportCookieCodec(0x5C, schema, key, rng)
        stale = TransportCookieCodec(0x5C, schema, bytes(16), rng)
        cols = workload.stream(20000.0, 20.0).generate_batch(300)
        rows = [
            bytes((stale if i % 10 == 0 else good).encode(
                workload.cookie_values_at(cols, i)
            ))
            for i in range(len(cols))
        ]
        rows += rows[:40]  # repeats: deduplicated, so not folded
        rendered = []
        render = TransportCookieCodec.values_from_row
        monkeypatch.setattr(
            TransportCookieCodec, "values_from_row",
            lambda self, row: rendered.append(row) or render(self, row),
        )
        replica = Replica(spec, 0)
        replica.feed(rows)
        assert rendered == []
        scalar = Replica(spec, 0).switch
        folded = sum(
            scalar.process_quic_packet(ConnectionID(row)).folded
            for row in rows
        )
        assert 0 < folded < 300
        assert replica.counters() == {
            "packets": 340, "folded": folded, "unmerged": 340 - folded,
        }
