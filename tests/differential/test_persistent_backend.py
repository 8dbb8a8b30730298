"""Differential proof for the persistent ring-fed worker tier.

A long-lived shard worker fed over a shared-memory columnar ring is
only an optimization if it changes nothing observable: every run that
streams through :mod:`repro.testbed.worker` must equal the in-process
columnar shards and one scalar switch byte for byte — merged register
snapshots, rendered reports, per-shard packet/fold counters — and the
streamed pipeline's observables must equal its in-process tiers', at
five seeds, across the uniform / zipfian /
adversarial workload shapes, sharded and unsharded, for both switch
kinds, including mid-run rekey and forwarding-period boundaries.

The whole module skips where POSIX shared memory is unavailable.
"""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.quic.connection_id import ConnectionID
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.testbed.pipeline import StreamingPipeline
from repro.testbed.shm_ring import shared_memory_available
from repro.workloads.adcampaign import AdCampaignWorkload

from tests.differential.workloads import (
    APP_ID,
    SHAPES,
    DifferentialWorkload,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable",
)

SEEDS = (11, 23, 37, 41, 59)
PACKETS = 400
INLINE_BACKENDS = ("scalar", "columnar")


def _agg_spec(wl: DifferentialWorkload) -> ShardSpec:
    return ShardSpec(
        kind="agg", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7,
    )


def _lark_spec(wl: DifferentialWorkload) -> ShardSpec:
    # dedup off so results depend only on packet order, not arrival
    # timing — the property every transport must then agree on.
    return ShardSpec(
        kind="lark", app_id=APP_ID, schema=wl.schema, key=wl.key,
        specs=tuple(wl.specs), seed=7, dedup=False,
    )


def _observables(result):
    return (
        result.snapshot,
        result.report,
        result.shard_packets,
        result.shard_folded,
    )


def _inline(spec, packets, shards):
    executor = ShardExecutor(spec, shards=shards, chunk_size=96)
    return _observables(executor.run(packets))


def _single_switch(wl, spec, packets):
    """One scalar switch fed every packet: the merged snapshot and the
    report every shard run must reproduce."""
    if spec.kind == "agg":
        agg = wl.new_agg()
        for payload in packets:
            agg.process_packet(payload)
        return agg.checkpoint(APP_ID), agg.report(APP_ID)
    lark = wl.new_lark()
    for cid in packets:
        lark.process_quic_packet(ConnectionID(cid))
    return lark.checkpoint(APP_ID), lark.stats_report(APP_ID)


def _assert_matches(wl, spec, packets, shards, got, label):
    assert got == _inline(spec, packets, shards), label
    assert got[:2] == _single_switch(wl, spec, packets), label


class TestExecutorSharded:
    """Persistent fleet vs in-process shards and one scalar switch,
    2-way sharded.

    One fleet per seed is reused across all three workload shapes
    (``drain(reset=True)`` returns every worker replica to pristine
    state between runs), which is exactly how long-lived deployments
    drive it — so shape N also proves run N-1 left no residue.
    """

    @pytest.mark.parametrize("seed", SEEDS)
    def test_agg_matches_every_inline_backend(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        with ShardExecutor(
            spec, shards=2, chunk_size=96, persistent=True,
        ) as executor:
            for shape in SHAPES:
                packets = wl.payloads(shape, PACKETS)
                result = executor.run(packets)
                assert result.used_workers, (shape, result.fallback_cause)
                _assert_matches(
                    wl, spec, packets, 2, _observables(result),
                    (seed, shape),
                )

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_lark_cid_stream_matches(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _lark_spec(wl)
        with ShardExecutor(
            spec, shards=2, chunk_size=96, persistent=True,
        ) as executor:
            for shape in SHAPES:
                packets = [bytes(c) for c in wl.cids(shape, PACKETS)]
                result = executor.run(packets)
                assert result.used_workers, (shape, result.fallback_cause)
                _assert_matches(
                    wl, spec, packets, 2, _observables(result),
                    (seed, shape),
                )

    def test_skewed_partition_matches(self):
        """The hash-collision adversary: most packets land on one
        shard, so one ring saturates while the other idles."""
        wl = DifferentialWorkload(seed=SEEDS[0])
        spec = _agg_spec(wl)
        packets = wl.skewed_payloads(PACKETS, shards=2)
        with ShardExecutor(
            spec, shards=2, chunk_size=32, persistent=True,
        ) as executor:
            result = executor.run(packets)
            assert result.used_workers, result.fallback_cause
            _assert_matches(
                wl, spec, packets, 2, _observables(result), "skewed"
            )


class TestExecutorUnsharded:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_shard_matches_every_inline_backend(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        with ShardExecutor(
            spec, shards=1, chunk_size=96, persistent=True,
        ) as executor:
            for shape in SHAPES:
                packets = wl.payloads(shape, PACKETS)
                result = executor.run(packets)
                assert result.used_workers, (shape, result.fallback_cause)
                _assert_matches(
                    wl, spec, packets, 1, _observables(result),
                    (seed, shape),
                )


# -- streamed pipeline ------------------------------------------------------

RATE = 3000.0
DURATION_MS = 400.0
PERIOD_MS = 100.0  # four forwarding-period boundaries per run


def _pipeline_run(backend, seed, mode=ForwardingMode.PERIODICAL,
                  on_batch=None, **kw):
    workload = AdCampaignWorkload(num_users=80, seed=seed)
    pipe = StreamingPipeline(
        workload,
        seed=seed,
        mode=mode,
        period_ms=PERIOD_MS,
        backend=backend,
        batch_size=64,
        on_batch=on_batch,
        **kw,
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


class TestPipelineDifferential:
    @pytest.mark.parametrize("seed", (SEEDS[0], SEEDS[3]))
    def test_periodical_matches_inline_backends(self, seed):
        """Periodical mode crosses four period boundaries; the
        persistent stream must flush and fold at the same instants."""
        got, result = _pipeline_run("persistent", seed)
        assert result.counts_match_reference()
        for backend in INLINE_BACKENDS:
            assert got == _pipeline_run(backend, seed)[0], (seed, backend)

    def test_per_packet_matches_inline_backends(self):
        got, result = _pipeline_run(
            "persistent", SEEDS[1], mode=ForwardingMode.PER_PACKET
        )
        assert result.counts_match_reference()
        for backend in INLINE_BACKENDS:
            assert got == _pipeline_run(
                backend, SEEDS[1], mode=ForwardingMode.PER_PACKET
            )[0], backend


class TestPipelineMidRunRekey:
    def test_rekey_mid_run_matches_columnar(self):
        """A controller rekey lands between micro-batches while agg
        batches are already queued on the ring; the worker must apply
        it at exactly the same stream position as the inline path."""
        new_key = bytes(range(16))

        def make_hook():
            seen = []

            def hook(pipe, cols):
                seen.append(True)
                if len(seen) == 3:
                    pipe.rekey(new_key)

            return hook

        got, result = _pipeline_run(
            "persistent", SEEDS[0], mode=ForwardingMode.PER_PACKET,
            on_batch=make_hook(),
        )
        assert result.counts_match_reference()
        assert got == _pipeline_run(
            "columnar", SEEDS[0], mode=ForwardingMode.PER_PACKET,
            on_batch=make_hook(),
        )[0]


# -- the switch half in the worker: fault stages, checkpoints, rekey ---------

NEW_KEY = bytes(range(16))


def _half_run(backend, seed, **kw):
    """One run's observables, checkpoint count and last checkpoint."""
    kw.setdefault("batch_size", 64)
    workload = AdCampaignWorkload(num_users=80, seed=seed)
    with StreamingPipeline(
        workload, seed=seed, period_ms=PERIOD_MS, backend=backend, **kw
    ) as pipe:
        result = pipe.run(RATE, DURATION_MS)
    # A dead letter's counts are lost by design.
    assert result.dead_letters or result.counts_match_reference()
    return (
        result.events,
        result.payloads,
        result.merged,
        result.periods,
        result.report,
        result.register_state,
        result.dead_letters,
        result.checkpoints,
        pipe.last_checkpoint,
    )


class TestPipelineSwitchHalf:
    """The persistent tier runs LarkSwitch -> corrupt -> reorder ->
    AggSwitch in its worker; every stage there must act at the stream
    position the in-process columnar tier acts at."""

    @pytest.mark.parametrize(
        "mode", (ForwardingMode.PERIODICAL, ForwardingMode.PER_PACKET)
    )
    def test_reorder_matches_columnar(self, mode):
        # A period's payloads held back across the next checkpoint show
        # in its AggSwitch snapshot: the order becomes observable.
        kw = dict(
            mode=mode, reorder_probability=0.3, checkpoint_every_periods=1
        )
        assert _half_run("persistent", SEEDS[2], **kw) == _half_run(
            "columnar", SEEDS[2], **kw
        )

    @pytest.mark.parametrize(
        "mode", (ForwardingMode.PERIODICAL, ForwardingMode.PER_PACKET)
    )
    def test_the_agg_switch_sees_the_same_payload_bytes(
        self, mode, monkeypatch, tmp_path
    ):
        """Payload bytes, not just reports: with corruption and
        reordering on, the worker's AggSwitch is handed the same
        payloads in the same order as the in-process one.  A forked
        worker inherits the recording patch."""
        from repro.testbed.pipeline import SwitchHalf
        from repro.testbed.worker import _start_context

        if _start_context().get_start_method() != "fork":
            pytest.skip("the recording patch reaches forked workers only")
        deliver = SwitchHalf._deliver
        trail = tmp_path / "trail"

        def record(half, payloads):
            with open(trail, "a") as out:
                out.writelines(bytes(p).hex() + "\n" for p in payloads)
            deliver(half, payloads)

        monkeypatch.setattr(SwitchHalf, "_deliver", record)
        trails = {}
        for backend in ("columnar", "persistent"):
            _half_run(
                backend, SEEDS[1], mode=mode, corrupt_probability=0.2,
                reorder_probability=0.3,
            )
            trails[backend] = trail.read_text()
            trail.unlink()
        assert trails["persistent"] == trails["columnar"] != ""

    def test_checkpoint_every_period_matches_columnar(self):
        got = _half_run("persistent", SEEDS[4], checkpoint_every_periods=1)
        assert got[7] == got[3] > 0 and got[8]["period"] == got[3]
        assert got == _half_run(
            "columnar", SEEDS[4], checkpoint_every_periods=1
        )

    def test_small_batches_and_a_period_boundary_rekey_match_columnar(self):
        """Batches of 16 keep many segments queued on the ring when the
        rekey, pushed right after the second period close, lands."""

        def rekey_after_second_period(pipe, _cols):
            if pipe.periods == 2 and pipe._key != NEW_KEY:
                pipe.rekey(NEW_KEY)

        kw = dict(batch_size=16, on_batch=rekey_after_second_period)
        got = _half_run("persistent", SEEDS[3], **kw)
        assert got[6] == 0  # no payload stranded under the old key
        assert got == _half_run("columnar", SEEDS[3], **kw)

    def test_the_switch_half_runs_in_the_worker(self, monkeypatch):
        """The parent's switches see no traffic: the worker's replica
        counts every event, and its barrier replies carry every
        payload."""
        from repro.testbed.worker import ShardWorker

        replies = []
        drain = ShardWorker.drain

        def spy(worker, *args, **kwargs):
            replies.append(drain(worker, *args, **kwargs))
            return replies[-1]

        monkeypatch.setattr(ShardWorker, "drain", spy)
        workload = AdCampaignWorkload(num_users=80, seed=SEEDS[0])
        with StreamingPipeline(
            workload, seed=SEEDS[0], period_ms=PERIOD_MS,
            backend="persistent", batch_size=64,
        ) as pipe:
            result = pipe.run(RATE, DURATION_MS)
        assert result.counts_match_reference()
        assert pipe.lark.pipeline.packets_processed == 0
        assert pipe.agg.pipeline.packets_processed == 0
        assert len(replies) == 1
        events = result.events
        assert replies[0]["counters"] == {
            "packets": events, "folded": events, "unmerged": 0,
        }
        assert replies[0]["snapshot"]["payloads"] == result.payloads > 0
        assert replies[0]["snapshot"]["merged"] == result.merged
