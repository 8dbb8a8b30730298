"""Differential proof for the persistent ring-fed worker tier.

A long-lived shard worker fed over a shared-memory columnar ring is
only an optimization if it changes nothing observable: every run that
streams through :mod:`repro.testbed.worker` must equal the in-process
scalar / columnar paths byte for byte — merged register
snapshots, rendered reports, per-shard packet/fold counters, streamed
pipeline observables — at five seeds, across the uniform / zipfian /
adversarial workload shapes, sharded and unsharded, for both switch
kinds, including mid-run rekey and forwarding-period boundaries.

The whole module skips where POSIX shared memory is unavailable.
"""

import pytest

from repro.core.aggregation import ForwardingMode
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
    # timing — the property every backend must then agree on.
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


def _inline(spec, packets, shards, backend):
    executor = ShardExecutor(
        spec, shards=shards, backend=backend, chunk_size=96
    )
    return _observables(executor.run(packets))


class TestExecutorSharded:
    """Persistent fleet vs the in-process backends, 2-way sharded.

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
            spec, shards=2, backend="columnar", chunk_size=96,
            persistent=True,
        ) as executor:
            for shape in SHAPES:
                packets = wl.payloads(shape, PACKETS)
                result = executor.run(packets)
                assert result.used_workers, (shape, result.fallback_cause)
                got = _observables(result)
                for backend in INLINE_BACKENDS:
                    assert got == _inline(spec, packets, 2, backend), (
                        seed, shape, backend,
                    )

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_lark_cid_stream_matches(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _lark_spec(wl)
        with ShardExecutor(
            spec, shards=2, backend="columnar", chunk_size=96,
            persistent=True,
        ) as executor:
            for shape in SHAPES:
                packets = [bytes(c) for c in wl.cids(shape, PACKETS)]
                result = executor.run(packets)
                assert result.used_workers, (shape, result.fallback_cause)
                got = _observables(result)
                for backend in INLINE_BACKENDS:
                    assert got == _inline(spec, packets, 2, backend), (
                        seed, shape, backend,
                    )

    def test_skewed_partition_matches(self):
        """The hash-collision adversary: most packets land on one
        shard, so one ring saturates while the other idles."""
        wl = DifferentialWorkload(seed=SEEDS[0])
        spec = _agg_spec(wl)
        packets = wl.skewed_payloads(PACKETS, shards=2)
        with ShardExecutor(
            spec, shards=2, backend="columnar", chunk_size=32,
            persistent=True,
        ) as executor:
            result = executor.run(packets)
            assert result.used_workers, result.fallback_cause
            assert _observables(result) == _inline(
                spec, packets, 2, "columnar"
            )


class TestExecutorUnsharded:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_single_shard_matches_every_inline_backend(self, seed):
        wl = DifferentialWorkload(seed=seed)
        spec = _agg_spec(wl)
        with ShardExecutor(
            spec, shards=1, backend="columnar", chunk_size=96,
            persistent=True,
        ) as executor:
            for shape in SHAPES:
                packets = wl.payloads(shape, PACKETS)
                result = executor.run(packets)
                assert result.used_workers, (shape, result.fallback_cause)
                got = _observables(result)
                for backend in INLINE_BACKENDS:
                    assert got == _inline(spec, packets, 1, backend), (
                        seed, shape, backend,
                    )


class TestWorkerBackendSelection:
    """The worker honors the scalar per-shard backend too: the ring
    transport is orthogonal to the compute tier it feeds."""

    def test_worker_runs_requested_backend(self):
        wl = DifferentialWorkload(seed=SEEDS[2])
        spec = _agg_spec(wl)
        packets = wl.payloads("zipfian", PACKETS)
        with ShardExecutor(
            spec, shards=2, backend="scalar", chunk_size=96,
            persistent=True,
        ) as executor:
            result = executor.run(packets)
            assert result.used_workers, result.fallback_cause
            assert _observables(result) == _inline(
                spec, packets, 2, "scalar"
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
        result.user_report,
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
