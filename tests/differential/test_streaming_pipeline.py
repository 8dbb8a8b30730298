"""Differential proof for the streaming ingest pipeline.

The e2e fast path only counts if it changes nothing observable: a
streamed micro-batch run must equal a one-shot run bit-identically —
aggregation report, merged register arrays, payload and merge counts —
for every backend, every micro-batch size, with and without reordering
fault injection, and with numpy force-disabled.  A mid-run controller
rekey must stay exact on every tier at once, and a second run on the
same pipeline must start from empty switch registers.
"""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.switch.columns import force_numpy
from repro.testbed.pipeline import (
    BACKENDS,
    PIPELINE_BACKENDS,
    StreamingPipeline,
)
from repro.testbed.shm_ring import shared_memory_available
from repro.workloads.adcampaign import AdCampaignWorkload
from repro.workloads.crowd import CrowdWorkload

RATE = 3000.0
DURATION_MS = 400.0
PERIOD_MS = 100.0
ONE_SHOT = 1 << 20  # batch larger than any stream: a one-shot run
BATCH_SIZES = (1, 7, 64, ONE_SHOT)


def _run(backend, batch_size, reorder=0.0, mode=ForwardingMode.PERIODICAL,
         workload=None, on_batch=None):
    workload = workload or AdCampaignWorkload(num_users=80, seed=11)
    pipe = StreamingPipeline(
        workload,
        seed=11,
        mode=mode,
        period_ms=PERIOD_MS,
        backend=backend,
        batch_size=batch_size,
        reorder_probability=reorder,
        on_batch=on_batch,
    )
    return pipe, pipe.run(RATE, DURATION_MS)


def _observables(result):
    return (
        result.report,
        result.register_state,
        result.payloads,
        result.merged,
        result.periods,
    )


@pytest.fixture
def no_numpy():
    force_numpy(False)
    try:
        yield
    finally:
        force_numpy(None)


class TestBatchSizeInvariance:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_micro_batched_equals_one_shot(self, backend):
        _, one_shot = _run(backend, ONE_SHOT)
        assert one_shot.counts_match_reference()
        for batch_size in BATCH_SIZES[:-1]:
            _, streamed = _run(backend, batch_size)
            assert _observables(streamed) == _observables(one_shot), (
                backend, batch_size
            )

    def test_micro_batched_equals_one_shot_with_reordering(self):
        _, one_shot = _run("columnar", ONE_SHOT, reorder=0.3)
        assert one_shot.counts_match_reference()
        for batch_size in (3, 61):
            _, streamed = _run("columnar", batch_size, reorder=0.3)
            assert _observables(streamed) == _observables(one_shot), (
                batch_size
            )


class TestBackendIdentity:
    def _assert_backends_agree(self, mode, workload_factory):
        reference = None
        for backend in BACKENDS:
            _, result = _run(
                backend, 64, mode=mode, workload=workload_factory()
            )
            assert result.counts_match_reference(), backend
            key = (result.report, result.register_state, result.payloads,
                   result.merged, result.periods)
            if reference is None:
                reference = key
            assert key == reference, backend

    def test_periodical_adcampaign(self):
        self._assert_backends_agree(
            ForwardingMode.PERIODICAL,
            lambda: AdCampaignWorkload(num_users=80, seed=11),
        )

    def test_per_packet_adcampaign(self):
        self._assert_backends_agree(
            ForwardingMode.PER_PACKET,
            lambda: AdCampaignWorkload(num_users=80, seed=11),
        )

    def test_periodical_crowd(self):
        self._assert_backends_agree(
            ForwardingMode.PERIODICAL,
            lambda: CrowdWorkload(num_members=90, seed=11),
        )

    def test_fast_backends_match_scalar_without_numpy(self, no_numpy):
        _, scalar = _run("scalar", 64)
        _, fast = _run("columnar", 64)
        assert fast.report == scalar.report
        assert fast.register_state == scalar.register_state
        assert fast.counts_match_reference()


class TestMidRunRekey:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_rekey_mid_run_stays_exact(self, backend):
        new_key = bytes(range(16))
        fired = []

        def push_rekey(pipe, cols):
            if not fired:
                fired.append(True)
                pipe.rekey(new_key)

        seen = []

        def push_late(pipe, cols):
            seen.append(cols)
            if len(seen) == 3:
                pipe.rekey(new_key)

        for hook in (push_rekey, push_late):
            seen.clear()
            fired.clear()
            pipe, result = _run(backend, 64, on_batch=hook)
            # Every tier rekeyed atomically between micro-batches, so
            # no cookie or aggregation payload was ever decoded under
            # the wrong key.
            assert result.counts_match_reference(), backend
            assert pipe.cache.epoch == 1
            if backend != "scalar":
                # Re-populated after the invalidation.
                assert pipe.cache.stats()["size"] > 0


class TestRepeatedRuns:
    @pytest.mark.parametrize("backend", PIPELINE_BACKENDS)
    def test_each_run_starts_from_empty_registers(self, backend):
        if backend == "persistent" and not shared_memory_available():
            pytest.skip("POSIX shared memory unavailable")
        runs = {}
        for tier in dict.fromkeys(("scalar", backend)):
            workload = AdCampaignWorkload(num_users=50, seed=3)
            with StreamingPipeline(workload, backend=tier) as pipe:
                runs[tier] = [pipe.run(1000.0, 3000.0) for _ in range(2)]
        for result in runs[backend]:
            assert result.counts_match_reference(), backend
        assert list(map(_observables, runs[backend])) == \
            list(map(_observables, runs["scalar"]))
