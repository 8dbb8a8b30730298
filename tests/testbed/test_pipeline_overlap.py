"""Pipelined stage overlap: tail flush, dead letters.

The persistent backend overlaps the parent's generate/encode/lark
stages with the worker's agg folding; the worker's ring is the bound
on how far the parent runs ahead.  The regression wall here pins the
two places that overlap could corrupt:

* **tail flush** — a run ending mid-period closes exactly one partial
  period after the streamed batches drain, identically on every tier;
* **dead letters** — corrupted payloads rejected *inside the worker*
  surface in the parent's ``dead_letters`` counter at the drain
  barrier, matching the in-process count exactly.

Persistent-tier cases skip where POSIX shared memory is unavailable;
the in-process overlap cases run everywhere.
"""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.testbed.pipeline import PIPELINE_BACKENDS, StreamingPipeline
from repro.testbed.shm_ring import shared_memory_available
from repro.workloads.adcampaign import AdCampaignWorkload

RATE = 3000.0
DURATION_MS = 400.0
# Not a divisor of the duration: the final period is partial and only
# the end-of-run tail flush can close it.
PERIOD_MS = 150.0

needs_shm = pytest.mark.skipif(
    not shared_memory_available(),
    reason="POSIX shared memory unavailable",
)


def _backends():
    return [
        b for b in PIPELINE_BACKENDS
        if b != "persistent" or shared_memory_available()
    ]


def _run(backend, mode=ForwardingMode.PERIODICAL, **kw):
    workload = AdCampaignWorkload(num_users=80, seed=11)
    kw.setdefault("batch_size", 64)
    pipe = StreamingPipeline(
        workload,
        seed=11,
        mode=mode,
        period_ms=PERIOD_MS,
        backend=backend,
        registry=MetricsRegistry(),
        **kw,
    )
    try:
        result = pipe.run(RATE, DURATION_MS)
    finally:
        pipe.close()
    return pipe, result


def _observables(result):
    return (
        result.events,
        result.payloads,
        result.merged,
        result.periods,
        result.report,
        result.register_state,
        result.dead_letters,
    )


class TestTailFlush:
    @pytest.mark.parametrize("backend", _backends())
    def test_partial_final_period_is_flushed_once(self, backend):
        _, result = _run(backend)
        # 400ms at 150ms periods: two in-stream boundaries plus
        # exactly one tail flush for the partial third period.
        assert result.periods == 3, backend
        assert result.counts_match_reference(), backend

    @needs_shm
    def test_tail_flush_identical_across_tiers(self):
        _, persistent = _run("persistent")
        for backend in ("scalar", "columnar"):
            _, inline = _run(backend)
            assert _observables(persistent) == _observables(inline), backend

    @needs_shm
    def test_per_packet_mode_has_no_period_flushes(self):
        _, result = _run("persistent", mode=ForwardingMode.PER_PACKET)
        assert result.periods == 0
        assert result.counts_match_reference()


class TestDeadLetters:
    @needs_shm
    def test_worker_side_rejects_surface_in_parent_counter(self):
        """Corrupt a slice of payloads: the worker's AggSwitch rejects
        them at decode, and the drain barrier folds the worker's
        unmerged tally into the parent's dead_letters — byte-identical
        to the in-process columnar run, merged totals included."""
        kw = dict(mode=ForwardingMode.PER_PACKET, corrupt_probability=0.05)
        _, inline = _run("columnar", **kw)
        _, streamed = _run("persistent", **kw)
        assert inline.dead_letters > 0
        assert _observables(streamed) == _observables(inline)
        # Every emitted payload either merged or became a dead letter.
        assert streamed.merged + streamed.dead_letters == streamed.payloads

    @needs_shm
    def test_dead_letters_do_not_leak_into_overlap_window(self):
        """Back-pressure plus corruption: a rejected payload in batch N
        must not desync the fold of batches N+1.. already queued on the
        ring.  Batches of 16 keep many slots queued at once."""
        kw = dict(
            mode=ForwardingMode.PER_PACKET, corrupt_probability=0.1,
            batch_size=16,
        )
        _, inline = _run("columnar", **kw)
        _, overlapped = _run("persistent", **kw)
        assert inline.dead_letters > 0
        assert _observables(overlapped) == _observables(inline)

    def test_clean_run_has_zero_dead_letters(self):
        for backend in _backends():
            _, result = _run(backend, mode=ForwardingMode.PER_PACKET)
            assert result.dead_letters == 0, backend
