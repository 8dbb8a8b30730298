"""Network-free streaming ingest pipeline (the e2e fast path).

:mod:`repro.testbed.experiment` times the request pathways on the
discrete-event simulator — the right tool for latency questions, the
wrong one for throughput: the simulator heap dominates the profile long
before the switch kernels saturate.  This module wires the same devices
into a pull-based *stage* pipeline with no simulator in between, split
where the paper splits the devices::

    client half:  generate -> encode            (StreamingPipeline)
    switch half:  lark -> hop (corrupt?, reorder?) -> agg   (SwitchHalf)

Micro-batches of events stream through all stages without ever
materializing the full event list: the workload's
:class:`~repro.workloads.columns.EventStream` produces struct-of-arrays
batches, the :class:`~repro.core.cookie_cache.CookieEncodeCache` turns
them into wire cookies (one batched AES pass over the cache misses),
and the :class:`SwitchHalf` takes them one forwarding-period segment at
a time: the LarkSwitch consumes them through the configured backend,
and aggregation payloads flow — through the lark -> agg hop's seeded
fault process (:class:`~repro.net.hop.Hop`: corruption and reordering
when set) — into the AggSwitch.  The in-process
tiers call the switch half directly; the persistent tier hosts a twin
of it, built from the same recipe, in a ring-fed worker process.

Determinism contract (the differential suite holds us to it): for a
fixed backend, the final aggregation report, the merged register
arrays and the merged / dead-letter counts are **identical for every
micro-batch size**, including with reordering fault injection enabled.
Period boundaries in periodical forwarding depend only on event
timestamps, and the tail is flushed exactly once at end-of-run; the
hop advances on arrival *count*, not batch shape.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggBatchResult, AggSwitch
from repro.core.cookie_cache import CookieEncodeCache
from repro.core.larkswitch import LarkBatchResult, LarkSwitch
from repro.core.stats import counts_match
from repro.core.transport_cookie import TransportCookieCodec
from repro.net.hop import Hop
from repro.obs.registry import MetricsRegistry, get_registry
from repro.testbed.executor import ShardSpec, _slice_part, process_isolated

__all__ = [
    "StreamingPipeline",
    "PipelineResult",
    "SwitchHalf",
    "BACKENDS",
    "PIPELINE_BACKENDS",
]

# The in-process tiers, ascending: the P4-interpreter reference and the
# columnar fast path.
BACKENDS = ("scalar", "columnar")
# Plus the persistent-worker tier (the switch half runs in a long-lived
# ring-fed process; see repro.testbed.worker).
PIPELINE_BACKENDS = BACKENDS + ("persistent",)

@dataclass
class PipelineResult:
    """Outcome of one streaming run."""

    events: int
    batches: int
    payloads: int
    merged: int
    periods: int
    backend: str
    report: Dict[str, Any]
    reference: Dict[str, Dict[Any, int]]
    register_state: Dict[str, List[int]]
    cache_stats: Dict[str, int]
    # Aggregation-bound payloads that could not be folded (corrupted /
    # undecodable) — counted and dropped instead of aborting the run.
    dead_letters: int = 0
    # Period-boundary checkpoints taken (checkpoint_every_periods > 0).
    checkpoints: int = 0
    # The lark -> agg hop's counts (Hop.counts) at the final barrier.
    hop: Dict[str, int] = field(default_factory=dict)

    def counts_match_reference(self) -> bool:
        return counts_match(self.report, self.reference)


class SwitchHalf:
    """The switch half of a pipeline: LarkSwitch -> hop -> AggSwitch,
    driven in stream order by :meth:`feed` (one period
    segment of cookies), :meth:`end_period` and :meth:`barrier`.

    One object, two transports, like
    :class:`~repro.testbed.executor.Replica`: the scalar and columnar
    tiers call it in-process, and the persistent tier hosts a twin in a
    ring worker (``ShardSpec(kind="half")``).  Both are built from the
    same :class:`ShardSpec` recipe, so their seeds match and they emit
    the same payload bytes, not just the same reports.

    ``hop`` is the lark -> agg :class:`~repro.net.hop.Hop`, seeded
    from the spec: ``corrupt_probability`` flips one byte in that
    fraction of aggregation payloads (the AggSwitch rejects them at
    decode and they count as **dead letters** instead of aborting the
    run) and ``reorder_probability`` holds that fraction back a few
    payloads.  It draws per arrival, so it is invariant to batch
    shape.  The payload, merged and dead-letter counts run from one
    barrier to the next; the hop's counts run for the half's life.
    """

    def __init__(
        self,
        spec: ShardSpec,
        backend: str = "columnar",
        registry: Optional[MetricsRegistry] = None,
    ):
        self.app_id = spec.app_id
        self.backend = backend
        self.lark = LarkSwitch("lark-pipe", random.Random(1), registry)
        self.lark.register_application(
            spec.app_id, spec.schema, spec.key, list(spec.specs),
            mode=spec.mode, period_ms=spec.period_ms, dedup=spec.dedup,
        )
        self.agg = AggSwitch("agg-pipe", random.Random(2), registry)
        self.agg.register_application(
            spec.app_id, spec.schema, spec.key, list(spec.specs)
        )
        self.hop = Hop(
            random.Random(spec.seed + 31),
            corrupt=spec.corrupt_probability,
            reorder=spec.reorder_probability,
        )
        self.payloads = self.merged = self.dead_letters = 0

    def rekey_application(self, app_id: int, new_key: bytes) -> None:
        self.agg.rekey_application(app_id, new_key)
        self.lark.rekey_application(app_id, new_key)

    def crash(self) -> None:
        """Power off both switches (a replica reset drops this half)."""
        self.lark.crash()
        self.agg.crash()

    def feed(self, cids: Any) -> int:
        """Run one segment through the LarkSwitch and its aggregation
        payloads on to the AggSwitch; returns the packets the
        LarkSwitch folded."""
        if self.backend == "scalar":
            result = LarkBatchResult.of(
                [self.lark.process_quic_packet(cid) for cid in cids]
            )
        else:
            result = self.lark.process_quic_columnar(cids)
        self._dispatch(result.payloads)
        return result.folded

    def end_period(self) -> None:
        """Close the forwarding period: the LarkSwitch's period payloads
        go on to the AggSwitch."""
        self._dispatch(self.lark.end_period(self.app_id))

    def barrier(
        self, final: bool = False, lark: bool = False
    ) -> Dict[str, Any]:
        """Everything the hop released so far has reached the
        AggSwitch: its register snapshot (and, ``lark``, the
        LarkSwitch's) with the payload, merged and dead-letter counts
        since the previous barrier and the hop's counts.  ``final``
        ends the stream first: the hop releases whatever it still
        holds."""
        if final:
            held = self.hop.flush()  # counted at lark emission
            if held:
                self._deliver(held)
        state = {
            "agg": self.agg.checkpoint(self.app_id),
            "payloads": self.payloads,
            "merged": self.merged,
            "dead_letters": self.dead_letters,
            "hop": self.hop.counts(),
        }
        if lark:
            state["lark"] = self.lark.checkpoint(self.app_id)
        self.payloads = self.merged = self.dead_letters = 0
        return state

    def _agg_process(self, payloads: List[bytes]) -> AggBatchResult:
        if self.backend == "scalar":
            return AggBatchResult.of(
                [self.agg.process_packet(p) for p in payloads]
            )
        return self.agg.process_columnar(payloads)

    def _dispatch(self, payloads: List[bytes]) -> None:
        """Route payloads through the hop to the AggSwitch."""
        self.payloads += len(payloads)
        payloads = self.hop.push_many(payloads)
        if payloads:
            self._deliver(payloads)

    def _deliver(self, payloads: List[bytes]) -> None:
        """Fold into the AggSwitch via the backend-matched entry point.
        A poison payload (the entry point raises on it) cannot abort
        the run; it and every merely undecodable payload — all that
        reach this stage are aggregation-bound — are dead letters."""
        batches, dead = process_isolated(
            lambda chunk: [self._agg_process(chunk)], payloads
        )
        merged = sum(batch.merged for batch in batches)
        self.merged += merged
        self.dead_letters += dead + sum(map(len, batches)) - merged


class StreamingPipeline:
    """generate -> encode -> lark -> agg, streamed in micro-batches.

    ``backend`` selects the whole-path flavor:

    * ``scalar`` — the semantic reference and the pre-optimization
      baseline: per-event value dicts, a fresh (uncached) cookie
      encode per request, per-packet LarkSwitch and per-payload
      AggSwitch calls.
    * ``columnar`` — batched generation, the cookie encode cache,
      and cookies flowing as a :class:`PacketColumns` matrix straight
      into the switches' columnar paths (whose kernels run their
      Python forms when the numpy gate is closed).
    * ``persistent`` — the columnar tier split at the paper's device
      boundary: this process is the client half (generate, reference,
      encode) and pushes cookie segments and period-close markers into
      the shared-memory ring of one long-lived worker process
      (:class:`repro.testbed.worker.WorkerFleet`) that runs the switch
      half.  The parent encodes the next micro-batches while the
      worker decodes and aggregates the previous ones, and a full ring
      is the back-pressure that bounds how far it runs ahead.  Reports
      and payload bytes are identical to the other tiers.  Call
      :meth:`close` (or use the pipeline as a context manager) to
      release the worker.

    ``lark`` and ``agg`` are the in-process switch half's switches (the
    persistent tier renders its report through that ``agg``, restored
    from the worker's snapshot at the end-of-run barrier).  Every
    :meth:`run` starts from empty registers: a run after the first
    rebuilds the in-process half and resets the worker's.

    ``on_batch(pipeline, columns)`` runs before each micro-batch is
    encoded — the hook the rekey regression test uses to push a
    controller update mid-run.  A rekey is ordered with the batches:
    in-process it applies between two batches, and to a worker it
    travels through the ring behind every segment already pushed (a
    rekey between encode and process would strand in-flight cookies
    under the old key).

    ``corrupt_probability`` and ``reorder_probability`` configure the
    switch half's lark -> agg hop; corrupted payloads are counted as
    **dead letters** (``pipeline.dead_letters`` counter), and
    ``hop_counts`` holds the hop's counts at the last barrier.
    ``checkpoint_every_periods`` snapshots both switches' registers at
    period flushes (a barrier on the switch half);
    ``last_checkpoint`` holds the most recent one.
    """

    def __init__(
        self,
        workload: Any,
        app_id: int = 0x5C,
        seed: int = 42,
        mode: str = ForwardingMode.PERIODICAL,
        period_ms: float = 1000.0,
        backend: str = "columnar",
        batch_size: int = 512,
        cache_capacity: int = 4096,
        reorder_probability: float = 0.0,
        on_batch: Optional[Callable[["StreamingPipeline", Any], None]] = None,
        corrupt_probability: float = 0.0,
        checkpoint_every_periods: int = 0,
        registry: Optional[MetricsRegistry] = None,
    ):
        if backend not in PIPELINE_BACKENDS:
            raise ValueError(
                "backend must be one of %s" % (PIPELINE_BACKENDS,)
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if checkpoint_every_periods < 0:
            raise ValueError("checkpoint_every_periods must be >= 0")
        self.workload = workload
        self.app_id = app_id
        self.mode = mode
        self.period_ms = period_ms
        self.backend = backend
        self.batch_size = batch_size
        self.on_batch = on_batch
        self.checkpoint_every_periods = checkpoint_every_periods
        self.registry = registry if registry is not None else get_registry()
        key_rng = random.Random(seed + 9)
        self._key = bytes(key_rng.getrandbits(8) for _ in range(16))
        schema = workload.schema()
        spec = ShardSpec(
            kind="half",
            app_id=app_id,
            schema=schema,
            key=self._key,
            specs=tuple(workload.specs()),
            seed=seed,
            mode=mode,
            period_ms=period_ms,
            corrupt_probability=corrupt_probability,
            reorder_probability=reorder_probability,
        )
        self._spec = spec
        self._runs = 0
        self._build_half()
        self.codec = TransportCookieCodec(
            app_id, schema, self._key, random.Random(3)
        )
        self.cache = CookieEncodeCache(self.codec, capacity=cache_capacity)
        self._next_boundary = period_ms
        self.periods = 0
        self._payloads = 0
        self._merged = 0
        self.dead_letters = 0
        self.hop_counts: Dict[str, int] = {}
        self.last_checkpoint: Optional[Dict[str, Any]] = None
        self._checkpoints_taken = 0
        # Persistent tier: the switch half runs in one long-lived worker
        # fed through a shared-memory ring, started now so its start-up
        # stays out of the first run().
        self._fleet: Any = None
        self._worker: Any = None
        if backend == "persistent":
            from repro.testbed.worker import WorkerFleet

            self._fleet = WorkerFleet(spec, row_capacity=max(batch_size, 64))
            self._fleet.worker(0)

    # -- lifecycle ---------------------------------------------------------

    def _build_half(self) -> None:
        """A freshly built in-process switch half under the live key."""
        self.half = SwitchHalf(
            replace(self._spec, key=self._key),
            "scalar" if self.backend == "scalar" else "columnar",
        )
        self.lark = self.half.lark
        self.agg = self.half.agg

    def close(self) -> None:
        """Release the persistent switch-half worker (no-op otherwise)."""
        if self._fleet is not None:
            self._fleet.close()

    def __enter__(self) -> "StreamingPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- mid-run control ---------------------------------------------------

    def rekey(self, new_key: bytes) -> None:
        """Swap the AES key on every tier *and* the encode cache (the
        cache invalidates, so no stale cookie is ever minted).  For the
        persistent worker the rekey travels through the ring, so it
        lands after every segment already pushed — the same ordering an
        in-process rekey gets for free."""
        self._key = new_key
        self.half.rekey_application(self.app_id, new_key)
        self.cache.rekey(new_key)
        self.codec = self.cache.codec
        if self._fleet is not None:
            self._fleet.rekey(new_key)

    # -- stages ------------------------------------------------------------

    def _segments(self, times: List[float]):
        """Split a batch's index range at period boundaries.

        Yields ``(lo, hi, flush_after)``; boundary state lives on the
        pipeline, so the segmentation depends only on event times —
        never on how the stream was chunked into batches.
        """
        n = len(times)
        if self.mode != ForwardingMode.PERIODICAL:
            yield 0, n, False
            return
        # Times are non-decreasing, so each boundary's cut is one
        # bisection; a gap spanning several periods cuts at the same
        # index once per boundary it crosses (empty flushing segments).
        lo = 0
        while n and times[-1] >= self._next_boundary:
            i = bisect_left(times, self._next_boundary, lo)
            yield lo, i, True
            lo = i
            self._next_boundary += self.period_ms
        yield lo, n, False

    def _flush_period(self) -> None:
        self.periods += 1
        if self._worker is not None:
            self._worker.end_period()
        else:
            self.half.end_period()
        if (
            self.checkpoint_every_periods
            and self.periods % self.checkpoint_every_periods == 0
        ):
            # Epoch-flush checkpoint: the raw register snapshots a
            # crashed replica would restore before replaying the tail.
            state = self._barrier(lark=True)
            self.last_checkpoint = {
                "period": self.periods,
                "lark": state["lark"],
                "agg": state["agg"],
            }
            self._checkpoints_taken += 1
            self.registry.counter("pipeline.checkpoints").inc()

    def _barrier(
        self, final: bool = False, lark: bool = False
    ) -> Dict[str, Any]:
        """Barrier the switch half, wherever it runs, and book its
        counts since the previous barrier; returns its state."""
        if self._worker is not None:
            state = self._worker.drain(False, final, lark)["snapshot"]
        else:
            state = self.half.barrier(final, lark)
        self._payloads += state["payloads"]
        self._merged += state["merged"]
        self.hop_counts = state["hop"]
        if state["dead_letters"]:
            self.dead_letters += state["dead_letters"]
            self.registry.counter("pipeline.dead_letters").inc(
                state["dead_letters"]
            )
        return state

    # -- run ---------------------------------------------------------------

    def run(
        self, requests_per_second: float, duration_ms: float
    ) -> PipelineResult:
        stream = self.workload.stream(requests_per_second, duration_ms)
        new_reference = getattr(self.workload, "new_reference", None)
        accumulate = getattr(self.workload, "accumulate_reference", None)
        reference: Dict[str, Dict[Any, int]] = (
            new_reference() if new_reference is not None else {}
        )
        if self._runs:
            # Every run starts from empty switch registers, wherever
            # the switch half runs.
            self._build_half()
            if self._fleet is not None:
                self._fleet.worker(0).drain(reset=True)
        self._runs += 1
        self._next_boundary = self.period_ms
        self.periods = 0
        self._payloads = 0
        self._merged = 0
        self.dead_letters = 0
        self.hop_counts = {}
        self.last_checkpoint = None
        self._checkpoints_taken = 0
        if self._fleet is not None:
            self._worker = self._fleet.worker(0)
            feed = self._worker.push_batch
        else:
            feed = self.half.feed
        events = 0
        batches = 0
        scalar = self.backend == "scalar"
        workload = self.workload
        while True:
            cols = stream.generate_batch(self.batch_size)
            if not len(cols):
                break
            batches += 1
            events += len(cols)
            if self.on_batch is not None:
                self.on_batch(self, cols)
            if accumulate is not None:
                accumulate(cols, reference)
            keys = workload.cookie_keys(cols)
            if scalar:
                # Pre-optimization reference: every request builds its
                # value dict and runs the full AES encode.
                cids = [
                    self.codec.encode(workload.cookie_values_at(cols, i))
                    for i in range(len(cols))
                ]
            else:
                cids = self.cache.encode_columns(
                    keys, rows_fn=partial(workload.cookie_rows, cols)
                )
            for lo, hi, flush in self._segments(cols.time_ms):
                if hi > lo:
                    feed(_slice_part(cids, lo, hi))
                if flush:
                    self._flush_period()
        # Tail flush: exactly one end-of-run period close (partial
        # period), then the final barrier drains the hop and
        # waits until every segment is folded.
        if self.mode == ForwardingMode.PERIODICAL:
            self._flush_period()
        state = self._barrier(final=True)
        if self._worker is not None:
            # The worker's fold restores into the local AggSwitch, so
            # report()/merge() below run through the same code as the
            # in-process tiers.
            self.agg.restore(self.app_id, state["agg"])
        return PipelineResult(
            events=events,
            batches=batches,
            payloads=self._payloads,
            merged=self._merged,
            periods=self.periods,
            backend=self.backend,
            report=self.agg.report(self.app_id),
            reference=reference,
            register_state=self.agg.merge(self.app_id),
            cache_stats=self.cache.stats(),
            dead_letters=self.dead_letters,
            checkpoints=self._checkpoints_taken,
            hop=self.hop_counts,
        )
