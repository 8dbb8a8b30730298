"""Network-free streaming ingest pipeline (the e2e fast path).

:mod:`repro.testbed.network_testbed` runs the Figure-2 topology packet
by packet on the discrete-event simulator — the right tool for latency
questions, the wrong one for throughput: the simulator heap dominates
the profile long before the switch kernels saturate.  This module wires
the same devices into a pull-based *stage* pipeline with no simulator
in between::

    generate -> encode -> lark -> (reorder?) -> agg -> verify

Micro-batches of events stream through all stages without ever
materializing the full event list: the workload's
:class:`~repro.workloads.columns.EventStream` produces struct-of-arrays
batches, the :class:`~repro.core.cookie_cache.CookieEncodeCache` turns
them into wire cookies (one batched AES pass over the cache misses),
the LarkSwitch consumes them through the configured backend, and
aggregation payloads flow — optionally through a fault-injected
reordering stage — into the AggSwitch.

Determinism contract (the differential suite holds us to it): for a
fixed backend, the final aggregation report, the merged register
arrays and the merged / dead-letter counts are **identical for every
micro-batch size**, including with reordering fault injection enabled.
Period boundaries in periodical forwarding depend only on event
timestamps, and the tail is flushed exactly once at end-of-run; the
:class:`ReorderInjector` advances on arrival *count*, not batch shape.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggBatchResult, AggSwitch
from repro.core.cookie_cache import CookieEncodeCache
from repro.core.larkswitch import LarkSwitch
from repro.core.stats import counts_match
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs.registry import MetricsRegistry, get_registry
from repro.testbed.executor import (
    BACKENDS,
    ShardSpec,
    _slice_part,
    partition_columns,
    process_isolated,
)
from repro.testbed.placement import PlacementController

__all__ = [
    "ReorderInjector",
    "StreamingPipeline",
    "PipelineResult",
    "BACKENDS",
    "PIPELINE_BACKENDS",
]

# The in-process tiers plus the persistent-worker tier (agg stage runs
# in a long-lived ring-fed process; see repro.testbed.worker).  Kept
# out of BACKENDS so suites that compare collected per-payload
# AggResults — which never leave the worker — keep their parametrize
# surface.
PIPELINE_BACKENDS = BACKENDS + ("persistent",)


class ReorderInjector:
    """Deterministic packet-reordering fault injection.

    Each arriving item draws a delay in *arrival counts*: with
    probability ``probability`` it is held back ``randint(1,
    max_delay)`` arrivals, otherwise zero.  Held items sit in a heap
    keyed ``(release_arrival, arrival)``; after arrival ``i`` every
    item with release position ``<= i`` is emitted.  Because both the
    draws and the release rule see only the arrival index, the emitted
    permutation is a function of the item sequence alone — feeding the
    same stream in different chunk sizes yields the same output order.
    """

    def __init__(
        self,
        rng: random.Random,
        probability: float,
        max_delay: int = 8,
    ):
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        self._rng = rng
        self.probability = probability
        self.max_delay = max_delay
        self._heap: List[Tuple[int, int, Any]] = []
        self._arrivals = 0
        self.delayed = 0

    def push(self, item: Any) -> List[Any]:
        """Feed one item; returns the items released by this arrival."""
        i = self._arrivals
        self._arrivals += 1
        delay = 0
        if self._rng.random() < self.probability:
            delay = self._rng.randint(1, self.max_delay)
            self.delayed += 1
        heapq.heappush(self._heap, (i + delay, i, item))
        out: List[Any] = []
        while self._heap and self._heap[0][0] <= i:
            out.append(heapq.heappop(self._heap)[2])
        return out

    def flush(self) -> List[Any]:
        """End of stream: release everything still held, in key order."""
        out = [heapq.heappop(self._heap)[2] for _ in range(len(self._heap))]
        self._arrivals = 0
        return out


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
    # Worker fleet (persistent backend): the live map's shard count at
    # end of run (1 without a placement controller), per-shard packet
    # counts folded this run, the controller's rebalance/resize history.
    fleet_shards: int = 1
    fleet_shard_packets: Optional[List[int]] = None
    placement_history: List[Dict[str, Any]] = field(default_factory=list)

    def counts_match_reference(self) -> bool:
        return counts_match(self.report, self.reference)


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
    * ``persistent`` — columnar generate/encode/lark in-process, agg
      folded by a fleet of long-lived worker processes fed through
      shared-memory rings (:class:`repro.testbed.worker.WorkerFleet`):
      the parent streams the next micro-batches while the workers fold
      the previous ones, and a full ring is the back-pressure that
      bounds how far it runs ahead.  The fleet has one worker unless a
      ``placement`` controller is attached; then it has one per shard
      of the controller's live map, payload batches are partitioned
      under that map, and period flushes are placement epochs.  Reports
      are byte-identical to the other tiers.  Call :meth:`close` (or
      use the pipeline as a context manager) to release the workers.

    ``on_batch(pipeline, columns)`` runs before each micro-batch is
    encoded — the hook the rekey regression test uses to push a
    controller update mid-run.  Generate, encode, lark and the push to
    agg run one batch at a time on one thread, so the hook is in
    lockstep with switch processing (a rekey between encode and process
    would strand in-flight cookies under the old key).

    ``corrupt_probability`` is a seeded fault stage flipping
    one byte in that fraction of aggregation payloads; the AggSwitch
    rejects them at decode and the pipeline counts them as **dead
    letters** (``pipeline.dead_letters`` counter) instead of aborting.
    ``checkpoint_every_periods`` snapshots both switches' registers at
    period flushes (the supervised runtime's checkpoint unit);
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
        placement: Optional[PlacementController] = None,
    ):
        if backend not in PIPELINE_BACKENDS:
            raise ValueError(
                "backend must be one of %s" % (PIPELINE_BACKENDS,)
            )
        if placement is not None and backend != "persistent":
            raise ValueError(
                "placement requires the persistent backend"
            )
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= corrupt_probability <= 1.0:
            raise ValueError("corrupt_probability must be in [0, 1]")
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
        specs = workload.specs()
        self.lark = LarkSwitch("lark-pipe", random.Random(1))
        self.lark.register_application(
            app_id, schema, self._key, specs, mode=mode,
            period_ms=period_ms,
        )
        self.agg = AggSwitch("agg-pipe", random.Random(2))
        self.agg.register_application(app_id, schema, self._key, specs)
        self.codec = TransportCookieCodec(
            app_id, schema, self._key, random.Random(3)
        )
        self.cache = CookieEncodeCache(self.codec, capacity=cache_capacity)
        self.injector: Optional[ReorderInjector] = None
        if reorder_probability > 0.0:
            self.injector = ReorderInjector(
                random.Random(seed + 31), reorder_probability
            )
        # Seeded payload-corruption fault stage: draws per arrival, so
        # (like the reorder stage) it is invariant to batch shape.
        self.corrupt_probability = corrupt_probability
        self._corrupt_rng = random.Random(seed + 47)
        self._next_boundary = period_ms
        self.periods = 0
        self._merged = 0
        self.dead_letters = 0
        self.corrupted = 0
        self.last_checkpoint: Optional[Dict[str, Any]] = None
        self._checkpoints_taken = 0
        # Persistent tier: the agg stage runs in long-lived worker
        # processes fed through shared-memory rings; the parent keeps
        # running generate/encode/lark while they fold, and the rings
        # are the bounded hand-off queue between the two.  The local
        # AggSwitch stays around as the report renderer: every drain
        # barrier restores the fleet's merged fold snapshot into it,
        # so every downstream read-out (report / merge / user stats)
        # goes through exactly the code the in-process tiers use, and
        # reports stay byte-identical no matter how a placement
        # controller moved buckets (or retired workers) mid-run.
        self.placement = placement
        self._fleet: Any = None
        self._fleet_packets: Dict[int, int] = {}
        if backend == "persistent":
            from repro.testbed.worker import WorkerFleet

            self._fleet = WorkerFleet(
                ShardSpec(
                    kind="agg",
                    app_id=app_id,
                    schema=schema,
                    key=self._key,
                    specs=tuple(specs),
                    seed=seed,
                ),
                backend="columnar",
                row_capacity=max(batch_size, 64),
            )
            if placement is None:
                # Shard 0 is certain to be used: start it now so the
                # worker's start-up stays out of the first run().
                # (Under a controller, shards start on first traffic.)
                self._fleet.worker(0)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        """Release the persistent agg worker(s) (no-op otherwise)."""
        if self._fleet is not None:
            self._fleet.close()

    def __enter__(self) -> "StreamingPipeline":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- mid-run control ---------------------------------------------------

    def rekey(self, new_key: bytes) -> None:
        """Swap the AES key on every tier *and* the encode cache (the
        cache invalidates, so no stale cookie is ever minted).  With
        persistent agg workers the rekey travels through the data rings,
        so it lands after every payload already pushed — the same
        ordering an in-process rekey gets for free."""
        self._key = new_key
        self.agg.rekey_application(self.app_id, new_key)
        self.lark.rekey_application(self.app_id, new_key)
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

    def _flush_period(self, payloads: List[bytes]) -> None:
        self.periods += 1
        payloads.extend(self.lark.end_period(self.app_id))
        if self.placement is not None:
            # Period flush == placement epoch boundary: fold the
            # window's bucket loads, maybe rebalance/resize, and
            # retire workers the new map no longer routes to (their
            # folds and counts stay with the fleet).
            self._fleet.resize(self.placement.end_epoch().shards)
        if (
            self.checkpoint_every_periods
            and self.periods % self.checkpoint_every_periods == 0
        ):
            # Epoch-flush checkpoint: the raw register snapshots a
            # crashed replica would restore before replaying the tail.
            self.last_checkpoint = {
                "period": self.periods,
                "lark": self.lark.checkpoint(self.app_id),
                "agg": self._agg_checkpoint(),
            }
            if self.placement is not None:
                # Rides outside the raw switch snapshots: restore()
                # must see registers only, but replay needs to know
                # which map was live at the checkpoint.
                self.last_checkpoint["map_version"] = (
                    self.placement.map.version
                )
            self._checkpoints_taken += 1
            self.registry.counter("pipeline.checkpoints").inc()

    # -- persistent worker fleet -------------------------------------------

    def _drain_fleet(self) -> Optional[Dict[str, List[int]]]:
        """Fleet-wide barrier: every payload pushed so far is folded.
        Books the workers' counter deltas (folds, per-shard packets,
        decode rejects -> dead letters) and returns the merged fold
        snapshot, retired workers included."""
        snapshot, deltas = self._fleet.drain()
        unmerged = 0
        for shard, delta in deltas.items():
            self._merged += delta["folded"]
            unmerged += delta["unmerged"]
            self._fleet_packets[shard] = (
                self._fleet_packets.get(shard, 0) + delta["packets"]
            )
        if unmerged:
            self.dead_letters += unmerged
            self.registry.counter("pipeline.dead_letters").inc(unmerged)
        return snapshot

    def _agg_checkpoint(self) -> Dict[str, Any]:
        if self._fleet is not None:
            # Barrier the fleet (all payloads pushed so far fold
            # first); a fleet that has not spawned yet has the
            # parent's (empty) registers.
            checkpoint = self._drain_fleet()
            if checkpoint is not None:
                return checkpoint
        return self.agg.checkpoint(self.app_id)

    def _lark_segment(self, cids: Any, lo: int, hi: int) -> List[bytes]:
        """Run one segment through the LarkSwitch; the aggregation
        payloads it emitted, in packet order."""
        if hi <= lo:
            return []
        if self.backend == "scalar":
            results = [
                self.lark.process_quic_packet(cid) for cid in cids[lo:hi]
            ]
            return [
                r.aggregation_payload for r in results
                if r.aggregation_payload is not None
            ]
        return self.lark.process_quic_columnar(
            _slice_part(cids, lo, hi)
        ).payloads

    def _corrupt(self, payloads: List[bytes]) -> List[bytes]:
        """Seeded fault stage: flip one byte in a fraction of payloads
        (per-arrival draws, batch-shape invariant)."""
        out: List[bytes] = []
        for payload in payloads:
            if self._corrupt_rng.random() < self.corrupt_probability:
                index = self._corrupt_rng.randrange(len(payload))
                mutated = bytearray(payload)
                mutated[index] ^= 0xFF
                payload = bytes(mutated)
                self.corrupted += 1
            out.append(payload)
        return out

    def _agg_process(self, payloads: List[bytes]) -> AggBatchResult:
        if self.backend == "scalar":
            return AggBatchResult.of(
                [self.agg.process_packet(p) for p in payloads]
            )
        return self.agg.process_columnar(payloads)

    def _dispatch(self, payloads: List[bytes]) -> int:
        """Route payloads (through the corruption and reorder fault
        stages when present) into the AggSwitch via the backend-matched
        entry point; count unfoldable payloads as dead letters."""
        if self.corrupt_probability > 0.0:
            payloads = self._corrupt(payloads)
        if self.injector is not None:
            emitted: List[bytes] = []
            for payload in payloads:
                emitted.extend(self.injector.push(payload))
            payloads = emitted
        if not payloads:
            return 0
        self._deliver(payloads)
        return len(payloads)

    def _deliver(self, payloads: List[bytes]) -> None:
        if self._fleet is not None:
            # Hand the batch to the worker fleet and keep going — the
            # fold happens concurrently; merged/dead-letter counts
            # settle at the next drain barrier.  Without a controller
            # the fleet is one worker and there is nothing to
            # partition; with one, split under the live map
            # (vectorized bucket assignment + stable gather) and feed
            # its load accounting.
            parts: List[Any] = [payloads]
            if self.placement is not None:
                parts, counts = partition_columns(
                    self._fleet.spec, self.placement.map, payloads
                )
                self.placement.observe(counts)
            busy = [shard for shard, part in enumerate(parts) if len(part)]
            self._fleet.bring_up(busy)
            for shard in busy:
                self._fleet.push(shard, parts[shard])
            return
        # A poison payload (the entry point raises on it) cannot abort
        # the run; it and every merely undecodable payload — all that
        # reach this stage are aggregation-bound — are dead letters.
        batches, dead = process_isolated(
            lambda chunk: [self._agg_process(chunk)], payloads
        )
        merged = sum(batch.merged for batch in batches)
        self._merged += merged
        dead += sum(map(len, batches)) - merged
        if dead:
            self.dead_letters += dead
            self.registry.counter("pipeline.dead_letters").inc(dead)

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
        self._next_boundary = self.period_ms
        self.periods = 0
        self._merged = 0
        self.dead_letters = 0
        self.corrupted = 0
        self.last_checkpoint = None
        self._checkpoints_taken = 0
        self._fleet_packets = {}
        events = 0
        batches = 0
        payload_count = 0
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
            payloads: List[bytes] = []
            for lo, hi, flush in self._segments(cols.time_ms):
                payloads.extend(self._lark_segment(cids, lo, hi))
                if flush:
                    self._flush_period(payloads)
            payload_count += len(payloads)
            self._dispatch(payloads)
        # Tail flush: exactly one end-of-run period close (partial
        # period), then drain anything the reorder stage still holds.
        tail: List[bytes] = []
        if self.mode == ForwardingMode.PERIODICAL:
            self._flush_period(tail)
        payload_count += len(tail)
        self._dispatch(tail)
        if self.injector is not None:
            held = self.injector.flush()  # counted at lark emission
            if held:
                self._deliver(held)
        if self._fleet is not None:
            # Drain barrier: every pushed payload is folded before the
            # read-out.  The fleet's merged fold snapshot restores into
            # the local AggSwitch, so report()/merge() below run
            # through the same code as the in-process tiers.
            snapshot = self._drain_fleet()
            if snapshot is not None:
                self.agg.restore(self.app_id, snapshot)
        fleet_shards = (
            self.placement.map.shards if self.placement is not None else 1
        )
        return PipelineResult(
            events=events,
            batches=batches,
            payloads=payload_count,
            merged=self._merged,
            periods=self.periods,
            backend=self.backend,
            report=self.agg.report(self.app_id),
            reference=reference,
            register_state=self.agg.merge(self.app_id),
            cache_stats=self.cache.stats(),
            dead_letters=self.dead_letters,
            checkpoints=self._checkpoints_taken,
            fleet_shards=fleet_shards,
            fleet_shard_packets=(
                [
                    self._fleet_packets.get(shard, 0)
                    for shard in range(
                        max([fleet_shards] + [s + 1 for s in self._fleet_packets])
                    )
                ]
                if self._fleet is not None
                else None
            ),
            placement_history=(
                list(self.placement.history)
                if self.placement is not None
                else []
            ),
        )
