"""Shard executor for the columnar data plane.

A multi-pipe switch processes independent traffic shards in parallel
hardware; this module is the repo's one model of that: it fans
hash-partitioned packet streams over seeded switch *replicas* and
folds the resulting register snapshots with the register algebra
(:data:`repro.core.stats.REGISTER_LANES`, applied cell by cell by
:func:`~repro.core.stats.merge_snapshots`).

A replica is reached over one of two **transports**: an in-process
call (:func:`_run_shard_epoch`) or a long-lived ring-fed worker
process (:class:`repro.testbed.worker.WorkerFleet`).  Both drive the
same :class:`Replica` object, so which one ran can never change a
result — only where the CPU time is spent.

:meth:`ShardExecutor.run` is the one **epoch loop** for every mode:
partition the stream once; per epoch round, push every busy shard's
epoch, then drain each, folding it into the shard's checkpoint; a
failed epoch reruns on a fresh replica, or at last in-process.  A
worker death therefore never takes saved state down with it.  When
ring workers cannot start (no POSIX shared memory, a sandbox that
forbids processes) the run goes in-process and records why in
``fallback_cause``.

Correctness argument (the differential suite checks it end to end):

* partitioning is deterministic — one rule, :func:`partition_columns`:
  ``crc32(key) % shards``, where the key is the whole payload for
  AggSwitch streams and the preserved cookie region ``raw[1:18]`` for
  LarkSwitch streams, so every packet of one user lands on one shard;
  per-shard relative order is the arrival order;
* per-kind register folds (wrapping add / min / max) are associative
  and commutative, so merging per-shard, per-epoch snapshots equals
  single-switch execution, cell for cell — whichever shard folded a
  packet, in whichever epoch;
* replicas start the same way under ``fork`` and ``spawn``: a worker
  gets the :class:`ShardSpec` recipe (schema, key, stat specs, seed)
  — pickled under ``spawn`` — never a live switch, and each replica
  builds a private metrics registry so instrument names cannot
  collide with the parent's.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence,
    Tuple,
)

from repro.chaos.shard_faults import ShardFaultPlan
from repro.core.aggregation import ForwardingMode
from repro.core.schema import CookieSchema
from repro.core.stats import StatSpec, merge_snapshots
from repro.obs.registry import MetricsRegistry, get_registry
from repro.switch.columns import PacketColumns, get_numpy
from repro.switch.hashing import crc32, crc32_many
from repro.testbed.placement import PartitionMap

__all__ = [
    "ShardSpec",
    "ShardExecutor",
    "ShardRunResult",
    "Replica",
    "process_isolated",
    "fold_snapshots",
    "partition_packets",
    "partition_columns",
    "render_report",
]

_LOG = logging.getLogger(__name__)

_COOKIE_REGION = slice(1, 18)  # preserved cookie bytes (lark partition key)

# Retry back-off: BACKOFF_BASE_S, doubling, capped at BACKOFF_MAX_S.  A
# ring worker that does not answer within JOB_TIMEOUT_S counts as dead.
BACKOFF_BASE_S = 0.01
BACKOFF_MAX_S = 1.0
JOB_TIMEOUT_S = 60.0


def process_isolated(
    process: Callable[[Any], List[Any]], rows: Any
) -> Tuple[List[Any], int]:
    """Run one chunk through a switch entry point with poison
    isolation: if the call raises (truly malformed input, not a mere
    decode failure), retry row by row so one poison packet cannot take
    the whole chunk — or the replica — down.  Returns the results of
    everything that went through plus the number of rows left out (the
    caller books those as dead letters)."""
    try:
        return process(rows), 0
    except Exception:
        if len(rows) == 1:
            return [], 1
        results: List[Any] = []
        poisoned = 0
        for row in rows:
            try:
                results.extend(process([row]))
            except Exception:
                poisoned += 1
        return results, poisoned


@dataclass(frozen=True)
class ShardSpec:
    """Picklable recipe for one switch replica.

    Workers rebuild the switch from this — live switches hold
    scheduled AES ciphers, RNGs and metric instruments that must not
    cross the process boundary.
    """

    kind: str  # "lark", "agg" or "half" (a pipeline's switch half)
    app_id: int
    schema: CookieSchema
    key: bytes
    specs: Tuple[StatSpec, ...]
    seed: int = 0
    # lark and switch-half knobs
    mode: str = ForwardingMode.PERIODICAL
    period_ms: float = 1000.0
    dedup: bool = False
    # switch-half fault stages (repro.testbed.pipeline.SwitchHalf)
    corrupt_probability: float = 0.0
    reorder_probability: float = 0.0

    def __post_init__(self):
        if self.kind not in ("lark", "agg", "half"):
            raise ValueError("kind must be 'lark', 'agg' or 'half'")
        object.__setattr__(self, "specs", tuple(self.specs))


def _build_switch(spec: ShardSpec, shard_index: int):
    """Construct a fresh, deterministically seeded switch replica."""
    from repro.obs.registry import MetricsRegistry

    rng = random.Random(spec.seed * 1000003 + shard_index)
    registry = MetricsRegistry()
    if spec.kind == "half":
        # Seeded like the in-process pipeline's own half, whatever the
        # shard index: the two must emit the same payload bytes.
        from repro.testbed.pipeline import SwitchHalf

        return SwitchHalf(spec, registry=registry)
    if spec.kind == "lark":
        from repro.core.larkswitch import LarkSwitch

        switch = LarkSwitch(
            "lark-shard%d" % shard_index, rng, registry=registry
        )
        switch.register_application(
            spec.app_id,
            spec.schema,
            spec.key,
            list(spec.specs),
            mode=spec.mode,
            period_ms=spec.period_ms,
            dedup=spec.dedup,
        )
    else:
        from repro.core.aggswitch import AggSwitch

        switch = AggSwitch("agg-shard%d" % shard_index, rng, registry=registry)
        switch.register_application(
            spec.app_id, spec.schema, spec.key, list(spec.specs)
        )
    return switch


class Replica:
    """One seeded switch replica and everything a transport does to it:
    arm the fault injector for an epoch attempt, fold one chunk through
    the columnar entry point, read the registers back.

    The in-process transport (:func:`_run_shard_epoch`) and the ring-fed
    worker loop (:func:`repro.testbed.worker._worker_main`) drive this
    same object, so the fold exists once and the two transports cannot
    drift apart.
    """

    def __init__(
        self,
        spec: ShardSpec,
        shard_index: int,
        plan: Optional[ShardFaultPlan] = None,
    ):
        self.spec = spec
        self.shard_index = shard_index
        self.plan = plan
        self.switch = None
        self.reset()

    def reset(self) -> None:
        """Back to a freshly built replica (run-to-run isolation)."""
        if self.switch is not None:
            # A switch is cyclic garbage once dropped (its pipeline
            # holds its bound actions), so it would keep its registers
            # and decode memo until a full collection — which a
            # columnar replica, allocating per unique cookie and not
            # per packet, rarely triggers (measured: +2.5 MB worker
            # peak RSS over five lark-sharded runs).  Power it off.
            self.switch.crash()
        switch = self.switch = _build_switch(self.spec, self.shard_index)
        self.packets = 0
        self.folded = 0
        self._injector = None
        self._batch = 0
        # Folds one chunk and returns how many of its rows reached the
        # registers (the columnar batch's count).
        self._process: Callable[[Any], int]
        if self.spec.kind == "half":
            self._process = switch.feed
        elif self.spec.kind == "lark":
            self._process = lambda rows: (
                switch.process_quic_columnar(rows).folded
            )
        else:
            self._process = lambda rows: switch.process_columnar(rows).merged

    def arm(self, epoch: int, attempt: int, chunk_offset: int) -> None:
        """Start an epoch attempt: chunk numbering restarts and the
        fault plan (if any) is keyed on ``(shard, epoch, attempt)``
        with kills scripted in whole-stream chunk coordinates."""
        self._batch = 0
        self._injector = (
            self.plan.injector(
                self.shard_index, epoch, attempt, chunk_offset
            )
            if self.plan is not None
            else None
        )

    def feed(self, rows: Any, continued: bool = False) -> None:
        """Fold one chunk — or, ``continued``, the next ring slot of the
        chunk fed last.  Raises :class:`ShardCrash` *before* touching a
        register when the armed plan scripts this chunk to die."""
        if not continued:
            if self._injector is not None:
                self._injector.before_batch(self._batch)
            self._batch += 1
        # A poison row stays unfolded: the caller reads it off the
        # counters as packets - folded.
        process = self._process
        counts, _poisoned = process_isolated(
            lambda chunk: [process(chunk)], rows
        )
        self.folded += sum(counts)
        self.packets += len(rows)

    def counters(self) -> Dict[str, int]:
        """Cumulative since the last build or reset."""
        return {
            "packets": self.packets,
            "folded": self.folded,
            "unmerged": self.packets - self.folded,
        }

    def snapshot(
        self, final: bool = False, lark: bool = False
    ) -> Dict[str, Any]:
        """The raw register snapshot: the unit the fold merges and the
        checkpoint an epoch chain keeps.  A switch half answers with
        its barrier state instead (``SwitchHalf.barrier(final, lark)``)."""
        if self.spec.kind == "half":
            return self.switch.barrier(final, lark)
        return self.switch.checkpoint(self.spec.app_id)


def _run_shard_epoch(
    spec: ShardSpec,
    shard: int,
    part: Any,
    chunk_size: int,
    plan: Optional[ShardFaultPlan] = None,
    epoch: int = 0,
    attempt: int = 0,
    chunk_offset: int = 0,
) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """The in-process transport: stream one epoch through a fresh
    replica chunk by chunk and return ``(snapshot, counters)``.
    Stateless, so rerunning it with the same arguments is always safe.
    """
    replica = Replica(spec, shard, plan)
    replica.arm(epoch, attempt, chunk_offset)
    for chunk in _chunked(part, chunk_size):
        replica.feed(chunk)
    return replica.snapshot(), replica.counters()


def fold_snapshots(
    spec: ShardSpec, snapshots: Iterable[Optional[Dict[str, List[int]]]]
) -> Optional[Dict[str, List[int]]]:
    """Fold per-shard register snapshots into the snapshot one switch
    fed every shard's packets would hold (:func:`merge_snapshots`).
    ``None`` entries (a shard that saw no traffic) are the identity;
    the result is ``None`` when every entry is."""
    merged: Optional[Dict[str, List[int]]] = None
    specs = list(spec.specs)
    for snapshot in snapshots:
        if snapshot is None:
            continue
        merged = (
            {name: list(cells) for name, cells in snapshot.items()}
            if merged is None
            else merge_snapshots(specs, merged, snapshot)
        )
    return merged


def _partition_key(spec: ShardSpec) -> slice:
    """The bytes a row is split on: the cookie region for lark
    streams, the whole payload for agg streams."""
    return _COOKIE_REGION if spec.kind == "lark" else slice(0, None)


def partition_packets(
    spec: ShardSpec, shards: int, packets: Sequence[bytes]
) -> List[List[bytes]]:
    """The scalar partition loop: :func:`partition_columns`'s numpy-off
    form and the reference its vectorized form is tested against."""
    parts: List[List[bytes]] = [[] for _ in range(shards)]
    key = _partition_key(spec)
    for packet in packets:
        raw = bytes(packet)
        parts[crc32(raw[key]) % shards].append(raw)
    return parts


def partition_columns(
    spec: ShardSpec, shards: int, rows: Any
) -> List[PacketColumns]:
    """The runtime's one partition step: row ``i`` goes to shard
    ``crc32(key_i) % shards``, in arrival order.  Lark streams key on
    the preserved cookie region so a user's packets (and their dedup
    state) stay on one shard; agg streams key on the whole payload.

    Returns ``parts``, where ``parts[s]`` is the shard-``s`` sub-batch.
    A vectorized batch hashes its key columns in place with batched
    CRC-32, then takes a per-shard stable gather, without materializing
    per-row ``bytes``; anything else takes the scalar
    :func:`partition_packets` loop — identical output, slower.
    """
    columns = rows if isinstance(rows, PacketColumns) else PacketColumns(rows)
    np = get_numpy()
    if np is None or not columns.vectorized or columns.n == 0:
        return [
            PacketColumns(part)
            for part in partition_packets(spec, shards, columns.raw)
        ]
    key = _partition_key(spec)
    crcs = crc32_many(columns, key.start, key.stop)
    shard_ids = crcs % shards
    parts: List[PacketColumns] = []
    for shard in range(shards):
        index = np.flatnonzero(shard_ids == shard)
        if len(index) == 0:
            parts.append(PacketColumns([]))
        else:
            # take() gathers whole rows at about twice the speed of
            # fancy indexing.
            parts.append(
                PacketColumns.from_matrix(
                    columns.data.take(index, axis=0),
                    columns.lengths.take(index),
                )
            )
    return parts


def _slice_part(part: Any, lo: int, hi: int) -> Any:
    """Rows ``[lo, hi)`` of a shard part, whatever its container."""
    if isinstance(part, PacketColumns):
        if part.vectorized and get_numpy() is not None:
            return PacketColumns.from_matrix(
                part.data[lo:hi], part.lengths[lo:hi]
            )
        return PacketColumns(part.raw[lo:hi])
    return part[lo:hi]


def _chunked(part: Any, chunk_size: int) -> Iterator[PacketColumns]:
    """Cut one shard part into ``chunk_size`` :class:`PacketColumns`
    slices — the unit both transports fold, count and inject faults on
    (one matrix copy into a ring slot, no per-row work)."""
    if not isinstance(part, PacketColumns):
        part = PacketColumns(part)
    for lo in range(0, len(part), chunk_size):
        yield _slice_part(part, lo, lo + chunk_size)


def render_report(
    spec: ShardSpec, shards: int, snapshot: Optional[Dict[str, List[int]]]
) -> Dict[str, Any]:
    """Render the statistics report a single switch would have produced
    from a merged shard snapshot, via a throwaway replica."""
    render = _build_switch(spec, shard_index=shards + 1)
    stats = render._apps[spec.app_id].stats
    return stats.report_from_snapshot(snapshot or stats.snapshot())


@dataclass
class ShardRunResult:
    """Merged outcome of a sharded run, with its recovery
    bookkeeping."""

    snapshot: Dict[str, List[int]]
    report: Dict[str, Any]
    shard_packets: List[int]
    shard_folded: List[int]
    shards: int
    # Why the ring workers could not start ("WorkerDied: ...") — None
    # when they ran, or when the in-process transport was requested.
    fallback_cause: Optional[str] = None
    used_workers: bool = False  # ring-fed workers ran the epochs
    epochs: List[int] = field(default_factory=list)  # completed, per shard
    crashes: int = 0  # failed epoch attempts: injected, killed or wedged
    retries: int = 0  # epoch jobs re-dispatched after a failure
    recovered_packets: int = 0  # packets replayed from checkpoints
    salvaged: List[int] = field(default_factory=list)  # shards salvaged
    worker_respawns: int = 0  # ring workers replaced mid-run

    @property
    def total_packets(self) -> int:
        return sum(self.shard_packets)


@dataclass
class _ShardState:
    """One shard's epoch chain in a run: its checkpoint-store entry and
    the whole-stream coordinates its fault plan keys on."""

    shard: int
    checkpoint: Optional[Dict[str, List[int]]] = None
    processed: int = 0
    folded: int = 0
    epochs: int = 0
    attempt: int = 0
    chunks_done: int = 0


class ShardExecutor:
    """Fan a packet stream across switch-replica shards and merge.

    Every shard folds through the columnar entry point; ``backend``
    accepts only ``"columnar"``, as ``placement`` accepts only the
    shard count.  ``persistent=True`` keeps one ring-fed worker process
    per shard alive across ``run()`` calls (:mod:`repro.testbed.worker`):
    same results, shards fold in parallel, an injected crash is a real
    ``SIGKILL``; :meth:`close` (or a ``with`` block) releases them.
    ``placement`` may restate the shard count as a
    :class:`PartitionMap`; the split is always ``crc32(key) % shards``
    (:func:`partition_columns`).
    ``checkpoint_batches`` chunks make an epoch, so a crash replays at
    most that many; ``None`` makes a shard's part of a run one epoch.
    A failed epoch is retried ``max_retries`` times with bounded
    back-off (``sleep`` is injectable), then **salvaged** in-process.
    """

    def __init__(
        self,
        spec: ShardSpec,
        shards: int = 2,
        backend: str = "columnar",
        chunk_size: int = 4096,
        checkpoint_batches: Optional[int] = None,
        max_retries: int = 2,
        fault_plan: Optional[ShardFaultPlan] = None,
        registry: Optional[MetricsRegistry] = None,
        sleep: Callable[[float], None] = time.sleep,
        persistent: bool = False,
        placement: Optional[PartitionMap] = None,
    ):
        if placement is not None and placement.shards != shards:
            raise ValueError(
                "placement splits %d shards but shards=%d"
                % (placement.shards, shards)
            )
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if checkpoint_batches is not None and checkpoint_batches < 1:
            raise ValueError("checkpoint_batches must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if checkpoint_batches and spec.kind == "lark" and spec.dedup:
            # The dedup bloom filter lives outside the stats snapshot,
            # so an epoch would forget the cookies the last one saw; a
            # run of one epoch replays from a fresh replica anyway.
            raise ValueError(
                "checkpointed lark shards require dedup=False "
                "(dedup state is not checkpointed)"
            )
        self.spec = spec
        self.shards = shards
        if backend != "columnar":
            raise ValueError("shards run columnar, not %r" % (backend,))
        self.chunk_size = chunk_size
        self.epoch_size = checkpoint_batches and checkpoint_batches * chunk_size
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.registry = registry if registry is not None else get_registry()
        self.persistent = persistent
        self.last_error: Optional[str] = None
        self._sleep = sleep
        self._fleet: Any = None  # WorkerFleet, kept across runs

    def close(self) -> None:
        """Shut down any persistent workers (no-op otherwise)."""
        if self._fleet is not None:
            self._fleet.close()
            self._fleet = None

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- the epoch loop ----------------------------------------------------

    def run(self, packets: Sequence[bytes]) -> ShardRunResult:
        """Process ``packets`` (a row list or a :class:`PacketColumns`
        batch) across all shards, epoch round by epoch round, and fold
        the shards' checkpoints into one snapshot and report."""
        self.last_error = None
        tally = self._tally = ShardRunResult({}, {}, [], [], self.shards)
        chain = [_ShardState(shard) for shard in range(self.shards)]
        if self.persistent and self._fleet is None:
            from repro.testbed.worker import WorkerFleet

            self._fleet = WorkerFleet(
                self.spec, max(self.chunk_size, 64), self.fault_plan,
                JOB_TIMEOUT_S,
            )
        parts = partition_columns(self.spec, self.shards, packets)
        busy = [state for state in chain if len(parts[state.shard])]
        try:
            # Every shard the run routes traffic to gets its worker, the
            # missing ones started side by side.  A fleet that cannot
            # start is dropped, and the run's epochs go in-process.
            try:
                if self._fleet is not None:
                    self._fleet.bring_up([state.shard for state in busy])
            except Exception as exc:
                self.last_error = tally.fallback_cause = "%s: %s" % (
                    type(exc).__name__, exc,
                )
                _LOG.warning(
                    "ring workers unavailable, running in-process: %s",
                    self.last_error,
                )
                self.registry.counter("shard_executor.worker_fallbacks").inc()
                self.close()
            size = self.epoch_size
            longest = max((len(parts[s.shard]) for s in busy), default=0)
            for lo in range(0, longest, size or longest or 1):
                jobs = [
                    (state, _slice_part(part, lo, lo + size) if size else part)
                    for state, part in ((s, parts[s.shard]) for s in busy)
                    if lo < len(part)
                ]
                # Over ring workers every busy shard's epoch is pushed
                # before any is drained, so the workers fold side by
                # side; a failed job then recovers on its own while the
                # other shards keep their work.
                pushed = self._fleet is not None
                errors = [
                    self._attempt(*job, drain=False) if pushed else None
                    for job in jobs
                ]
                for job, error in zip(jobs, errors):
                    error = error or self._attempt(*job, push=not pushed)
                    self._recover(*job, error)
        except BaseException:
            # Workers may hold half an epoch: none of it may reach the
            # next run.
            self.close()
            raise
        snapshot = fold_snapshots(self.spec, (s.checkpoint for s in chain))
        tally.snapshot = snapshot or {}
        tally.report = render_report(self.spec, self.shards, snapshot)
        tally.shard_packets = [s.processed for s in chain]
        tally.shard_folded = [s.folded for s in chain]
        tally.epochs = [s.epochs for s in chain]
        tally.used_workers = self.persistent and not tally.fallback_cause
        return tally

    def _attempt(
        self, state: _ShardState, part: Any, push: bool = True,
        drain: bool = True, inline: bool = False,
    ) -> Optional[Exception]:
        """One try at a shard's epoch — in-process (``inline``: faults
        off), or arm + push, then drain and reset its ring worker — folded
        into the shard's checkpoint.  Returns the failure, not raising it."""
        try:
            if inline or self._fleet is None:
                outcome = _run_shard_epoch(
                    self.spec, state.shard, part, self.chunk_size,
                    None if inline else self.fault_plan,
                    state.epochs, state.attempt, state.chunks_done,
                )
            else:
                if push and self.fault_plan is not None:
                    self._fleet.workers[state.shard].set_epoch(
                        state.epochs, state.attempt, state.chunks_done
                    )
                if push:
                    self._fleet.push(state.shard, part, self.chunk_size)
                if not drain:
                    return None
                outcome = self._fleet.drain_shard(state.shard)
        except Exception as exc:
            return exc
        snapshot, counters = outcome
        state.checkpoint = fold_snapshots(
            self.spec, (state.checkpoint, snapshot)
        )
        state.processed += counters["packets"]
        state.folded += counters["folded"]
        state.epochs += 1
        state.chunks_done += -(-len(part) // self.chunk_size)
        state.attempt = 0
        self.registry.counter("shard_executor.checkpoints").inc()
        return None

    def _recover(
        self, state: _ShardState, part: Any, error: Optional[Exception]
    ) -> None:
        """Book a failed epoch — its partial work is lost, the replay
        costs one epoch — respawn the shard's ring worker fresh, and
        retry after a back-off until an attempt succeeds or the retries
        run out and salvage runs the epoch in-process, faults off."""
        tally, counter = self._tally, self.registry.counter
        while error is not None:
            self.last_error = "%s: %s" % (type(error).__name__, error)
            _LOG.warning("shard %d epoch %d attempt %d failed: %s",
                         state.shard, state.epochs, state.attempt,
                         self.last_error)
            tally.crashes += 1
            tally.recovered_packets += len(part)
            counter("shard_executor.crashes").inc()
            counter("shard_executor.recovered_packets").inc(len(part))
            state.attempt += 1
            if self._fleet is not None:
                self._fleet.respawn(state.shard)
                tally.worker_respawns += 1
                counter("shard_executor.worker_respawns").inc()
            if state.attempt > self.max_retries:
                if state.shard not in tally.salvaged:
                    tally.salvaged.append(state.shard)
                    counter("shard_executor.salvages").inc()
                error = self._attempt(state, part, inline=True)
                if error is not None:
                    raise error
                return
            tally.retries += 1
            counter("shard_executor.retries").inc()
            self._sleep(
                min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2 ** (state.attempt - 1))
            )
            error = self._attempt(state, part)
