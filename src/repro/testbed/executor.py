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

Correctness argument (the differential suite checks it end to end):

* partitioning is deterministic — one rule, :func:`partition_columns`
  under a :class:`~repro.testbed.placement.PartitionMap`: AggSwitch
  streams hash the whole payload, LarkSwitch streams the preserved
  cookie region ``raw[1:18]`` so every packet of one user lands on one
  shard, and per-shard relative order is the arrival order;
* per-kind register folds (wrapping add / min / max) are associative
  and commutative, so merging per-shard snapshots equals interleaved
  single-switch execution, cell for cell;
* replicas start the same way under ``fork`` and ``spawn``: a worker
  gets the :class:`ShardSpec` recipe (schema, key, stat specs, seed)
  — pickled under ``spawn`` — never a live switch, and each replica
  builds a private metrics registry so instrument names cannot
  collide with the parent's.

When ring workers cannot be used (no POSIX shared memory, a sandbox
that forbids starting processes, a worker killed from outside) the
run falls straight back to the in-process transport — identical
results, no parallelism — and records why in ``fallback_cause``.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
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
    "BACKENDS",
    "Replica",
    "check_backend",
    "process_isolated",
    "fold_snapshots",
    "partition_packets",
    "partition_columns",
    "render_report",
]

_LOG = logging.getLogger(__name__)

_COOKIE_REGION = slice(1, 18)  # preserved cookie bytes (lark partition key)

# The two switch tiers, ascending: the P4-interpreter reference and the
# columnar fast path.  Every ``backend=`` argument in the testbed means
# one of these.
BACKENDS = ("scalar", "columnar")


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            "unknown backend %r (expected one of %s)"
            % (backend, "/".join(BACKENDS))
        )
    return backend


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

    kind: str  # "lark" or "agg"
    app_id: int
    schema: CookieSchema
    key: bytes
    specs: Tuple[StatSpec, ...]
    seed: int = 0
    # lark-only knobs
    mode: str = ForwardingMode.PERIODICAL
    period_ms: float = 1000.0
    dedup: bool = False

    def __post_init__(self):
        if self.kind not in ("lark", "agg"):
            raise ValueError("kind must be 'lark' or 'agg'")
        object.__setattr__(self, "specs", tuple(self.specs))


def _build_switch(spec: ShardSpec, shard_index: int):
    """Construct a fresh, deterministically seeded switch replica."""
    from repro.obs.registry import MetricsRegistry

    rng = random.Random(spec.seed * 1000003 + shard_index)
    registry = MetricsRegistry()
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
    restore a checkpoint, arm the fault injector for an epoch attempt,
    fold one chunk through the scalar or columnar entry point, read
    the registers back.

    The in-process transport (:func:`_run_shard_epoch`) and the ring-fed
    worker loop (:func:`repro.testbed.worker._worker_main`) drive this
    same object, so the backend dispatch table below exists once and
    the two transports cannot drift apart.
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
        # Each entry folds one chunk and returns how many of its rows
        # reached the registers (the columnar batch's count).  Rows
        # arrive as bytes-likes (list slices inline, ring views in a
        # worker); the columnar kernels take the chunk as it comes.
        if self.spec.kind == "lark":
            from repro.quic.connection_id import ConnectionID

            self._process: Dict[str, Callable[[Any], int]] = {
                "scalar": lambda rows: sum(
                    switch.process_quic_packet(ConnectionID(r)).folded
                    for r in rows
                ),
                "columnar": lambda rows: (
                    switch.process_quic_columnar(rows).folded
                ),
            }
        else:
            self._process = {
                "scalar": lambda rows: sum(
                    switch.process_packet(bytes(r)).merged for r in rows
                ),
                "columnar": lambda rows: (
                    switch.process_columnar(rows).merged
                ),
            }

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

    def restore(self, checkpoint: Dict[str, Any]) -> None:
        self.switch.restore(self.spec.app_id, checkpoint)

    def feed(self, rows: Any, backend: str, continued: bool = False) -> None:
        """Fold one chunk — or, ``continued``, the next ring slot of the
        chunk fed last.  Raises :class:`ShardCrash` *before* touching a
        register when the armed plan scripts this chunk to die."""
        if not continued:
            if self._injector is not None:
                self._injector.before_batch(self._batch)
            self._batch += 1
        # A poison row stays unfolded: the caller reads it off the
        # counters as packets - folded.
        process = self._process[backend]
        counts, _poisoned = process_isolated(
            lambda chunk: [process(chunk)], rows
        )
        self.folded += sum(counts)
        self.packets += len(rows)

    def counters(self) -> Dict[str, int]:
        """Cumulative since the last build/reset (restore does not
        rewind them)."""
        return {
            "packets": self.packets,
            "folded": self.folded,
            "unmerged": self.packets - self.folded,
        }

    def snapshot(self) -> Dict[str, Any]:
        """The raw register snapshot — at once the unit the fold
        merges and the checkpoint :meth:`restore` takes back."""
        return self.switch.checkpoint(self.spec.app_id)


def _run_shard_epoch(
    spec: ShardSpec,
    shard: int,
    part: Any,
    backend: str,
    chunk_size: int,
    checkpoint: Optional[Dict[str, Any]] = None,
    plan: Optional[ShardFaultPlan] = None,
    epoch: int = 0,
    attempt: int = 0,
    chunk_offset: int = 0,
) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """The in-process transport: restore ``checkpoint`` into a fresh
    replica, stream one epoch through it chunk by chunk, return
    ``(snapshot, counters)``.

    Stateless by design — all cross-epoch state travels in the
    checkpoint argument, so rerunning it with the same arguments is
    always safe.
    """
    replica = Replica(spec, shard, plan)
    if checkpoint is not None:
        replica.restore(checkpoint)
    replica.arm(epoch, attempt, chunk_offset)
    for chunk in _chunked(part, chunk_size, backend):
        replica.feed(chunk, backend)
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


def partition_packets(
    spec: ShardSpec, pmap: PartitionMap, packets: Sequence[bytes]
) -> Tuple[List[List[bytes]], List[int]]:
    """The scalar partition loop: :func:`partition_columns`'s numpy-off
    form and the reference its vectorized form is tested against."""
    parts: List[List[bytes]] = [[] for _ in range(pmap.shards)]
    counts = [0] * pmap.buckets
    lark = spec.kind == "lark"
    assignment = pmap.assignment
    buckets = pmap.buckets
    for packet in packets:
        raw = bytes(packet)
        key = raw[_COOKIE_REGION] if lark else raw
        bucket = crc32(key) % buckets
        counts[bucket] += 1
        parts[assignment[bucket]].append(raw)
    return parts, counts


def partition_columns(
    spec: ShardSpec,
    pmap: PartitionMap,
    rows: Any,
) -> Tuple[List[PacketColumns], List[int]]:
    """The runtime's one partition step, preserving per-shard arrival
    order.  Lark streams split on the preserved cookie region so a
    user's packets (and their dedup state) stay on one shard; agg
    streams split on the whole payload.  The key's CRC-32 picks one of
    the map's virtual buckets and the map says which shard owns it
    (the default ``PartitionMap(shards)`` is the bare ``crc32 %
    shards`` whenever ``shards`` divides the bucket count).

    Returns ``(parts, bucket_counts)`` where ``parts[s]`` is the
    shard-``s`` sub-batch and ``bucket_counts`` the per-bucket packet
    histogram the placement controller feeds on.  A vectorized batch
    takes batched CRC-32 plus a per-shard stable gather, without
    materializing per-row ``bytes``; anything else takes the scalar
    :func:`partition_packets` loop — identical output, slower.
    """
    columns = rows if isinstance(rows, PacketColumns) else PacketColumns(rows)
    np = get_numpy()
    if np is None or not columns.vectorized or columns.n == 0:
        raw_parts, counts = partition_packets(spec, pmap, columns.raw)
        return [PacketColumns(part) for part in raw_parts], counts
    if spec.kind == "lark":
        start, stop = _COOKIE_REGION.start, _COOKIE_REGION.stop
        stop = min(stop, columns.max_len)
        width = max(0, stop - start)
        sub_lengths = np.clip(columns.lengths - start, 0, width)
        sub = PacketColumns.from_matrix(
            columns.data[:, start:start + width]
            if width
            else np.zeros((columns.n, 0), dtype=np.uint8),
            sub_lengths,
        )
        crcs = np.asarray(crc32_many(sub))
    else:
        crcs = np.asarray(crc32_many(columns))
    buckets = crcs % pmap.buckets
    shard_ids = np.asarray(pmap.assignment, dtype=np.int64)[buckets]
    counts = np.bincount(buckets, minlength=pmap.buckets)
    parts: List[PacketColumns] = []
    for shard in range(pmap.shards):
        index = np.flatnonzero(shard_ids == shard)
        if len(index) == 0:
            parts.append(PacketColumns([]))
        else:
            parts.append(
                PacketColumns.from_matrix(
                    columns.data[index], columns.lengths[index]
                )
            )
    return parts, [int(c) for c in counts]


def _slice_part(part: Any, lo: int, hi: int) -> Any:
    """Rows ``[lo, hi)`` of a shard part, whatever its container."""
    if isinstance(part, PacketColumns):
        if part.vectorized and get_numpy() is not None:
            return PacketColumns.from_matrix(
                part.data[lo:hi], part.lengths[lo:hi]
            )
        return PacketColumns(part.raw[lo:hi])
    return part[lo:hi]


def _chunked(part: Any, chunk_size: int, backend: str) -> Iterator[Any]:
    """Cut one shard part into ``chunk_size`` slices — the unit both
    transports fold, count and inject faults on.  Slices are
    :class:`PacketColumns` when the columnar path will consume them
    (one matrix copy into a ring slot, no per-row work) and plain row
    lists for the interpreter."""
    columnar = backend == "columnar"
    if not columnar and isinstance(part, PacketColumns):
        part = part.raw
    for lo in range(0, len(part), chunk_size):
        chunk = _slice_part(part, lo, lo + chunk_size)
        if columnar and not isinstance(chunk, PacketColumns):
            chunk = PacketColumns(chunk)
        yield chunk


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
    """Merged outcome of a sharded run."""

    snapshot: Dict[str, List[int]]
    report: Dict[str, Any]
    shard_packets: List[int]
    shard_folded: List[int]
    shards: int
    # Why the ring workers were abandoned ("WorkerDied: ...") — None
    # when they ran, or when the in-process transport was requested.
    fallback_cause: Optional[str] = None
    # True when long-lived ring-fed workers processed the run.
    used_workers: bool = False

    @property
    def total_packets(self) -> int:
        return sum(self.shard_packets)


class ShardExecutor:
    """Fan a packet stream across switch-replica shards and merge.

    ``backend`` selects the per-shard execution path (``scalar`` or
    ``columnar``).  ``placement`` is the partition map (default
    ``PartitionMap(shards)``).  ``persistent=True`` keeps one ring-fed
    worker process alive per shard across ``run()`` calls (see
    :mod:`repro.testbed.worker`) instead of folding each shard
    in-process: same API, same results, shards fold in parallel.  Call
    :meth:`close` (or use the executor as a context manager) to release
    the workers.
    """

    def __init__(
        self,
        spec: ShardSpec,
        shards: int = 2,
        backend: str = "columnar",
        chunk_size: int = 4096,
        registry: Optional[MetricsRegistry] = None,
        persistent: bool = False,
        placement: Optional[PartitionMap] = None,
    ):
        if placement is not None:
            shards = placement.shards
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self.spec = spec
        self.shards = shards
        self.backend = check_backend(backend)
        # last_bucket_counts holds the previous run()'s per-bucket
        # packet histogram — the load feed for a PlacementController.
        self.placement = (
            placement if placement is not None else PartitionMap(shards)
        )
        self.last_bucket_counts: Optional[List[int]] = None
        self.chunk_size = chunk_size
        self.registry = registry if registry is not None else get_registry()
        self.last_error: Optional[str] = None
        self.persistent = persistent
        self._fleet: Any = None  # WorkerFleet, built by the first worker run

    @property
    def _workers(self) -> Dict[int, Any]:
        """Live ring-fed workers by shard (the chaos suite kills one)."""
        return self._fleet.workers if self._fleet is not None else {}

    def close(self) -> None:
        """Shut down any persistent workers (no-op otherwise)."""
        if self._fleet is not None:
            self._fleet.close()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def set_placement(self, pmap: PartitionMap) -> None:
        """Adopt a new partition map between runs (epoch boundary).

        An elastic resize retires surplus persistent workers here;
        missing ones spawn lazily on the next run.  No state migrates:
        run() folds all shard snapshots regardless of which shard
        folded which bucket.
        """
        self.placement = pmap
        self.shards = pmap.shards
        if self._fleet is not None:
            try:
                self._fleet.resize(pmap.shards)
            except Exception:
                # A worker killed from outside between runs: the next
                # run() starts a fresh fleet.
                self.close()

    # -- execution ---------------------------------------------------------

    def run(self, packets: Sequence[bytes]) -> ShardRunResult:
        """Process ``packets`` (a row list or a :class:`PacketColumns`
        batch) across all shards and fold the results."""
        parts, self.last_bucket_counts = partition_columns(
            self.spec, self.placement, packets
        )
        outcome = cause = None
        if self.persistent:
            try:
                outcome = self._run_workers(parts)
            except Exception as exc:
                # A dead or wedged worker must not fail the run: note
                # the cause, drop the fleet and reprocess in-process
                # (identical results, no parallelism).
                self.last_error = cause = "%s: %s" % (
                    type(exc).__name__, exc,
                )
                self.registry.counter(
                    "shard_executor.worker_fallbacks"
                ).inc()
                _LOG.warning(
                    "persistent workers failed, in-process fallback engaged",
                    extra={
                        "component": "shard_executor",
                        "kind": self.spec.kind,
                        "shards": self.shards,
                        "cause": cause,
                    },
                )
                self.close()
        if outcome is None:
            outputs = [
                _run_shard_epoch(
                    self.spec, shard, part, self.backend, self.chunk_size
                )
                for shard, part in enumerate(parts)
            ]
            outcome = (
                fold_snapshots(self.spec, (s for s, _ in outputs)),
                dict(enumerate(c for _, c in outputs)),
            )
        snapshot, counters = outcome
        return ShardRunResult(
            snapshot=snapshot or {},
            report=render_report(self.spec, self.shards, snapshot),
            shard_packets=[
                counters[shard]["packets"] for shard in range(self.shards)
            ],
            shard_folded=[
                counters[shard]["folded"] for shard in range(self.shards)
            ],
            shards=self.shards,
            fallback_cause=cause,
            used_workers=self.persistent and cause is None,
        )

    def _run_workers(
        self, parts: List[Any]
    ) -> Tuple[Optional[Dict[str, List[int]]], Dict[int, Dict[str, int]]]:
        """One run over the long-lived worker fleet.

        Batches stream to every shard's ring first (workers fold
        concurrently), then a reset barrier collects the merged fold
        snapshot and returns the replicas to a fresh state so
        consecutive runs stay independent.
        """
        if self._fleet is None:
            from repro.testbed.worker import WorkerFleet

            self._fleet = WorkerFleet(
                self.spec,
                backend=self.backend,
                row_capacity=max(self.chunk_size, 64),
            )
        # Every shard's worker is up (started side by side on the first
        # run, a dictionary check afterwards) before the first push.
        self._fleet.bring_up(range(len(parts)))
        for shard, part in enumerate(parts):
            self._fleet.push(shard, part, self.chunk_size)
        return self._fleet.drain(reset=True)
