"""AggSwitch: the second-tier aggregating switch (paper sections 3.1, 4.1).

The AggSwitch sits on the last hop to the analytics server and inspects
all incoming packets.  Packets whose first 16 bits carry the Snatch SID
are aggregation packets from LarkSwitches or edge servers; the switch
decrypts them, folds their contents into its own register-backed
statistics, and either forwards per-packet increments immediately or
flushes merged statistics at period boundaries.

It is built on the same pipeline substrate as the LarkSwitch: a
match-action table on the SID/app-ID fields selects the merge action,
and AES passes are charged the ~0.1 ms cost.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
    SNATCH_SID,
    unpack_items,
)
from repro.core.larkswitch import unflatten_snapshot
from repro.core.schema import CookieSchema
from repro.core.user_stats import UserEngagementTracker, UserQuantileConfig
from repro.core.stats import (
    StatSpec,
    SwitchStatistics,
    merge_snapshots,
    min_array_names,
)
from repro.crypto.aes import (
    decrypt_cbc_many,
    decrypt_cbc_matrix,
    pkcs7_sizes,
)
from repro.obs.registry import MetricsRegistry
from repro.switch.columns import BatchView, PacketColumns, match_rows
from repro.switch.hashing import crc32, crc32_many
from repro.switch.pipeline import (
    AES_PASS_LATENCY_MS,
    LINE_RATE_LATENCY_MS,
    PHV,
    SwitchPipeline,
)
from repro.switch.registers import RegisterFile
from repro.switch.tables import (
    MatchActionTable,
    MatchKey,
    MatchKind,
    TableEntry,
)

__all__ = ["AggSwitch", "AggResult", "AggBatchResult"]

# A matched aggregation packet: one table stage plus the AES decrypt.
_HIT_LATENCY_MS = LINE_RATE_LATENCY_MS + AES_PASS_LATENCY_MS


@dataclass
class _AggApp:
    app_id: int
    schema: CookieSchema
    specs: List[StatSpec]
    codec: AggregationCodec
    stats: SwitchStatistics  # shard bank 0 (also banks[0])
    banks: List[SwitchStatistics] = field(default_factory=list)
    destination: str = "analytics"
    packets_merged: int = 0
    # Cumulative per-user engagement tracker (absorbs LarkSwitch
    # period drains; not reset by periodical write-backs).
    users: Optional[UserEngagementTracker] = None
    # The fold of all shard banks as of the last read-out (None =
    # invalid).  Every register write — a per-packet fold, a
    # periodical write-back, a control-plane reset — invalidates it;
    # back-to-back read-outs share one K-bank merge.
    merged_cache: Optional[Dict[str, List[int]]] = None


def _merge_banks(
    specs: List[StatSpec], banks: List[SwitchStatistics]
) -> Dict[str, List[int]]:
    merged = banks[0].snapshot()
    for bank in banks[1:]:
        merged = merge_snapshots(specs, merged, bank.snapshot())
    return merged


def _fold_by_shard(
    banks: List[SwitchStatistics],
    rows: Any,
    shards: Optional[List[int]],
) -> Dict[int, int]:
    """Fold wire rows (a tuple list or a row matrix) into their shard
    banks, one ``fold_rows`` call per bank, banks in first-occurrence
    order; returns the number of rows each touched bank took.
    ``shards`` is ``None`` on a single-bank switch."""
    if shards is None:
        banks[0].fold_rows(rows)
        return {0: len(rows)}
    picks: Dict[int, List[int]] = {}
    for k, shard in enumerate(shards):
        picks.setdefault(shard, []).append(k)
    for shard, ks in picks.items():
        banks[shard].fold_rows(
            [rows[k] for k in ks] if isinstance(rows, list) else rows[ks]
        )
    return {shard: len(ks) for shard, ks in picks.items()}


def _wire_row(
    cards: List[int], body: bytes, declared: int
) -> Optional[Tuple[int, ...]]:
    """The wire row of a per-packet data-stack — its items are
    ``(feature index, wire integer)`` — or ``None`` exactly where
    :meth:`AggSwitch._fold_packet` rejects the packet: a corrupt stack
    length, an item count other than the summary byte's, a feature
    index outside the schema, a wire value outside its feature's
    cardinality (``cards``, in schema order)."""
    try:
        items = unpack_items(body)
    except ValueError:
        return None
    if len(items) != declared:
        return None
    row = [-1] * len(cards)
    for index, wire in items:
        if index >= len(cards) or wire >= cards[index]:
            return None
        row[index] = wire
    return tuple(row)


def _parse_payloads(
    app: _AggApp, columns: PacketColumns, idxs: List[int]
) -> Tuple[List[int], Any, List[Tuple[int, int, int, bytes]]]:
    """The parse kernel: decrypt the payloads at batch positions
    ``idxs`` (all matched to ``app``) and parse every per-packet
    data-stack to its wire row.  Returns ``(merged, rows, snapshots)``:
    the batch positions of the payloads that carry a valid row, those
    rows in the same order (a tuple list, or an ``(n, F)`` int64 matrix
    in the numpy form), and per periodical payload that decrypted
    ``(batch position, valid rows before it, summary byte, body)``.
    Every other payload is a decode failure, rejected exactly where
    the scalar action rejects it (see :func:`_wire_row`).  The numpy
    form (a matrix batch: ``VECTOR_MIN_ROWS`` payloads up) works per
    distinct payload length on the matrix slice: one CBC pass, the
    padding and the reject conditions as column masks.
    """
    cards = [feature.cardinality for feature in app.schema.features]
    np = columns.kernels()
    if np is None:
        merged: List[int] = []
        snapshots: List[Tuple[int, int, int, bytes]] = []
        raws = columns.raw
        # The header checks the scalar decode performs are already
        # guaranteed by the match mask, all but the length.
        long_enough = [i for i in idxs if len(raws[i]) >= 4 + 16 + 16]
        bodies = decrypt_cbc_many(
            app.codec.aes,
            [raws[i][4:20] for i in long_enough],
            [raws[i][20:] for i in long_enough],
        )
        rows: Any = []
        for i, body in zip(long_enough, bodies):
            if body is None:
                continue  # corrupt CBC
            count_byte = raws[i][3]
            if count_byte & 0x80:
                snapshots.append((i, len(rows), count_byte, body))
                continue
            row = _wire_row(cards, body, count_byte)
            if row is not None:
                merged.append(i)
                rows.append(row)
        return merged, rows, snapshots
    picks = np.array(idxs)
    lengths = columns.lengths[picks]
    matrix = np.full((len(idxs), len(cards)), -1, dtype=np.int64)
    valid = np.zeros(len(idxs), dtype=bool)
    periodicals: List[Tuple[int, int, bytes]] = []
    # One limit past the schema: an index outside it clamps there and
    # no wire integer is below 0.
    limits = np.array(
        [min(card, 1 << 48) for card in cards] + [0], dtype=np.uint64
    )
    # Distinct lengths through a set: numpy's ``unique`` imports
    # numpy.ma on its first call, 30 ms inside a fresh process.
    for length in set(lengths.tolist()):
        if length < 4 + 16 + 16 or length % 16 != 4:
            continue
        at = np.flatnonzero(lengths == length)
        framed = columns.data[picks[at], :length]
        plain = decrypt_cbc_matrix(app.codec.aes, framed[:, 4:])
        sizes = pkcs7_sizes(plain)
        count_byte = framed[:, 3]
        periodical = count_byte >= 0x80
        for k in np.flatnonzero(periodical & (sizes >= 0)).tolist():
            periodicals.append((
                int(at[k]), int(count_byte[k]), plain[k, :sizes[k]].tobytes()
            ))
        words = plain.view(">u8").astype(np.uint64)
        wire = words & np.uint64((1 << 48) - 1)
        index = np.minimum(words >> np.uint64(48), len(cards)).astype(np.intp)
        live = np.arange(words.shape[1]) < count_byte[:, None]
        good = np.flatnonzero(
            ~periodical & (sizes == 8 * count_byte.astype(np.int64))
            & ~(live & (wire >= limits[index])).any(axis=1)
        )
        valid[at[good]] = True
        wire = wire.astype(np.int64)
        # Item position by item position: a later duplicate wins.
        for slot in range(int(count_byte[good].max(initial=0))):
            has = good[count_byte[good] > slot]
            matrix[at[has], index[has, slot]] = wire[has, slot]
    before = np.cumsum(valid)
    return picks[valid].tolist(), matrix[valid], [
        (idxs[k], int(before[k]), count_byte, body)
        for k, count_byte, body in sorted(periodicals)
    ]


class _RunTrail:
    """What one folded run of per-packet rows leaves behind so that a
    forward report (the merged state at one row's own merge point) can
    be rendered if somebody asks: the banks' pre-run snapshots, the
    rows (as parsed: a slice of the batch's row matrix or tuple list)
    and their shards.  Rows are replayed into scratch banks up to
    the asked position; a cursor makes reading a run's reports in
    order one 1-row fold each, and asking backwards restarts from the
    base snapshots."""

    __slots__ = (
        "app", "base", "rows", "shards", "sram_bits", "_banks", "_cursor",
    )

    def __init__(
        self,
        app: _AggApp,
        rows: Any,
        shards: Optional[List[int]],
        sram_bits: int,
    ):
        self.app = app
        self.base = [bank.snapshot() for bank in app.banks]
        self.rows = rows
        self.shards = shards
        self.sram_bits = sram_bits  # the switch's own register budget
        self._banks: List[SwitchStatistics] = []
        self._cursor = 0  # rows already folded into the scratch banks

    def report_at(self, position: int) -> Dict[str, Any]:
        app = self.app
        if not self._banks or self._cursor > position + 1:
            if not self._banks:
                registers = RegisterFile(self.sram_bits)
                self._banks = [
                    SwitchStatistics(
                        app.schema, app.specs, registers, "shard%d" % shard
                    )
                    for shard in range(len(self.base))
                ]
            for bank, snapshot in zip(self._banks, self.base):
                bank.load_snapshot(snapshot)
            self._cursor = 0
        _fold_by_shard(
            self._banks,
            self.rows[self._cursor:position + 1],
            self.shards and self.shards[self._cursor:position + 1],
        )
        self._cursor = position + 1
        return app.stats.report_from_snapshot(
            _merge_banks(app.specs, self._banks)
        )


@dataclass(slots=True)
class AggResult:
    """Outcome of processing one packet at the AggSwitch."""

    is_aggregation: bool
    merged: bool
    latency_ms: float
    forward_report: Optional[Dict[str, Any]] = None
    destination: Optional[str] = None
    # process_columnar leaves a per-packet row's forward_report slot
    # unset and the row's (trail, position) here: the first read of
    # the report (== and repr read it too) lands in __getattr__.
    _pending: Optional[Tuple[_RunTrail, int]] = field(
        default=None, repr=False, compare=False
    )

    def __getattr__(self, name: str) -> Any:
        if name != "forward_report" or self._pending is None:
            raise AttributeError(name)
        trail, position = self._pending
        self.forward_report = trail.report_at(position)
        self._pending = None
        return self.forward_report


class AggBatchResult(BatchView):
    """Outcome of one :meth:`AggSwitch.process_columnar` batch, the
    mirror of :class:`~repro.core.larkswitch.LarkBatchResult`.

    Streaming callers read ``merged`` (how many payloads reached the
    registers), settled before the call returns.  The batch is also
    the sequence of its per-payload :class:`AggResult` s — what
    :meth:`AggSwitch.process_packet` returns payload by payload, a
    per-packet row's forward report still rendered on its own first
    read — built on first use (:class:`~repro.switch.columns.BatchView`).
    """

    __slots__ = ("merged",)

    def __init__(
        self,
        n: int,
        merged: int,
        parts: Tuple[Any, ...] = (),
        results: Optional[List[AggResult]] = None,
    ):
        # parts: (SID column, matched batch positions per application,
        # folded runs as (trail, batch positions, destination), merged
        # periodical payloads as (batch position, report, destination)).
        super().__init__(n, parts, results)
        self.merged = merged

    @classmethod
    def of(cls, results: List[AggResult]) -> "AggBatchResult":
        """The batch form of results that exist already (the scalar
        interpreter produced them, or the switch is down)."""
        return cls(
            len(results), sum(r.merged for r in results), results=results
        )

    def _render(self) -> List[AggResult]:
        sids, hits, runs, snapshots = self._parts
        out: List[Any] = [None] * self.n
        for trail, run, destination in runs:
            for position, i in enumerate(run):
                # Positional (field order: is_aggregation, merged,
                # latency_ms, forward_report, destination, _pending).
                # The report renders on first read.
                result = out[i] = AggResult(
                    True, True, _HIT_LATENCY_MS, None, destination,
                    (trail, position),
                )
                del result.forward_report
        for i, report, destination in snapshots:
            out[i] = AggResult(
                True, True, _HIT_LATENCY_MS, report, destination
            )
        for idxs in hits:
            for i in idxs:
                if out[i] is None:  # matched, then failed to decode
                    out[i] = AggResult(True, False, _HIT_LATENCY_MS)
        return [
            AggResult(
                int(sids[i]) == SNATCH_SID, False, LINE_RATE_LATENCY_MS
            ) if result is None else result
            for i, result in enumerate(out)
        ]

    def __repr__(self) -> str:
        return "AggBatchResult(n=%d, merged=%d)" % (self.n, self.merged)


class AggSwitch:
    """The aggregating switch in front of the analytics server.

    ``shards`` models a multi-pipe switch: each application's
    statistics live in N register banks, aggregation packets are
    hash-partitioned across banks by payload CRC-32, and read-outs
    deterministically fold the banks with :meth:`merge` (the per-kind
    folds — add, min, max — are associative and commutative, so the
    merged result is independent of how packets were partitioned).
    """

    def __init__(self, name: str = "agg", rng: Optional[random.Random] = None,
                 registry: Optional[MetricsRegistry] = None,
                 shards: int = 1):
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.name = name
        self.alive = True
        self.crashes = 0
        self.shards = shards
        self._rng = rng or random.Random()
        self.pipeline = SwitchPipeline(name, registry=registry)
        self.metrics = self.pipeline.metrics
        base = "agg.%s" % name
        self._m_packets = self.metrics.counter(base + ".packets")
        self._m_per_packet_merges = self.metrics.counter(
            base + ".per_packet_merges"
        )
        self._m_report_merges = self.metrics.counter(base + ".report_merges")
        self._m_decode_failures = self.metrics.counter(
            base + ".decode_failures"
        )
        self._m_register_updates = self.metrics.counter(
            base + ".register_updates"
        )
        self._m_reconciles = self.metrics.counter(base + ".reconciles")
        self._m_crashes = self.metrics.counter(base + ".crashes")
        # Occupancy per shard bank: packets folded into that bank.
        self._m_shard_occupancy = [
            self.metrics.gauge("%s.shard%02d.occupancy" % (base, shard))
            for shard in range(shards)
        ]
        self._apps: Dict[int, _AggApp] = {}
        self._match_table = MatchActionTable(
            "%s.sid_app_match" % name,
            keys=[
                MatchKey("sid", MatchKind.EXACT, 16),
                MatchKey("app_id", MatchKind.EXACT, 8),
            ],
            max_entries=256,
            default_action="NoAction",
        )
        self.pipeline.add_table(stage=0, table=self._match_table)
        self.pipeline.register_action("snatch_merge", self._action_merge)
        # Known-good program shape for the columnar backend, cached as
        # (program version, match-table version).
        self._columnar_plan: Optional[Tuple[int, int]] = None

    # -- controller RPC surface ---------------------------------------------

    def register_application(
        self,
        app_id: int,
        schema: CookieSchema,
        key: bytes,
        specs: List[StatSpec],
        destination: str = "analytics",
        user_quantiles: Optional[UserQuantileConfig] = None,
    ) -> None:
        if app_id in self._apps:
            raise ValueError("app-ID %d already registered" % app_id)
        # Shard 0 keeps the legacy register prefix so single-shard
        # deployments are unchanged on the wire and in SRAM accounting;
        # extra shards suffix their bank names.  All shard prefixes
        # start with the app prefix, so revocation frees every bank.
        base_prefix = "%s.app%02x" % (self.name, app_id)
        banks = [
            SwitchStatistics(
                schema,
                specs,
                self.pipeline.registers,
                prefix=base_prefix if shard == 0
                else "%s.shard%d" % (base_prefix, shard),
            )
            for shard in range(self.shards)
        ]
        users = None
        if user_quantiles is not None:
            users = UserEngagementTracker(
                user_quantiles,
                name="%s.users" % base_prefix,
                registers=self.pipeline.registers
                if user_quantiles.mode == "sketch" else None,
            )
        self._apps[app_id] = _AggApp(
            app_id=app_id,
            schema=schema,
            specs=list(specs),
            codec=AggregationCodec(app_id, key, self._rng),
            stats=banks[0],
            banks=banks,
            destination=destination,
            users=users,
        )
        self._match_table.insert(
            TableEntry((SNATCH_SID, app_id), "snatch_merge", {"app_id": app_id})
        )

    def rekey_application(self, app_id: int, new_key: bytes) -> None:
        """In-place AES-key replacement (see LarkSwitch.rekey_application
        for why this is the naive, unsafe update path)."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        app.codec = AggregationCodec(app_id, new_key, self._rng)

    def revoke_application(self, app_id: int) -> bool:
        app = self._apps.pop(app_id, None)
        if app is None:
            return False
        self._match_table.remove((SNATCH_SID, app_id))
        for array_name in list(self.pipeline.registers.names()):
            if array_name.startswith("%s.app%02x" % (self.name, app_id)):
                self.pipeline.registers.free(array_name)
        return True

    def registered_app_ids(self) -> List[int]:
        return sorted(self._apps)

    # -- lifecycle (crash / recovery, paper section 6) -------------------------

    def crash(self) -> None:
        """Power loss: merged aggregates and parameters are gone."""
        for app_id in list(self._apps):
            self.revoke_application(app_id)
        self.alive = False
        self.crashes += 1
        self._m_crashes.inc()

    def restart(self) -> None:
        self.alive = True

    # -- data plane -----------------------------------------------------------

    def _shard_for(self, payload: bytes) -> int:
        """Deterministic hash partition of a payload onto a shard bank."""
        if self.shards == 1:
            return 0
        return crc32(payload) % self.shards

    def _merged_view(self, app: _AggApp) -> Dict[str, List[int]]:
        """The fold of all shard banks, rebuilt after any register
        write invalidated it.  Callers must not mutate the returned
        snapshot (use :meth:`merge` for a copy)."""
        cache = app.merged_cache
        if cache is None:
            cache = app.merged_cache = _merge_banks(app.specs, app.banks)
        return cache

    def _fold_packet(
        self,
        app: _AggApp,
        payload: bytes,
        packet: AggregationPacket,
        shard: Optional[int] = None,
    ) -> Optional[Dict[str, Any]]:
        """Fold one decoded aggregation packet into its shard bank,
        invalidate the merged view, and return the forward report (the
        merged state at this packet's own merge point, re-merged from
        the banks).  ``None`` means a malformed item stack; the caller
        counts it as a decode failure.  This is the scalar action's
        body; the columnar path takes it for periodical payloads only
        (see :meth:`_fold_run`)."""
        if shard is None:
            shard = self._shard_for(payload)
        bank = app.banks[shard]
        if packet.mode == ForwardingMode.PER_PACKET:
            # Items are (feature_index, wire_value) for one cookie.
            values: Dict[str, Any] = {}
            for index, wire in packet.items:
                if index >= len(app.schema.features):
                    return None
                feature = app.schema.features[index]
                try:
                    values[feature.name] = feature.decode_value(wire)
                except ValueError:
                    # Corrupted wire value: reject before any register
                    # is touched, so the payload is a clean dead letter.
                    return None
            bank.update(values)
            self._m_register_updates.inc()
            self._m_per_packet_merges.inc()
        else:
            # Items are a flattened statistics snapshot from one source.
            # A corrupted payload can pass the AES decode yet carry a
            # garbage item stack; both helpers below are pure, so
            # failing here leaves the bank untouched and the caller
            # books a decode failure instead of an exception — crucial
            # in a columnar batch, where a raise after earlier packets
            # folded would force the caller to replay (and
            # double-count) them.
            mins = min_array_names(app.specs)
            try:
                incoming = unflatten_snapshot(
                    packet.items, bank.snapshot(), mins
                )
                merged = merge_snapshots(
                    app.specs, bank.snapshot(), incoming
                )
            except (ValueError, KeyError, IndexError):
                return None
            self._write_snapshot(bank, merged)
            self._m_report_merges.inc()
        app.merged_cache = None
        self._m_shard_occupancy[shard].inc()
        app.packets_merged += 1
        return app.stats.report_from_snapshot(self._merged_view(app))

    def _action_merge(
        self, pipeline: SwitchPipeline, phv: PHV, params: Dict[str, Any]
    ) -> None:
        app = self._apps[params["app_id"]]
        pipeline.charge_latency(AES_PASS_LATENCY_MS)  # AES decrypt
        payload = phv["payload"]
        try:
            packet = app.codec.decode(payload)
        except ValueError:
            phv.metadata["decode_failed"] = True
            self._m_decode_failures.inc()
            return
        report = self._fold_packet(app, payload, packet)
        if report is None:
            phv.metadata["decode_failed"] = True
            self._m_decode_failures.inc()
            return
        phv.metadata["merged_app"] = app.app_id
        phv.metadata["forward_report"] = report

    def _write_snapshot(
        self, bank: SwitchStatistics, snapshot: Dict[str, List[int]]
    ) -> None:
        bank.load_snapshot(snapshot)
        for cells in snapshot.values():
            self._m_register_updates.inc(len(cells))

    def process_packet(self, payload: bytes) -> AggResult:
        """Inspect one packet heading for the analytics server."""
        if not self.alive:
            return AggResult(
                is_aggregation=False, merged=False, latency_ms=0.0
            )
        self._m_packets.inc()
        sid = int.from_bytes(payload[0:2], "big") if len(payload) >= 2 else 0
        app_id = payload[2] if len(payload) >= 3 else -1
        result = self.pipeline.process(
            {"sid": sid, "app_id": app_id, "payload": payload}
        )
        return self._to_agg_result(result)

    # -- columnar fast path -------------------------------------------------

    def _columnar_ready(self) -> bool:
        """True when the pipeline still has exactly the shape the
        columnar backend assumes (one stage, the SID/app match table,
        snatch_merge entries for the registered apps)."""
        key = (self.pipeline._program_version, self._match_table.version)
        if self._columnar_plan == key:
            return True
        stages = self.pipeline.stages
        if len(stages) != 1 or stages[0].tables != [self._match_table]:
            return False
        if self._match_table.default_action != "NoAction":
            return False
        matched = set()
        for entry in self._match_table.entries():
            if entry.action != "snatch_merge":
                return False
            sid, app_id = entry.match_values
            if sid != SNATCH_SID or entry.action_params.get("app_id") != app_id:
                return False
            if app_id not in self._apps:
                return False
            matched.add(app_id)
        if matched != set(self._apps):
            return False
        self._columnar_plan = key
        return True

    def process_columnar(self, payloads: Sequence[bytes]) -> AggBatchResult:
        """Columnar fast path over a batch of analytics-bound packets.

        Bit-identical to calling :meth:`process_packet` once per
        element in order: header fields and shard hashes are extracted
        as columns, every matched payload is decrypted and parsed to a
        wire row in one kernel (:func:`_parse_payloads`), each run of
        consecutive per-packet rows of an app folds at once
        (:meth:`_fold_run`), and a periodical payload folds in its own
        place between runs.  Each forward report still reflects the
        merged state at that packet's own merge point; the per-payload
        results, a per-packet row's report included, are the returned
        batch's lazy view.
        The column, CRC, parse and fold kernels each pick their numpy
        or Python form; only a reshaped pipeline leaves this path, for
        the interpreter.
        """
        if not self.alive:
            return AggBatchResult.of(
                [AggResult(False, False, 0.0) for _ in payloads]
            )
        if not self._columnar_ready():
            return AggBatchResult.of(
                [self.process_packet(bytes(p)) for p in payloads]
            )
        columns = (
            payloads if isinstance(payloads, PacketColumns)
            else PacketColumns(payloads)
        )
        n = columns.n
        pipe = self.pipeline
        self._m_packets.inc(n)
        pipe.packets_processed += n
        pipe._m_packets.inc(n)
        table = self._match_table
        table.lookups += n
        sids = columns.be16_column(0, default=0)
        app_ids = columns.byte_column(2, default=-1)
        shard_column = None
        if self.shards > 1:
            crcs = crc32_many(columns)
            if not isinstance(crcs, list):
                crcs = crcs.tolist()
            shard_column = [crc % self.shards for crc in crcs]
        hits: List[List[int]] = []
        runs: List[Tuple[_RunTrail, List[int], str]] = []
        snapshots: List[Tuple[int, Dict[str, Any], str]] = []
        merged_count = 0
        for app_id, app in self._apps.items():
            idxs = match_rows((sids, app_ids), (SNATCH_SID, app_id))
            if not idxs:
                continue
            hits.append(idxs)
            merged, rows, periodical = _parse_payloads(app, columns, idxs)
            merged_count += len(merged)
            done = 0  # rows[:done] are folded
            for i, before, count_byte, body in periodical:
                # A periodical snapshot merge reads the bank, so the
                # run before it folds first: packet order is preserved.
                if before > done:
                    runs.append(self._fold_run(
                        app, merged[done:before], rows[done:before],
                        shard_column,
                    ))
                    done = before
                try:
                    packet = app.codec.packet_from_body(body, count_byte)
                except ValueError:
                    continue  # malformed data-stack: decode failure
                report = self._fold_packet(
                    app, columns.raw[i], packet,
                    shard=shard_column[i] if shard_column is not None else 0,
                )
                if report is not None:
                    snapshots.append((i, report, app.destination))
            if len(merged) > done:
                runs.append(self._fold_run(
                    app, merged[done:], rows[done:], shard_column
                ))
        merged_count += len(snapshots)
        hit_count = sum(map(len, hits))
        hit_meter, miss_meter = pipe._stage_meters[0]
        table.hits += hit_count
        hit_meter.inc(hit_count)
        miss_meter.inc(n - hit_count)
        line_us = LINE_RATE_LATENCY_MS * 1000.0
        hit_us = _HIT_LATENCY_MS * 1000.0
        pipe._m_latency_us.observe_many(line_us, n - hit_count)
        pipe._m_latency_us.observe_many(hit_us, hit_count)
        self._m_decode_failures.inc(hit_count - merged_count)
        pipe._m_batches.inc()
        pipe._m_batch_size.observe(n)
        # The batch latency is the per-payload latencies added up one
        # after another in payload order (n * hit_us differs from that
        # in the last bits), here without a Python-level loop.
        latency_of = dict.fromkeys(
            zip(repeat(SNATCH_SID), self._apps), hit_us
        )
        if not isinstance(sids, list):
            sids, app_ids = sids.tolist(), app_ids.tolist()
        pipe._m_batch_latency_us.observe(reduce(
            add, map(latency_of.get, zip(sids, app_ids), repeat(line_us)),
            0.0,
        ))
        return AggBatchResult(
            n, merged_count, (sids, hits, runs, snapshots)
        )

    def _fold_run(
        self,
        app: _AggApp,
        run: List[int],
        rows: Any,
        shard_column: Optional[List[int]],
    ) -> Tuple[_RunTrail, List[int], str]:
        """Fold one run of validated per-packet wire rows (``run``
        holds their batch positions) — one ``fold_rows`` per shard
        bank, counters bumped once — and return what renders each
        row's result on demand: the run's trail, the positions, the
        destination."""
        shards = (
            [shard_column[i] for i in run]
            if shard_column is not None else None
        )
        trail = _RunTrail(
            app, rows, shards, self.pipeline.registers.sram_budget_bits
        )
        for shard, count in _fold_by_shard(app.banks, rows, shards).items():
            self._m_shard_occupancy[shard].inc(count)
        app.merged_cache = None
        app.packets_merged += len(run)
        self._m_register_updates.inc(len(run))
        self._m_per_packet_merges.inc(len(run))
        return trail, run, app.destination

    def _to_agg_result(self, result: Any) -> AggResult:
        merged_app = result.phv.metadata.get("merged_app")
        forward_report = None
        destination = None
        if merged_app is not None:
            forward_report = result.phv.metadata.get("forward_report")
            destination = self._apps[merged_app].destination
        return AggResult(
            is_aggregation=result.phv.get("sid", 0) == SNATCH_SID,
            merged=merged_app is not None,
            latency_ms=result.latency_ms,
            forward_report=forward_report,
            destination=destination,
        )

    # -- read-out ----------------------------------------------------------------

    def merge(self, app_id: int) -> Dict[str, List[int]]:
        """Deterministically fold all shard banks into one raw snapshot.

        The per-kind folds (add for counts/sums, min/max for extrema)
        are associative and commutative, so the result is independent
        of both shard order and how packets were partitioned — a
        single-shard switch fed the same packets produces the same
        snapshot.
        """
        if app_id not in self._apps:
            raise KeyError("no application %d registered" % app_id)
        app = self._apps[app_id]
        return {
            name: list(cells)
            for name, cells in self._merged_view(app).items()
        }

    def report(self, app_id: int) -> Dict[str, Any]:
        """The aggregated analytics result for an application (all
        shard banks merged).  Apps with an engagement tracker get a
        ``"user_engagement"`` block alongside the per-spec results."""
        if app_id not in self._apps:
            raise KeyError("no application %d registered" % app_id)
        app = self._apps[app_id]
        report = app.stats.report_from_snapshot(self._merged_view(app))
        if app.users is not None:
            report["user_engagement"] = app.users.report()
        return report

    # -- per-user engagement (bounded-memory scale path) -----------------------

    def absorb_user_stats(
        self, app_id: int, snapshot: Optional[Dict[str, Any]]
    ) -> None:
        """Fold a LarkSwitch :meth:`~repro.core.larkswitch.LarkSwitch.
        drain_user_stats` payload into the cumulative tracker.  A
        ``None`` payload (upstream app has no tracker, or an empty
        drain) is a no-op."""
        if snapshot is None:
            return
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        if app.users is None:
            raise ValueError(
                "application %d has no user-engagement tracker" % app_id
            )
        app.users.absorb(snapshot)

    def user_report(self, app_id: int) -> Optional[Dict[str, Any]]:
        app = self._apps[app_id]
        return app.users.report() if app.users is not None else None

    def reset(self, app_id: int) -> None:
        """Period-boundary reset after delivering results."""
        app = self._apps[app_id]
        for bank in app.banks:
            bank.reset()
        app.merged_cache = None

    def reconcile_report(self, app_id: int, report: Dict[str, Any]) -> None:
        """Fault repair (section 6): replace the drifted in-network
        aggregate with the result re-computed from the complete
        web-server-side data — shard bank 0 is overwritten with the
        ground-truth report and the other banks are cleared."""
        if app_id not in self._apps:
            raise KeyError("no application %d registered" % app_id)
        app = self._apps[app_id]
        app.stats.load_report(report)
        for bank in app.banks[1:]:
            bank.reset()
        app.merged_cache = None
        self._m_reconciles.inc()

    def packets_merged(self, app_id: int) -> int:
        return self._apps[app_id].packets_merged

    # -- checkpointing (supervised shard runtime) ------------------------------

    def checkpoint(self, app_id: int) -> Dict[str, Any]:
        """The merged register snapshot as a checkpoint unit.  Same
        data as :meth:`merge`; named separately so checkpoint call
        sites read as what they are.  Engagement-tracker state rides
        along under the reserved ``"user_quantiles"`` key."""
        snapshot: Dict[str, Any] = self.merge(app_id)
        app = self._apps[app_id]
        if app.users is not None:
            snapshot["user_quantiles"] = app.users.snapshot()
        return snapshot

    def restore(self, app_id: int, snapshot: Dict[str, Any]) -> None:
        """Inverse of :meth:`checkpoint` for crash recovery: bank 0 is
        overwritten with the saved merged snapshot and the other banks
        are cleared.  :meth:`merge` folds banks associatively, so
        collapsing the saved state into one bank cannot be observed
        through any read-out."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        snapshot = dict(snapshot)
        user_state = snapshot.pop("user_quantiles", None)
        for bank in app.banks[1:]:
            bank.reset()
        app.stats.load_snapshot(snapshot)
        app.merged_cache = None
        if user_state is not None and app.users is not None:
            app.users.load_snapshot(user_state)
