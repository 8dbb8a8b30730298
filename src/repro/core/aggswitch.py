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
from dataclasses import dataclass
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
from repro.core.stats import (
    REGISTER_WIDTH,
    StatSpec,
    SwitchStatistics,
    merge_snapshots,
)
from repro.crypto.aes import (
    decrypt_cbc_many,
    decrypt_cbc_matrix,
    pkcs7_sizes,
)
from repro.obs.registry import MetricsRegistry
from repro.switch.columns import PacketColumns, match_rows
from repro.switch.pipeline import (
    AES_PASS_LATENCY_MS,
    LINE_RATE_LATENCY_MS,
    PHV,
    SwitchPipeline,
)
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
    stats: SwitchStatistics
    destination: str = "analytics"
    packets_merged: int = 0


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
) -> Tuple[Any, List[Tuple[int, int, bytes]]]:
    """The parse kernel: decrypt the payloads at batch positions
    ``idxs`` (all matched to ``app``) and parse every per-packet
    data-stack to its wire row.  Returns ``(rows, snapshots)``: the
    valid rows in batch order (a tuple list, or an ``(n, F)`` int64
    matrix in the numpy form), and per periodical payload that
    decrypted, in batch order, ``(valid rows before it, summary byte,
    body)``.
    Every other payload is a decode failure, rejected exactly where
    the scalar action rejects it (see :func:`_wire_row`).  The numpy
    form (a matrix batch: ``VECTOR_MIN_ROWS`` payloads up) works per
    distinct payload length on the matrix slice: one CBC pass, the
    padding and the reject conditions as column masks.
    """
    cards = [feature.cardinality for feature in app.schema.features]
    np = columns.kernels()
    if np is None:
        snapshots: List[Tuple[int, int, bytes]] = []
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
                snapshots.append((len(rows), count_byte, body))
                continue
            row = _wire_row(cards, body, count_byte)
            if row is not None:
                rows.append(row)
        return rows, snapshots
    picks = np.array(idxs)
    lengths = columns.lengths[picks]
    matrix = np.full((len(idxs), len(cards)), -1, dtype=np.int64)
    valid = np.zeros(len(idxs), dtype=bool)
    periodicals: List[Tuple[int, int, bytes]] = []
    # An item's value field is one register wide (a periodical item
    # carries one register cell), so no wire integer reaches
    # 2 ** REGISTER_WIDTH.  One limit past the schema: an index outside
    # it clamps there and no wire integer is below 0.
    limits = np.array(
        [min(card, 1 << REGISTER_WIDTH) for card in cards] + [0],
        dtype=np.uint64,
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
        wire = words & np.uint64((1 << REGISTER_WIDTH) - 1)
        index = np.minimum(
            words >> np.uint64(REGISTER_WIDTH), len(cards)
        ).astype(np.intp)
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
    return matrix[valid], [
        (int(before[k]), count_byte, body)
        for k, count_byte, body in sorted(periodicals)
    ]


@dataclass(slots=True)
class AggResult:
    """Outcome of processing one packet at the AggSwitch."""

    is_aggregation: bool
    merged: bool
    latency_ms: float
    forward_report: Optional[Dict[str, Any]] = None
    destination: Optional[str] = None


@dataclass
class AggBatchResult:
    """Outcome of one :meth:`AggSwitch.process_columnar` batch — the
    mirror of :class:`~repro.core.larkswitch.LarkBatchResult`:
    ``merged`` counts the payloads that reached the registers and
    ``packets`` the batch's packets.
    """

    merged: int
    packets: int

    def __len__(self) -> int:
        return self.packets

    @classmethod
    def of(cls, results: List[AggResult]) -> "AggBatchResult":
        """The batch outcome of per-payload results (the scalar
        interpreter produced them)."""
        return cls(sum(r.merged for r in results), len(results))


class AggSwitch:
    """The aggregating switch in front of the analytics server.

    Each application's statistics live in one register bank.  Several
    aggregation pipes are modeled by the replica runtime
    (:class:`repro.testbed.executor.ShardExecutor` over
    ``ShardSpec(kind="agg")``), which folds its replicas' snapshots
    with :func:`repro.core.stats.merge_snapshots`.
    """

    def __init__(self, name: str = "agg", rng: Optional[random.Random] = None,
                 registry: Optional[MetricsRegistry] = None):
        self.name = name
        self.alive = True
        self.crashes = 0
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
    ) -> None:
        if app_id in self._apps:
            raise ValueError("app-ID %d already registered" % app_id)
        # Every register array of the app starts with this prefix, so
        # revocation frees them all.
        prefix = "%s.app%02x" % (self.name, app_id)
        stats = SwitchStatistics(
            schema, specs, self.pipeline.registers, prefix=prefix
        )
        self._apps[app_id] = _AggApp(
            app_id=app_id,
            schema=schema,
            specs=list(specs),
            codec=AggregationCodec(app_id, key, self._rng),
            stats=stats,
            destination=destination,
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

    def _fold_packet(self, app: _AggApp, packet: AggregationPacket) -> bool:
        """Fold one decoded aggregation packet into the app's registers.
        ``False`` means a malformed item stack, which leaves them
        untouched; the caller counts it as a decode failure.  This is
        the scalar action's body; the columnar path takes it for
        periodical payloads only (see :meth:`_fold_run`)."""
        bank = app.stats
        if packet.mode == ForwardingMode.PER_PACKET:
            # Items are (feature_index, wire_value) for one cookie.
            values: Dict[str, Any] = {}
            for index, wire in packet.items:
                if index >= len(app.schema.features):
                    return False
                feature = app.schema.features[index]
                try:
                    values[feature.name] = feature.decode_value(wire)
                except ValueError:
                    # Corrupted wire value: reject before any register
                    # is touched, so the payload is a clean dead letter.
                    return False
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
            try:
                incoming = unflatten_snapshot(
                    packet.items, bank.snapshot(), bank.lanes
                )
                merged = merge_snapshots(
                    app.specs, bank.snapshot(), incoming
                )
            except (ValueError, KeyError, IndexError):
                return False
            self._write_snapshot(bank, merged)
            self._m_report_merges.inc()
        app.packets_merged += 1
        return True

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
        if not self._fold_packet(app, packet):
            phv.metadata["decode_failed"] = True
            self._m_decode_failures.inc()
            return
        phv.metadata["merged_app"] = app.app_id
        # The forward report: the merged state at this packet's own
        # merge point.
        phv.metadata["forward_report"] = app.stats.report()

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
        element in order: header fields are extracted as columns, every
        matched payload is decrypted and parsed to a wire row in one
        kernel (:func:`_parse_payloads`), each run of consecutive
        per-packet rows of an app folds at once (:meth:`_fold_run`),
        and a periodical payload folds in its own place between runs.
        The result is the batch's counts (:class:`AggBatchResult`);
        no forward report is built.
        The column, parse and fold kernels each pick their numpy
        or Python form; only a reshaped pipeline leaves this path, for
        the interpreter.
        """
        if not self.alive:
            return AggBatchResult(0, len(payloads))
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
        hit_count = 0
        merged = 0
        for app_id, app in self._apps.items():
            idxs = match_rows((sids, app_ids), (SNATCH_SID, app_id))
            if not idxs:
                continue
            hit_count += len(idxs)
            rows, periodical = _parse_payloads(app, columns, idxs)
            merged += len(rows)
            done = 0  # rows[:done] are folded
            for before, count_byte, body in periodical:
                # A periodical snapshot merge reads the bank, so the
                # run before it folds first: packet order is preserved.
                if before > done:
                    self._fold_run(app, rows[done:before])
                    done = before
                try:
                    packet = app.codec.packet_from_body(body, count_byte)
                except ValueError:
                    continue  # malformed data-stack: decode failure
                if self._fold_packet(app, packet):
                    merged += 1
            if len(rows) > done:
                self._fold_run(app, rows[done:])
        hit_meter, miss_meter = pipe._stage_meters[0]
        table.hits += hit_count
        hit_meter.inc(hit_count)
        miss_meter.inc(n - hit_count)
        line_us = LINE_RATE_LATENCY_MS * 1000.0
        hit_us = _HIT_LATENCY_MS * 1000.0
        pipe._m_latency_us.observe_many(line_us, n - hit_count)
        pipe._m_latency_us.observe_many(hit_us, hit_count)
        self._m_decode_failures.inc(hit_count - merged)
        pipe._m_batches.inc()
        pipe._m_batch_size.observe(n)
        pipe._m_batch_latency_us.observe(
            hit_count * hit_us + (n - hit_count) * line_us
        )
        return AggBatchResult(merged, n)

    def _fold_run(self, app: _AggApp, rows: Any) -> None:
        """Fold one run of validated per-packet wire rows — one
        ``fold_rows`` call, counters bumped once."""
        app.stats.fold_rows(rows)
        app.packets_merged += len(rows)
        self._m_register_updates.inc(len(rows))
        self._m_per_packet_merges.inc(len(rows))

    def _to_agg_result(self, result: Any) -> AggResult:
        metadata = result.phv.metadata
        merged_app = metadata.get("merged_app")
        forward_report = None
        destination = None
        if merged_app is not None:
            forward_report = metadata.get("forward_report")
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
        """The application's merged aggregate as one raw register
        snapshot (a copy: the caller may mutate it)."""
        if app_id not in self._apps:
            raise KeyError("no application %d registered" % app_id)
        return self._apps[app_id].stats.snapshot()

    def report(self, app_id: int) -> Dict[str, Any]:
        """The aggregated analytics result for an application."""
        if app_id not in self._apps:
            raise KeyError("no application %d registered" % app_id)
        return self._apps[app_id].stats.report()

    def reset(self, app_id: int) -> None:
        """Period-boundary reset after delivering results."""
        self._apps[app_id].stats.reset()

    def reconcile_report(self, app_id: int, report: Dict[str, Any]) -> None:
        """Fault repair (section 6): replace the drifted in-network
        aggregate with the result re-computed from the complete
        web-server-side data — the registers are overwritten with the
        ground-truth report."""
        if app_id not in self._apps:
            raise KeyError("no application %d registered" % app_id)
        self._apps[app_id].stats.load_report(report)
        self._m_reconciles.inc()

    def packets_merged(self, app_id: int) -> int:
        return self._apps[app_id].packets_merged

    # -- checkpointing (shard runtime, pipeline) -------------------------------

    def checkpoint(self, app_id: int) -> Dict[str, Any]:
        """The register snapshot as a checkpoint unit.  Same
        data as :meth:`merge`; named separately so checkpoint call
        sites read as what they are."""
        return self.merge(app_id)

    def restore(self, app_id: int, snapshot: Dict[str, Any]) -> None:
        """Inverse of :meth:`checkpoint` for crash recovery: the
        registers are overwritten with the saved snapshot."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        app.stats.load_snapshot(snapshot)
