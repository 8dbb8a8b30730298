"""LarkSwitch: the first-tier ISP switch (paper sections 3.1, 4.1).

A LarkSwitch sits in the edge ISP and inspects QUIC traffic:

1. a match-action table keyed on the connection-ID's application-ID
   byte recognizes Snatch packets (parameters installed by the
   controller);
2. on a hit, the switch decrypts the cookie block (one AES pass,
   ~0.1 ms [45]), decodes bitmap + cookie-stack, and updates its
   statistics registers;
3. the original packet is forwarded unchanged toward the web server,
   while a *clone* is rewritten into a custom aggregation packet for
   the AggSwitch — immediately (per-packet forwarding) or at period
   boundaries (periodical forwarding);
4. optionally, a Bloom filter deduplicates repeat visitors within a
   period (Appendix B.4).

The switch logic genuinely runs on the :mod:`repro.switch` pipeline
substrate (tables, registers, clones, latency accounting), so hardware
resource limits apply.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, compress, islice, repeat
from typing import Any, Dict, List, Optional, Tuple

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
    MAX_COUNTED_ITEMS,
    check_per_packet_schema,
)
from repro.core.schema import CookieSchema
from repro.core.stats import (
    Lane,
    StatSpec,
    SwitchStatistics,
    array_shapes,
)
from repro.core.transport_cookie import (
    APP_ID_BYTE_INDEX,
    COOKIE_BLOCK_START,
    COOKIE_BYTE_END,
    COOKIE_BYTE_START,
    TransportCookieCodec,
)
from repro.crypto.aes import decrypt_blocks_many
from repro.obs.registry import MetricsRegistry
from repro.quic.connection_id import ConnectionID, MAX_CONNECTION_ID_BYTES
from repro.switch.bloom import BloomFilter
from repro.switch.columns import (
    PacketColumns,
    group_counts,
    group_rows,
    match_rows,
)
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

__all__ = [
    "LarkSwitch",
    "LarkResult",
    "LarkBatchResult",
    "RegisteredApp",
    "check_registration",
    "lark_process_raw",
]

# The decode memo's fixed bound, in entries.  The memo gains one entry
# per client encode miss (each re-encode draws fresh padding, so a new
# cookie), so it needs a bound on any long stream; this one sits above
# the largest memo a ledger repetition reaches (25.5k on ad-cold-b32),
# so none of them evicts.
DECODE_MEMO_BOUND = 1 << 16


@dataclass
class RegisteredApp:
    """Per-application state installed by the controller."""

    app_id: int
    schema: CookieSchema
    cookie_codec: TransportCookieCodec
    agg_codec: AggregationCodec
    stats: SwitchStatistics
    specs: List[StatSpec] = field(default_factory=list)
    mode: str = ForwardingMode.PER_PACKET
    period_ms: float = 0.0
    dedup: Optional[BloomFilter] = None
    digest_features: List[str] = field(default_factory=list)
    version: int = 0

    @cached_property
    def digest_columns(self) -> List[Tuple[int, Any]]:
        """(schema column, feature) per digest-designated feature, in
        ``digest_features`` order: what the columnar path reads a
        packet's digest values off its wire row with."""
        names = self.schema.feature_names()
        return [
            (names.index(name), self.schema.feature(name))
            for name in self.digest_features
            if name in names
        ]


@dataclass(slots=True)
class LarkResult:
    """Outcome of processing one QUIC packet."""

    matched: bool
    forwarded_original: bool
    aggregation_payload: Optional[bytes]
    latency_ms: float
    decoded_values: Optional[Dict[str, Any]] = None
    deduplicated: bool = False
    digests: List[Any] = field(default_factory=list)
    # The packet's cookie decoded and reached the statistics registers
    # (False for a miss, a decode failure or a deduplicated repeat).
    folded: bool = False


_UNKNOWN = object()  # decode-memo miss (None is a memoised failure)
_HIT_LATENCY_MS = LINE_RATE_LATENCY_MS + AES_PASS_LATENCY_MS


@dataclass
class LarkBatchResult:
    """Outcome of one :meth:`LarkSwitch.process_quic_columnar` batch:
    what a line-rate switch puts out, not a record per packet.

    ``payloads`` are the emitted aggregation payloads in packet order
    (none for a periodical application, whose only output is the
    period close), ``folded`` counts the packets that reached the
    statistics registers and ``packets`` the batch's packets.
    """

    payloads: List[bytes]
    folded: int
    packets: int

    def __len__(self) -> int:
        return self.packets

    @classmethod
    def of(cls, results: List[LarkResult]) -> "LarkBatchResult":
        """The batch outcome of per-packet results (the scalar
        interpreter produced them)."""
        return cls(
            [
                r.aggregation_payload for r in results
                if r.aggregation_payload is not None
            ],
            sum(r.folded for r in results),
            len(results),
        )


class LarkSwitch:
    """A Snatch-programmed ISP switch."""

    def __init__(self, name: str = "lark", rng: Optional[random.Random] = None,
                 registry: Optional["MetricsRegistry"] = None):
        self.name = name
        self.alive = True
        self.crashes = 0
        self._rng = rng or random.Random()
        self.pipeline = SwitchPipeline(name, registry=registry)
        self.metrics = self.pipeline.metrics
        base = "lark.%s" % name
        self._m_packets = self.metrics.counter(base + ".packets")
        self._m_decoded = self.metrics.counter(base + ".decoded")
        self._m_decode_failures = self.metrics.counter(
            base + ".decode_failures"
        )
        self._m_dedup_hits = self.metrics.counter(base + ".dedup_hits")
        self._m_register_updates = self.metrics.counter(
            base + ".register_updates"
        )
        self._m_digests = self.metrics.counter(base + ".digests")
        self._m_reports = self.metrics.counter(base + ".reports")
        self._m_crashes = self.metrics.counter(base + ".crashes")
        self._apps: Dict[int, RegisteredApp] = {}
        self._app_table = MatchActionTable(
            "%s.app_match" % name,
            keys=[MatchKey("app_id", MatchKind.EXACT, 8)],
            max_entries=256,
            default_action="NoAction",
        )
        self.pipeline.add_table(stage=0, table=self._app_table)
        self.pipeline.register_action("snatch_decode", self._action_decode)
        # Decode memo for the columnar path, keyed on the preserved
        # connection-ID region (bytes [1, 18) fully determine the
        # decode — the Snatch CID policy regenerates only bytes 0 and
        # 18-19 across connections — so a repeat visitor costs one dict
        # probe instead of an AES pass).  It persists across batches
        # (decode is pure given an app's codec) and is invalidated on
        # any control-plane change to an app's key/schema; the scalar
        # path never consults it.  It holds at most DECODE_MEMO_BOUND
        # entries, each the cookie's wire row, or None for a cookie that
        # fails to decode.
        self._decode_memo: Dict[
            Tuple[int, int, bytes], Optional[Tuple[int, ...]]
        ] = {}
        # Known-good program shape for the columnar backend, cached as
        # (program version, app-table version); see _columnar_ready().
        self._columnar_plan: Optional[Tuple[int, int]] = None

    # -- controller RPC surface ---------------------------------------------

    def register_application(
        self,
        app_id: int,
        schema: CookieSchema,
        key: bytes,
        specs: List[StatSpec],
        mode: str = ForwardingMode.PER_PACKET,
        period_ms: float = 0.0,
        dedup: bool = False,
        digest_features: Optional[List[str]] = None,
        version: int = 0,
    ) -> RegisteredApp:
        """Install an application's parameters (table entry, AES key,
        cookie format, statistics program)."""
        if app_id in self._apps:
            raise ValueError("app-ID %d already registered" % app_id)
        check_registration(schema, specs, mode, period_ms)
        app = RegisteredApp(
            app_id=app_id,
            schema=schema,
            cookie_codec=TransportCookieCodec(app_id, schema, key, self._rng),
            agg_codec=AggregationCodec(app_id, key, self._rng),
            stats=SwitchStatistics(
                schema,
                specs,
                self.pipeline.registers,
                prefix="%s.app%02x" % (self.name, app_id),
            ),
            specs=list(specs),
            mode=mode,
            period_ms=period_ms,
            dedup=BloomFilter(name="%s.dedup%02x" % (self.name, app_id))
            if dedup
            else None,
            digest_features=list(digest_features or []),
            version=version,
        )
        self._apps[app_id] = app
        self._app_table.insert(
            TableEntry((app_id,), "snatch_decode", {"app_id": app_id})
        )
        self._decode_memo.clear()
        return app

    def rekey_application(self, app_id: int, new_key: bytes) -> None:
        """In-place AES-key replacement — the *naive* update that the
        controller's versioning scheme exists to avoid (section 4.3):
        until every device has rekeyed, tiers disagree about the cookie
        format and data is silently lost."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        app.cookie_codec = TransportCookieCodec(
            app_id, app.schema, new_key, self._rng
        )
        app.agg_codec = AggregationCodec(app_id, new_key, self._rng)
        self._decode_memo.clear()

    def revoke_application(self, app_id: int) -> bool:
        """Remove an application (controller version cleanup)."""
        app = self._apps.pop(app_id, None)
        if app is None:
            return False
        self._decode_memo.clear()
        self._app_table.remove((app_id,))
        for array_name in list(self.pipeline.registers.names()):
            if array_name.startswith("%s.app%02x" % (self.name, app_id)):
                self.pipeline.registers.free(array_name)
        return True

    def registered_app_ids(self) -> List[int]:
        return sorted(self._apps)

    # -- lifecycle (crash / recovery, paper section 6) -------------------------

    def crash(self) -> None:
        """Power loss: register state, table entries and parameters are
        gone; the switch stops matching until it restarts and the
        controller re-enrolls it."""
        for app_id in list(self._apps):
            self.revoke_application(app_id)
        self.alive = False
        self.crashes += 1
        self._m_crashes.inc()

    def restart(self) -> None:
        """Come back up empty; parameters arrive via re-enrollment."""
        self.alive = True

    # -- data plane -----------------------------------------------------------

    def _action_decode(
        self, pipeline: SwitchPipeline, phv: PHV, params: Dict[str, Any]
    ) -> None:
        app = self._apps[params["app_id"]]
        raw = bytes(phv["dcid"])
        pipeline.charge_latency(AES_PASS_LATENCY_MS)  # AES decrypt
        decoded = app.cookie_codec.try_decode(ConnectionID(raw))
        if decoded is None or not decoded.values:
            # No feature present (every bitmap bit clear) counts as a
            # failure: it would fold nothing into the registers.
            phv.metadata["decode_failed"] = True
            self._m_decode_failures.inc()
            return
        values = decoded.values
        if app.dedup is not None:
            # Dedup on the raw encrypted cookie bytes: stable per user
            # across connections (the Snatch CID policy preserves them).
            cookie_bytes = raw[1:COOKIE_BYTE_END]
            if app.dedup.add(cookie_bytes):
                phv.metadata["duplicate"] = True
                self._m_dedup_hits.inc()
                return
        self._m_decoded.inc()
        app.stats.update(values)
        self._m_register_updates.inc()
        phv.metadata["decoded"] = values
        # Punt values of digest-designated features to the control
        # plane (paper section 4.1: complex ops via P4 digests).
        for feature_name in app.digest_features:
            if feature_name in values:
                pipeline.emit_digest(
                    "snatch_value",
                    {"feature": feature_name,
                     "value": values[feature_name]},
                )
                self._m_digests.inc()
        if app.mode == ForwardingMode.PER_PACKET:
            clone = pipeline.clone_packet(phv)
            items = [
                (index, feature.encode_value(values[feature.name]))
                for index, feature in enumerate(app.schema.features)
                if feature.name in values
            ]
            clone.metadata["aggregation"] = app.agg_codec.encode(
                AggregationPacket(
                    app_id=app.app_id,
                    mode=ForwardingMode.PER_PACKET,
                    items=items,
                    source=self.name,
                )
            )

    def process_quic_packet(self, dcid: ConnectionID) -> LarkResult:
        """Run one QUIC short-header packet through the pipeline."""
        if not self.alive:
            # A downed switch is routed around: traffic still reaches
            # the web server, but no in-network processing happens
            # (the edge-server fallback picks up the analytics).
            return LarkResult(
                matched=False,
                forwarded_original=True,
                aggregation_payload=None,
                latency_ms=0.0,
            )
        raw = bytes(dcid)
        app_id = raw[APP_ID_BYTE_INDEX] if len(raw) > APP_ID_BYTE_INDEX else -1
        self._m_packets.inc()
        result = self.pipeline.process({"app_id": app_id, "dcid": raw})
        return self._to_lark_result(result)

    # -- columnar fast path -------------------------------------------------

    def _columnar_ready(self) -> bool:
        """True when the pipeline still has exactly the shape the
        columnar backend assumes: one stage holding the app table,
        whose entries all dispatch ``snatch_decode`` to a registered
        app.  Cached on (program version, table version), so the
        check is two integer compares until the control plane acts."""
        key = (self.pipeline._program_version, self._app_table.version)
        if self._columnar_plan == key:
            return True
        stages = self.pipeline.stages
        if len(stages) != 1 or stages[0].tables != [self._app_table]:
            return False
        if self._app_table.default_action != "NoAction":
            return False
        matched = set()
        for entry in self._app_table.entries():
            if entry.action != "snatch_decode":
                return False
            app_id = entry.match_values[0]
            if entry.action_params.get("app_id") != app_id:
                return False
            if app_id not in self._apps:
                return False
            matched.add(app_id)
        if matched != set(self._apps):
            return False
        self._columnar_plan = key
        return True

    def _decode_groups(
        self,
        app: RegisteredApp,
        keys: List[bytes],
        lengths: List[int],
    ) -> List[Optional[Tuple[int, ...]]]:
        """Decode each unique cookie group once — memo probe first, then
        one batched AES pass over the still-unknown blocks — to its
        wire row, ``None`` where decode fails or no feature is present
        (what :meth:`_action_decode` books as a failure)."""
        memo = self._decode_memo
        app_id = app.app_id
        out = list(map(
            memo.get, zip(repeat(app_id), lengths, keys), repeat(_UNKNOWN)
        ))
        pending: List[int] = []
        for group in [g for g, row in enumerate(out) if row is _UNKNOWN]:
            if lengths[group] == MAX_CONNECTION_ID_BYTES:
                pending.append(group)
            else:
                # codec.matches() is False: try_decode returns None.
                memo[(app_id, lengths[group], keys[group])] = None
                out[group] = None
        if pending:
            # The group key is the preserved cookie region; the AES
            # block is all of it but the application-ID byte.
            skip = COOKIE_BLOCK_START - COOKIE_BYTE_START
            plains = decrypt_blocks_many(
                app.cookie_codec.aes,
                [keys[group][skip:] for group in pending],
            )
            decoded = app.cookie_codec.rows_from_blocks(plains)
            absent = (-1,) * len(app.schema.features)
            for group, entry in zip(pending, decoded):
                if entry == absent:
                    entry = None  # no feature present: a decode failure
                memo[(app_id, MAX_CONNECTION_ID_BYTES, keys[group])] = entry
                out[group] = entry
        if len(memo) > DECODE_MEMO_BOUND:
            # Drop the older half in one pass: insertion order is the
            # only recency a dict keeps, and decode is pure, so an
            # evicted hot entry costs one re-decrypt.  Evicting one
            # entry per insert instead re-walks the deleted slots at
            # the dict's front each time, which is quadratic.
            stale = len(memo) - DECODE_MEMO_BOUND // 2
            for key in list(islice(memo, stale)):
                del memo[key]
        return out

    @staticmethod
    def _seal_per_packet(emitting: List[Tuple[Any, ...]]) -> List[bytes]:
        """Seal a batch's per-packet clones: ``emitting`` holds, per
        per-packet application, ``(agg codec, emitting packet indexes,
        the folded groups' wire rows, each emitting packet's row)``.
        Returns the payloads in packet order (one ``seal_rows`` per
        application).  Every codec on a switch draws from its one RNG,
        so the batch's IVs are one draw in global packet order, dealt
        out to the applications slot by slot."""
        codecs, indexes, rows, groups = zip(*emitting)
        ivs = codecs[0].draw_ivs(sum(map(len, indexes)))
        if len(emitting) == 1:
            return codecs[0].seal_rows(rows[0], groups[0], ivs)
        slots = sorted(
            (i, a, k)
            for a, emit_idxs in enumerate(indexes)
            for k, i in enumerate(emit_idxs)
        )
        dealt: List[List[bytes]] = [[] for _ in emitting]
        for slot, (_, a, _) in enumerate(slots):
            dealt[a].append(ivs[16 * slot:16 * slot + 16])
        sealed = [
            codec.seal_rows(app_rows, app_groups, b"".join(app_ivs))
            for codec, app_rows, app_groups, app_ivs in zip(
                codecs, rows, groups, dealt
            )
        ]
        return [sealed[a][k] for _, a, k in slots]

    def process_quic_columnar(
        self, dcids: Sequence[ConnectionID]
    ) -> LarkBatchResult:
        """Columnar fast path: struct-of-arrays over the whole batch.

        Bit-identical to calling :meth:`process_quic_packet` once per
        element in order: packets are grouped by the preserved cookie
        region, each unique cookie is decrypted once through the
        batched AES kernel, statistics fold once per group (its wire
        row with its multiplicity) and every counter is booked from
        the group multiplicities.  Nothing is built per packet unless
        an application forwards per packet: then the payload IVs are
        one draw in packet order and each application's payloads are
        sealed straight from its groups' wire rows, one batched CBC
        pass each.  The result is the payloads and the counts
        (:class:`LarkBatchResult`).
        The kernels underneath (:mod:`repro.switch.columns`, AES,
        register folds) each pick their numpy or Python form, so this
        is the one fast path with the gate open or closed.  Only a
        reshaped pipeline (extra stage/table/action) leaves it: then
        the interpreter is the sole authority on what the program
        means, and the batch runs through it packet by packet.
        """
        if not self.alive:
            return LarkBatchResult([], 0, len(dcids))
        if not self._columnar_ready():
            return LarkBatchResult.of(
                [self.process_quic_packet(dcid) for dcid in dcids]
            )
        # Batched ingest hands us the struct-of-arrays form directly
        # (possibly matrix-built, rows never materialized upstream).
        columns = (
            dcids if isinstance(dcids, PacketColumns)
            else PacketColumns(dcids)
        )
        n = columns.n
        pipe = self.pipeline
        self._m_packets.inc(n)
        pipe.packets_processed += n
        pipe._m_packets.inc(n)
        table = self._app_table
        table.lookups += n
        app_column = columns.byte_column(APP_ID_BYTE_INDEX, default=-1)
        hit_count = 0
        decoded_count = 0
        failure_count = 0
        digest_count = 0
        # Per per-packet application: (agg codec, emitting packet
        # indexes, the folded groups' wire rows, each emitting packet's
        # row).
        emitting: List[Tuple[Any, ...]] = []
        for app_id, app in self._apps.items():
            idxs = match_rows((app_column,), (app_id,))
            if not idxs:
                continue
            hit_count += len(idxs)
            keys, lengths, inverse = group_rows(
                columns, COOKIE_BYTE_START, COOKIE_BYTE_END,
                None if len(idxs) == n else idxs,
            )
            decoded = self._decode_groups(app, keys, lengths)
            counts = group_counts(inverse, len(keys))
            live = [row is not None for row in decoded]
            live_counts = list(compress(counts, live))
            decodable = sum(live_counts)
            failure_count += len(idxs) - decodable
            # folds[g]: the next packet of group g reaches the
            # registers.  Without dedup every packet of a decoded
            # group does; with it only the first, and not even that
            # one when the Bloom filter has seen the cookie.
            if app.dedup is not None:
                # Bloom state evolves at first occurrences only, so
                # adding unique decoded cookies in first-occurrence
                # order reproduces the scalar per-packet test-and-set.
                seen = iter(app.dedup.add_many(list(compress(keys, live))))
                folds = [alive and not next(seen) for alive in live]
                rows = list(compress(decoded, folds))
                times = [1] * len(rows)
                decoded_count += len(rows)
            else:
                folds = live
                rows = list(compress(decoded, live))
                times = live_counts
                decoded_count += decodable
            app.stats.fold_rows(rows, times)
            if app.digest_features:
                for column, _ in app.digest_columns:
                    digest_count += sum(
                        t for row, t in zip(rows, times) if row[column] >= 0
                    )
            if app.mode == ForwardingMode.PER_PACKET:
                # rows[slot_of[g] - 1] is group g's row when it folds;
                # with dedup only a group's first packet folds.
                slot_of = list(accumulate(folds))
                keep = app.dedup is None
                emit_idxs: List[int] = []
                emit_rows: List[int] = []
                pending = list(folds)
                for i, g in zip(idxs, inverse):
                    if pending[g]:
                        pending[g] = keep
                        emit_idxs.append(i)
                        emit_rows.append(slot_of[g] - 1)
                emitting.append((app.agg_codec, emit_idxs, rows, emit_rows))
        payloads = self._seal_per_packet(emitting) if emitting else []
        hit_meter, miss_meter = pipe._stage_meters[0]
        table.hits += hit_count
        hit_meter.inc(hit_count)
        miss_meter.inc(n - hit_count)
        line_us = LINE_RATE_LATENCY_MS * 1000.0
        hit_us = _HIT_LATENCY_MS * 1000.0
        pipe._m_latency_us.observe_many(line_us, n - hit_count)
        pipe._m_latency_us.observe_many(hit_us, hit_count)
        self._m_decoded.inc(decoded_count)
        self._m_decode_failures.inc(failure_count)
        self._m_dedup_hits.inc(hit_count - failure_count - decoded_count)
        self._m_register_updates.inc(decoded_count)
        self._m_digests.inc(digest_count)
        pipe._m_batches.inc()
        pipe._m_batch_size.observe(n)
        pipe._m_batch_latency_us.observe(
            hit_count * hit_us + (n - hit_count) * line_us
        )
        return LarkBatchResult(payloads, decoded_count, n)

    @staticmethod
    def _to_lark_result(result: Any) -> LarkResult:
        payload: Optional[bytes] = None
        for clone in result.clones:
            payload = clone.metadata.get("aggregation", payload)
        decoded = result.phv.metadata.get("decoded")
        return LarkResult(
            matched=decoded is not None
            or result.phv.metadata.get("duplicate", False)
            or result.phv.metadata.get("decode_failed", False),
            forwarded_original=result.forwarded,
            aggregation_payload=payload,
            latency_ms=result.latency_ms,
            decoded_values=decoded,
            deduplicated=result.phv.metadata.get("duplicate", False),
            digests=list(result.digests),
            folded=decoded is not None,
        )

    # -- periodical forwarding -----------------------------------------------------

    def end_period(self, app_id: int) -> List[bytes]:
        """Close the current period: emit the statistics snapshot as
        aggregation packets (see :func:`period_payload`; none for an
        idle period) and reset the registers + Bloom filter."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        if app.mode != ForwardingMode.PERIODICAL:
            raise ValueError("application %d is per-packet" % app_id)
        if app.stats.updates == 0:
            self._reset_period(app)
            return []
        payloads = period_payload(app.stats, app.agg_codec, self.name)
        self._m_reports.inc()
        self._reset_period(app)
        return payloads

    def _reset_period(self, app: RegisteredApp) -> None:
        app.stats.reset()
        if app.dedup is not None:
            app.dedup.reset()

    def stats_report(self, app_id: int) -> Dict[str, Any]:
        return self._apps[app_id].stats.report()

    # -- checkpointing (shard runtime, pipeline) -------------------------------

    def checkpoint(self, app_id: int) -> Dict[str, Any]:
        """Raw register snapshot of an application's statistics — the
        unit the shard runtime merges into its per-shard checkpoints.
        The per-kind folds are associative, so a crashed replica
        restored from this and replayed from the matching stream
        position reproduces the uninterrupted registers cell for cell."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        return app.stats.snapshot()

    def restore(self, app_id: int, snapshot: Dict[str, Any]) -> None:
        """Inverse of :meth:`checkpoint`: overwrite the registers with a
        saved snapshot (crash recovery before replaying the tail)."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        app.stats.load_snapshot(snapshot)


def check_flattenable(sizes: Dict[str, int]) -> None:
    """Raise ``ValueError`` unless every cell of a statistics program
    (array name -> cell count) has its own :func:`flatten_snapshot`
    tag: 6 bits of array ordinal, 10 bits of cell index.  A larger
    array would alias cell ``i`` onto cell ``i % 1024`` of a later
    ordinal — a silently wrong count at the AggSwitch."""
    if len(sizes) > 64:
        raise ValueError(
            "%d statistics arrays exceed the 64 a periodical snapshot "
            "tag can name" % len(sizes)
        )
    for name, size in sizes.items():
        if size > 1024:
            raise ValueError(
                "statistics array %r has %d cells; a periodical "
                "snapshot tag indexes at most 1024" % (name, size)
            )


def check_registration(
    schema: CookieSchema, specs: List[StatSpec], mode: str, period_ms: float
) -> None:
    """Raise ``ValueError`` unless a LarkSwitch can carry an application
    in this forwarding mode: a periodical one needs a positive period
    and a flattenable statistics program, a per-packet one cookies that
    fit one aggregation packet.  The controller runs the same check
    before it draws an application-ID, so no tier is half-installed."""
    if mode == ForwardingMode.PERIODICAL:
        if period_ms <= 0:
            raise ValueError("periodical forwarding needs a positive period")
        check_flattenable({
            name: size
            for spec in specs
            for name, size in array_shapes(schema, spec)
        })
    elif mode == ForwardingMode.PER_PACKET:
        check_per_packet_schema(
            [feature.cardinality for feature in schema.features]
        )


def flatten_snapshot(
    snapshot: Dict[str, List[int]],
    lanes: Optional[Dict[str, Lane]] = None,
) -> List[Tuple[int, int]]:
    """Flatten a stats snapshot into (tag, value) items.

    The tag packs (array ordinal, cell index); both sides derive the
    same array ordering from the application's StatSpec list, so tags
    are unambiguous (:func:`check_flattenable` raises for a snapshot
    whose tags would not be).  Idle cells — each array's lane
    identity (``lanes``, from :func:`repro.core.stats.array_lanes`;
    0 without) — are skipped to keep packets small.
    """
    check_flattenable({name: len(cells) for name, cells in snapshot.items()})
    items: List[Tuple[int, int]] = []
    for ordinal, name in enumerate(sorted(snapshot)):
        idle = lanes[name].identity if lanes else 0
        for index, value in enumerate(snapshot[name]):
            if value != idle:
                items.append(((ordinal << 10) | index, value))
    return items


def unflatten_snapshot(
    items: List[Tuple[int, int]],
    reference: Dict[str, List[int]],
    lanes: Optional[Dict[str, Lane]] = None,
) -> Dict[str, List[int]]:
    """Inverse of :func:`flatten_snapshot` given a reference snapshot
    (for array names and sizes)."""
    names = sorted(reference)
    out = {
        name: [lanes[name].identity if lanes else 0] * len(reference[name])
        for name in names
    }
    for tag, value in items:
        ordinal, index = tag >> 10, tag & 0x3FF
        if ordinal >= len(names):
            raise ValueError("tag ordinal %d out of range" % ordinal)
        name = names[ordinal]
        if index >= len(out[name]):
            raise ValueError("tag index %d out of range for %s" % (index, name))
        out[name][index] = value
    return out


def period_payload(
    stats: SwitchStatistics, codec: AggregationCodec, source: str
) -> List[bytes]:
    """One period's register snapshot as periodical aggregation
    payloads — what a LarkSwitch or an edge server sends the AggSwitch
    when a forwarding window closes.

    A packet counts at most ``MAX_COUNTED_ITEMS`` cells, so a period
    that touched more is split into fragments in cell order.  The
    AggSwitch folds each cell on its own, so fragments commute; a
    period of at most that many cells (even none) is one packet.  The
    caller resets the registers only after every fragment encoded.
    """
    items = flatten_snapshot(stats.snapshot(), stats.lanes)
    return [
        codec.encode(AggregationPacket(
            app_id=codec.app_id,
            mode=ForwardingMode.PERIODICAL,
            items=items[lo:lo + MAX_COUNTED_ITEMS],
            source=source,
        ))
        for lo in range(0, max(len(items), 1), MAX_COUNTED_ITEMS)
    ]


def lark_process_raw(lark: "LarkSwitch", packet_bytes: bytes) -> LarkResult:
    """Process a raw on-the-wire packet through a LarkSwitch.

    Runs the P4-style parser (eth/ipv4/udp/quic) to recover the
    connection ID, then hands it to the match-action pipeline —
    the full data-plane path from bytes to statistics.  Non-QUIC
    traffic (the parser accepts before reaching the quic state)
    passes through untouched.
    """
    from repro.switch.parser import ParseError, snatch_parser

    try:
        fields, _payload_offset = snatch_parser().parse(packet_bytes)
    except ParseError:
        return LarkResult(
            matched=False,
            forwarded_original=True,
            aggregation_payload=None,
            latency_ms=0.001,
        )
    if "quic.app_id" not in fields:
        return LarkResult(
            matched=False,
            forwarded_original=True,
            aggregation_payload=None,
            latency_ms=0.001,
        )
    dcid = (
        bytes([fields["quic.dcid_b0"], fields["quic.app_id"]])
        + fields["quic.cookie_block"].to_bytes(16, "big")
        + fields["quic.dcid_r2"].to_bytes(2, "big")
    )
    return lark.process_quic_packet(ConnectionID(dcid))
