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
from functools import cached_property, reduce
from itertools import accumulate, compress, repeat
from operator import add
from typing import Any, Dict, List, Optional, Tuple

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
    check_per_packet_schema,
)
from repro.core.schema import CookieSchema
from repro.core.stats import (
    StatSpec,
    SwitchStatistics,
    array_shapes,
    min_array_names,
)
from repro.core.transport_cookie import (
    APP_ID_BYTE_INDEX,
    COOKIE_BLOCK_START,
    COOKIE_BYTE_END,
    COOKIE_BYTE_START,
    TransportCookieCodec,
)
from repro.core.user_stats import UserEngagementTracker, UserQuantileConfig
from repro.crypto.aes import decrypt_blocks_many
from repro.obs.registry import MetricsRegistry
from repro.quic.connection_id import ConnectionID, MAX_CONNECTION_ID_BYTES
from repro.switch.bloom import BloomFilter
from repro.switch.columns import (
    BatchView,
    PacketColumns,
    group_counts,
    group_rows,
    match_rows,
)
from repro.switch.pipeline import (
    AES_PASS_LATENCY_MS,
    Digest,
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
    "lark_process_raw",
]


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
    users: Optional[UserEngagementTracker] = None

    def user_key(
        self, region: bytes, values: Dict[str, Any]
    ) -> Optional[bytes]:
        """The identity this app's engagement tracker keys on: the
        configured feature's decoded value when one is named (the
        cookie region is not unique per user for low-cardinality
        schemas), else the preserved cookie region bytes."""
        feature = self.users.config.key_feature if self.users else None
        if feature is None:
            return region
        value = values.get(feature)
        if value is None:
            return None
        return int(value).to_bytes(8, "big")

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

    @cached_property
    def _user_key_column(self) -> Optional[int]:
        name = self.users.config.key_feature if self.users else None
        if name is None:
            return None
        return self.schema.feature_names().index(name)

    def user_key_of_row(
        self, region: bytes, row: Tuple[int, ...]
    ) -> Optional[bytes]:
        """:meth:`user_key` from a cookie's wire row: only the key
        feature's value is decoded."""
        column = self._user_key_column
        if column is None:
            return region
        if row[column] < 0:
            return None
        value = self.schema.features[column].decode_value(row[column])
        return int(value).to_bytes(8, "big")


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
    # process_quic_columnar leaves a folded packet's decoded_values
    # slot unset and (codec, wire row) here: the first read of the
    # values (== and repr read them too) lands in __getattr__.
    _pending: Optional[Tuple[TransportCookieCodec, Tuple[int, ...]]] = (
        field(default=None, repr=False, compare=False)
    )

    def __getattr__(self, name: str) -> Any:
        if name != "decoded_values" or self._pending is None:
            raise AttributeError(name)
        codec, row = self._pending
        self.decoded_values = codec.values_from_row(row)
        self._pending = None
        return self.decoded_values


_UNMATCHED = (False, True, None, LINE_RATE_LATENCY_MS)
_UNKNOWN = object()  # decode-memo miss (None is a memoised failure)
_HIT_LATENCY_MS = LINE_RATE_LATENCY_MS + AES_PASS_LATENCY_MS


class LarkBatchResult(BatchView):
    """Outcome of one :meth:`LarkSwitch.process_quic_columnar` batch.

    Streaming callers read two things, both settled before the call
    returns: ``payloads`` (the emitted aggregation payloads in packet
    order; empty for a periodical application, whose only output is the
    period close) and ``folded`` (how many packets reached the
    statistics registers).  The batch is also the sequence of its
    per-packet :class:`LarkResult` s — exactly what
    :meth:`LarkSwitch.process_quic_packet` returns packet by packet —
    rendered on first use from the per-application columns the switch
    worked on (:class:`~repro.switch.columns.BatchView`).
    """

    __slots__ = ("payloads", "folded")

    def __init__(
        self,
        n: int,
        payloads: List[bytes],
        folded: int,
        parts: Sequence[Tuple[Any, ...]] = (),
        results: Optional[List[LarkResult]] = None,
    ):
        # parts, per matched application: (codec, digest columns,
        # packet indexes, their group ids, per-group wire rows,
        # per-group "the next packet folds" flags, whether a fold
        # leaves the flag set, the application's sealed payloads in
        # packet order).
        super().__init__(n, parts, results)
        self.payloads = payloads
        self.folded = folded

    @classmethod
    def of(cls, results: List[LarkResult]) -> "LarkBatchResult":
        """The batch form of results that exist already (the scalar
        interpreter produced them, or the switch is down)."""
        return cls(
            len(results),
            [
                r.aggregation_payload for r in results
                if r.aggregation_payload is not None
            ],
            sum(r.folded for r in results),
            results=results,
        )

    def _render(self) -> List[LarkResult]:
        out: List[Any] = [None] * self.n
        matched = 0
        for (
            codec, digest_columns, idxs, inverse, decoded, folds, keep,
            sealed,
        ) in self._parts:
            matched += len(idxs)
            folds = list(folds)
            payload = iter(sealed)
            for i, group in zip(idxs, inverse):
                row = decoded[group]
                if row is None:
                    out[i] = LarkResult(True, True, None, _HIT_LATENCY_MS)
                elif not folds[group]:
                    out[i] = LarkResult(
                        True, True, None, _HIT_LATENCY_MS, None, True
                    )
                else:
                    folds[group] = keep
                    # Positional (field order: matched,
                    # forwarded_original, aggregation_payload,
                    # latency_ms, decoded_values, deduplicated,
                    # digests, folded, _pending): half the cost of the
                    # keyword call.  The values render on first read.
                    result = out[i] = LarkResult(
                        True, True, next(payload, None), _HIT_LATENCY_MS,
                        None, False,
                        [
                            Digest(
                                "snatch_value",
                                {
                                    "feature": feature.name,
                                    "value": feature.decode_value(
                                        row[column]
                                    ),
                                },
                            )
                            for column, feature in digest_columns
                            if row[column] >= 0
                        ] if digest_columns else [],
                        True, (codec, row),
                    )
                    del result.decoded_values
        if matched < self.n:
            out = [
                LarkResult(*_UNMATCHED) if result is None else result
                for result in out
            ]
        return out

    def __repr__(self) -> str:
        return "LarkBatchResult(n=%d, folded=%d, payloads=%d)" % (
            self.n, self.folded, len(self.payloads)
        )


class LarkSwitch:
    """A Snatch-programmed ISP switch."""

    def __init__(self, name: str = "lark", rng: Optional[random.Random] = None,
                 registry: Optional["MetricsRegistry"] = None,
                 decode_memo_capacity: Optional[int] = None):
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
        # path never consults it.
        # Optional bound on the memo: unbounded is fine for the small
        # demographic schemas (a few thousand distinct cookies), but a
        # per-user feature makes distinct cookies grow with the user
        # population, and the memo with them.  Decode is pure, so a
        # FIFO bound only costs re-decrypts, never correctness.
        if decode_memo_capacity is not None and decode_memo_capacity <= 0:
            raise ValueError("decode_memo_capacity must be positive")
        self._decode_memo_capacity = decode_memo_capacity
        # Each entry is the cookie's wire row, or None for a cookie
        # that fails to decode.
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
        user_quantiles: Optional[UserQuantileConfig] = None,
    ) -> RegisteredApp:
        """Install an application's parameters (table entry, AES key,
        cookie format, statistics program).  ``user_quantiles``
        additionally tracks per-user engagement (distinct users +
        per-user request-count quantiles); in sketch mode the sample's
        value cells are allocated from this switch's register SRAM."""
        if app_id in self._apps:
            raise ValueError("app-ID %d already registered" % app_id)
        if mode == ForwardingMode.PERIODICAL:
            if period_ms <= 0:
                raise ValueError(
                    "periodical forwarding needs a positive period"
                )
            check_flattenable({
                name: size
                for spec in specs
                for name, size in array_shapes(schema, spec)
            })
        elif mode == ForwardingMode.PER_PACKET:
            check_per_packet_schema(
                [feature.cardinality for feature in schema.features]
            )
        users = None
        if user_quantiles is not None:
            users = UserEngagementTracker(
                user_quantiles,
                name="%s.app%02x.users" % (self.name, app_id),
                registers=self.pipeline.registers
                if user_quantiles.mode == "sketch" else None,
            )
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
            users=users,
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
        if decoded is None:
            phv.metadata["decode_failed"] = True
            self._m_decode_failures.inc()
            return
        values = decoded.values
        if app.users is not None:
            # Engagement counts every decoded request (dedup below only
            # shapes the distinct-count statistics, not per-user load).
            user_key = app.user_key(
                raw[COOKIE_BYTE_START:COOKIE_BYTE_END], values
            )
            if user_key is not None:
                app.users.observe(user_key)
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
        wire row, ``None`` where decode fails."""
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
            for group, entry in zip(pending, decoded):
                memo[(app_id, MAX_CONNECTION_ID_BYTES, keys[group])] = entry
                out[group] = entry
        cap = self._decode_memo_capacity
        if cap is not None:
            # FIFO: insertion order is the only recency signal a plain
            # dict gives us, and decode is pure, so evicting a hot
            # entry merely costs one re-decrypt.
            while len(memo) > cap:
                del memo[next(iter(memo))]
        return out

    @staticmethod
    def _seal_per_packet(emitting: List[Tuple[Any, ...]]) -> List[bytes]:
        """Seal a batch's per-packet clones: ``emitting`` holds, per
        per-packet application, ``(agg codec, emitting packet indexes,
        the folded groups' wire rows, each emitting packet's row,
        sealed)``; each ``sealed`` list is filled with that
        application's payloads (one ``seal_rows``) and all of them are
        returned in packet order.  Every codec on a switch draws from
        its one RNG, so the batch's IVs are one draw in global packet
        order, dealt out to the applications slot by slot."""
        codecs, indexes, rows, groups, sealed = zip(*emitting)
        ivs = codecs[0].draw_ivs(sum(map(len, indexes)))
        if len(emitting) == 1:
            sealed[0].extend(codecs[0].seal_rows(rows[0], groups[0], ivs))
            return list(sealed[0])
        slots = sorted(
            (i, a, k)
            for a, emit_idxs in enumerate(indexes)
            for k, i in enumerate(emit_idxs)
        )
        dealt: List[List[bytes]] = [[] for _ in emitting]
        for slot, (_, a, _) in enumerate(slots):
            dealt[a].append(ivs[16 * slot:16 * slot + 16])
        for codec, app_rows, app_groups, out, app_ivs in zip(
            codecs, rows, groups, sealed, dealt
        ):
            out.extend(
                codec.seal_rows(app_rows, app_groups, b"".join(app_ivs))
            )
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
        pass each.  The per-packet results are the returned batch's
        lazy view.
        The kernels underneath (:mod:`repro.switch.columns`, AES,
        register folds) each pick their numpy or Python form, so this
        is the one fast path with the gate open or closed.  Only a
        reshaped pipeline (extra stage/table/action) leaves it: then
        the interpreter is the sole authority on what the program
        means, and the batch runs through it packet by packet.
        """
        if not self.alive:
            return LarkBatchResult.of(
                [LarkResult(False, True, None, 0.0) for _ in dcids]
            )
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
        parts: List[Tuple[Any, ...]] = []
        # Per per-packet application: (agg codec, emitting packet
        # indexes, the folded groups' wire rows, each emitting packet's
        # row, its part's sealed list).
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
            if app.users is not None:
                # Engagement folds per unique cookie group with its
                # packet multiplicity (dedup below only shapes the
                # distinct-count statistics).  The sketch sample is a
                # pure function of the update multiset, so grouped
                # folds land on the same state as the scalar path's
                # per-packet observes.
                user_keys: List[bytes] = []
                user_counts: List[int] = []
                for g, row in enumerate(decoded):
                    if row is None:
                        continue
                    ukey = app.user_key_of_row(keys[g], row)
                    if ukey is None:
                        continue
                    user_keys.append(ukey)
                    user_counts.append(counts[g])
                app.users.observe_many(user_keys, user_counts)
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
            digest_columns = (
                app.digest_columns if app.digest_features else ()
            )
            for column, _ in digest_columns:
                digest_count += sum(
                    t for row, t in zip(rows, times) if row[column] >= 0
                )
            keep = app.dedup is None
            sealed: List[bytes] = []
            parts.append((
                app.cookie_codec, digest_columns, idxs, inverse, decoded,
                folds, keep, sealed,
            ))
            if app.mode == ForwardingMode.PER_PACKET:
                # rows[slot_of[g] - 1] is group g's row when it folds.
                slot_of = list(accumulate(folds))
                emit_idxs: List[int] = []
                emit_rows: List[int] = []
                pending = list(folds)
                for i, g in zip(idxs, inverse):
                    if pending[g]:
                        pending[g] = keep
                        emit_idxs.append(i)
                        emit_rows.append(slot_of[g] - 1)
                emitting.append(
                    (app.agg_codec, emit_idxs, rows, emit_rows, sealed)
                )
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
        # The batch latency is the per-packet latencies added up one
        # after another in packet order (n * hit_us differs from that
        # in the last bits), here without a Python-level loop.
        latency_of = dict.fromkeys(self._apps, hit_us)
        if not isinstance(app_column, list):
            app_column = app_column.tolist()
        pipe._m_batch_latency_us.observe(reduce(
            add, map(latency_of.get, app_column, repeat(line_us)), 0.0
        ))
        return LarkBatchResult(n, payloads, decoded_count, parts)

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

    def end_period(self, app_id: int) -> Optional[bytes]:
        """Close the current period: emit the statistics snapshot as an
        aggregation packet and reset the registers + Bloom filter."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        if app.mode != ForwardingMode.PERIODICAL:
            raise ValueError("application %d is per-packet" % app_id)
        if app.stats.updates == 0:
            self._reset_period(app)
            return None
        items = flatten_snapshot(
            app.stats.snapshot(), min_array_names(app.specs)
        )
        packet = AggregationPacket(
            app_id=app.app_id,
            mode=ForwardingMode.PERIODICAL,
            items=items,
            source=self.name,
        )
        payload = app.agg_codec.encode(packet)
        self._m_reports.inc()
        self._reset_period(app)
        return payload

    def _reset_period(self, app: RegisteredApp) -> None:
        app.stats.reset()
        if app.dedup is not None:
            app.dedup.reset()

    def stats_report(self, app_id: int) -> Dict[str, Any]:
        return self._apps[app_id].stats.report()

    # -- per-user engagement (bounded-memory scale path) -----------------------

    def drain_user_stats(self, app_id: int) -> Optional[Dict[str, Any]]:
        """Snapshot-and-reset the app's engagement tracker — the
        period-boundary handoff the AggSwitch absorbs.  The sketch
        state does *not* ride :func:`flatten_snapshot` (whose tag
        format caps arrays at 1024 cells and carries no key bytes);
        it travels as its own snapshot payload.  Returns ``None`` when
        the app has no tracker."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        if app.users is None:
            return None
        return app.users.drain()

    def user_report(self, app_id: int) -> Optional[Dict[str, Any]]:
        app = self._apps[app_id]
        return app.users.report() if app.users is not None else None

    # -- checkpointing (supervised shard runtime) ------------------------------

    def checkpoint(self, app_id: int) -> Dict[str, Any]:
        """Raw register snapshot of an application's statistics — the
        unit the supervised shard runtime persists at epoch flushes.
        The per-kind folds are associative, so a crashed replica
        restored from this and replayed from the matching stream
        position reproduces the uninterrupted registers cell for cell.
        When the app tracks per-user engagement, its tracker state
        rides along under the reserved ``"user_quantiles"`` key."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        snapshot: Dict[str, Any] = app.stats.snapshot()
        if app.users is not None:
            snapshot["user_quantiles"] = app.users.snapshot()
        return snapshot

    def restore(self, app_id: int, snapshot: Dict[str, Any]) -> None:
        """Inverse of :meth:`checkpoint`: overwrite the registers with a
        saved snapshot (crash recovery before replaying the tail)."""
        app = self._apps.get(app_id)
        if app is None:
            raise KeyError("no application %d registered" % app_id)
        snapshot = dict(snapshot)
        user_state = snapshot.pop("user_quantiles", None)
        app.stats.load_snapshot(snapshot)
        if user_state is not None and app.users is not None:
            app.users.load_snapshot(user_state)


_MIN_SENTINEL = (1 << 48) - 1  # matches repro.core.stats


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


def flatten_snapshot(
    snapshot: Dict[str, List[int]],
    min_arrays: Optional[set] = None,
) -> List[Tuple[int, int]]:
    """Flatten a stats snapshot into (tag, value) items.

    The tag packs (array ordinal, cell index); both sides derive the
    same array ordering from the application's StatSpec list, so tags
    are unambiguous (:func:`check_flattenable` raises for a snapshot
    whose tags would not be).  Idle cells (zero, or the sentinel for
    MIN arrays) are skipped to keep packets small.
    """
    check_flattenable({name: len(cells) for name, cells in snapshot.items()})
    min_arrays = min_arrays or set()
    items: List[Tuple[int, int]] = []
    for ordinal, name in enumerate(sorted(snapshot)):
        idle = _MIN_SENTINEL if name in min_arrays else 0
        for index, value in enumerate(snapshot[name]):
            if value != idle:
                items.append(((ordinal << 10) | index, value))
    return items


def unflatten_snapshot(
    items: List[Tuple[int, int]],
    reference: Dict[str, List[int]],
    min_arrays: Optional[set] = None,
) -> Dict[str, List[int]]:
    """Inverse of :func:`flatten_snapshot` given a reference snapshot
    (for array names and sizes)."""
    min_arrays = min_arrays or set()
    names = sorted(reference)
    out = {
        name: [_MIN_SENTINEL if name in min_arrays else 0]
        * len(reference[name])
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
