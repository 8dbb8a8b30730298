"""LarkSwitch data-plane behaviour."""

import random

import pytest

from repro.core.aggregation import AggregationCodec, ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.larkswitch import LarkBatchResult, LarkSwitch
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.quic.connection_id import ConnectionID, random_connection_id
from repro.switch.pipeline import AES_PASS_LATENCY_MS, LINE_RATE_LATENCY_MS

from tests.control import new_controller, settled
from tests.differential.workloads import table_meters

KEY = bytes(range(16))
APP = 0x42


def _schema():
    return CookieSchema(
        "app",
        (
            Feature.categorical("event", ["view", "click"]),
            Feature.categorical("gender", ["f", "m", "x"]),
        ),
    )


def _specs():
    return [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")]


def _setup(mode=ForwardingMode.PER_PACKET, period=0.0, dedup=False):
    lark = LarkSwitch("lark", random.Random(1))
    lark.register_application(
        APP, _schema(), KEY, _specs(), mode=mode, period_ms=period, dedup=dedup
    )
    codec = TransportCookieCodec(APP, _schema(), KEY, random.Random(2))
    return lark, codec


class TestMatching:
    def test_snatch_packet_decoded_and_forwarded(self):
        lark, codec = _setup()
        result = lark.process_quic_packet(
            codec.encode({"event": "view", "gender": "f"})
        )
        assert result.matched
        assert result.forwarded_original
        assert result.decoded_values == {"event": "view", "gender": "f"}
        assert result.aggregation_payload is not None

    def test_foreign_quic_traffic_passes_untouched(self):
        lark, _codec = _setup()
        raw = bytearray(bytes(random_connection_id(20, random.Random(3))))
        raw[1] = 0x99
        result = lark.process_quic_packet(ConnectionID(bytes(raw)))
        assert not result.matched
        assert result.forwarded_original
        assert result.aggregation_payload is None

    def test_aes_latency_charged(self):
        lark, codec = _setup()
        result = lark.process_quic_packet(codec.encode({"gender": "f"}))
        assert result.latency_ms == pytest.approx(
            LINE_RATE_LATENCY_MS + AES_PASS_LATENCY_MS
        )

    def test_stats_accumulate(self):
        lark, codec = _setup()
        for gender in ("f", "f", "m"):
            lark.process_quic_packet(codec.encode({"gender": gender}))
        report = lark.stats_report(APP)
        assert report["by_gender"]["f"] == 2
        assert report["by_gender"]["m"] == 1

    def test_per_packet_payload_decodable(self):
        lark, codec = _setup()
        result = lark.process_quic_packet(
            codec.encode({"event": "click", "gender": "x"})
        )
        agg_codec = AggregationCodec(APP, KEY, random.Random(4))
        packet = agg_codec.decode(result.aggregation_payload)
        assert packet.mode == ForwardingMode.PER_PACKET
        # Items are (feature_index, wire_value): event=click(1), gender=x(2).
        assert packet.items == [(0, 1), (1, 2)]

    def test_stale_key_cookie_garbled_or_aborted(self):
        """A cookie encrypted under a rotated-away key decrypts to
        noise: some decodes abort on range checks, and the rest carry
        no signal (they do not reproduce the planted values)."""
        lark, _codec = _setup()
        stale = TransportCookieCodec(
            APP, _schema(), bytes(16), random.Random(5)
        )
        planted = {"event": "view", "gender": "f"}
        outcomes = [
            lark.process_quic_packet(stale.encode(planted))
            for _ in range(40)
        ]
        assert all(r.forwarded_original for r in outcomes)  # never disturbed
        matches = sum(1 for r in outcomes if r.decoded_values == planted)
        assert matches < len(outcomes) // 2


class TestPeriodical:
    def test_no_per_packet_payload(self):
        lark, codec = _setup(ForwardingMode.PERIODICAL, period=100)
        result = lark.process_quic_packet(codec.encode({"gender": "f"}))
        assert result.aggregation_payload is None

    def test_end_period_emits_and_resets(self):
        lark, codec = _setup(ForwardingMode.PERIODICAL, period=100)
        for _ in range(3):
            lark.process_quic_packet(codec.encode({"gender": "m"}))
        payloads = lark.end_period(APP)
        assert len(payloads) == 1
        assert lark.stats_report(APP)["by_gender"]["m"] == 0

    def test_empty_period_emits_nothing(self):
        lark, _codec = _setup(ForwardingMode.PERIODICAL, period=100)
        assert lark.end_period(APP) == []

    def test_end_period_on_per_packet_app_rejected(self):
        lark, _codec = _setup()
        with pytest.raises(ValueError, match="per-packet"):
            lark.end_period(APP)

    def test_end_period_unknown_app(self):
        lark, _codec = _setup()
        with pytest.raises(KeyError):
            lark.end_period(0x99)

    def test_periodical_needs_period(self):
        lark = LarkSwitch("l2")
        with pytest.raises(ValueError, match="period"):
            lark.register_application(
                APP, _schema(), KEY, _specs(), mode=ForwardingMode.PERIODICAL
            )


class TestDedup:
    def test_repeat_cookie_counted_once(self):
        lark, codec = _setup(
            ForwardingMode.PERIODICAL, period=100, dedup=True
        )
        cid = codec.encode({"gender": "f"})
        first = lark.process_quic_packet(cid)
        second = lark.process_quic_packet(cid)
        assert not first.deduplicated
        assert second.deduplicated
        assert lark.stats_report(APP)["by_gender"]["f"] == 1

    def test_distinct_cookies_all_counted(self):
        lark, codec = _setup(
            ForwardingMode.PERIODICAL, period=100, dedup=True
        )
        lark.process_quic_packet(codec.encode({"gender": "f"}))
        lark.process_quic_packet(codec.encode({"gender": "m"}))
        report = lark.stats_report(APP)
        assert report["by_gender"]["f"] == 1
        assert report["by_gender"]["m"] == 1

    def test_dedup_resets_at_period_end(self):
        lark, codec = _setup(
            ForwardingMode.PERIODICAL, period=100, dedup=True
        )
        cid = codec.encode({"gender": "f"})
        lark.process_quic_packet(cid)
        lark.end_period(APP)
        result = lark.process_quic_packet(cid)
        assert not result.deduplicated


class TestRegistration:
    def test_duplicate_app_rejected(self):
        lark, _codec = _setup()
        with pytest.raises(ValueError, match="already"):
            lark.register_application(APP, _schema(), KEY, _specs())

    def test_revoke_frees_resources(self):
        lark, codec = _setup()
        used_before = lark.pipeline.registers.used_bits
        assert used_before > 0
        assert lark.revoke_application(APP)
        assert lark.pipeline.registers.used_bits == 0
        assert lark.registered_app_ids() == []
        # Traffic for the revoked app now passes untouched.
        result = lark.process_quic_packet(codec.encode({"gender": "f"}))
        assert not result.matched

    def test_revoke_unknown_is_false(self):
        lark, _codec = _setup()
        assert not lark.revoke_application(0x99)

    def test_multiple_apps_coexist(self):
        lark, codec = _setup()
        other_schema = CookieSchema(
            "other", (Feature.number("n", 0, 7),)
        )
        lark.register_application(
            0x50, other_schema, KEY,
            [StatSpec("n_sum", StatKind.SUM, "n")],
        )
        other_codec = TransportCookieCodec(
            0x50, other_schema, KEY, random.Random(6)
        )
        lark.process_quic_packet(codec.encode({"gender": "f"}))
        lark.process_quic_packet(other_codec.encode({"n": 5}))
        assert lark.stats_report(APP)["by_gender"]["f"] == 1
        assert lark.stats_report(0x50)["n_sum"]["all"] == 5


class TestDigests:
    """A designated feature the ALU cannot fold leaves the data plane
    as one control-plane digest per packet carrying its value."""

    SCHEMA = CookieSchema(
        "digest-app",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("demand", 0, 1000),
        ),
    )

    def _lark(self, **kwargs):
        lark = LarkSwitch("lark", random.Random(4))
        lark.register_application(
            APP, self.SCHEMA, KEY,
            [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")],
            **kwargs,
        )
        codec = TransportCookieCodec(APP, self.SCHEMA, KEY, random.Random(5))
        return lark, codec

    def test_designated_feature_digests_every_packet(self):
        lark, codec = self._lark(digest_features=["demand"])
        rng = random.Random(3)
        demands = [rng.randint(0, 1000) for _ in range(50)]
        digested = []
        for demand in demands:
            result = lark.process_quic_packet(
                codec.encode({"gender": "f", "demand": demand})
            )
            digested += [
                (d.name, d.data["feature"], d.data["value"])
                for d in result.digests
            ]
        assert digested == [("snatch_value", "demand", d) for d in demands]

    def test_no_digests_without_designation(self):
        lark, codec = self._lark()
        result = lark.process_quic_packet(
            codec.encode({"gender": "f", "demand": 7})
        )
        assert result.digests == []


class TestPeriodicalTagLimits:
    """A periodical snapshot tag is 6 bits of array ordinal and 10 of
    cell index: a statistics array of more than 1024 cells used to
    alias — five ("c39", "k29") cookies (cell 1199 of ``by``) reached
    the AggSwitch as ("c5", "k25") (cell 175 of the next ordinal)."""

    def _wide(self):
        schema = CookieSchema(
            "wide",
            (
                Feature.categorical("camp", ["c%d" % i for i in range(40)]),
                Feature.categorical("k", ["k%d" % i for i in range(30)]),
            ),
        )
        specs = [
            StatSpec("a_first", StatKind.COUNT_BY_CLASS, "camp"),
            StatSpec("by", StatKind.COUNT_BY_CLASS, "k", group_by="camp"),
            StatSpec("z_last", StatKind.COUNT_BY_CLASS, "k"),
        ]
        return schema, specs

    def test_periodical_registration_names_the_array(self):
        schema, specs = self._wide()
        lark = LarkSwitch("lark", random.Random(1))
        with pytest.raises(ValueError, match="'by' has 1200 cells"):
            lark.register_application(
                APP, schema, KEY, specs,
                mode=ForwardingMode.PERIODICAL, period_ms=100,
            )
        # Rejected up front: nothing was allocated or installed.
        assert lark.pipeline.registers.used_bits == 0
        assert lark.registered_app_ids() == []
        lark.register_application(
            APP, schema, KEY, specs[:1] + specs[2:],
            mode=ForwardingMode.PERIODICAL, period_ms=100,
        )

    def test_per_packet_mode_carries_the_wide_array_exactly(self):
        schema, specs = self._wide()
        lark = LarkSwitch("lark", random.Random(1))
        lark.register_application(APP, schema, KEY, specs)
        agg = AggSwitch("agg", random.Random(2))
        agg.register_application(APP, schema, KEY, specs)
        codec = TransportCookieCodec(APP, schema, KEY, random.Random(3))
        payloads = [
            lark.process_quic_packet(
                codec.encode({"camp": "c39", "k": "k29"})
            ).aggregation_payload
            for _ in range(5)
        ]
        assert agg.process_columnar(payloads).merged == 5
        counted = {
            key: count for key, count in agg.report(APP)["by"].items() if count
        }
        assert counted == {("c39", "k29"): 5}


class TestPerPacketItemLimits:
    """A per-packet aggregation item is 16 bits of feature index and 48
    of wire integer, at most 127 to a packet.  A schema beyond that
    used to register, fold its first wide cookie into the registers
    and only then raise ``does not fit 48 bits`` out of the data plane
    (the columnar call after folding the whole batch, emitting
    nothing)."""

    def _wide(self):
        schema = CookieSchema("wide", (Feature.number("x", 0, 2**50),))
        return schema, [StatSpec("x_max", StatKind.MAX, "x")]

    def test_per_packet_registration_is_refused_up_front(self):
        schema, specs = self._wide()
        assert schema.fits_transport()
        lark = LarkSwitch("lark", random.Random(1))
        with pytest.raises(ValueError, match="feature 0 has .* values"):
            lark.register_application(APP, schema, KEY, specs)
        # Nothing was allocated or installed: on both tiers the wide
        # cookie is an app-table miss and no register exists to move.
        assert lark.pipeline.registers.used_bits == 0
        assert lark.registered_app_ids() == []
        assert len(lark._app_table) == 0
        codec = TransportCookieCodec(APP, schema, KEY, random.Random(3))
        cids = [codec.encode({"x": 2**49}) for _ in range(20)]
        assert not lark.process_quic_packet(cids[0]).matched
        hits, misses = table_meters(lark)
        batch = lark.process_quic_columnar(cids)
        assert batch == LarkBatchResult([], 0, len(cids))
        assert table_meters(lark) == (hits, misses + len(cids))
        # Periodical forwarding carries register cells, not wire
        # integers: the same schema registers and folds.
        lark.register_application(
            APP, schema, KEY, specs,
            mode=ForwardingMode.PERIODICAL, period_ms=100,
        )
        assert lark.process_quic_columnar(cids).folded == 20
        assert len(lark.end_period(APP)) == 1

    def test_item_count_limit_is_checked_with_the_value_width(self):
        # (A transport cookie has room for 64 features, so only the
        # check itself can see more than the 127 a packet counts.)
        from repro.core.aggregation import check_per_packet_schema

        check_per_packet_schema([2**48] * 127)
        with pytest.raises(ValueError, match="128 features"):
            check_per_packet_schema([2] * 128)
        with pytest.raises(ValueError, match="feature 3 has"):
            check_per_packet_schema([2, 2, 2, 2**48 + 1])

    def test_the_limits_themselves_register_and_forward(self):
        schema = CookieSchema(
            "edge",
            (Feature.number("x", 0, 2**48 - 1),)
            + tuple(
                Feature.categorical("f%d" % i, ["off", "on"]) for i in range(30)
            ),
        )
        assert schema.features[0].cardinality == 2**48
        lark = LarkSwitch("lark", random.Random(1))
        lark.register_application(
            APP, schema, KEY, [StatSpec("x_max", StatKind.MAX, "x")]
        )
        codec = TransportCookieCodec(APP, schema, KEY, random.Random(3))
        cids = [codec.encode({"x": 2**48 - 1, "f29": "on"})] * 20
        scalar = lark.process_quic_packet(cids[0]).aggregation_payload
        items = lark._apps[APP].agg_codec.decode(scalar).items
        assert items == [(0, 2**48 - 1), (30, 1)]
        assert all(
            lark._apps[APP].agg_codec.decode(p).items == items
            for p in lark.process_quic_columnar(cids).payloads
        )

    def test_controller_refuses_before_any_tier_is_touched(self):
        controller = new_controller(seed=1)
        agg = AggSwitch("agg", random.Random(2))
        lark = LarkSwitch("lark", random.Random(3))
        controller.attach_agg_switch(agg)
        controller.attach_lark_switch(lark)
        schema, specs = self._wide()
        with pytest.raises(ValueError, match="48 bits"):
            controller.add_application("wide", list(schema.features), specs)
        assert agg.registered_app_ids() == lark.registered_app_ids() == []
        assert controller.applications() == [] and not controller.bus.log
        assert not controller._used_app_ids
        handle = settled(
            controller.add_application, "wide", list(schema.features), specs,
            mode=ForwardingMode.PERIODICAL, period_ms=100.0,
        )
        with pytest.raises(ValueError, match="48 bits"):
            controller.update_application(
                "wide", mode=ForwardingMode.PER_PACKET
            )
        assert agg.registered_app_ids() == [handle.app_id]
        assert lark.registered_app_ids() == [handle.app_id]
