"""AggSwitch: merging aggregation streams from many first-tier nodes."""

import random

import pytest

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
)
from repro.core.aggswitch import AggSwitch
from repro.core.larkswitch import LarkSwitch
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.crypto.aes import encrypt_cbc_many
from repro.obs.registry import MetricsRegistry
from repro.switch import columns

KEY = bytes(range(16))
APP = 0x42


def _schema():
    return CookieSchema(
        "app",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("demand", 0, 500),
        ),
    )


def _specs():
    return [
        StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender"),
        StatSpec("demand_sum", StatKind.SUM, "demand"),
        StatSpec("demand_min", StatKind.MIN, "demand"),
    ]


def _lark(name, seed, mode=ForwardingMode.PER_PACKET, period=0.0):
    lark = LarkSwitch(name, random.Random(seed))
    lark.register_application(
        APP, _schema(), KEY, _specs(), mode=mode, period_ms=period
    )
    return lark


def _agg(seed=3):
    agg = AggSwitch("agg", random.Random(seed))
    agg.register_application(APP, _schema(), KEY, _specs())
    return agg


def _codec(seed=4):
    return TransportCookieCodec(APP, _schema(), KEY, random.Random(seed))


class TestPerPacketMerge:
    def test_merges_across_sources(self):
        agg = _agg()
        codec = _codec()
        lark_a = _lark("a", 1)
        lark_b = _lark("b", 2)
        for lark, gender, demand in (
            (lark_a, "f", 10), (lark_a, "m", 20), (lark_b, "f", 30)
        ):
            result = lark.process_quic_packet(
                codec.encode({"gender": gender, "demand": demand})
            )
            out = agg.process_packet(result.aggregation_payload)
            assert out.merged and out.is_aggregation
        report = agg.report(APP)
        assert report["by_gender"]["f"] == 2
        assert report["by_gender"]["m"] == 1
        assert report["demand_sum"]["all"] == 60
        assert report["demand_min"]["all"] == 10

    def test_forward_report_attached(self):
        agg = AggSwitch("agg", random.Random(5))
        agg.register_application(
            APP, _schema(), KEY, _specs(), destination="analytics-master"
        )
        lark = _lark("a", 1)
        result = lark.process_quic_packet(_codec().encode({"gender": "x"}))
        out = agg.process_packet(result.aggregation_payload)
        assert out.destination == "analytics-master"
        assert out.forward_report["by_gender"]["x"] == 1


class TestPeriodicalMerge:
    def test_snapshot_merge(self):
        agg = _agg()
        codec = _codec()
        lark_a = _lark("a", 1, ForwardingMode.PERIODICAL, 100)
        lark_b = _lark("b", 2, ForwardingMode.PERIODICAL, 100)
        for _ in range(3):
            lark_a.process_quic_packet(
                codec.encode({"gender": "f", "demand": 100})
            )
        for _ in range(2):
            lark_b.process_quic_packet(
                codec.encode({"gender": "f", "demand": 50})
            )
        agg.process_packet(lark_a.end_period(APP))
        agg.process_packet(lark_b.end_period(APP))
        report = agg.report(APP)
        assert report["by_gender"]["f"] == 5
        assert report["demand_sum"]["all"] == 400
        assert report["demand_min"]["all"] == 50

    def test_min_survives_merge_with_idle_source(self):
        agg = _agg()
        codec = _codec()
        lark = _lark("a", 1, ForwardingMode.PERIODICAL, 100)
        lark.process_quic_packet(codec.encode({"gender": "f"}))  # no demand
        agg.process_packet(lark.end_period(APP))
        assert agg.report(APP)["demand_min"]["all"] is None


class TestRobustness:
    def test_non_aggregation_traffic_passes(self):
        agg = _agg()
        out = agg.process_packet(b"\x00\x01just-udp-payload-bytes")
        assert not out.is_aggregation
        assert not out.merged

    def test_unknown_app_not_merged(self):
        agg = _agg()
        lark = LarkSwitch("l", random.Random(9))
        other_schema = CookieSchema("o", (Feature.number("n", 0, 3),))
        lark.register_application(
            0x77, other_schema, KEY, [StatSpec("s", StatKind.SUM, "n")]
        )
        codec = TransportCookieCodec(0x77, other_schema, KEY, random.Random(8))
        result = lark.process_quic_packet(codec.encode({"n": 1}))
        out = agg.process_packet(result.aggregation_payload)
        assert out.is_aggregation and not out.merged

    def test_corrupt_payload_not_merged(self):
        agg = _agg()
        lark = _lark("a", 1)
        result = lark.process_quic_packet(_codec().encode({"gender": "f"}))
        corrupted = bytearray(result.aggregation_payload)
        corrupted[-1] ^= 0xFF
        out = agg.process_packet(bytes(corrupted))
        assert not out.merged

    def test_reset(self):
        agg = _agg()
        lark = _lark("a", 1)
        result = lark.process_quic_packet(_codec().encode({"gender": "f"}))
        agg.process_packet(result.aggregation_payload)
        agg.reset(APP)
        assert agg.report(APP)["by_gender"]["f"] == 0

    def test_packets_merged_counter(self):
        agg = _agg()
        lark = _lark("a", 1)
        for _ in range(4):
            result = lark.process_quic_packet(_codec().encode({"gender": "f"}))
            agg.process_packet(result.aggregation_payload)
        assert agg.packets_merged(APP) == 4

    def test_registration_lifecycle(self):
        agg = _agg()
        with pytest.raises(ValueError, match="already"):
            agg.register_application(APP, _schema(), KEY, _specs())
        assert agg.revoke_application(APP)
        assert not agg.revoke_application(APP)
        assert agg.registered_app_ids() == []
        with pytest.raises(KeyError):
            agg.report(APP)


# -- columnar run fold + forward reports on demand ---------------------------

APP_B = 0x43
BIG = 2 ** 48 - 1


def _wide_schema():
    # "big" spans the whole 48-bit register, so two rows wrap a SUM.
    return CookieSchema(
        "wide",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("big", 0, BIG),
        ),
    )


def _wide_specs():
    return [
        StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender"),
        StatSpec("big_sum", StatKind.SUM, "big"),
        StatSpec("big_min", StatKind.MIN, "big"),
        StatSpec("big_max", StatKind.MAX, "big"),
        StatSpec("big_avg", StatKind.AVG, "big", group_by="gender"),
    ]


def _wide_agg(shards=1, apps=(APP,)):
    # A private registry: same-named switches would share instruments.
    agg = AggSwitch(
        "agg", random.Random(3), registry=MetricsRegistry(), shards=shards
    )
    for app_id in apps:
        agg.register_application(app_id, _wide_schema(), KEY, _wide_specs())
    return agg


def _wire(codec, items, mode=ForwardingMode.PER_PACKET):
    return codec.encode(
        AggregationPacket(app_id=codec.app_id, mode=mode, items=items)
    )


def _wide_payloads(n, seed, app_id=APP):
    """Per-packet payloads whose "big" values wrap big_sum (and the
    grouped big_avg sums) several times within ``n`` rows."""
    rng = random.Random(seed)
    codec = AggregationCodec(app_id, KEY, rng)
    payloads = []
    for _ in range(n):
        items = [(0, rng.randrange(3))]
        if rng.random() < 0.8:
            items.append((1, BIG - rng.randrange(1 << 40)))
        payloads.append(_wire(codec, items))
    return payloads


def _periodical_payload(seed, app_id=APP):
    """One lark period (three cookies) as a periodical payload."""
    lark = LarkSwitch("l%d" % seed, random.Random(seed))
    lark.register_application(
        app_id, _wide_schema(), KEY, _wide_specs(),
        mode=ForwardingMode.PERIODICAL, period_ms=100,
    )
    codec = TransportCookieCodec(
        app_id, _wide_schema(), KEY, random.Random(seed)
    )
    for gender, big in (("f", 7), ("m", BIG - seed), ("f", 1 << 47)):
        lark.process_quic_packet(codec.encode({"gender": gender, "big": big}))
    return lark.end_period(app_id)


def _registers(agg):
    registers = agg.pipeline.registers
    return {name: registers.get(name).snapshot() for name in registers.names()}


def _agg_meters(agg):
    """The switch's own instruments (packets, merges, failures,
    register updates, per-shard occupancy); the pipeline's batch
    meters legitimately differ between the two entry points."""
    return {
        meter["name"]: meter["value"]
        for meter in agg.metrics.snapshot()
        if meter["name"].startswith("agg.agg.")
    }


def _assert_same_switch_state(columnar, scalar, apps=(APP,)):
    assert _registers(columnar) == _registers(scalar)
    for app_id in apps:
        assert columnar.merge(app_id) == scalar.merge(app_id)
        assert columnar.report(app_id) == scalar.report(app_id)
        assert columnar.packets_merged(app_id) == scalar.packets_merged(app_id)
    assert _agg_meters(columnar) == _agg_meters(scalar)


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield
    finally:
        columns._FORCED = previous


@pytest.mark.usefixtures("kernel_form")
class TestColumnarRuns:
    @pytest.mark.parametrize("shards", (1, 2, 7))
    @pytest.mark.parametrize("order", ("forward", "reverse", "random"))
    def test_forward_reports_in_any_read_order(self, shards, order):
        payloads = _wide_payloads(40, seed=shards)
        scalar = _wide_agg(shards)
        expected = [scalar.process_packet(p).forward_report for p in payloads]
        # big_sum wraps at its 48-bit width inside the batch: some 30
        # rows each add nearly a full register, yet no bank exceeds one.
        assert sum(expected[-1]["by_gender"].values()) == len(payloads)
        assert expected[-1]["big_max"]["all"] > 1 << 47
        assert expected[-1]["big_sum"]["all"] <= shards * BIG
        columnar = _wide_agg(shards)
        results = columnar.process_columnar(payloads)
        positions = list(range(len(payloads)))
        if order == "reverse":
            positions.reverse()
        elif order == "random":
            positions = [random.Random(5).choice(positions)]
        for position in positions:
            assert results[position].forward_report == expected[position]
        _assert_same_switch_state(columnar, scalar)

    @pytest.mark.parametrize("shards", (1, 4))
    def test_periodical_payload_flushes_the_pending_run(self, shards):
        rows = _wide_payloads(24, seed=9)
        payloads = (
            rows[:5] + [_periodical_payload(1)] + rows[5:6]
            + [_periodical_payload(2), _periodical_payload(3)] + rows[6:]
        )
        scalar, columnar = _wide_agg(shards), _wide_agg(shards)
        scalar_results = [scalar.process_packet(p) for p in payloads]
        columnar_results = columnar.process_columnar(payloads)
        assert all(r.merged for r in scalar_results)
        assert columnar_results == scalar_results
        _assert_same_switch_state(columnar, scalar)

    def test_two_apps_interleaved(self):
        a = _wide_payloads(20, seed=1, app_id=APP)
        b = _wide_payloads(20, seed=2, app_id=APP_B)
        payloads = [p for pair in zip(a, b) for p in pair]
        payloads.insert(7, _periodical_payload(4, app_id=APP_B))
        apps = (APP, APP_B)
        scalar, columnar = _wide_agg(2, apps), _wide_agg(2, apps)
        scalar_results = [scalar.process_packet(p) for p in payloads]
        columnar_results = columnar.process_columnar(payloads)
        assert all(r.merged for r in scalar_results)
        assert columnar_results == scalar_results
        _assert_same_switch_state(columnar, scalar, apps)

    def _corrupted(self, kind):
        codec = AggregationCodec(APP, KEY, random.Random(11))
        if kind == "feature index":
            return _wire(codec, [(0, 1), (2, 0)])
        if kind == "wire value":
            return _wire(codec, [(0, 3), (1, 5)])
        if kind == "truncated stack":
            iv = codec.draw_iv()
            body = (1 << 48 | 5).to_bytes(8, "big") + b"\x00\x00\x00\x01"
            (data,) = encrypt_cbc_many(codec.aes, [iv], [body])
            return _wire(codec, [(0, 1)])[:4] + iv + data
        assert kind == "count byte"
        good = bytearray(_wire(codec, [(0, 1), (1, 5)]))
        good[3] = 1
        return bytes(good)

    @pytest.mark.parametrize(
        "kind",
        ("feature index", "wire value", "truncated stack", "count byte"),
    )
    @pytest.mark.parametrize("shards", (1, 2))
    def test_corrupted_item_is_one_clean_dead_letter(self, kind, shards):
        good = _wide_payloads(20, seed=6)
        bad = self._corrupted(kind)
        clean = _wide_agg(shards)
        clean.process_columnar(good)
        for process in ("scalar", "columnar"):
            agg = _wide_agg(shards)
            batch = good[:9] + [bad] + good[9:]
            if process == "scalar":
                results = [agg.process_packet(p) for p in batch]
            else:
                results = agg.process_columnar(batch)
            assert [r.merged for r in results] == [True] * 9 + [False] + (
                [True] * 11
            )
            assert results[9].is_aggregation
            assert results[9].forward_report is None
            assert _registers(agg) == _registers(clean)
            assert agg.merge(APP) == clean.merge(APP)
            meters = _agg_meters(agg)
            assert meters["agg.agg.decode_failures"] == 1
            assert meters["agg.agg.per_packet_merges"] == 20
            assert meters["agg.agg.register_updates"] == 20

    @pytest.mark.parametrize("control", ("reset", "reconcile", "restore"))
    def test_trail_owns_its_base_snapshots(self, control):
        first, second = _wide_payloads(18, seed=7), _wide_payloads(18, seed=8)
        scalar, columnar = _wide_agg(2), _wide_agg(2)

        def between(agg):
            if control == "reset":
                agg.reset(APP)
            elif control == "reconcile":
                agg.reconcile_report(APP, agg.report(APP))
            else:
                agg.restore(APP, agg.checkpoint(APP))

        expected_first = [scalar.process_packet(p) for p in first]
        between(scalar)
        expected_second = [scalar.process_packet(p) for p in second]
        # Nothing of the first batch is rendered before the control
        # plane rewrites the banks and the second batch folds.
        got_first = columnar.process_columnar(first)
        between(columnar)
        got_second = columnar.process_columnar(second)
        assert got_second == expected_second
        assert got_first == expected_first
        _assert_same_switch_state(columnar, scalar)

    def test_result_value_semantics(self):
        payloads = _wide_payloads(3, seed=4)
        scalar, columnar = _wide_agg(), _wide_agg()
        lazy = columnar.process_columnar(payloads)[2]
        eager = [scalar.process_packet(p) for p in payloads][2]
        assert repr(lazy) == repr(eager)
        assert lazy == eager and not lazy != eager
        assert repr(eager).startswith(
            "AggResult(is_aggregation=True, merged=True, latency_ms="
        )
        assert lazy != object()
