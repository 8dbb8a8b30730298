"""AggSwitch: merging aggregation streams from many first-tier nodes."""

import random

import pytest

from repro.core.aggregation import (
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
)
from repro.core.aggswitch import AggBatchResult, AggSwitch
from repro.core.larkswitch import LarkSwitch
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.crypto.aes import encrypt_cbc_many
from repro.obs.registry import MetricsRegistry
from repro.switch import columns

from tests.differential.workloads import (
    WIDE_MAX as BIG,
    table_meters,
    wide_payloads,
    wide_schema as _wide_schema,
    wide_specs as _wide_specs,
)

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
        for lark in (lark_a, lark_b):
            for payload in lark.end_period(APP):
                agg.process_packet(payload)
        report = agg.report(APP)
        assert report["by_gender"]["f"] == 5
        assert report["demand_sum"]["all"] == 400
        assert report["demand_min"]["all"] == 50

    def test_min_survives_merge_with_idle_source(self):
        agg = _agg()
        codec = _codec()
        lark = _lark("a", 1, ForwardingMode.PERIODICAL, 100)
        lark.process_quic_packet(codec.encode({"gender": "f"}))  # no demand
        for payload in lark.end_period(APP):
            agg.process_packet(payload)
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


# -- columnar run fold -------------------------------------------------------

APP_B = 0x43


def _wide_agg(apps=(APP,)):
    # A private registry: same-named switches would share instruments.
    agg = AggSwitch("agg", random.Random(3), registry=MetricsRegistry())
    for app_id in apps:
        agg.register_application(app_id, _wide_schema(), KEY, _wide_specs())
    return agg


def _wire(codec, items, mode=ForwardingMode.PER_PACKET):
    return codec.encode(
        AggregationPacket(app_id=codec.app_id, mode=mode, items=items)
    )


def _wide_payloads(n, seed, app_id=APP):
    return wide_payloads(app_id, KEY, n, seed)


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
    [payload] = lark.end_period(app_id)
    return payload


def _registers(agg):
    registers = agg.pipeline.registers
    return {name: registers.get(name).snapshot() for name in registers.names()}


def _agg_meters(agg):
    """The switch's own instruments (packets, merges, failures,
    register updates); the pipeline's batch
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
    @pytest.mark.parametrize("seed", (1, 2, 7))
    def test_wrapping_rows_fold_like_the_scalar_path(self, seed):
        payloads = _wide_payloads(40, seed=seed)
        scalar = _wide_agg()
        expected = [scalar.process_packet(p) for p in payloads]
        # big_sum wraps at its 48-bit width inside the batch: some 30
        # rows each add nearly a full register, yet it never exceeds one.
        report = expected[-1].forward_report
        assert sum(report["by_gender"].values()) == len(payloads)
        assert report["big_max"]["all"] > 1 << 47
        assert report["big_sum"]["all"] < 1 << 48
        columnar = _wide_agg()
        batch = columnar.process_columnar(payloads)
        assert batch == AggBatchResult.of(expected)
        assert columnar.report(APP) == report
        _assert_same_switch_state(columnar, scalar)

    @pytest.mark.parametrize(
        "sizes", ((1,), (7, 13), (39, 1)), ids=("rows", "ragged", "last-alone")
    )
    def test_wrapping_rows_fold_across_calls(self, sizes):
        """However the stream is cut into calls, each call's columns
        are its chunk's scalar columns and the report read after it is
        the scalar forward report of the chunk's last payload: a run
        fold that wraps ``big_sum`` does not leak across a call."""
        payloads = _wide_payloads(40, seed=2)
        scalar, columnar = _wide_agg(), _wide_agg()
        expected = [scalar.process_packet(p) for p in payloads]
        assert all(r.merged for r in expected)
        at, calls = 0, 0
        while at < len(payloads):
            size = sizes[calls % len(sizes)]
            chunk = expected[at:at + size]
            batch = columnar.process_columnar(payloads[at:at + size])
            assert batch == AggBatchResult.of(chunk)
            assert batch.merged == len(chunk)
            assert columnar.report(APP) == chunk[-1].forward_report
            at, calls = at + size, calls + 1
        assert calls > 1
        _assert_same_switch_state(columnar, scalar)

    def test_periodical_payload_flushes_the_pending_run(self):
        rows = _wide_payloads(24, seed=9)
        payloads = (
            rows[:5] + [_periodical_payload(1)] + rows[5:6]
            + [_periodical_payload(2), _periodical_payload(3)] + rows[6:]
        )
        scalar, columnar = _wide_agg(), _wide_agg()
        scalar_results = [scalar.process_packet(p) for p in payloads]
        batch = columnar.process_columnar(payloads)
        assert all(r.merged for r in scalar_results)
        assert batch == AggBatchResult.of(scalar_results)
        _assert_same_switch_state(columnar, scalar)

    def test_two_apps_interleaved(self):
        a = _wide_payloads(20, seed=1, app_id=APP)
        b = _wide_payloads(20, seed=2, app_id=APP_B)
        payloads = [p for pair in zip(a, b) for p in pair]
        payloads.insert(7, _periodical_payload(4, app_id=APP_B))
        apps = (APP, APP_B)
        scalar, columnar = _wide_agg(apps), _wide_agg(apps)
        scalar_results = [scalar.process_packet(p) for p in payloads]
        batch = columnar.process_columnar(payloads)
        assert all(r.merged for r in scalar_results)
        assert batch == AggBatchResult.of(scalar_results)
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
    def test_corrupted_item_is_one_clean_dead_letter(self, kind):
        good = _wide_payloads(20, seed=6)
        bad = self._corrupted(kind)
        clean = _wide_agg()
        clean.process_columnar(good)
        for process in ("scalar", "columnar"):
            agg = _wide_agg()
            payloads = good[:9] + [bad] + good[9:]
            if process == "scalar":
                results = [agg.process_packet(p) for p in payloads]
                assert results[9].is_aggregation
                assert results[9].forward_report is None
                batch = AggBatchResult.of(results)
            else:
                batch = agg.process_columnar(payloads)
            assert batch == AggBatchResult(20, 21)
            assert table_meters(agg) == (21, 0)
            assert _registers(agg) == _registers(clean)
            assert agg.merge(APP) == clean.merge(APP)
            meters = _agg_meters(agg)
            assert meters["agg.agg.decode_failures"] == 1
            assert meters["agg.agg.per_packet_merges"] == 20
            assert meters["agg.agg.register_updates"] == 20

    @pytest.mark.parametrize("control", ("reset", "reconcile", "restore"))
    def test_control_plane_write_between_batches(self, control):
        first, second = _wide_payloads(18, seed=7), _wide_payloads(18, seed=8)
        scalar, columnar = _wide_agg(), _wide_agg()

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
        got_first = columnar.process_columnar(first)
        between(columnar)
        got_second = columnar.process_columnar(second)
        assert got_first == AggBatchResult.of(expected_first)
        assert got_second == AggBatchResult.of(expected_second)
        _assert_same_switch_state(columnar, scalar)

    def test_result_value_semantics(self):
        """Scalar results and batch columns are plain values: equal
        when the runs are, whichever switch produced them."""
        payloads = _wide_payloads(3, seed=4)
        first = [_wide_agg().process_packet(p) for p in payloads]
        again = [_wide_agg().process_packet(p) for p in payloads]
        assert first == again and not first[2] != again[2]
        assert repr(first[2]).startswith(
            "AggResult(is_aggregation=True, merged=True, latency_ms="
        )
        assert first[2] != object() and first[1] != first[2]
        batch = _wide_agg().process_columnar(payloads)
        assert batch == _wide_agg().process_columnar(payloads)
        assert batch == AggBatchResult.of(first)
        assert batch != AggBatchResult.of(first[:2])
        assert batch != object() and batch != AggBatchResult.of(first).merged
        assert repr(batch) == "AggBatchResult(merged=3, packets=3)"


# -- hostile payloads through the parse kernel, the batch result --------------


def _framed(padded, count_byte, seed, app_id=APP, sid=None):
    """A payload whose CBC body decrypts to exactly ``padded`` (a
    whole number of blocks; the padding is the caller's to get right
    or wrong) under the summary byte ``count_byte``."""
    from repro.core.aggregation import SNATCH_SID

    codec = AggregationCodec(app_id, KEY, random.Random(seed))
    prev = iv = codec.draw_iv()
    body = b""
    for at in range(0, len(padded), 16):
        prev = codec.aes.encrypt_block(
            bytes(a ^ b for a, b in zip(padded[at:at + 16], prev))
        )
        body += prev
    head = (SNATCH_SID if sid is None else sid).to_bytes(2, "big")
    return head + bytes([app_id, count_byte]) + iv + body


def _stack(*items):
    return b"".join(
        (index << 48 | wire).to_bytes(8, "big") for index, wire in items
    )


def _pad(body):
    fill = 16 - len(body) % 16
    return body + bytes([fill]) * fill


def _hostile(valid):
    """``(kind, payload, merges)``: what a hostile or merely unusual
    sender can put in the batch, ``valid`` being one good payload."""
    one, two = _stack((0, 1)), _stack((0, 2), (1, 77))
    periodical = _periodical_payload(5)
    torn = bytearray(periodical)
    torn[3] ^= 1  # a periodical body whose count no longer matches
    return [
        ("empty", b"", False),
        ("sid only", valid[:2], False),
        ("header only", valid[:4], False),
        ("35 bytes", valid[:35], False),
        ("body not whole blocks", valid + b"\x00", False),
        ("body a byte short", valid[:-1], False),
        ("pad byte 0", _framed(one + bytes(8), 1, 1), False),
        ("pad byte 17", _framed(one + b"\x11" * 8, 1, 2), False),
        ("tail disagrees", _framed(one + b"\x08" * 6 + b"\x07\x08", 1, 3),
         False),
        ("full pad block", _framed(_pad(two), 2, 4), True),
        ("zero items", _framed(_pad(b""), 0, 5), True),
        ("count too low", _framed(_pad(two), 1, 6), False),
        ("count too high", _framed(_pad(one), 2, 7), False),
        ("count 127", _framed(_pad(one), 127, 8), False),
        ("stack of 12 bytes", _framed(_pad(one + bytes(4)), 1, 9), False),
        ("index outside schema", _framed(_pad(_stack((2, 0))), 1, 10), False),
        ("tag with the sign bit", _framed(_pad(_stack((0x8000, 1))), 1, 11),
         False),
        ("tag 0xffff", _framed(_pad(_stack((0, 1), (0xFFFF, 1))), 2, 12),
         False),
        ("wire outside cardinality", _framed(_pad(_stack((0, 3))), 1, 13),
         False),
        ("duplicate index", _framed(
            _pad(_stack((0, 0), (1, 5), (0, 2))), 3, 14), True),
        ("duplicate then invalid", _framed(
            _pad(_stack((0, 1), (0, 3))), 2, 15), False),
        ("periodical", periodical, True),
        ("torn periodical", bytes(torn), False),
        ("periodical, bad padding",
         _framed(_stack((0, 1)) + bytes(8), 0x81, 16), False),
        ("foreign sid", _framed(_pad(one), 1, 17, sid=0x1234), False),
        ("unknown app", _framed(_pad(one), 1, 18, app_id=0x77), False),
        ("other app", _wide_payloads(1, seed=19, app_id=APP_B)[0], True),
    ]


@pytest.mark.usefixtures("kernel_form")
class TestHostilePayloads:
    """The parse kernel rejects exactly where the scalar action does,
    before any register mutates — as masks over the payload matrix or
    payload by payload — and a rejected payload is one dead letter."""

    APPS = (APP, APP_B)

    def _batch(self):
        good = _wide_payloads(30, seed=21)
        batch = list(good[:6])
        for position, (_kind, payload, _merges) in enumerate(_hostile(good[0])):
            batch.append(payload)
            batch.append(good[6 + position % 24])
        return batch

    def test_batch_equals_process_packet_per_element(self):
        batch = self._batch()
        assert len(batch) > 2 * columns.VECTOR_MIN_ROWS
        assert len({len(p) for p in batch}) > 6
        scalar = _wide_agg(self.APPS)
        expected = [scalar.process_packet(p) for p in batch]
        hostile = _hostile(batch[0])
        assert [r.merged for r in expected[6::2]] == [m for *_, m in hostile]
        # "duplicate index": the later (0, 2) won over (0, 0).
        winner = expected[6 + 2 * [k for k, *_ in hostile].index(
            "duplicate index"
        )]
        before = expected[expected.index(winner) - 1].forward_report
        assert winner.forward_report["by_gender"]["x"] == (
            before["by_gender"]["x"] + 1
        )
        columnar = _wide_agg(self.APPS)
        results = columnar.process_columnar(batch)
        assert results.merged == sum(r.merged for r in expected)
        assert results == AggBatchResult.of(expected)
        _assert_same_switch_state(columnar, scalar, self.APPS)
        for app_id in self.APPS:
            assert columnar.packets_merged(app_id) == (
                scalar.packets_merged(app_id)
            )
        assert _per_packet_meters(columnar) == _per_packet_meters(scalar)
        # "sid only" and "unknown app" look like aggregation packets
        # but miss the table: no decrypt, so no decode failure.
        failures = sum(r.is_aggregation and not r.merged for r in expected)
        assert _agg_meters(columnar)["agg.agg.decode_failures"] == failures - 2

    @pytest.mark.parametrize("kind", [k for k, *_ in _hostile(b"\0" * 36)])
    def test_each_kind_alone_among_good_rows(self, kind):
        good = _wide_payloads(20, seed=22)
        (payload, merges), = [
            (p, m) for k, p, m in _hostile(good[0]) if k == kind
        ]
        batch = good[:9] + [payload] + good[9:]
        scalar, columnar = _wide_agg(self.APPS), _wide_agg(self.APPS)
        expected = [scalar.process_packet(p) for p in batch]
        assert expected[9].merged == merges
        if not merges:
            clean = _wide_agg(self.APPS)
            clean.process_columnar(good)
            assert _registers(scalar) == _registers(clean)
        results = columnar.process_columnar(batch)
        assert results.merged == 20 + merges
        assert results == AggBatchResult.of(expected)
        _assert_same_switch_state(columnar, scalar, self.APPS)
        assert _per_packet_meters(columnar) == _per_packet_meters(scalar)

    def test_numpy_and_python_forms_agree_on_every_meter(self):
        batch = self._batch()
        snapshots = []
        for form in (True, False):
            columns.force_numpy(form)  # the fixture restores the gate
            agg = _wide_agg(self.APPS)
            for chunk in (batch[:40], batch[40:47], batch[47:]):
                agg.process_columnar(chunk)
            snapshots.append((agg.metrics.snapshot(), _registers(agg)))
        assert snapshots[0] == snapshots[1]

    def test_replica_counts_without_rendering_a_result(self, monkeypatch):
        from repro.core import aggswitch
        from repro.testbed.executor import Replica, ShardSpec

        built = []

        class CountedResult(aggswitch.AggResult):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(aggswitch, "AggResult", CountedResult)
        batch = [p for p in self._batch() if p[2:3] != bytes([APP_B])]
        scalar = _wide_agg()
        merged = sum(scalar.process_packet(p).merged for p in batch)
        replica = Replica(
            ShardSpec(
                kind="agg", app_id=APP, schema=_wide_schema(), key=KEY,
                specs=tuple(_wide_specs()),
            ),
            0,
        )
        del built[:]
        replica.feed(batch)
        assert replica.counters() == {
            "packets": len(batch), "folded": merged,
            "unmerged": len(batch) - merged,
        }
        assert replica.switch.merge(APP) == scalar.merge(APP)
        assert not built


def _per_packet_meters(agg):
    """Every instrument but the per-batch ones (a batch call is one
    batch; the scalar entry point counts none)."""
    return [
        meter for meter in agg.metrics.snapshot()
        if ".batch" not in meter["name"]
    ]


@pytest.mark.usefixtures("kernel_form")
class TestBatchResult:
    def test_counts_are_the_scalar_path(self):
        payloads = _wide_payloads(40, seed=31)
        payloads[7] = payloads[7][:-1]
        scalar, columnar = _wide_agg(), _wide_agg()
        expected = [scalar.process_packet(p) for p in payloads]
        batch = columnar.process_columnar(payloads)
        assert batch == AggBatchResult.of(expected)
        assert len(batch) == 40 and batch.merged == 39
        assert table_meters(columnar) == table_meters(scalar) == (40, 0)
        assert _per_packet_meters(columnar) == _per_packet_meters(scalar)
        _assert_same_switch_state(columnar, scalar)
        assert batch == _wide_agg().process_columnar(payloads)

    @pytest.mark.parametrize("n", (1, 15, 16, 17, 64, 4096))
    def test_batch_latency_is_the_per_packet_latencies(self, n):
        """A batch observes the sum of its payloads' latencies: a table
        hit (truncated ones included, which fail to decode) costs the
        AES pass, a foreign SID or an unknown app-ID the line rate.
        No size has as many hits as misses, so the two cannot trade
        places unseen."""
        pool = _wide_payloads(40, seed=34)
        payloads = []
        for i in range(n):
            good = pool[i % len(pool)]
            payloads.append((
                good, b"\x12\x34" + good[2:], good,
                good[:2] + b"\x77" + good[3:], good[:-1],
            )[i % 5])
        agg = _wide_agg()
        batch = agg.process_columnar(payloads)
        hits, misses = table_meters(agg)
        assert hits + misses == len(batch) == n and hits != misses
        meters = {m["name"]: m for m in agg.metrics.snapshot()}
        assert meters["pipeline.agg.batch.latency_us"]["count"] == 1
        assert (
            meters["pipeline.agg.batch.latency_us"]["total"]
            == meters["pipeline.agg.latency_us"]["total"]
        )

    def test_empty_input(self):
        agg = _wide_agg()
        before = _registers(agg), _per_packet_meters(agg)
        empty = agg.process_columnar([])
        assert len(empty) == 0 and empty.merged == 0
        assert empty == AggBatchResult(0, 0) == AggBatchResult.of([])
        # An empty call is still a call (as before): one batch of size 0.
        assert (_registers(agg), _per_packet_meters(agg)) == before
        meters = {m["name"]: m for m in agg.metrics.snapshot()}
        assert meters["pipeline.agg.batches"]["value"] == 1
        assert meters["pipeline.agg.batch.size"]["total"] == 0
        assert meters["pipeline.agg.batch.latency_us"]["total"] == 0

    @pytest.mark.parametrize("n", (5, 20))
    def test_all_table_misses(self, n):
        from repro.switch.pipeline import LINE_RATE_LATENCY_MS

        good = _wide_payloads(1, seed=32)[0]
        misses = [
            b"", b"\x5a", good[:2], b"\x12\x34" + good[2:],
            good[:2] + b"\x77" + good[3:],
        ] * (n // 5)
        scalar, columnar = _wide_agg(), _wide_agg()
        expected = [scalar.process_packet(p) for p in misses]
        assert [r.is_aggregation for r in expected] == [
            False, False, True, False, True,
        ] * (n // 5)
        batch = columnar.process_columnar(misses)
        assert batch == AggBatchResult.of(expected) == AggBatchResult(0, n)
        assert table_meters(columnar) == table_meters(scalar) == (0, n)
        assert _per_packet_meters(columnar) == _per_packet_meters(scalar)
        meters = {m["name"]: m for m in columnar.metrics.snapshot()}
        assert meters["pipeline.agg.batch.latency_us"]["total"] == round(
            n * LINE_RATE_LATENCY_MS * 1000.0
        )

    def test_branches_that_hold_a_list_return_the_same_type(self):
        from repro.switch.tables import MatchActionTable, MatchKey, MatchKind

        payloads = _wide_payloads(20, seed=33)
        down = _wide_agg()
        down.crash()
        before = down.metrics.snapshot()
        batch = down.process_columnar(payloads)
        assert batch == AggBatchResult(0, 20)
        # A downed switch is routed around: no meter moves.
        assert down.metrics.snapshot() == before
        assert batch == AggBatchResult.of(
            [down.process_packet(p) for p in payloads]
        )
        scalar, reshaped = _wide_agg(), _wide_agg()
        reshaped.pipeline.add_table(
            stage=1,
            table=MatchActionTable(
                "extra", keys=[MatchKey("app_id", MatchKind.EXACT, 8)],
                default_action="NoAction",
            ),
        )
        batch = reshaped.process_columnar(payloads)
        assert isinstance(batch, AggBatchResult) and batch.merged == 20
        assert batch == AggBatchResult.of(
            [scalar.process_packet(p) for p in payloads]
        )
