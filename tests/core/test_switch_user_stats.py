"""Per-user engagement tracking wired through the switch tiers."""

import random

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.larkswitch import LarkSwitch
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.core.user_stats import UserQuantileConfig

KEY = bytes(range(16))
APP = 0x31


def _schema(num_users=256):
    return CookieSchema(
        "app",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("user", 0, num_users - 1),
        ),
    )


def _specs():
    return [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")]


def _setup(mode="exact", key_feature="user", **lark_kwargs):
    config = UserQuantileConfig(mode=mode, key_feature=key_feature)
    lark = LarkSwitch("lark", random.Random(1), **lark_kwargs)
    lark.register_application(
        APP, _schema(), KEY, _specs(),
        mode=ForwardingMode.PER_PACKET, user_quantiles=config,
    )
    codec = TransportCookieCodec(APP, _schema(), KEY, random.Random(2))
    return lark, codec


def _cookies(codec, users, gender="f"):
    return [
        codec.encode({"gender": gender, "user": u}) for u in users
    ]


class TestLarkObservation:
    def test_scalar_path_counts_per_user(self):
        lark, codec = _setup()
        for cid in _cookies(codec, [3, 3, 3, 9]):
            lark.process_quic_packet(cid)
        report = lark.user_report(APP)
        assert report["users"] == 2
        assert report["events"] == 4
        assert report["quantiles"]["p99"] == 3

    def test_columnar_matches_scalar(self):
        users = [1, 2, 1, 3, 1, 2, 3, 3, 3, 7]
        snapshots = []
        for backend in ("scalar", "columnar"):
            lark, codec = _setup()
            cids = _cookies(codec, users)
            if backend == "scalar":
                for cid in cids:
                    lark.process_quic_packet(cid)
            else:
                lark.process_quic_columnar(cids)
            snapshots.append(lark._apps[APP].users.snapshot())
        assert snapshots[0] == snapshots[1]

    def test_missing_key_feature_not_observed(self):
        # Feature stacks are prefix-truncated: a cookie carrying only
        # the gender feature has no user value, so it cannot be
        # attributed and must not pollute the per-user counts.
        lark, codec = _setup()
        lark.process_quic_packet(codec.encode({"gender": "f"}))
        lark.process_quic_packet(codec.encode({"gender": "f", "user": 5}))
        report = lark.user_report(APP)
        assert report["users"] == 1
        assert report["events"] == 1

    def test_region_fallback_without_key_feature(self):
        # key_feature=None keys on the raw cookie region — stable only
        # as long as the client resends the same minted cookie (encode
        # pads with fresh randomness, so re-encoding the same values
        # yields a new region).
        lark, codec = _setup(key_feature=None)
        one, two = _cookies(codec, [1, 2])
        for cid in (one, one, two):
            lark.process_quic_packet(cid)
        assert lark.user_report(APP)["users"] == 2

    def test_no_tracker_reports_none(self):
        lark = LarkSwitch("lark", random.Random(1))
        lark.register_application(APP, _schema(), KEY, _specs())
        assert lark.user_report(APP) is None
        assert lark.drain_user_stats(APP) is None


class TestDrainAbsorb:
    def _agg(self, mode="exact"):
        agg = AggSwitch("agg", random.Random(5))
        agg.register_application(
            APP, _schema(), KEY, _specs(),
            user_quantiles=UserQuantileConfig(
                mode=mode, key_feature="user"
            ),
        )
        return agg

    def test_drain_resets_lark_and_accumulates_in_agg(self):
        lark, codec = _setup()
        agg = self._agg()
        for period_users in ([1, 1, 2], [2, 3], [1]):
            for cid in _cookies(codec, period_users):
                lark.process_quic_packet(cid)
            agg.absorb_user_stats(APP, lark.drain_user_stats(APP))
            assert lark.user_report(APP)["events"] == 0
        report = agg.user_report(APP)
        assert report["users"] == 3
        assert report["events"] == 6
        # user 1 seen 3x across periods: periods fold, not overwrite.
        assert report["quantiles"]["p99"] == 3

    def test_chunked_drains_equal_single_tracker(self):
        users = [1, 2, 1, 3, 1, 2, 3, 3, 3, 7, 9, 9]
        whole_lark, codec = _setup(mode="sketch")
        for cid in _cookies(codec, users):
            whole_lark.process_quic_packet(cid)
        chunked_lark, _ = _setup(mode="sketch")
        agg = self._agg(mode="sketch")
        for lo in range(0, len(users), 4):
            for cid in _cookies(codec, users[lo:lo + 4]):
                chunked_lark.process_quic_packet(cid)
            agg.absorb_user_stats(APP, chunked_lark.drain_user_stats(APP))
        assert (
            agg.user_report(APP) == whole_lark.user_report(APP)
        )

    def test_absorb_validates(self):
        agg = self._agg()
        agg.absorb_user_stats(APP, None)  # no-op
        with pytest.raises(KeyError):
            agg.absorb_user_stats(0x99, {"mode": "exact"})
        bare = AggSwitch("agg2", random.Random(6))
        bare.register_application(APP, _schema(), KEY, _specs())
        with pytest.raises(ValueError):
            bare.absorb_user_stats(APP, {"mode": "exact"})

    def test_agg_report_includes_user_engagement(self):
        lark, codec = _setup()
        agg = self._agg()
        for cid in _cookies(codec, [4, 4, 8]):
            result = lark.process_quic_packet(cid)
            agg.process_packet(result.aggregation_payload)
        agg.absorb_user_stats(APP, lark.drain_user_stats(APP))
        report = agg.report(APP)
        assert report["user_engagement"]["users"] == 2
        assert report["by_gender"]["f"] == 3


class TestCheckpointRestore:
    @pytest.mark.parametrize("mode", ["exact", "sketch"])
    def test_lark_roundtrip(self, mode):
        lark, codec = _setup(mode=mode)
        for cid in _cookies(codec, [1, 1, 2, 3]):
            lark.process_quic_packet(cid)
        saved = lark.checkpoint(APP)
        saved_report = lark.user_report(APP)
        for cid in _cookies(codec, [5, 6, 7]):
            lark.process_quic_packet(cid)
        assert lark.user_report(APP) != saved_report
        lark.restore(APP, saved)
        assert lark.user_report(APP) == saved_report
        assert lark.stats_report(APP)["by_gender"]["f"] == 4

    def test_checkpoint_without_tracker_has_no_reserved_key(self):
        lark = LarkSwitch("lark", random.Random(1))
        lark.register_application(APP, _schema(), KEY, _specs())
        codec = TransportCookieCodec(APP, _schema(), KEY, random.Random(2))
        lark.process_quic_packet(codec.encode({"gender": "f", "user": 1}))
        assert "user_quantiles" not in lark.checkpoint(APP)

    def test_agg_roundtrip(self):
        agg = AggSwitch("agg", random.Random(5))
        agg.register_application(
            APP, _schema(), KEY, _specs(),
            user_quantiles=UserQuantileConfig(
                mode="sketch", key_feature="user"
            ),
        )
        codec = TransportCookieCodec(APP, _schema(), KEY, random.Random(2))
        lark, _ = _setup(mode="sketch")
        for cid in _cookies(codec, [1, 2, 2]):
            lark.process_quic_packet(cid)
        agg.absorb_user_stats(APP, lark.drain_user_stats(APP))
        saved = agg.checkpoint(APP)
        saved_report = agg.user_report(APP)
        for cid in _cookies(codec, [9, 9]):
            lark.process_quic_packet(cid)
        agg.absorb_user_stats(APP, lark.drain_user_stats(APP))
        agg.restore(APP, saved)
        assert agg.user_report(APP) == saved_report


class TestResourceBounds:
    def test_decode_memo_bounded(self):
        lark, codec = _setup(decode_memo_capacity=4)
        cids = _cookies(codec, list(range(16)))
        lark.process_quic_columnar(cids)
        assert len(lark._decode_memo) <= 4
        # Decode stays correct through evictions: reprocessing counts.
        lark.process_quic_columnar(cids)
        assert lark.user_report(APP)["events"] == 32

    def test_decode_memo_unbounded_by_default(self):
        lark, codec = _setup()
        lark.process_quic_columnar(_cookies(codec, list(range(16))))
        assert len(lark._decode_memo) == 16

    def test_invalid_memo_capacity(self):
        with pytest.raises(ValueError):
            LarkSwitch("lark", random.Random(1), decode_memo_capacity=0)

    def test_revoke_frees_sketch_registers(self):
        lark, codec = _setup(mode="sketch")
        lark.process_quic_packet(codec.encode({"gender": "f", "user": 1}))
        names = list(lark.pipeline.registers.names())
        assert any("users" in n for n in names)
        lark.revoke_application(APP)
        assert list(lark.pipeline.registers.names()) == []
