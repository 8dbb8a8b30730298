"""Adversarial robustness (threat model, section 3.2).

Attackers may inject arbitrary packets, join as users to collect
cookies, or tamper with ciphertexts.  Every Snatch component must
fail *closed*: garbage is dropped or ignored, original traffic is
never disturbed, and targeted manipulation of encrypted cookies is
infeasible (bit flips scramble, they do not edit).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import AggregationCodec
from repro.core.aggswitch import AggSwitch
from repro.core.app_cookie import ApplicationCookieCodec
from repro.core.larkswitch import LarkSwitch, lark_process_raw
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.quic.connection_id import ConnectionID
from repro.switch.parser import ParseError, snatch_parser

KEY = bytes(range(16))
APP = 0x42


def _schema():
    return CookieSchema(
        "app",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("demand", 0, 1000),
        ),
    )


def _lark():
    lark = LarkSwitch("lark", random.Random(1))
    lark.register_application(
        APP, _schema(), KEY,
        [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")],
    )
    return lark


def _agg():
    agg = AggSwitch("agg", random.Random(2))
    agg.register_application(
        APP, _schema(), KEY,
        [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")],
    )
    return agg


class TestPacketFuzzing:
    @given(st.binary(min_size=0, max_size=96))
    @settings(max_examples=60)
    def test_quic_parser_never_crashes_unexpectedly(self, data):
        """The switch's own parser is the one that reads the DCID off
        the wire: it raises only ParseError, and the LarkSwitch path
        over it forwards such bytes untouched and folds nothing."""
        try:
            snatch_parser().parse(data)
        except ParseError:
            pass  # the only acceptable failure mode
        result = lark_process_raw(_lark(), data)
        assert result.forwarded_original
        assert not result.folded

    @given(st.binary(min_size=0, max_size=20))
    @settings(max_examples=60)
    def test_larkswitch_forwards_all_garbage_cids(self, raw):
        lark = _lark()
        result = lark.process_quic_packet(ConnectionID(raw))
        assert result.forwarded_original

    @given(st.binary(min_size=0, max_size=128))
    @settings(max_examples=60)
    def test_aggswitch_rejects_garbage_gracefully(self, data):
        agg = _agg()
        result = agg.process_packet(data)
        assert not result.merged or data[:2] == b"ZN"

    @given(st.binary(min_size=32, max_size=200))
    @settings(max_examples=40)
    def test_aggregation_codec_raises_only_valueerror(self, data):
        codec = AggregationCodec(APP, KEY, random.Random(3))
        try:
            codec.decode(data)
        except ValueError:
            pass

    @given(st.text(max_size=80))
    @settings(max_examples=40)
    def test_app_cookie_header_fuzz(self, header):
        codec = ApplicationCookieCodec(APP, _schema(), KEY, random.Random(4))
        try:
            codec.try_decode_header(header)
        except ValueError:
            pass  # malformed Cookie header syntax


class TestCiphertextTampering:
    def test_bit_flips_cannot_target_a_feature(self):
        """An attacker flipping ciphertext bits cannot steer a decoded
        value: AES diffusion scrambles the whole block, so tampered
        cookies either abort or decode to unrelated noise — across many
        attempts, no flip yields a controlled +1 on `demand`."""
        codec = TransportCookieCodec(APP, _schema(), KEY, random.Random(5))
        original = codec.encode({"gender": "f", "demand": 500})
        controlled = 0
        for bit in range(16 * 8):
            raw = bytearray(bytes(original))
            raw[2 + bit // 8] ^= 1 << (bit % 8)
            decoded = codec.try_decode(ConnectionID(bytes(raw)))
            if decoded is not None and decoded.values.get("demand") == 501:
                controlled += 1
        assert controlled == 0

    def test_replayed_cookie_is_the_only_forgery(self):
        """Without the key, the attacker's best move is replaying an
        observed cookie verbatim — which only repeats an existing,
        non-identifying data point."""
        lark = _lark()
        codec = TransportCookieCodec(APP, _schema(), KEY, random.Random(6))
        observed = codec.encode({"gender": "m", "demand": 1})
        for _ in range(5):
            result = lark.process_quic_packet(observed)
            assert result.decoded_values == {"gender": "m", "demand": 1}
        # Replays inflate one counter but cannot fabricate targeted
        # values; Bloom-filter dedup (Appendix B.4) bounds even that.
        assert lark.stats_report(APP)["by_gender"]["m"] == 5

    def test_attacker_without_key_cannot_mint_valid_cookies(self):
        """Cookies minted under a guessed key mostly abort or decode
        to uniform noise — the distribution over many attempts shows
        no control over the planted value."""
        lark = _lark()
        forger = TransportCookieCodec(
            APP, _schema(), bytes(16), random.Random(7)
        )
        target_hits = 0
        attempts = 60
        for _ in range(attempts):
            cid = forger.encode({"gender": "x", "demand": 999})
            result = lark.process_quic_packet(cid)
            if (
                result.decoded_values is not None
                and result.decoded_values.get("gender") == "x"
                and result.decoded_values.get("demand") == 999
            ):
                target_hits += 1
        assert target_hits == 0


class TestEavesdropping:
    def test_equal_profiles_are_unlinkable_on_the_wire(self):
        """Two users with identical demographics produce different
        connection IDs (random DCID + padding), so an eavesdropper
        cannot link them by cookie bytes."""
        codec = TransportCookieCodec(APP, _schema(), KEY, random.Random(8))
        values = {"gender": "f", "demand": 100}
        cids = {bytes(codec.encode(values)) for _ in range(20)}
        assert len(cids) == 20

    def test_application_cookie_hides_repetition(self):
        codec = ApplicationCookieCodec(APP, _schema(), KEY, random.Random(9))
        wires = {codec.encode({"gender": "f"})[1] for _ in range(20)}
        assert len(wires) == 20
