"""The switch parser on hostile and variant wire bytes.

``snatch_parser`` is the one thing that turns packet bytes into a
destination connection ID, so the header variants a deployed QUIC
stack puts on the wire (greased and spin bits in the first byte,
non-QUIC traffic on the same links, cut packets, trailing payload)
are checked here against the parser the LarkSwitch runs, with
``lark_process_raw`` on top: a packet either reaches the statistics
registers through a well-placed DCID or passes untouched.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.larkswitch import LarkSwitch, lark_process_raw
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.quic.connection_id import ConnectionID
from repro.switch.parser import (
    ETHERNET,
    IPV4,
    QUIC_SHORT,
    UDP,
    ParseError,
    build_snatch_packet,
    snatch_parser,
)

KEY = bytes(range(16))
APP = 0x42
CLASSES = ("a", "b", "c")

# Byte offsets into a packet from build_snatch_packet.
ETHERTYPE_AT = 12
IP_PROTOCOL_AT = ETHERNET.total_bytes + 9
UDP_DPORT_AT = ETHERNET.total_bytes + IPV4.total_bytes + 2
QUIC_AT = ETHERNET.total_bytes + IPV4.total_bytes + UDP.total_bytes
DCID_AT = QUIC_AT + 1
PACKET_LEN = QUIC_AT + QUIC_SHORT.total_bytes


def _lark():
    schema = CookieSchema("x", (Feature.categorical("g", list(CLASSES)),))
    lark = LarkSwitch("l", random.Random(1))
    lark.register_application(
        APP, schema, KEY, [StatSpec("count", StatKind.COUNT_BY_CLASS, "g")]
    )
    codec = TransportCookieCodec(APP, schema, KEY, random.Random(2))
    return lark, codec


def _cookie_packet():
    """A lark and a well-formed packet whose DCID carries g="c"."""
    lark, codec = _lark()
    return lark, build_snatch_packet(bytes(codec.encode({"g": "c"})))


def _counted(lark):
    return sum(lark.stats_report(APP)["count"].values())


def _patched(packet, offset, value):
    out = bytearray(packet)
    out[offset:offset + len(value)] = value
    return bytes(out)


def test_packet_layout():
    _lark_, packet = _cookie_packet()
    assert len(packet) == PACKET_LEN
    fields, payload_offset = snatch_parser().parse(packet)
    assert payload_offset == PACKET_LEN
    assert fields["quic.flags"] == packet[QUIC_AT]
    assert fields["quic.app_id"] == APP == packet[DCID_AT + 1]


class TestTruncation:
    @pytest.mark.parametrize("length", range(PACKET_LEN))
    def test_every_strict_prefix_is_rejected(self, length):
        """A packet cut anywhere, inside a header or on a header
        boundary, still selects the next state and so runs short: the
        parser raises ParseError and the switch forwards it untouched
        without folding the cookie its full form carries."""
        lark, packet = _cookie_packet()
        with pytest.raises(ParseError, match="truncated"):
            snatch_parser().parse(packet[:length])
        result = lark_process_raw(lark, packet[:length])
        assert result.forwarded_original
        assert not result.matched and not result.folded
        assert _counted(lark) == 0


class TestFirstByte:
    @pytest.mark.parametrize(
        "flags",
        [0x40, 0x00, 0x60, 0x44, 0x58, 0x43, 0x7F],
        ids=["plain", "greased-fixed-bit", "spin-bit", "key-phase",
             "reserved-bits", "pn-length-4", "all-low-bits"],
    )
    def test_short_header_bits_do_not_move_the_dcid(self, flags):
        """The short-header DCID starts right after the first byte,
        whatever its spin, key-phase, reserved, packet-number-length
        or (greased) fixed bits say."""
        lark, packet = _cookie_packet()
        result = lark_process_raw(lark, _patched(packet, QUIC_AT, [flags]))
        assert result.folded
        assert result.decoded_values == {"g": "c"}
        assert lark.stats_report(APP)["count"]["c"] == 1


class TestOffPathTraffic:
    """Traffic the parse graph accepts before the quic state: a valid
    cookie further into the packet is never read."""

    def _passes_untouched(self, packet, headers, offset):
        fields, payload_offset = snatch_parser().parse(packet)
        assert {name.split(".")[0] for name in fields} == set(headers)
        assert payload_offset == offset
        lark, _codec = _lark()
        result = lark_process_raw(lark, packet)
        assert result.forwarded_original
        assert not result.matched and not result.folded
        assert _counted(lark) == 0

    @pytest.mark.parametrize(
        "ethertype", [0x86DD, 0x0806, 0x8100, 0x88CC, 0x0000],
        ids=["ipv6", "arp", "vlan", "lldp", "zero"],
    )
    def test_non_ipv4_ethertype(self, ethertype):
        _lark_, packet = _cookie_packet()
        packet = _patched(packet, ETHERTYPE_AT, ethertype.to_bytes(2, "big"))
        self._passes_untouched(packet, ["eth"], ETHERNET.total_bytes)

    @pytest.mark.parametrize(
        "protocol", [1, 6, 0, 132, 255],
        ids=["icmp", "tcp", "hopopt", "sctp", "reserved"],
    )
    def test_non_udp_protocol(self, protocol):
        _lark_, packet = _cookie_packet()
        packet = _patched(packet, IP_PROTOCOL_AT, [protocol])
        fields, _ = snatch_parser().parse(packet)
        assert fields["ipv4.protocol"] == protocol
        self._passes_untouched(
            packet, ["eth", "ipv4"], ETHERNET.total_bytes + IPV4.total_bytes
        )

    @pytest.mark.parametrize("dport", [80, 442, 444, 4433, 8443, 0])
    def test_non_quic_port(self, dport):
        _lark_, packet = _cookie_packet()
        packet = _patched(packet, UDP_DPORT_AT, dport.to_bytes(2, "big"))
        fields, _ = snatch_parser().parse(packet)
        assert fields["udp.dport"] == dport
        self._passes_untouched(packet, ["eth", "ipv4", "udp"], QUIC_AT)


class TestDcid:
    @pytest.mark.parametrize("length", [0, 1, 8, 16, 19, 21, 32])
    def test_builder_rejects_other_lengths(self, length):
        """Snatch fixes the short-header DCID at 20 bytes so the
        switch parses it statelessly; the builder emits no other."""
        with pytest.raises(ValueError, match="20 bytes"):
            build_snatch_packet(bytes(length))

    @given(st.binary(min_size=20, max_size=20))
    @settings(max_examples=50)
    def test_dcid_bytes_roundtrip(self, dcid):
        fields, _ = snatch_parser().parse(build_snatch_packet(dcid))
        assert (
            bytes([fields["quic.dcid_b0"], fields["quic.app_id"]])
            + fields["quic.cookie_block"].to_bytes(16, "big")
            + fields["quic.dcid_r2"].to_bytes(2, "big")
        ) == dcid

    @pytest.mark.parametrize("extra", [1, 100, 1200])
    def test_trailing_payload_is_not_header(self, extra):
        """The 1-RTT payload after the DCID changes neither the fields
        nor the fold."""
        lark, packet = _cookie_packet()
        bare, _ = snatch_parser().parse(packet)
        longer = packet + (bytes(range(256)) * 5)[:extra]
        fields, payload_offset = snatch_parser().parse(longer)
        assert fields == bare
        assert payload_offset == PACKET_LEN
        result = lark_process_raw(lark, longer)
        assert result.decoded_values == {"g": "c"}
        assert lark.stats_report(APP)["count"]["c"] == 1

    @pytest.mark.parametrize("position", range(20))
    def test_one_flipped_dcid_bit_never_folds_outside_the_schema(
        self, position
    ):
        """A DCID bit flipped in flight never makes the switch raise,
        and whatever it decodes stays inside the schema: at most one
        count, only for a class the application declared."""
        lark, packet = _cookie_packet()
        offset = DCID_AT + position
        tampered = _patched(packet, offset, [packet[offset] ^ 0x01])
        result = lark_process_raw(lark, tampered)
        assert result.forwarded_original
        if result.decoded_values:
            assert set(result.decoded_values) == {"g"}
            assert result.decoded_values["g"] in CLASSES
        report = lark.stats_report(APP)["count"]
        assert set(report) == set(CLASSES)
        assert _counted(lark) <= 1


class TestNoFeaturePresent:
    """A flipped DCID byte can decrypt to a cookie whose bitmap has no
    feature present.  Such a packet changes no register, so both switch
    paths book it as a decode failure, never as folded, decoded or a
    register update."""

    def _absent_flips(self):
        _lark_unused, codec = _lark()
        dcid = bytes(codec.encode({"g": "c"}))
        flips = []
        for position in range(len(dcid)):
            flipped = _patched(dcid, position, [dcid[position] ^ 0x01])
            decoded = codec.try_decode(ConnectionID(flipped))
            if decoded is not None and decoded.values == {}:
                flips.append(flipped)
        assert flips, "no flip left every feature absent"
        return flips

    @staticmethod
    def _counters(lark):
        """(decoded, decode failures, register updates) so far; the
        switch meters into the shared default registry."""
        value = lark.metrics.value
        return tuple(value("lark.l." + name) for name in (
            "decoded", "decode_failures", "register_updates",
        ))

    def _booked(self, lark, before):
        after = self._counters(lark)
        return tuple(a - b for a, b in zip(after, before))

    def test_scalar_path(self):
        for dcid in self._absent_flips():
            lark, _codec = _lark()
            registers, counters = lark.checkpoint(APP), self._counters(lark)
            result = lark_process_raw(lark, build_snatch_packet(dcid))
            assert result.matched and not result.folded
            assert result.decoded_values is None
            assert lark.checkpoint(APP) == registers
            assert self._booked(lark, counters) == (0, 1, 0)

    def test_columnar_path(self):
        for dcid in self._absent_flips():
            lark, _codec = _lark()
            registers, counters = lark.checkpoint(APP), self._counters(lark)
            batch = lark.process_quic_columnar([ConnectionID(dcid)] * 3)
            assert batch.folded == 0 and batch.packets == 3
            assert lark.checkpoint(APP) == registers
            assert self._booked(lark, counters) == (0, 3, 0)
