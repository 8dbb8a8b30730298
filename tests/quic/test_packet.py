"""QUIC packet header records (the handshake's in-memory packets)."""

import pytest

from repro.quic.connection_id import ConnectionID
from repro.quic.packet import (
    QUIC_VERSION,
    SNATCH_DCID_LENGTH,
    LongHeaderPacket,
    PacketType,
    ShortHeaderPacket,
)


class TestShortHeader:
    def test_requires_fixed_dcid_length(self):
        with pytest.raises(ValueError, match="20 bytes"):
            ShortHeaderPacket(ConnectionID(bytes([0xAB]) * 8), b"")

    @pytest.mark.parametrize("length", [0, 1, 19])
    def test_rejects_shorter_lengths(self, length):
        with pytest.raises(ValueError, match="got %d" % length):
            ShortHeaderPacket(ConnectionID(bytes(length)))

    def test_carries_the_snatch_dcid(self):
        dcid = ConnectionID(bytes(range(SNATCH_DCID_LENGTH)))
        packet = ShortHeaderPacket(dcid, b"req")
        assert packet.dcid == dcid
        assert packet.payload == b"req"
        assert not packet.spin_bit


class TestLongHeader:
    def test_handshake_cids_have_explicit_lengths(self):
        """Long headers carry DCID/SCID lengths, so the client's random
        Initial DCID need not be the 20-byte Snatch length."""
        packet = LongHeaderPacket(
            PacketType.INITIAL,
            dcid=ConnectionID(bytes(8)),
            scid=ConnectionID(bytes(range(4))),
        )
        assert len(packet.dcid) == 8 and len(packet.scid) == 4
        assert packet.version == QUIC_VERSION
        assert packet.payload == b""
