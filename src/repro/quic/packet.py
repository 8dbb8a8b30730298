"""QUIC packet headers (RFC 9000 section 17, simplified wire format).

Snatch's LarkSwitch parses QUIC headers in the P4 data plane to extract
the destination connection ID, where the transport-layer semantic cookie
lives.  We implement both header forms:

* **Long header** — used during the handshake (Initial / 0-RTT /
  Handshake packet types).  Carries explicit DCID/SCID length bytes, so
  a switch can locate the DCID without connection state.
* **Short header** — used post-handshake (1-RTT packets).  Carries the
  DCID with *implicit* length; Snatch fixes the DCID length at 20 bytes
  so switches can parse it statelessly, exactly as the paper's prototype
  does with its fixed cookie layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.quic.connection_id import ConnectionID, MAX_CONNECTION_ID_BYTES
from repro.quic.varint import decode_varint, encode_varint

__all__ = [
    "PacketType",
    "LongHeaderPacket",
    "ShortHeaderPacket",
    "parse_packet",
    "QUIC_VERSION",
    "SNATCH_DCID_LENGTH",
]

QUIC_VERSION = 0x00000001  # QUIC v1
SNATCH_DCID_LENGTH = 20  # Fixed so switches can parse short headers.

_FORM_LONG = 0x80
_FIXED_BIT = 0x40


class PacketType(enum.IntEnum):
    """Long-header packet types (2-bit field in the first byte)."""

    INITIAL = 0x0
    ZERO_RTT = 0x1
    HANDSHAKE = 0x2
    RETRY = 0x3


@dataclass
class LongHeaderPacket:
    """A QUIC long-header packet (handshake phase)."""

    packet_type: PacketType
    dcid: ConnectionID
    scid: ConnectionID
    payload: bytes = b""
    version: int = QUIC_VERSION

    def encode(self) -> bytes:
        first = _FORM_LONG | _FIXED_BIT | (int(self.packet_type) << 4)
        out = bytearray([first])
        out += self.version.to_bytes(4, "big")
        out.append(len(self.dcid))
        out += bytes(self.dcid)
        out.append(len(self.scid))
        out += bytes(self.scid)
        out += encode_varint(len(self.payload))
        out += self.payload
        return bytes(out)

    @property
    def is_long_header(self) -> bool:
        return True


@dataclass
class ShortHeaderPacket:
    """A QUIC short-header (1-RTT) packet.

    The DCID here is the server-chosen ``DstConnID*`` — the field that
    carries Snatch's transport-layer semantic cookie.
    """

    dcid: ConnectionID
    payload: bytes = b""
    spin_bit: bool = False

    def __post_init__(self):
        if len(self.dcid) != SNATCH_DCID_LENGTH:
            raise ValueError(
                "Snatch short-header DCID must be %d bytes, got %d"
                % (SNATCH_DCID_LENGTH, len(self.dcid))
            )

    def encode(self) -> bytes:
        first = _FIXED_BIT | (0x20 if self.spin_bit else 0x00)
        return bytes([first]) + bytes(self.dcid) + self.payload

    @property
    def is_long_header(self) -> bool:
        return False


def parse_packet(data: bytes):
    """Parse a wire-format QUIC packet into a header dataclass.

    Mirrors what a P4 parser does: inspect the form bit, then extract
    the connection IDs at fixed or length-prefixed offsets.
    """
    if not data:
        raise ValueError("empty QUIC packet")
    first = data[0]
    if not first & _FIXED_BIT:
        raise ValueError("fixed bit not set: not a QUIC v1 packet")
    if first & _FORM_LONG:
        return _parse_long(data)
    return _parse_short(data)


def _parse_long(data: bytes) -> LongHeaderPacket:
    if len(data) < 7:
        raise ValueError("truncated long header")
    packet_type = PacketType((data[0] >> 4) & 0x3)
    version = int.from_bytes(data[1:5], "big")
    offset = 5
    dcid_len = data[offset]
    offset += 1
    if dcid_len > MAX_CONNECTION_ID_BYTES:
        raise ValueError("DCID length %d exceeds 20" % dcid_len)
    if offset + dcid_len > len(data):
        raise ValueError("truncated DCID")
    dcid = ConnectionID(data[offset:offset + dcid_len])
    offset += dcid_len
    if offset >= len(data):
        raise ValueError("truncated SCID length")
    scid_len = data[offset]
    offset += 1
    if scid_len > MAX_CONNECTION_ID_BYTES:
        raise ValueError("SCID length %d exceeds 20" % scid_len)
    if offset + scid_len > len(data):
        raise ValueError("truncated SCID")
    scid = ConnectionID(data[offset:offset + scid_len])
    offset += scid_len
    length, offset = decode_varint(data, offset)
    payload = data[offset:offset + length]
    if len(payload) != length:
        raise ValueError(
            "truncated payload: declared %d, got %d" % (length, len(payload))
        )
    return LongHeaderPacket(
        packet_type=packet_type,
        dcid=dcid,
        scid=scid,
        payload=payload,
        version=version,
    )


def _parse_short(data: bytes) -> ShortHeaderPacket:
    if len(data) < 1 + SNATCH_DCID_LENGTH:
        raise ValueError("truncated short header")
    spin = bool(data[0] & 0x20)
    dcid = ConnectionID(data[1:1 + SNATCH_DCID_LENGTH])
    payload = data[1 + SNATCH_DCID_LENGTH:]
    return ShortHeaderPacket(dcid=dcid, payload=payload, spin_bit=spin)
