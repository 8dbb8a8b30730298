"""QUIC packet headers as in-memory handshake records (RFC 9000
section 17).

The handshake state machines of :mod:`repro.quic.connection` exchange
these records; nothing encodes or parses them.  On the wire, the
LarkSwitch's P4-style parser (:func:`repro.switch.parser.snatch_parser`)
is the one thing that turns packet bytes into a destination connection
ID, where the transport-layer semantic cookie lives.

* **Long header** — used during the handshake (Initial / 0-RTT /
  Handshake packet types).  Carries explicit DCID/SCID lengths.
* **Short header** — used post-handshake (1-RTT packets).  Carries the
  DCID with *implicit* length; Snatch fixes the DCID length at 20 bytes
  so switches can parse it statelessly, exactly as the paper's prototype
  does with its fixed cookie layout.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.quic.connection_id import ConnectionID

__all__ = [
    "PacketType",
    "LongHeaderPacket",
    "ShortHeaderPacket",
    "QUIC_VERSION",
    "SNATCH_DCID_LENGTH",
]

QUIC_VERSION = 0x00000001  # QUIC v1
SNATCH_DCID_LENGTH = 20  # Fixed so switches can parse short headers.


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

