"""Custom aggregation packet (paper Appendix B.3, Figure 8).

LarkSwitches and edge servers carry early-forwarded cookies or
pre-processed statistics to the AggSwitch in a custom UDP payload:

    [ 16-bit SID | 16-bit summary | data-stack ... ]

* **SID** — a magic identifier distinguishing aggregation packets from
  regular UDP;
* **summary** — 8-bit application-ID plus an 8-bit item count
  (sub-cookies for per-packet forwarding, statistics entries for
  periodical forwarding);
* **data-stack** — the items; everything after the application-ID is
  AES-128 encrypted.

The packet rides plain UDP: Appendix B.3 argues the <0.01 % WAN loss
is an acceptable price for skipping retransmission state on switches.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.crypto.aes import AES, decrypt_cbc, encrypt_cbc_many

__all__ = [
    "AggregationPacket",
    "AggregationCodec",
    "SNATCH_SID",
    "ForwardingMode",
    "unpack_items",
]

SNATCH_SID = 0x5A4E  # "ZN" — the magic identifier
_MAX_ITEMS = 255


class ForwardingMode:
    PER_PACKET = "per_packet"
    PERIODICAL = "periodical"


@dataclass
class AggregationPacket:
    """Decoded aggregation packet."""

    app_id: int
    mode: str
    items: List[Tuple[int, int]]  # (tag, value) pairs
    source: str = ""

    @property
    def item_count(self) -> int:
        return len(self.items)


def unpack_items(body: bytes) -> List[Tuple[int, int]]:
    """The (tag, value) items of a decrypted data-stack, in wire order."""
    if len(body) % 8 != 0:
        raise ValueError("corrupt data-stack length %d" % len(body))
    stack = int.from_bytes(body, "big")
    items: List[Tuple[int, int]] = []
    for shift in range(len(body) * 8 - 64, -1, -64):
        item = stack >> shift
        items.append((item >> 48 & 0xFFFF, item & 0xFFFFFFFFFFFF))
    return items


class AggregationCodec:
    """Wire codec for aggregation packets of one application."""

    def __init__(
        self,
        app_id: int,
        key: bytes,
        rng: Optional[random.Random] = None,
    ):
        if not 0 <= app_id <= 0xFF:
            raise ValueError("application-ID must fit one byte")
        self.app_id = app_id
        self._key = key
        # Schedule the key once; en/decode run per packet.
        self._aes = AES(key)
        self._rng = rng or random.Random()

    def _serialise(self, packet: AggregationPacket) -> Tuple[bytes, bytes]:
        """Validate ``packet``; return its plaintext header and the
        data-stack to encrypt."""
        if packet.app_id != self.app_id:
            raise ValueError("packet app-ID does not match codec")
        if len(packet.items) > _MAX_ITEMS:
            raise ValueError("too many items: %d" % len(packet.items))
        # Summary byte: mode flag in the top bit, item count in the low 7.
        if len(packet.items) > 127:
            raise ValueError("item count must fit 7 bits with the mode flag")
        mode_bit = 0x80 if packet.mode == ForwardingMode.PERIODICAL else 0x00
        count = len(packet.items) | mode_bit
        # The data-stack is one big-endian integer of 64-bit items.
        stack = 0
        for tag, value in packet.items:
            if not 0 <= tag <= 0xFFFF:
                raise ValueError("item tag %d does not fit 16 bits" % tag)
            if not 0 <= value < (1 << 48):
                raise ValueError("item value %d does not fit 48 bits" % value)
            stack = stack << 64 | tag << 48 | value
        header = SNATCH_SID.to_bytes(2, "big") + bytes([self.app_id, count])
        return header, stack.to_bytes(8 * len(packet.items), "big")

    def draw_iv(self) -> bytes:
        """The next CBC IV from the codec's RNG: the top byte of each
        of sixteen 32-bit Mersenne Twister words — the bytes, and the
        generator state afterwards, of sixteen ``getrandbits(8)``
        calls, drawn in one."""
        return self._rng.getrandbits(512).to_bytes(64, "little")[3::4]

    def encode_many(
        self,
        packets: Sequence[AggregationPacket],
        ivs: Optional[Sequence[bytes]] = None,
    ) -> List[bytes]:
        """Encode ``packets`` with one batched CBC pass; byte for byte
        ``[encode(p) for p in packets]``.

        Every packet is validated before any IV is drawn; a packet
        object that occurs several times is serialised once.  A caller
        whose RNG is shared with other codecs (the LarkSwitch) draws
        the IVs itself, in its global packet order, and passes ``ivs``.
        """
        serialised: Dict[int, Tuple[bytes, bytes]] = {}
        parts: List[Tuple[bytes, bytes]] = []
        for packet in packets:
            part = serialised.get(id(packet))
            if part is None:
                part = serialised[id(packet)] = self._serialise(packet)
            parts.append(part)
        if ivs is None:
            ivs = [self.draw_iv() for _ in packets]
        encrypted = encrypt_cbc_many(
            self._aes, ivs, [body for _, body in parts]
        )
        return [
            header + iv + data
            for (header, _), iv, data in zip(parts, ivs, encrypted)
        ]

    def encode(self, packet: AggregationPacket) -> bytes:
        return self.encode_many([packet])[0]

    @property
    def aes(self) -> AES:
        """The scheduled AES-128 cipher (the columnar AggSwitch path
        decrypts many payload bodies through it in one batched pass)."""
        return self._aes

    def check_header(self, data: bytes) -> None:
        """Validate the plaintext header (length, SID, app-ID); raises
        the same errors as :meth:`decode`."""
        if len(data) < 4 + 16 + 16:
            raise ValueError("aggregation packet too short")
        sid = int.from_bytes(data[0:2], "big")
        if sid != SNATCH_SID:
            raise ValueError("SID mismatch: not an aggregation packet")
        app_id = data[2]
        if app_id != self.app_id:
            raise ValueError(
                "application-ID mismatch: packet %d, codec %d"
                % (app_id, self.app_id)
            )

    def packet_from_body(
        self, body: bytes, count_byte: int
    ) -> AggregationPacket:
        """Parse an already-decrypted data-stack (the post-AES half of
        :meth:`decode`)."""
        mode = (
            ForwardingMode.PERIODICAL
            if count_byte & 0x80
            else ForwardingMode.PER_PACKET
        )
        declared = count_byte & 0x7F
        items = unpack_items(body)
        if len(items) != declared:
            raise ValueError(
                "item count mismatch: declared %d, decoded %d"
                % (declared, len(items))
            )
        return AggregationPacket(app_id=self.app_id, mode=mode, items=items)

    def decode(self, data: bytes) -> AggregationPacket:
        self.check_header(data)
        body = decrypt_cbc(self._aes, data[4:20], data[20:])
        return self.packet_from_body(body, data[3])

    @staticmethod
    def is_aggregation_packet(data: bytes) -> bool:
        """The AggSwitch's first-stage match on the SID field."""
        return len(data) >= 2 and int.from_bytes(data[0:2], "big") == SNATCH_SID
