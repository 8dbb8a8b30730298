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

from repro.crypto.aes import (
    AES,
    decrypt_cbc,
    encrypt_cbc_many,
    encrypt_cbc_matrix,
    pkcs7_pad_matrix,
)
from repro.switch.columns import VECTOR_MIN_ROWS, get_numpy, row_matrix

__all__ = [
    "AggregationPacket",
    "AggregationCodec",
    "SNATCH_SID",
    "ForwardingMode",
    "check_per_packet_schema",
    "unpack_items",
]

SNATCH_SID = 0x5A4E  # "ZN" — the magic identifier
_MAX_ITEMS = 255
# The summary byte's top bit is the mode flag; an item value has 48 bits.
_MAX_COUNTED_ITEMS = 127
_VALUE_BITS = 48


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


def check_per_packet_schema(cardinalities: Sequence[int]) -> None:
    """Raise ``ValueError`` unless every cookie of a schema whose
    features have these cardinalities fits one per-packet aggregation
    packet: an item per feature under the 7-bit count, every wire
    integer inside an item's 48-bit value."""
    if len(cardinalities) > _MAX_COUNTED_ITEMS:
        raise ValueError(
            "%d features exceed the %d items a per-packet aggregation "
            "packet can count" % (len(cardinalities), _MAX_COUNTED_ITEMS)
        )
    for index, cardinality in enumerate(cardinalities):
        if cardinality > 1 << _VALUE_BITS:
            raise ValueError(
                "feature %d has %d values; a per-packet aggregation "
                "item carries %d bits" % (index, cardinality, _VALUE_BITS)
            )


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
        if len(packet.items) > _MAX_COUNTED_ITEMS:
            raise ValueError("item count must fit 7 bits with the mode flag")
        mode_bit = 0x80 if packet.mode == ForwardingMode.PERIODICAL else 0x00
        count = len(packet.items) | mode_bit
        # The data-stack is one big-endian integer of 64-bit items.
        stack = 0
        for tag, value in packet.items:
            if not 0 <= tag <= 0xFFFF:
                raise ValueError("item tag %d does not fit 16 bits" % tag)
            if not 0 <= value < (1 << _VALUE_BITS):
                raise ValueError("item value %d does not fit 48 bits" % value)
            stack = stack << 64 | tag << 48 | value
        header = SNATCH_SID.to_bytes(2, "big") + bytes([self.app_id, count])
        return header, stack.to_bytes(8 * len(packet.items), "big")

    def draw_ivs(self, count: int) -> bytes:
        """The next ``count`` CBC IVs from the codec's RNG, end to end:
        the top byte of each of ``16 * count`` 32-bit Mersenne Twister
        words (a long draw is filled from its lowest word up) — the
        bytes, and the generator state afterwards, of ``16 * count``
        ``getrandbits(8)`` calls, drawn in one."""
        if count == 0:
            return b""
        return self._rng.getrandbits(512 * count).to_bytes(
            64 * count, "little"
        )[3::4]

    def draw_iv(self) -> bytes:
        return self.draw_ivs(1)

    def seal_rows(
        self,
        rows: Sequence[Tuple[int, ...]],
        groups: Sequence[int],
        ivs: bytes,
    ) -> List[bytes]:
        """Per-packet payloads straight from wire rows: payload ``k``
        carries the present features of ``rows[groups[k]]`` as
        ``(feature index, wire integer)`` items under the IV
        ``ivs[16 * k:16 * k + 16]`` — byte for byte :meth:`encode` of
        that :class:`AggregationPacket`, which is never built.  The
        rows' schema passed :func:`check_per_packet_schema`, so no
        wire integer is range-checked.  From ``VECTOR_MIN_ROWS``
        payloads up, with numpy on, the items are one
        ``index << 48 | wire`` matrix whose big-endian bytes are the
        data-stacks; below, one big-int pack per unique row.
        """
        count = len(groups)
        if len(ivs) != 16 * count:
            raise ValueError("need one 16-byte IV per payload")
        if rows and len(rows[0]) > _MAX_COUNTED_ITEMS:
            raise ValueError("too many items: %d" % len(rows[0]))
        head = SNATCH_SID.to_bytes(2, "big") + bytes([self.app_id])
        np = get_numpy() if count >= VECTOR_MIN_ROWS else None
        if np is None:
            packed: List[Tuple[bytes, bytes]] = []
            for row in rows:
                stack = items = 0
                for index, wire in enumerate(row):
                    if wire >= 0:
                        stack = stack << 64 | index << _VALUE_BITS | wire
                        items += 1
                packed.append(
                    (head + bytes([items]), stack.to_bytes(8 * items, "big"))
                )
            cut = [ivs[at:at + 16] for at in range(0, 16 * count, 16)]
            encrypted = encrypt_cbc_many(
                self._aes, cut, [packed[group][1] for group in groups]
            )
            return [
                packed[group][0] + iv + data
                for group, iv, data in zip(groups, cut, encrypted)
            ]
        width = len(rows[0])
        matrix = row_matrix(np, rows, width)
        present = matrix >= 0
        item_counts = present.sum(axis=1)
        items = matrix | np.arange(width, dtype=np.int64) << _VALUE_BITS
        if int(item_counts.min()) < width:
            # A clear bitmap bit somewhere: present items to the front
            # of their row, in feature order.
            items = np.take_along_axis(
                items, np.argsort(~present, axis=1, kind="stable"), axis=1
            )
        plain, sizes = pkcs7_pad_matrix(
            items.astype(">u8").view(np.uint8), 8 * item_counts
        )
        pick = np.array(groups)
        iv_rows = np.frombuffer(ivs, dtype=np.uint8).reshape(count, 16)
        stride = 20 + plain.shape[1]
        out = np.empty((count, stride), dtype=np.uint8)
        out[:, :3] = np.frombuffer(head, dtype=np.uint8)
        out[:, 3] = item_counts[pick]
        out[:, 4:20] = iv_rows
        out[:, 20:] = encrypt_cbc_matrix(
            self._aes, iv_rows, plain[pick], sizes[pick] // 16
        )
        flat = out.tobytes()
        return [
            flat[at:at + 20 + size]
            for at, size in zip(
                range(0, count * stride, stride), sizes[pick].tolist()
            )
        ]

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
