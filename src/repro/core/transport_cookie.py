"""Transport-layer semantic cookies in the QUIC connection ID.

Paper Figure 3 splits the up-to-160-bit ``DstConnID*`` into:

    [ 8-bit DCID | 8-bit application-ID | bitmap | cookie-stack | DCID-R2 ]

with everything after the application-ID encrypted with AES-128.  Our
concrete layout fixes the encrypted region to exactly one AES block so
a switch decrypts with a single table-based AES pass [45]:

    byte 0      : DCID (random, connection identification)
    byte 1      : application-ID (plaintext so the LarkSwitch's
                  match-action table can recognize Snatch packets)
    bytes 2..17 : AES-128-ECB(block) where block = bitmap || cookie-stack
                  || random padding
    bytes 18..19: DCID-R2 (random)

The Snatch 1-RTT client policy preserves bytes [1, 18) across
connections and regenerates bytes 0 and 18-19, so decryption cannot
depend on the regenerated bits — hence ECB over the self-contained
block rather than a DCID-derived CTR nonce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.crypto.aes import AES
from repro.quic.connection_id import ConnectionID, MAX_CONNECTION_ID_BYTES
from repro.core.schema import CookieSchema, FeatureValueError

__all__ = [
    "TransportCookieCodec",
    "DecodedTransportCookie",
    "COOKIE_BYTE_START",
    "COOKIE_BYTE_END",
    "COOKIE_BLOCK_START",
    "APP_ID_BYTE_INDEX",
]

APP_ID_BYTE_INDEX = 1
COOKIE_BYTE_START = 1   # app-ID byte (kept across connections)
COOKIE_BLOCK_START = 2  # first encrypted byte (columnar decode slices here)
_BLOCK_START = COOKIE_BLOCK_START
_BLOCK_END = 18
COOKIE_BYTE_END = _BLOCK_END  # end of the preserved region


class _BitWriter:
    def __init__(self):
        self._bits = []

    def write(self, value: int, width: int) -> None:
        if value < 0 or value >= (1 << width):
            raise ValueError("value %d does not fit %d bits" % (value, width))
        for i in range(width - 1, -1, -1):
            self._bits.append((value >> i) & 1)

    def to_bytes(self, total_bytes: int, rng: random.Random) -> bytes:
        bits = list(self._bits)
        if len(bits) > total_bytes * 8:
            raise ValueError("bit overflow: %d bits" % len(bits))
        while len(bits) < total_bytes * 8:
            bits.append(rng.getrandbits(1))  # random padding
        out = bytearray()
        for i in range(0, len(bits), 8):
            byte = 0
            for bit in bits[i:i + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)


class _BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def read(self, width: int) -> int:
        if self._pos + width > len(self._data) * 8:
            raise ValueError("bit underflow")
        value = 0
        for _ in range(width):
            byte = self._data[self._pos // 8]
            bit = (byte >> (7 - self._pos % 8)) & 1
            value = (value << 1) | bit
            self._pos += 1
        return value


@dataclass
class DecodedTransportCookie:
    """Result of decoding a semantic connection ID."""

    app_id: int
    values: Dict[str, Any]

    def present(self, name: str) -> bool:
        return name in self.values


class TransportCookieCodec:
    """Encode/decode semantic cookies for one application.

    Holds the application-ID byte, the schema (bitmap/stack format) and
    the AES-128 key — exactly the parameters the controller installs in
    LarkSwitch/AggSwitch table entries (section 4.1).
    """

    def __init__(
        self,
        app_id: int,
        schema: CookieSchema,
        key: bytes,
        rng: Optional[random.Random] = None,
    ):
        if not 0 <= app_id <= 0xFF:
            raise ValueError("application-ID must fit one byte")
        if not schema.fits_transport():
            raise ValueError(
                "schema needs %d bits but the transport cookie holds 128"
                % schema.total_bits
            )
        self.app_id = app_id
        self.schema = schema
        self._aes = AES(key)
        self._rng = rng or random.Random()
        self._app_byte = bytes([app_id])
        # Decode plan: per-feature (name, width, mask, decoder fields)
        # precomputed once so the per-packet parse is pure integer
        # shifts with no attribute or property traffic.
        self._decode_plan = tuple(
            (
                f.name,
                f.bits,
                (1 << f.bits) - 1,
                f.cardinality,
                f.classes if f.ftype == "class" else None,
                f.min_value,
                f,
            )
            for f in schema.features
        )

    # -- encoding ------------------------------------------------------------

    def encode_block(self, values: Dict[str, Any]) -> bytes:
        """The 16-byte *plaintext* cookie block for ``values``: presence
        bitmap, cookie stack, random bit padding.  Split out of
        :meth:`encode` so the client-side encode cache can encrypt many
        unique blocks in one batched AES pass."""
        unknown = set(values) - set(self.schema.feature_names())
        if unknown:
            raise FeatureValueError(
                "values for features outside the schema: %s" % sorted(unknown)
            )
        writer = _BitWriter()
        for feature in self.schema.features:
            writer.write(1 if feature.name in values else 0, 1)
        for feature in self.schema.features:
            if feature.name in values:
                writer.write(
                    feature.encode_value(values[feature.name]), feature.bits
                )
        return writer.to_bytes(16, self._rng)

    def encode_blocks_many(self, values_list) -> "list[bytes]":
        """Plaintext cookie blocks for many value dicts at once.

        Semantically equivalent to ``[self.encode_block(v) for v in
        values_list]`` — identical bitmap and cookie-stack bits, same
        validation errors, one padding draw per block in list order —
        but packs each block as a single big integer instead of a
        per-bit ``_BitWriter`` pass, and draws the random padding with
        one ``getrandbits(pad_bits)`` call rather than bit by bit.
        (Padding is random filler that no decoder reads, so the draw
        granularity is not observable in decoded values; callers that
        need the scalar path's exact RNG stream should keep calling
        :meth:`encode_block`.)
        """
        features = self.schema.features
        known = set(self.schema.feature_names())
        rng = self._rng
        out = []
        for values in values_list:
            unknown = set(values) - known
            if unknown:
                raise FeatureValueError(
                    "values for features outside the schema: %s"
                    % sorted(unknown)
                )
            acc = 0
            bits = 0
            for feature in features:
                acc = (acc << 1) | (1 if feature.name in values else 0)
            bits = len(features)
            for feature in features:
                if feature.name in values:
                    wire = feature.encode_value(values[feature.name])
                    if wire < 0 or wire >= (1 << feature.bits):
                        raise ValueError(
                            "value %d does not fit %d bits"
                            % (wire, feature.bits)
                        )
                    acc = (acc << feature.bits) | wire
                    bits += feature.bits
            pad = 128 - bits
            if pad:
                acc = (acc << pad) | rng.getrandbits(pad)
            out.append(acc.to_bytes(16, "big"))
        return out

    def assemble(self, encrypted_block: bytes) -> ConnectionID:
        """Wrap an already-encrypted cookie block into a full 20-byte
        connection ID, drawing fresh DCID (byte 0) and DCID-R2 (bytes
        18-19) — the bytes the Snatch client policy regenerates per
        connection while preserving the cookie region."""
        if len(encrypted_block) != 16:
            raise ValueError(
                "encrypted cookie block must be 16 bytes, got %d"
                % len(encrypted_block)
            )
        rng = self._rng
        dcid = bytes([rng.getrandbits(8)])
        dcid_r2 = bytes([rng.getrandbits(8), rng.getrandbits(8)])
        return ConnectionID(
            dcid + self._app_byte + encrypted_block + dcid_r2
        )

    def encode(self, values: Dict[str, Any]) -> ConnectionID:
        """Build a 20-byte semantic connection ID carrying ``values``
        (a subset of the schema's features; absent ones clear their
        bitmap bit)."""
        return self.assemble(
            self._aes.encrypt_block(self.encode_block(values))
        )

    # -- decoding -------------------------------------------------------------

    def matches(self, cid: ConnectionID) -> bool:
        """The LarkSwitch's table match: app-ID byte comparison."""
        return (
            len(cid) == MAX_CONNECTION_ID_BYTES
            and bytes(cid)[APP_ID_BYTE_INDEX] == self.app_id
        )

    @property
    def rng(self) -> random.Random:
        """The padding/DCID RNG (the encode cache preserves it across
        rekeys so a rekeyed codec continues the same draw stream)."""
        return self._rng

    @property
    def aes(self) -> AES:
        """The scheduled AES-128 cipher (the columnar data plane
        decrypts many cookie blocks through it in one batched pass)."""
        return self._aes

    def _parse_block(
        self, block: bytes
    ) -> Tuple[Dict[str, Any], Tuple[int, ...]]:
        """Feature values and wire row of one decrypted cookie block.

        Same bit layout, ``ValueError("bit underflow")`` on truncated
        blocks and :class:`FeatureValueError` on out-of-range wire
        values as a per-bit ``_BitReader`` walk, but reads the whole
        block as one big integer and extracts each field with a shift
        and a mask.
        """
        plan = self._decode_plan
        total = len(block) * 8
        n = len(plan)
        if n > total:
            raise ValueError("bit underflow")
        acc = int.from_bytes(block, "big")
        bitmap = acc >> (total - n)
        values: Dict[str, Any] = {}
        row = [-1] * n
        pos = n
        for i, (name, width, mask, card, classes, min_value, feature) in (
            enumerate(plan)
        ):
            if not (bitmap >> (n - 1 - i)) & 1:
                continue
            pos += width
            if pos > total:
                raise ValueError("bit underflow")
            wire = (acc >> (total - pos)) & mask
            if wire >= card:
                # Delegate for the exact FeatureValueError message.
                feature.decode_value(wire)
            row[i] = wire
            values[name] = (
                classes[wire] if classes is not None else wire + min_value
            )
        return values, tuple(row)

    def values_from_block(self, block: bytes) -> Dict[str, Any]:
        """Parse an already-decrypted cookie block into feature values
        (the post-AES half of :meth:`decode`; raises on malformed
        bitmaps or out-of-range wire values)."""
        return self._parse_block(block)[0]

    def rows_from_blocks(
        self, blocks
    ) -> "list[Optional[Tuple[Dict[str, Any], Tuple[int, ...]]]]":
        """Batch form of :meth:`values_from_block`: per decrypted block
        ``(values, wire row)``, or ``None`` where the scalar form
        raises.  The **wire row** holds one int per schema feature in
        schema order — the feature's wire integer, ``-1`` when its
        bitmap bit is clear — i.e. ``feature.encode_value(values[name])``
        without the round trip through the decoded value; it is what
        the switch's integer-only fold indexes its registers with."""
        parse = self._parse_block
        out = []
        for block in blocks:
            try:
                out.append(parse(bytes(block)))
            except (ValueError, FeatureValueError):
                out.append(None)
        return out

    def decode(self, cid: ConnectionID) -> DecodedTransportCookie:
        if len(cid) != MAX_CONNECTION_ID_BYTES:
            raise ValueError(
                "semantic connection ID must be 20 bytes, got %d" % len(cid)
            )
        raw = bytes(cid)
        if raw[APP_ID_BYTE_INDEX] != self.app_id:
            raise ValueError(
                "application-ID mismatch: packet %d, codec %d"
                % (raw[APP_ID_BYTE_INDEX], self.app_id)
            )
        block = self._aes.decrypt_block(raw[_BLOCK_START:_BLOCK_END])
        values = self.values_from_block(block)
        return DecodedTransportCookie(app_id=self.app_id, values=values)

    def try_decode(
        self, cid: ConnectionID
    ) -> Optional[DecodedTransportCookie]:
        """Decode if the app-ID matches; None otherwise (a non-Snatch
        QUIC packet passes through untouched)."""
        if not self.matches(cid):
            return None
        try:
            return self.decode(cid)
        except (ValueError, FeatureValueError):
            # Malformed or stale-key cookie: Snatch aborts the data.
            return None
