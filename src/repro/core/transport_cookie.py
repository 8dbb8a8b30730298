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
from itertools import chain, repeat
from operator import or_
from typing import Any, Dict, Optional, Tuple

from repro.crypto.aes import AES, encrypt_blocks_many
from repro.quic.connection_id import ConnectionID, MAX_CONNECTION_ID_BYTES
from repro.core.schema import CookieSchema, FeatureValueError
from repro.switch.columns import get_numpy

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

# Batches with fewer rows take the Python form of the two row kernels
# (pack_rows / rows_from_blocks) even with the numpy gate open: the
# numpy forms are ~30 ufunc calls whatever the batch, about 30-45 us a
# call.  Measured on the ad-campaign schema (5 features, 17 bits),
# us/row, best of 600 alternating runs on the recorded 2-vCPU host;
# the pack's numpy form fed a list of rows and fed the same rows as an
# int64 matrix (what AdCampaignWorkload.cookie_rows returns from this
# many rows up):
#
#     rows   pack py / numpy / matrix   parse py / numpy
#       16     1.36 / 3.17 / 2.49         0.96 / 2.38
#       32     1.20 / 1.90 / 1.41         0.87 / 1.35
#       48     1.18 / 1.51 / 1.03         0.85 / 0.99
#       64     1.20 / 1.38 / 0.87         0.85 / 0.87
#       96     1.15 / 1.09 / 0.67         0.83 / 0.66
#      256     1.09 / 0.79 / 0.43         0.80 / 0.43
#      880     1.03 / 0.68 / 0.32         0.79 / 0.37
#
# (the value-dict path these replaced: pack 3.0-3.3, parse 1.7-1.9).
# With the matrix, the pack's crossover is near 48 rows once the
# gather is counted (0.27 against the list build's 0.16 us/row at 48
# rows, 0.24 / 0.15 at 64): a tie there.  The parse's stays at 64, so
# the one cut stays 64.  Higher than switch.columns.VECTOR_MIN_ROWS
# (16) because those kernels are a handful of numpy calls each, not
# thirty.
ROW_KERNEL_MIN_ROWS = 64


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
        # Row plan: per feature (bitmap bit, width, mask, cardinality,
        # feature), precomputed once so the row kernels' Python forms
        # are pure integer shifts with no attribute traffic.
        n = len(schema.features)
        self._row_plan = tuple(
            (1 << (n - 1 - i), f.bits, (1 << f.bits) - 1, f.cardinality, f)
            for i, f in enumerate(schema.features)
        )
        # The numpy forms hold wires as int64 (and wire + 1 must not
        # wrap) and shift uint64 words; a wider field takes the Python
        # forms at every batch size.
        self._rows_fit_int64 = all(f.bits <= 62 for f in schema.features)
        self._np_plan = None

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

    def rows_from_values(self, values_list) -> "list[Tuple[int, ...]]":
        """Wire rows for many value dicts: ``validate_values`` per dict
        (same :class:`FeatureValueError` as :meth:`encode_block` for a
        value outside its range or a name outside the schema), absent
        features ``-1``."""
        names = self.schema.feature_names()
        known = set(names)
        validate = self.schema.validate_values
        rows = []
        for values in values_list:
            unknown = set(values) - known
            if unknown:
                raise FeatureValueError(
                    "values for features outside the schema: %s"
                    % sorted(unknown)
                )
            wires = validate(values)
            rows.append(tuple([wires.get(name, -1) for name in names]))
        return rows

    def pack_rows(self, rows) -> "list[bytes]":
        """The 16-byte plaintext block per **wire row** — one plain
        ``int`` per schema feature in schema order, the feature's wire
        integer or ``-1`` when absent — the integers a web server holds
        before any cookie exists, packed as the paper's bitmap ||
        cookie-stack || random padding.  ``rows`` is a list of rows or
        one ``(m, F)`` int64 matrix of them (the matrix's dtype stands
        in for the per-int type check).

        The whole batch is checked before anything is drawn: a row of
        the wrong width, a non-``int`` (``bool`` included; for a matrix,
        a dtype other than int64) or a wire outside ``[-1,
        cardinality)`` raises and leaves the RNG alone.  Padding is
        then one ``getrandbits(pad_bits)`` per row in row order, in the
        numpy form and the Python form alike.
        """
        packed = self._pack(rows)
        if isinstance(packed, list):
            return packed
        flat = packed.tobytes()
        return [flat[i:i + 16] for i in range(0, len(flat), 16)]

    def encrypt_rows(self, rows):
        """The *encrypted* cookie block per wire row: :meth:`pack_rows`,
        then AES under the codec key.  With the numpy gate open the
        blocks come back as one ``(m, 16)`` uint8 matrix, the AES
        pass's own output (the numpy pack's words go into it without a
        cut); with it closed, as a list of 16-byte strings.  Same
        checks, draws and bytes as ``encrypt_blocks_many(aes,
        pack_rows(rows))``."""
        packed = self._pack(rows)
        if not isinstance(packed, list):
            packed = packed.view("uint8")
        return encrypt_blocks_many(self._aes, packed, as_matrix=True)

    def _pack(self, rows):
        """The body of :meth:`pack_rows`: the blocks as a list of bytes
        (Python form) or as one ``(m, 2)`` big-endian ``uint64`` word
        matrix (numpy form)."""
        width = len(self._row_plan)
        if hasattr(rows, "dtype"):
            if rows.ndim != 2 or rows.shape[1] != width:
                raise ValueError(
                    "a wire matrix needs %d columns, one per schema "
                    "feature" % width
                )
            if rows.dtype != "int64":
                raise FeatureValueError("a wire matrix holds int64")
            matrix = rows
            np = self._row_kernels(len(matrix))
            if np is None:
                return self._pack_rows_py(matrix.tolist())
        else:
            rows = rows if isinstance(rows, list) else list(rows)
            if not rows:
                return []
            if set(map(len, rows)) != {width}:
                raise ValueError(
                    "every wire row needs %d entries, one per schema "
                    "feature" % width
                )
            flat = list(chain.from_iterable(rows))
            if set(map(type, flat)) != {int}:
                raise FeatureValueError("wire rows hold plain ints")
            np = self._row_kernels(len(rows))
            if np is None:
                return self._pack_rows_py(rows)
            try:
                matrix = np.fromiter(
                    flat, dtype=np.int64, count=len(flat)
                ).reshape(-1, width)
            except OverflowError:
                # A wire past int64: the Python form names it.
                return self._pack_rows_py(rows)
        hi, lo, pads = self._pack_heads_np(np, matrix)
        padding = np.frombuffer(
            b"".join(map(
                int.to_bytes,
                map(self._rng.getrandbits, pads),
                repeat(16),
                repeat("big"),
            )),
            dtype=">u8",
        ).reshape(len(matrix), 2)
        words = np.empty((len(matrix), 2), dtype=">u8")
        words[:, 0] = hi | padding[:, 0]
        words[:, 1] = lo | padding[:, 1]
        return words

    def _pack_rows_py(self, rows) -> "list[bytes]":
        plan = self._row_plan
        top = 128 - len(plan)
        heads = []
        pads = []
        for row in rows:
            bitmap = 0
            stack = 0
            pad = top
            for wire, (bit, width, _mask, card, feature) in zip(row, plan):
                if 0 <= wire < card:
                    bitmap |= bit
                    stack = (stack << width) | wire
                    pad -= width
                elif wire != -1:
                    feature.decode_value(wire)  # raises, exact message
            heads.append(((bitmap << (top - pad)) | stack) << pad)
            pads.append(pad)
        # getrandbits(0) is 0 and draws nothing.
        return list(map(
            int.to_bytes,
            map(or_, heads, map(self._rng.getrandbits, pads)),
            repeat(16),
            repeat("big"),
        ))

    def _pack_heads_np(self, np, matrix):
        """numpy form of the pack up to the padding, from the rows'
        wires as one int64 matrix: per row the two ``uint64`` words of
        bitmap || stack and the number of padding bits below them."""
        widths, cards, _masks, bitmap_shifts = self._vector_plan(np)
        # One unsigned compare for both ends of [-1, cardinality).
        bad = (matrix + 1).view(np.uint64) > cards
        if bad.any():
            r, c = (int(x[0]) for x in np.nonzero(bad))
            self.schema.features[c].decode_value(int(matrix[r, c]))
        # Feature-major from here: every reduction below runs across
        # the F rows of contiguous columns, not along rows F wide.
        columns = np.ascontiguousarray(matrix.T)
        present = columns >= 0
        shift, low, within = self._field_shifts(
            np, present, widths[:, None], axis=0
        )
        value = np.maximum(columns, 0).astype(np.uint64)
        shifted = value << within
        # (value >> 1) >> (63 - s) is value >> (64 - s) without the
        # undefined 64-bit shift at s == 0.
        hi = np.where(low, (value >> 1) >> (63 - within), shifted)
        bitmap = present.astype(np.uint64) << bitmap_shifts[:, None]
        return (
            np.bitwise_or.reduce(hi, axis=0)
            | np.bitwise_or.reduce(bitmap, axis=0),
            np.bitwise_or.reduce(np.where(low, shifted, 0), axis=0),
            # Bits below the last field.
            shift[-1].tolist(),
        )

    # -- the row kernels' shared numpy plumbing ---------------------------------

    def _row_kernels(self, n: int):
        """numpy when ``n`` rows take the vectorized kernel forms."""
        if n >= ROW_KERNEL_MIN_ROWS and self._rows_fit_int64:
            return get_numpy()
        return None

    def _vector_plan(self, np):
        if self._np_plan is None:
            features = self.schema.features
            self._np_plan = (
                np.array([f.bits for f in features], dtype=np.int64),
                np.array([f.cardinality for f in features], dtype=np.uint64),
                np.array(
                    [(1 << f.bits) - 1 for f in features], dtype=np.uint64
                ),
                # Feature i's presence bit sits at bit 63 - i of the
                # high word (a schema has at most 64 features: each
                # costs a bitmap bit and at least one stack bit).
                np.arange(63, 63 - len(features), -1).astype(np.uint64),
            )
        return self._np_plan

    @staticmethod
    def _field_shifts(np, present, widths, axis=1):
        """Where each field sits in the 128-bit block, per row: the
        position of its lowest bit (bit 0 = the block's last bit; an
        absent field gets its predecessor's), whether that is in the
        low word, and the position within its word as a ``uint64``
        shift count.  A field may straddle the two words.  Features
        run along ``axis`` of ``present``; ``widths`` (one per
        feature) broadcasts against it."""
        shift = (128 - len(widths)) - np.cumsum(present * widths, axis=axis)
        return shift, shift < 64, (shift & 63).astype(np.uint64)

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

    def values_from_block(self, block: bytes) -> Dict[str, Any]:
        """Parse an already-decrypted cookie block into feature values
        (the post-AES half of :meth:`decode`, and the scalar reference
        of :meth:`rows_from_blocks`).

        Reads the whole block as one big integer and extracts each
        field with a shift and a mask: ``ValueError("bit underflow")``
        on a truncated block, :class:`FeatureValueError` on an
        out-of-range wire value.
        """
        plan = self._row_plan
        total = len(block) * 8
        n = len(plan)
        if n > total:
            raise ValueError("bit underflow")
        acc = int.from_bytes(block, "big")
        bitmap = acc >> (total - n)
        values: Dict[str, Any] = {}
        pos = n
        for bit, width, mask, _card, feature in plan:
            if not bitmap & bit:
                continue
            pos += width
            if pos > total:
                raise ValueError("bit underflow")
            values[feature.name] = feature.decode_value(
                (acc >> (total - pos)) & mask
            )
        return values

    def values_from_row(self, row) -> Dict[str, Any]:
        """Feature values of a wire row :meth:`rows_from_blocks`
        returned — what :meth:`values_from_block` gives for the same
        block."""
        return {
            feature.name: feature.decode_value(wire)
            for wire, feature in zip(row, self.schema.features)
            if wire >= 0
        }

    def rows_from_blocks(
        self, blocks
    ) -> "list[Optional[Tuple[int, ...]]]":
        """The **wire row** of each decrypted block — one int per
        schema feature in schema order, the feature's wire integer or
        ``-1`` when its bitmap bit is clear — or ``None`` where
        :meth:`values_from_block` raises (a wire at or past its
        feature's cardinality) or the element is not 16 bytes.  No
        value is decoded: the row is what the switch's integer-only
        fold indexes its registers with, and :meth:`values_from_row`
        renders it for whoever wants to read it."""
        blocks = blocks if isinstance(blocks, list) else list(blocks)
        if set(map(len, blocks)) - {16}:
            whole = [len(block) == 16 for block in blocks]
            parsed = iter(self.rows_from_blocks(
                [block for block, ok in zip(blocks, whole) if ok]
            ))
            return [next(parsed) if ok else None for ok in whole]
        np = self._row_kernels(len(blocks))
        if np is None:
            return self._rows_from_blocks_py(blocks)
        widths, cards, masks, bitmap_shifts = self._vector_plan(np)
        words = np.frombuffer(b"".join(blocks), dtype=">u8").reshape(-1, 2)
        hi = words[:, :1].astype(np.uint64)
        lo = words[:, 1:].astype(np.uint64)
        present = ((hi >> bitmap_shifts) & 1).astype(bool)
        _shift, low, within = self._field_shifts(np, present, widths)
        # (hi << 1) << (63 - s) is hi << (64 - s) without the
        # undefined 64-bit shift at s == 0.
        wire = np.where(
            low, (lo >> within) | ((hi << 1) << (63 - within)), hi >> within
        ) & masks
        rows = list(map(
            tuple, np.where(present, wire.astype(np.int64), -1).tolist()
        ))
        for i in np.flatnonzero(
            (present & (wire >= cards)).any(axis=1)
        ).tolist():
            rows[i] = None
        return rows

    def _rows_from_blocks_py(self, blocks):
        plan = self._row_plan
        top = 128 - len(plan)
        from_bytes = int.from_bytes
        out = []
        for block in blocks:
            acc = from_bytes(block, "big")
            bitmap = acc >> top
            pos = top
            row = []
            for bit, width, mask, card, _feature in plan:
                if bitmap & bit:
                    pos -= width
                    wire = (acc >> pos) & mask
                    if wire >= card:
                        break
                    row.append(wire)
                else:
                    row.append(-1)
            else:
                out.append(tuple(row))
                continue
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
