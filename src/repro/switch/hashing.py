"""Hash units of a programmable switch.

Tofino exposes CRC-based hash engines to index register arrays and
implement Bloom filters / sketches.  We implement CRC-32 (IEEE) from
scratch with table-driven reflection, matching the standard check
value.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.switch.columns import PacketColumns, get_numpy

__all__ = [
    "crc32",
    "crc32_many",
    "HashUnit",
]


def _make_crc32_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ 0xEDB88320
            else:
                crc >>= 1
        table.append(crc)
    return table


_CRC32_TABLE = _make_crc32_table()


def crc32(data: bytes) -> int:
    """CRC-32 (IEEE 802.3, reflected).  check('123456789')=0xCBF43926."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc = (crc >> 8) ^ _CRC32_TABLE[(crc ^ byte) & 0xFF]
    return crc ^ 0xFFFFFFFF


def _as_columns(rows) -> PacketColumns:
    return rows if isinstance(rows, PacketColumns) else PacketColumns(rows)


def crc32_many(
    rows, start: int = 0, stop: Optional[int] = None
) -> "Sequence[int]":
    """CRC-32 of ``row[start:stop]`` for every row of a batch (columnar
    kernel), identical to :func:`crc32` per row.

    ``rows`` is a :class:`PacketColumns` or a sequence of byte strings.
    The vectorized form uses the linearity of CRC-32 over GF(2): with
    every row right-aligned in the ``width``-wide key matrix, a row of
    length ``l`` hashes to ``C[l] ^ XOR_p T_p[byte at p]``, where
    ``C[l] = crc32(bytes(l))`` and ``T_p`` is the byte table advanced
    by ``width - 1 - p`` zero-byte steps (:func:`_position_tables`).
    That is one 256-entry gather per column; front padding adds nothing
    because ``T_p[0] = 0``, and bytes past a row's length are never
    read.  The ``[start, stop)`` region is hashed in place; only a
    ragged batch pays an alignment copy.  Returns an int64 array when
    numpy is on, else a plain list.
    """
    columns = _as_columns(rows)
    np = get_numpy()
    if np is None or not columns.vectorized:
        return [crc32(row[start:stop]) for row in columns.raw]
    stop = columns.max_len if stop is None else min(stop, columns.max_len)
    start = min(start, stop)
    width = stop - start
    data = columns.data[:, start:stop]
    lengths = np.clip(columns.lengths - start, 0, width)
    if (lengths != width).any():
        # Right-align: row i's window into [zeros | row] starts at its
        # length, so it ends on the row's last byte.
        padded = np.concatenate([np.zeros_like(data), data], axis=1)
        windows = np.lib.stride_tricks.sliding_window_view(
            padded, width, axis=1
        )
        data = windows[np.arange(columns.n), lengths]
    tables, zero_crcs = _position_tables(np, width)
    crc = zero_crcs[lengths]
    for p in range(width):
        crc ^= tables[width - 1 - p].take(data[:, p])
    return crc.astype(np.int64)


# Row k of _TABLES is the CRC-32 table advanced by k zero bytes: the
# contribution of a byte k positions before a row's last.  _ZERO_CRCS[l]
# is crc32(bytes(l)).  Both are rebuilt when a wider key arrives; the
# first build is _MIN_TABLES wide so that cookie regions, connection
# IDs and short payloads never trigger a second.
_TABLES = None
_ZERO_CRCS = None
_MIN_TABLES = 64


def _position_tables(np, width: int):
    """``(tables, zero_crcs)`` covering keys up to ``width`` bytes."""
    global _TABLES, _ZERO_CRCS
    if _TABLES is None or len(_TABLES) < width:
        size = max(width, _MIN_TABLES)
        tables = np.empty((size, 256), dtype=np.uint32)
        tables[0] = _CRC32_TABLE
        for k in range(1, size):
            # One zero-byte CRC step on all 256 lanes at once.
            prev = tables[k - 1]
            tables[k] = (prev >> 8) ^ tables[0][prev & 0xFF]
        zero = [0]
        state = 0xFFFFFFFF
        for _ in range(size):
            state = (state >> 8) ^ _CRC32_TABLE[state & 0xFF]
            zero.append(state ^ 0xFFFFFFFF)
        _TABLES, _ZERO_CRCS = tables, np.array(zero, dtype=np.uint32)
    return _TABLES, _ZERO_CRCS


class HashUnit:
    """A configurable hash engine bound to an output range.

    ``seed`` tweaks the polynomial input so multiple independent units
    can drive the rows of a Bloom filter or sketch.
    """

    def __init__(self, output_range: int, seed: int = 0):
        if output_range <= 0:
            raise ValueError("output_range must be positive")
        self.output_range = output_range
        self.seed = seed & 0xFFFFFFFF

    def hash(self, data: bytes) -> int:
        # CRC is linear in its input, so merely prefixing a seed yields
        # *correlated* hash rows: two keys that collide under one seed
        # collide under every seed, collapsing a k-hash Bloom filter to
        # a single hash.  Real switches use distinct CRC polynomials
        # per unit; we emulate that with a nonlinear per-seed finalizer
        # (odd-multiplier mix, as in splitmix/murmur finalizers).
        return self._mix(crc32(data))

    def mix_many(self, raw_crcs) -> "Sequence[int]":
        """Vectorized finalizer: map raw CRC values (one per row, from
        :func:`crc32_many`) to output indexes, bit-identical to
        :meth:`hash` per element."""
        np = get_numpy()
        if np is None or not hasattr(raw_crcs, "dtype"):
            return [self._mix(int(raw)) for raw in raw_crcs]
        # uint64 lanes so the 32x33-bit odd-multiplier products wrap
        # mod 2^64; masking to 32 bits afterwards matches Python's
        # arbitrary-precision result exactly (2^32 divides 2^64).
        mask32 = np.uint64(0xFFFFFFFF)
        mixed = (raw_crcs.astype(np.uint64) ^ np.uint64(self.seed)) & mask32
        mixed = (mixed * np.uint64(2 * self.seed + 0x9E3779B1)) & mask32
        mixed ^= mixed >> np.uint64(15)
        mixed = (mixed * np.uint64(0x85EBCA77)) & mask32
        mixed ^= mixed >> np.uint64(13)
        return (mixed % np.uint64(self.output_range)).astype(np.int64)

    def _mix(self, raw: int) -> int:
        mixed = (raw ^ self.seed) & 0xFFFFFFFF
        mixed = (mixed * (2 * self.seed + 0x9E3779B1)) & 0xFFFFFFFF
        mixed ^= mixed >> 15
        mixed = (mixed * 0x85EBCA77) & 0xFFFFFFFF
        mixed ^= mixed >> 13
        return mixed % self.output_range
