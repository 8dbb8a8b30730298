"""Hash units of a programmable switch.

Tofino exposes CRC-based hash engines to index register arrays and
implement Bloom filters / sketches.  We implement CRC-32 (IEEE) from
scratch with table-driven reflection, matching the standard check
value, plus an identity-fold hash used for direct indexing.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.switch.columns import PacketColumns, get_numpy

__all__ = [
    "crc32",
    "crc32_many",
    "fold_hash",
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


def crc32_many(rows) -> "Sequence[int]":
    """CRC-32 of every row of a batch (columnar kernel).

    ``rows`` is a :class:`PacketColumns` or a sequence of byte strings.
    The vectorized path walks byte *positions* (bounded by the longest
    row) and gathers the CRC table across all still-active rows at
    once; rows past their length stop updating, so variable lengths
    come out identical to :func:`crc32` per row.  Returns an int64
    array when numpy is on, else a plain list.
    """
    columns = _as_columns(rows)
    np = get_numpy()
    if np is None or not columns.vectorized:
        return [crc32(row) for row in columns.raw]
    table = _crc32_table_np()
    crc = np.full(columns.n, 0xFFFFFFFF, dtype=np.int64)
    lengths = columns.lengths
    data = columns.data
    for j in range(columns.max_len):
        active = lengths > j
        if not active.any():
            break
        lane = crc[active]
        crc[active] = (lane >> 8) ^ table[(lane ^ data[active, j]) & 0xFF]
    return crc ^ 0xFFFFFFFF


_CRC32_TABLE_NP = None


def _crc32_table_np():
    global _CRC32_TABLE_NP
    np = get_numpy()
    if _CRC32_TABLE_NP is None:
        _CRC32_TABLE_NP = np.array(_CRC32_TABLE, dtype=np.int64)
    return _CRC32_TABLE_NP


def fold_hash(value: int, width: int) -> int:
    """Fold an integer down to ``width`` bits by XOR-ing chunks; the
    cheap identity-style hash a switch uses for direct indexing."""
    if width <= 0:
        raise ValueError("width must be positive")
    mask = (1 << width) - 1
    out = 0
    value = abs(value)
    while value:
        out ^= value & mask
        value >>= width
    return out


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

    def hash_int(self, value: int) -> int:
        length = max(1, (value.bit_length() + 7) // 8)
        return self.hash(value.to_bytes(length, "big"))

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

    def hash_many(self, rows) -> "Sequence[int]":
        """Hash every row of a batch; the columnar counterpart of
        :meth:`hash` (one multi-row CRC pass + vectorized finalizer)."""
        return self.mix_many(crc32_many(rows))
