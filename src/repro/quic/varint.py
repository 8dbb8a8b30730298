"""QUIC variable-length integer encoding (RFC 9000 section 16).

Used by the long/short header codecs in :mod:`repro.quic.packet`.
"""

from __future__ import annotations

from typing import Tuple

__all__ = [
    "encode_varint",
    "decode_varint",
    "varint_length",
    "MAX_VARINT",
]

MAX_VARINT = (1 << 62) - 1

_PREFIX_FOR_LENGTH = {1: 0b00, 2: 0b01, 4: 0b10, 8: 0b11}
_LENGTH_FOR_PREFIX = {v: k for k, v in _PREFIX_FOR_LENGTH.items()}


def varint_length(value: int) -> int:
    """Number of bytes the varint encoding of ``value`` occupies."""
    if value < 0 or value > MAX_VARINT:
        raise ValueError("varint out of range: %d" % value)
    if value < (1 << 6):
        return 1
    if value < (1 << 14):
        return 2
    if value < (1 << 30):
        return 4
    return 8


def encode_varint(value: int) -> bytes:
    """Encode ``value`` as a QUIC varint (big-endian, 2-bit length prefix)."""
    length = varint_length(value)
    prefix = _PREFIX_FOR_LENGTH[length]
    raw = value | (prefix << (8 * length - 2))
    return raw.to_bytes(length, "big")


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode a varint starting at ``offset``.

    Returns ``(value, next_offset)``.
    """
    if offset >= len(data):
        raise ValueError("varint truncated: empty input at offset %d" % offset)
    first = data[offset]
    length = _LENGTH_FOR_PREFIX[first >> 6]
    end = offset + length
    if end > len(data):
        raise ValueError(
            "varint truncated: need %d bytes, have %d"
            % (length, len(data) - offset)
        )
    raw = int.from_bytes(data[offset:end], "big")
    mask = (1 << (8 * length - 2)) - 1
    return raw & mask, end
