"""Bloom filter on switch register arrays.

Paper Appendix B.4: within one periodical-forwarding window, a user may
send several requests; when the analytics semantics require counting
*distinct* users, the switch deduplicates with a Bloom filter — the
standard trick in programmable-switch projects (NetCache, FlowRadar,
SilkRoad are cited).  The filter is reset by the control plane at each
period boundary.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.switch.hashing import HashUnit, crc32_many
from repro.switch.registers import RegisterArray

__all__ = ["BloomFilter"]


class BloomFilter:
    """A k-hash Bloom filter over 1-bit register cells."""

    def __init__(
        self,
        size_bits: int = 65536,
        num_hashes: int = 3,
        name: str = "bloom",
    ):
        if size_bits <= 0:
            raise ValueError("size_bits must be positive")
        if not 1 <= num_hashes <= 8:
            raise ValueError("num_hashes must be in [1, 8]")
        self.size_bits = size_bits
        self.num_hashes = num_hashes
        self._bits = RegisterArray(name, size_bits, width=1)
        self._hashes = [
            HashUnit(size_bits, seed=i * 0x9E3779B9 + 1)
            for i in range(num_hashes)
        ]
        self.items_added = 0

    def _indexes(self, key: bytes):
        return [h.hash(key) for h in self._hashes]

    def add(self, key: bytes) -> bool:
        """Insert ``key``; returns True if it was (probably) already
        present — i.e. all bits were already set before insertion."""
        already = True
        for idx in self._indexes(key):
            if self._bits.read(idx) == 0:
                already = False
                self._bits.write(idx, 1)
        if not already:
            self.items_added += 1
        return already

    def add_many(self, keys: Sequence[bytes]) -> List[bool]:
        """Insert a batch of keys in order; element ``i`` of the result
        equals ``add(keys[i])`` called sequentially.

        The k hash units differ only in their finalizer, so the batch
        takes one CRC pass and k vectorized finalizers; the test-and-set
        walk stays sequential because within a batch each membership
        answer depends on the bits set by every earlier key.
        """
        if not keys:
            return []
        raw = crc32_many(keys)
        index_rows = [h.mix_many(raw) for h in self._hashes]
        bits = self._bits
        out: List[bool] = []
        for i in range(len(keys)):
            already = True
            for row in index_rows:
                idx = int(row[i])
                if bits.read(idx) == 0:
                    already = False
                    bits.write(idx, 1)
            if not already:
                self.items_added += 1
            out.append(already)
        return out

    def contains(self, key: bytes) -> bool:
        return all(self._bits.read(idx) for idx in self._indexes(key))

    def reset(self) -> None:
        """Control-plane reset at a period boundary."""
        self._bits.reset()
        self.items_added = 0
