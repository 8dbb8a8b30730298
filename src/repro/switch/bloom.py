"""Bloom filter on switch register arrays.

Paper Appendix B.4: within one periodical-forwarding window, a user may
send several requests; when the analytics semantics require counting
*distinct* users, the switch deduplicates with a Bloom filter — the
standard trick in programmable-switch projects (NetCache, FlowRadar,
SilkRoad are cited).  The filter is reset by the control plane at each
period boundary.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.switch.hashing import HashUnit, crc32_many
from repro.switch.registers import RegisterArray

__all__ = ["BloomFilter", "bloom_parameters", "optimal_num_hashes"]


def optimal_num_hashes(bits: int, expected_items: int) -> int:
    """k = (m/n) ln 2, clamped to [1, 8] (switch stage budget).

    The clamp matters at the overloaded boundary: once
    ``expected_items`` exceeds roughly ``2 * bits / ln 2`` the
    unclamped ``round()`` lands on 0 — a zero-hash filter that
    degenerately matches everything — so k is pinned at 1.
    """
    if expected_items <= 0:
        return 1
    k = round(bits / expected_items * math.log(2))
    return max(1, min(8, k))


def bloom_parameters(
    expected_items: int, target_fp_rate: float = 0.01
) -> Tuple[int, int]:
    """Size a filter: (size_bits, num_hashes) for ``expected_items``
    at ``target_fp_rate``, via m = -n ln p / (ln 2)^2.  Both outputs
    are clamped to switch-feasible minima (one register cell, one hash
    unit) so an overloaded or tiny configuration never degenerates to
    a zero-bit or zero-hash filter."""
    if expected_items <= 0:
        raise ValueError("expected_items must be positive")
    if not 0.0 < target_fp_rate < 1.0:
        raise ValueError("target_fp_rate must be in (0, 1)")
    bits = math.ceil(
        -expected_items * math.log(target_fp_rate) / (math.log(2) ** 2)
    )
    bits = max(1, bits)
    return bits, optimal_num_hashes(bits, expected_items)


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

    @classmethod
    def for_expected_items(
        cls,
        expected_items: int,
        target_fp_rate: float = 0.01,
        name: str = "bloom",
    ) -> "BloomFilter":
        """Build a filter sized by :func:`bloom_parameters`."""
        size_bits, num_hashes = bloom_parameters(
            expected_items, target_fp_rate
        )
        return cls(size_bits=size_bits, num_hashes=num_hashes, name=name)

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

    def false_positive_rate(self, items: Optional[int] = None) -> float:
        """Analytic FPR estimate (1 - e^{-kn/m})^k for n inserted items."""
        n = self.items_added if items is None else items
        k = self.num_hashes
        m = self.size_bits
        return (1.0 - math.exp(-k * n / m)) ** k
