"""Count-min sketch on switch registers.

The paper's statistics calculation cites sketch-based switch telemetry
(UnivMon [76], QPipe [65]).  When an application's class feature has
too many categories for exact per-category counters (register SRAM is
the scarce resource, section 6), a count-min sketch bounds memory at
the cost of a small one-sided overestimate.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.switch.hashing import HashUnit
from repro.switch.registers import RegisterArray, RegisterFile

__all__ = ["CountMinSketch"]


class CountMinSketch:
    """A depth x width counter matrix indexed by independent hashes."""

    def __init__(
        self,
        width: int = 1024,
        depth: int = 4,
        name: str = "cms",
        registers: Optional[RegisterFile] = None,
        counter_bits: int = 32,
    ):
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self._rows: List[RegisterArray] = []
        registers = registers or RegisterFile()
        for row in range(depth):
            self._rows.append(
                registers.allocate(
                    "%s.row%d" % (name, row), width, counter_bits
                )
            )
        self._hashes = [
            HashUnit(width, seed=row * 0x9E3779B9 + 0x1234)
            for row in range(depth)
        ]
        self.total = 0

    def _indexes(self, key: bytes) -> List[int]:
        return [h.hash(key) for h in self._hashes]

    def add(self, key: bytes, count: int = 1) -> None:
        if count < 0:
            raise ValueError("count must be non-negative")
        for row, index in zip(self._rows, self._indexes(key)):
            row.add(index, count)
        self.total += count

    def estimate(self, key: bytes) -> int:
        """Point estimate: min over rows; never underestimates."""
        return min(
            row.read(index)
            for row, index in zip(self._rows, self._indexes(key))
        )

    def error_bound(self) -> float:
        """epsilon * N with epsilon = e / width."""
        return math.e / self.width * self.total
