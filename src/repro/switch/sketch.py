"""Count-min sketch on switch registers.

The paper's statistics calculation cites sketch-based switch telemetry
(UnivMon [76], QPipe [65]).  When an application's class feature has
too many categories for exact per-category counters (register SRAM is
the scarce resource, section 6), a count-min sketch bounds memory at
the cost of a small one-sided overestimate — and it composes with the
AggSwitch merge because count-min cells add linearly across sources.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.switch.hashing import HashUnit
from repro.switch.registers import RegisterArray, RegisterFile

__all__ = ["CountMinSketch", "dimensions_for"]


def dimensions_for(epsilon: float, delta: float) -> Tuple[int, int]:
    """(width, depth) guaranteeing error <= epsilon * N with
    probability >= 1 - delta (standard CM bounds)."""
    if not 0 < epsilon < 1 or not 0 < delta < 1:
        raise ValueError("epsilon and delta must be in (0, 1)")
    width = math.ceil(math.e / epsilon)
    depth = math.ceil(math.log(1.0 / delta))
    return width, max(1, depth)


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

    def heavy_hitters(
        self, candidates: List[bytes], threshold_fraction: float
    ) -> List[Tuple[bytes, int]]:
        """Candidates whose estimated count exceeds the fraction of
        the total stream (candidate-driven, as in switch telemetry
        where the control plane proposes keys)."""
        if not 0 < threshold_fraction <= 1:
            raise ValueError("threshold_fraction must be in (0, 1]")
        floor = threshold_fraction * self.total
        # One estimate per candidate: each estimate costs depth hash
        # evaluations, and this control-plane path used to pay it
        # twice (once for the filter, once for the kept value).
        out = []
        for key in candidates:
            estimate = self.estimate(key)
            if estimate >= floor:
                out.append((key, estimate))
        out.sort(key=lambda kv: (-kv[1], kv[0]))
        return out

    def merge(self, other: "CountMinSketch") -> None:
        """AggSwitch-side merge: cell-wise addition (requires identical
        dimensions and hash seeds, which the controller guarantees by
        installing the same parameters everywhere)."""
        if (self.width, self.depth) != (other.width, other.depth):
            raise ValueError("cannot merge sketches of different shapes")
        for mine, theirs in zip(self._rows, other._rows):
            mine.add_vector(theirs.snapshot())
        self.total += other.total

    def snapshot(self) -> List[List[int]]:
        return [row.snapshot() for row in self._rows]

    def load_snapshot(
        self, rows: List[List[int]], total: Optional[int] = None
    ) -> None:
        """Inverse of :meth:`snapshot` (period-boundary checkpoint
        restore).  Every ``add`` bumps each row by the same count, so
        when ``total`` is omitted it is recovered as the first row's
        cell sum (exact as long as counters have not wrapped)."""
        if len(rows) != self.depth or any(
            len(row) != self.width for row in rows
        ):
            raise ValueError("snapshot shape does not match the sketch")
        for mine, saved in zip(self._rows, rows):
            mine.load(saved)
        self.total = sum(rows[0]) if total is None else total

    def reset(self) -> None:
        for row in self._rows:
            row.reset()
        self.total = 0

    def error_bound(self) -> float:
        """epsilon * N with epsilon = e / width."""
        return math.e / self.width * self.total
