"""One seeded fault process per directed hop.

The paper's testbed injects faults with Linux ``tc netem``; Appendix
B.3 argues a lost or duplicated aggregation report only causes drift
that the section-6 repair loop recovers.  A :class:`Hop` is that fault
process for one hop (the LarkSwitch -> AggSwitch hop and its kin), and
the one place in the package that draws hop faults.  Each arrival
draws, in this order and only for the faults that are set:

* **drop** — the packet never leaves the hop;
* **corrupt** — one byte of the (``bytes``) packet is flipped;
* **reorder** — the packet is held back ``randint(1, MAX_HOLD)``
  arrivals, so later packets overtake it;
* **duplicate** — the packet leaves twice.

Held packets sit in a heap keyed ``(release arrival, push order)``;
after arrival ``i`` every packet whose release position is at most
``i`` leaves, a dropped arrival included.  Draws and release rule see
only the arrival index, so the released sequence is a function of the
arrival sequence alone: feeding it in any chunking gives the same
packets, counts and RNG state.  A hop with no fault set draws nothing.

The counts obey ``arrived - dropped + duplicated == delivered + held``
at every moment.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Dict, List, Tuple

__all__ = ["Hop", "MAX_HOLD"]

# A reordered packet is held back between 1 and MAX_HOLD arrivals.
MAX_HOLD = 8

_FAULTS = ("drop", "corrupt", "reorder", "duplicate")


class Hop:
    """A seeded per-arrival fault process; see the module docstring.

    :meth:`set` reconfigures the probabilities in place (a chaos
    scenario turns faults on and off mid-run) and keeps the RNG, the
    held packets and the counts.
    """

    def __init__(self, rng: random.Random, **faults: float):
        self._rng = rng
        self._heap: List[Tuple[int, int, Any]] = []
        self._pushed = 0
        self.arrived = self.dropped = self.duplicated = 0
        self.delivered = self.corrupted = self.reordered = 0
        self.set(**faults)

    def set(self, drop: float = 0.0, corrupt: float = 0.0,
            reorder: float = 0.0, duplicate: float = 0.0) -> None:
        for name, p in zip(_FAULTS, (drop, corrupt, reorder, duplicate)):
            if not 0.0 <= p <= 1.0:
                raise ValueError("%s probability must be in [0, 1]" % name)
        self.drop = drop
        self.corrupt = corrupt
        self.reorder = reorder
        self.duplicate = duplicate
        self.faulty = bool(drop or corrupt or reorder or duplicate)

    @property
    def held(self) -> int:
        return len(self._heap)

    def counts(self) -> Dict[str, int]:
        return {
            "arrived": self.arrived,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delivered": self.delivered,
            "held": self.held,
            "corrupted": self.corrupted,
            "reordered": self.reordered,
        }

    def push(self, item: Any) -> List[Any]:
        """One arrival; returns the packets it releases, in order."""
        i = self.arrived
        self.arrived += 1
        rng = self._rng
        if self.drop and rng.random() < self.drop:
            self.dropped += 1
        else:
            if self.corrupt and rng.random() < self.corrupt:
                flipped = bytearray(item)
                flipped[rng.randrange(len(flipped))] ^= 0xFF
                item = bytes(flipped)
                self.corrupted += 1
            release = i
            if self.reorder and rng.random() < self.reorder:
                release += rng.randint(1, MAX_HOLD)
                self.reordered += 1
            copies = 1
            if self.duplicate and rng.random() < self.duplicate:
                copies = 2
                self.duplicated += 1
            for _ in range(copies):
                heapq.heappush(self._heap, (release, self._pushed, item))
                self._pushed += 1
        heap = self._heap
        out = []
        while heap and heap[0][0] <= i:
            out.append(heapq.heappop(heap)[2])
        self.delivered += len(out)
        return out

    def push_many(self, items: List[Any]) -> List[Any]:
        """:meth:`push` each item; returns everything released.  With
        no fault set and nothing held it only counts."""
        if not self.faulty and not self._heap:
            self.arrived += len(items)
            self.delivered += len(items)
            return items
        out: List[Any] = []
        for item in items:
            out.extend(self.push(item))
        return out

    def flush(self) -> List[Any]:
        """End of stream: release everything still held, in key order."""
        out = [heapq.heappop(self._heap)[2] for _ in range(len(self._heap))]
        self.delivered += len(out)
        return out
