"""Point-to-point links with delay, bandwidth, jitter and loss.

Link shaping mirrors what the paper's testbed does with Linux Traffic
Control (``tc``, section 5.2): a configurable one-way propagation
delay, optional jitter, an optional bandwidth cap that adds
serialization delay and FIFO ordering, and an optional random loss
rate (Appendix B.3 argues Snatch tolerates the <0.01 % WAN loss of its
UDP aggregation packets).
"""

from __future__ import annotations

import random
from typing import Optional

__all__ = ["Link"]


class Link:
    """A unidirectional link between two named nodes."""

    def __init__(
        self,
        src: str,
        dst: str,
        delay_ms: float,
        bandwidth_mbps: Optional[float] = None,
        loss_rate: float = 0.0,
        jitter_ms: float = 0.0,
        rng: Optional[random.Random] = None,
    ):
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        if bandwidth_mbps is not None and bandwidth_mbps <= 0:
            raise ValueError("bandwidth must be positive")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if jitter_ms < 0:
            raise ValueError("jitter must be non-negative")
        self.src = src
        self.dst = dst
        self.delay_ms = delay_ms
        self.bandwidth_mbps = bandwidth_mbps
        self.loss_rate = loss_rate
        self.jitter_ms = jitter_ms
        self._rng = rng or random.Random(0)
        self._busy_until_ms = 0.0
        self.packets_sent = 0
        self.packets_lost = 0
        self.packets_duplicated = 0
        self.packets_reordered = 0
        self.bytes_sent = 0
        # Optional injected fault process (repro.net.faults.LinkFaults),
        # attached by FaultModel.install.
        self.faults = None

    def serialization_delay_ms(self, size_bytes: int) -> float:
        if self.bandwidth_mbps is None:
            return 0.0
        return (size_bytes * 8) / (self.bandwidth_mbps * 1000.0)

    def transit_time_ms(self, now_ms: float, size_bytes: int) -> Optional[float]:
        """Total time from hand-off to delivery, or None if the packet
        is lost.  Maintains FIFO ordering under a bandwidth cap."""
        if self.loss_rate and self._rng.random() < self.loss_rate:
            self.packets_lost += 1
            return None
        self.packets_sent += 1
        self.bytes_sent += size_bytes
        serialization = self.serialization_delay_ms(size_bytes)
        start = max(now_ms, self._busy_until_ms)
        self._busy_until_ms = start + serialization
        jitter = self._rng.uniform(0, self.jitter_ms) if self.jitter_ms else 0.0
        return (start - now_ms) + serialization + self.delay_ms + jitter

    def transit_times_ms(self, now_ms: float, size_bytes: int) -> list:
        """Like :meth:`transit_time_ms` but fault-aware: returns every
        delivery time for this packet (empty = lost, two = duplicated,
        inflated = reordered/jittered)."""
        base = self.transit_time_ms(now_ms, size_bytes)
        if base is None:
            return []
        if self.faults is None:
            return [base]
        return self.faults.apply(self, base)
