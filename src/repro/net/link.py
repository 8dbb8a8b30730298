"""Point-to-point links: a fixed one-way delay behind a hop's faults.

Link shaping mirrors what the paper's testbed does with Linux Traffic
Control (``tc``, section 5.2): a configurable one-way propagation delay
and, through the link's :class:`~repro.net.hop.Hop`, seeded drop,
duplicate and reorder faults (Appendix B.3 argues Snatch tolerates the
<0.01 % WAN loss of its UDP aggregation packets).
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Optional

from repro.net.hop import Hop
from repro.net.simulator import Simulator

__all__ = ["Link", "UDP_IP_OVERHEAD_BYTES"]

# IPv4 + UDP headers around an aggregation payload.
UDP_IP_OVERHEAD_BYTES = 28


class Link:
    """A unidirectional link between two named nodes.

    The hop carries ``(payload, deliver)`` pairs, so a packet it holds
    back still reaches the callback it was sent with; it takes no
    ``corrupt`` fault.
    """

    def __init__(self, src: str, dst: str, delay_ms: float,
                 hop: Optional[Hop] = None):
        if delay_ms < 0:
            raise ValueError("delay must be non-negative")
        self.src = src
        self.dst = dst
        self.delay_ms = delay_ms
        self.hop = hop if hop is not None else Hop(random.Random(0))
        self.bytes_sent = 0

    def send(self, sim: Simulator, payload: bytes,
             deliver: Callable[[bytes], None]) -> None:
        """Hand ``payload`` to the hop now; each packet the hop
        releases reaches its ``deliver`` ``delay_ms`` later."""
        for packet, to in self.hop.push((payload, deliver)):
            self.bytes_sent += len(packet) + UDP_IP_OVERHEAD_BYTES
            sim.schedule(self.delay_ms, partial(to, packet))
