"""Simulated network nodes.

* :class:`Node` — base class; subclasses override :meth:`handle` to
  consume the packets addressed to them.
* :class:`SinkNode` — records every packet it receives, with its
  arrival time.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.packet import NetPacket
from repro.net.simulator import Simulator

__all__ = ["Node", "SinkNode"]


class Node:
    """Base network node; ``network`` is attached by the Network."""

    def __init__(self, name: str):
        self.name = name
        self.network = None  # set by Network.add_node
        self.packets_received = 0

    def attach(self, network) -> None:
        self.network = network

    @property
    def sim(self) -> Simulator:
        if self.network is None:
            raise RuntimeError("node %s is not attached to a network" % self.name)
        return self.network.sim

    def send(self, packet: NetPacket) -> None:
        """Hand a packet to the network for delivery toward packet.dst."""
        if self.network is None:
            raise RuntimeError("node %s is not attached to a network" % self.name)
        self.network.transmit(self.name, packet)

    def deliver(self, packet: NetPacket) -> None:
        """Called by the network when a packet arrives at this node."""
        self.packets_received += 1
        self.handle(packet)

    def handle(self, packet: NetPacket) -> None:
        """Consume a delivered packet; default drops it silently."""


class SinkNode(Node):
    """Collects everything it receives, with arrival timestamps."""

    def __init__(self, name: str):
        super().__init__(name)
        self.received: List[NetPacket] = []
        self.arrival_times_ms: List[float] = []
        self.on_receive: Optional[Callable[[NetPacket, float], None]] = None

    def handle(self, packet: NetPacket) -> None:
        self.received.append(packet)
        self.arrival_times_ms.append(self.sim.now)
        if self.on_receive is not None:
            self.on_receive(packet, self.sim.now)
