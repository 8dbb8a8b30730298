"""Network: nodes + links + shortest-path forwarding.

Forwarding is hop-by-hop along BFS shortest paths: a node consumes only
the packets addressed to it, and a packet in transit is routed through
it transparently.  :mod:`repro.chaos.harness` builds its lark -> agg
fault path on this class.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.net.link import Link
from repro.net.node import Node
from repro.net.packet import NetPacket
from repro.net.simulator import Simulator

__all__ = ["Network", "NoRouteError"]


class NoRouteError(RuntimeError):
    """Raised when no path exists between two nodes."""


class Network:
    """A simulated network of named nodes and unidirectional links."""

    def __init__(self, sim: Optional[Simulator] = None):
        self.sim = sim or Simulator()
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        self._route_cache: Dict[Tuple[str, str], List[str]] = {}

    # -- construction ----------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError("node %r already exists" % node.name)
        self.nodes[node.name] = node
        self._adjacency.setdefault(node.name, [])
        node.attach(self)
        return node

    def add_link(
        self,
        src: str,
        dst: str,
        delay_ms: float,
        bidirectional: bool = True,
        **link_kwargs,
    ) -> Link:
        for name in (src, dst):
            if name not in self.nodes:
                raise KeyError("unknown node %r" % name)
        link = Link(src, dst, delay_ms, **link_kwargs)
        self.links[(src, dst)] = link
        self._adjacency[src].append(dst)
        if bidirectional:
            back = Link(dst, src, delay_ms, **link_kwargs)
            self.links[(dst, src)] = back
            self._adjacency[dst].append(src)
        self._route_cache.clear()
        return link

    def link(self, src: str, dst: str) -> Link:
        key = (src, dst)
        if key not in self.links:
            raise KeyError("no link %s -> %s" % key)
        return self.links[key]

    # -- routing -----------------------------------------------------------

    def path(self, src: str, dst: str) -> List[str]:
        """BFS shortest path (hop count), cached."""
        key = (src, dst)
        if key in self._route_cache:
            return self._route_cache[key]
        if src not in self.nodes or dst not in self.nodes:
            raise KeyError("unknown endpoint in %s -> %s" % key)
        parents: Dict[str, Optional[str]] = {src: None}
        queue = deque([src])
        while queue:
            here = queue.popleft()
            if here == dst:
                break
            for neighbor in self._adjacency[here]:
                if neighbor not in parents:
                    parents[neighbor] = here
                    queue.append(neighbor)
        if dst not in parents:
            raise NoRouteError("no route %s -> %s" % key)
        hops = [dst]
        while parents[hops[-1]] is not None:
            hops.append(parents[hops[-1]])
        hops.reverse()
        self._route_cache[key] = hops
        return hops

    # -- transmission --------------------------------------------------------

    def transmit(self, from_node: str, packet: NetPacket) -> None:
        """Send ``packet`` from ``from_node`` toward ``packet.dst``."""
        if packet.dst == from_node:
            self.nodes[from_node].deliver(packet)
            return
        hops = self.path(from_node, packet.dst)
        next_hop = hops[1]
        self._send_over(from_node, next_hop, packet)

    def _send_over(self, src: str, dst: str, packet: NetPacket) -> None:
        link = self.links[(src, dst)]
        # Fault-aware transmission: a packet may be lost (no delivery),
        # duplicated (two deliveries), or delayed past its successors.
        for transit in link.transit_times_ms(self.sim.now, packet.size_bytes):
            self.sim.schedule(
                transit, lambda p=packet: self._arrived(dst, p)
            )

    def _arrived(self, at: str, packet: NetPacket) -> None:
        if at == packet.dst:
            self.nodes[at].deliver(packet)
        else:
            # In transit: route on toward packet.dst.
            self.transmit(at, packet)
