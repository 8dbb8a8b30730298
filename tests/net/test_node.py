"""Nodes: sinks and the base node."""

import pytest

from repro.net.node import Node, SinkNode
from repro.net.packet import NetPacket
from repro.net.topology import Network


def _network_with(*nodes):
    net = Network()
    for node in nodes:
        net.add_node(node)
    return net


class TestSinkNode:
    def test_records_arrivals(self):
        sink = SinkNode("s")
        net = _network_with(Node("a"), sink)
        net.add_link("a", "s", delay_ms=5)
        net.nodes["a"].send(NetPacket(src="a", dst="s"))
        net.sim.run()
        assert len(sink.received) == 1
        assert sink.arrival_times_ms == [5.0]

    def test_on_receive_hook(self):
        sink = SinkNode("s")
        seen = []
        sink.on_receive = lambda pkt, t: seen.append((pkt.src, t))
        net = _network_with(Node("a"), sink)
        net.add_link("a", "s", delay_ms=1)
        net.nodes["a"].send(NetPacket(src="a", dst="s"))
        net.sim.run()
        assert seen == [("a", 1.0)]


class TestNode:
    def test_detached_node_cannot_send(self):
        node = Node("orphan")
        with pytest.raises(RuntimeError, match="not attached"):
            node.send(NetPacket(src="orphan", dst="x"))
        with pytest.raises(RuntimeError):
            node.sim


class TestNetPacket:
    def test_size_positive(self):
        with pytest.raises(ValueError):
            NetPacket(src="a", dst="b", size_bytes=0)
