"""Network routing and hop-by-hop delivery."""

import pytest

from repro.net.node import Node, SinkNode
from repro.net.packet import NetPacket
from repro.net.topology import Network, NoRouteError


def _linear_net():
    """client - isp - edge - web, bidirectional."""
    net = Network()
    for name in ("client", "isp", "edge", "web"):
        net.add_node(SinkNode(name))
    net.add_link("client", "isp", delay_ms=1.4)
    net.add_link("isp", "edge", delay_ms=5.3)
    net.add_link("edge", "web", delay_ms=43.6)
    return net


class TestRouting:
    def test_shortest_path(self):
        net = _linear_net()
        assert net.path("client", "web") == ["client", "isp", "edge", "web"]

    def test_no_route(self):
        net = _linear_net()
        net.add_node(SinkNode("island"))
        with pytest.raises(NoRouteError):
            net.path("client", "island")

    def test_unknown_node(self):
        with pytest.raises(KeyError):
            _linear_net().path("client", "mars")

    def test_multi_hop_delivery_through_plain_nodes(self):
        net = _linear_net()
        net.nodes["client"].send(NetPacket(src="client", dst="web"))
        net.sim.run()
        web = net.nodes["web"]
        assert web.arrival_times_ms == [pytest.approx(50.3)]
        # Intermediate plain nodes did not consume the packet.
        assert net.nodes["edge"].received == []

    def test_self_delivery(self):
        net = _linear_net()
        net.transmit("web", NetPacket(src="web", dst="web"))
        assert net.nodes["web"].received


class TestConstruction:
    def test_duplicate_node_rejected(self):
        net = Network()
        net.add_node(Node("a"))
        with pytest.raises(ValueError):
            net.add_node(Node("a"))

    def test_link_requires_nodes(self):
        net = Network()
        net.add_node(Node("a"))
        with pytest.raises(KeyError):
            net.add_link("a", "ghost", 1)

    def test_unidirectional_link(self):
        net = Network()
        net.add_node(SinkNode("a"))
        net.add_node(SinkNode("b"))
        net.add_link("a", "b", 1, bidirectional=False)
        assert net.path("a", "b") == ["a", "b"]
        with pytest.raises(NoRouteError):
            net.path("b", "a")

    def test_link_lookup(self):
        net = _linear_net()
        with pytest.raises(KeyError):
            net.link("client", "web")


class TestLossOnPath:
    def test_lost_packet_never_arrives(self):
        import random
        net = Network()
        net.add_node(SinkNode("a"))
        net.add_node(SinkNode("b"))
        link = net.add_link("a", "b", 1, bidirectional=False,
                            loss_rate=0.999, rng=random.Random(3))
        for _ in range(20):
            net.nodes["a"].send(NetPacket(src="a", dst="b"))
        net.sim.run()
        assert len(net.nodes["b"].received) == link.packets_sent
