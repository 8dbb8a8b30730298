"""Property-based tests of the simulation substrate invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.node import Node, SinkNode
from repro.net.packet import NetPacket
from repro.net.simulator import Simulator
from repro.net.topology import Network


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1000), max_size=60))
    @settings(max_examples=40)
    def test_execution_respects_time_order(self, delays):
        sim = Simulator()
        executed = []
        for delay in delays:
            sim.schedule(delay, lambda d=delay: executed.append(d))
        sim.run()
        assert executed == sorted(executed)
        assert sim.events_executed == len(delays)

    @given(st.lists(st.floats(min_value=0.1, max_value=100), min_size=1,
                    max_size=30))
    @settings(max_examples=30)
    def test_clock_never_regresses_under_nesting(self, delays):
        sim = Simulator()
        timestamps = []

        def chain(remaining):
            timestamps.append(sim.now)
            if remaining:
                sim.schedule(remaining[0], lambda: chain(remaining[1:]))

        sim.schedule(0, lambda: chain(list(delays)))
        sim.run()
        assert timestamps == sorted(timestamps)
        assert sim.now == sum(delays)


class TestLinkProperties:
    @given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1,
                    max_size=30))
    @settings(max_examples=30)
    def test_fifo_under_bandwidth_cap(self, sizes):
        """Packets handed to a capped link in order arrive in order."""
        link = Link("a", "b", delay_ms=3.0, bandwidth_mbps=0.5)
        arrivals = []
        now = 0.0
        for size in sizes:
            transit = link.transit_time_ms(now, size)
            arrivals.append(now + transit)
        assert arrivals == sorted(arrivals)

    @given(st.integers(min_value=1, max_value=10_000),
           st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=30)
    def test_serialization_formula(self, size, mbps):
        link = Link("a", "b", delay_ms=0.0, bandwidth_mbps=mbps)
        expected = size * 8 / (mbps * 1000.0)
        assert abs(link.serialization_delay_ms(size) - expected) < 1e-9


class TestNetworkProperties:
    @given(st.lists(st.floats(min_value=0, max_value=500), min_size=1,
                    max_size=25))
    @settings(max_examples=25)
    def test_every_sent_packet_arrives_exactly_once(self, send_times):
        net = Network()
        net.add_node(Node("src"))
        sink = SinkNode("dst")
        net.add_node(sink)
        net.add_link("src", "dst", delay_ms=7.0)
        for t in send_times:
            net.sim.schedule_at(
                t,
                lambda: net.nodes["src"].send(
                    NetPacket(src="src", dst="dst")
                ),
            )
        net.sim.run()
        assert len(sink.received) == len(send_times)
        ids = [p.packet_id for p in sink.received]
        assert len(set(ids)) == len(ids)

    @given(st.floats(min_value=0.1, max_value=50),
           st.floats(min_value=0.1, max_value=50),
           st.floats(min_value=0.1, max_value=50))
    @settings(max_examples=25)
    def test_path_delay_is_additive(self, d1, d2, d3):
        net = Network()
        for name in ("a", "b", "c", "d"):
            net.add_node(SinkNode(name))
        net.add_link("a", "b", d1)
        net.add_link("b", "c", d2)
        net.add_link("c", "d", d3)
        net.nodes["a"].send(NetPacket(src="a", dst="d"))
        net.sim.run()
        arrival = net.nodes["d"].arrival_times_ms[0]
        assert abs(arrival - (d1 + d2 + d3)) < 1e-9
