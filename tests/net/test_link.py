"""Links: propagation delay, hop faults on the way, byte accounting."""

import random

import pytest

from repro.net.hop import MAX_HOLD, Hop
from repro.net.link import UDP_IP_OVERHEAD_BYTES, Link
from repro.net.simulator import Simulator


def _send_all(link, payloads, at_ms=0.0):
    sim = Simulator()
    arrivals = []
    for payload in payloads:
        sim.schedule_at(at_ms, lambda p=payload: link.send(
            sim, p, lambda q: arrivals.append((sim.now, q))
        ))
    sim.run()
    return arrivals


class TestPropagation:
    def test_pure_delay(self):
        link = Link("a", "b", delay_ms=10)
        assert _send_all(link, [b"x"], at_ms=3.0) == [(13.0, b"x")]

    def test_invalid_delay(self):
        with pytest.raises(ValueError):
            Link("a", "b", delay_ms=-1)

    def test_lossless_by_default(self):
        link = Link("a", "b", delay_ms=1)
        payloads = [bytes([i]) for i in range(100)]
        assert [p for _, p in _send_all(link, payloads)] == payloads
        assert link.hop.dropped == 0


class TestHopFaults:
    def test_certain_drop_means_nothing_arrives(self):
        link = Link("a", "b", 10.0, Hop(random.Random(1), drop=1.0))
        assert _send_all(link, [b"x"] * 5) == []
        assert link.hop.dropped == 5

    def test_certain_duplicate_doubles_arrivals(self):
        link = Link("a", "b", 10.0, Hop(random.Random(1), duplicate=1.0))
        assert _send_all(link, [b"x"]) == [(10.0, b"x"), (10.0, b"x")]
        assert link.hop.duplicated == 1

    def test_a_held_packet_reaches_its_own_callback(self):
        """Reordering releases a packet with a later send; it still
        reaches the callback it was sent with."""
        sim = Simulator()
        link = Link("a", "b", 1.0, Hop(random.Random(4), reorder=0.5))
        got = []
        for i in range(40):
            link.send(sim, bytes([i]), lambda p, i=i: got.append((i, p[0])))
        for packet, deliver in link.hop.flush():
            deliver(packet)
        sim.run()
        assert sorted(got) == [(i, i) for i in range(40)]
        assert [i for i, _ in got] != list(range(40))

    def test_rearming_in_place_heals(self):
        link = Link("a", "b", 1.0, Hop(random.Random(1), drop=1.0))
        assert _send_all(link, [b"x"]) == []
        link.hop.set()
        assert len(_send_all(link, [b"x"])) == 1

    def test_held_packet_delay_counts_from_its_release(self):
        """A packet the hop holds back leaves with a later send and
        arrives ``delay_ms`` after that send, not after its own."""
        sim = Simulator()
        link = Link("a", "b", 10.0, Hop(random.Random(2), reorder=1.0))
        arrivals = []

        def send(i):
            link.send(sim, bytes([i]),
                      lambda p: arrivals.append((sim.now, p[0])))
            link.hop.set()  # only the first packet is held back

        for i in range(MAX_HOLD + 1):
            sim.schedule_at(float(i), lambda i=i: send(i))
        sim.run()
        (first_at,) = [t for t, p in arrivals if p == 0]
        assert 11.0 <= first_at <= 10.0 + MAX_HOLD
        assert sorted(p for _, p in arrivals) == list(range(MAX_HOLD + 1))
        assert all(t == 10.0 + p for t, p in arrivals if p != 0)


class TestAccounting:
    def test_bytes_sent_counts_delivered_packets_with_headers(self):
        link = Link("a", "b", 1)
        _send_all(link, [b"\0" * 97] * 10)
        assert link.bytes_sent == 10 * (97 + UDP_IP_OVERHEAD_BYTES)
        assert link.hop.delivered == 10

    def test_lost_packets_send_no_bytes(self):
        link = Link("a", "b", 1, Hop(random.Random(1), drop=0.5))
        _send_all(link, [b"\0" * 100] * 400)
        assert 120 < link.hop.dropped < 280
        assert link.bytes_sent == link.hop.delivered * (
            100 + UDP_IP_OVERHEAD_BYTES
        )
