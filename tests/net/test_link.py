"""Links: propagation, serialization, FIFO, loss, byte accounting."""

import random

import pytest

from repro.net.link import Link


class TestPropagation:
    def test_pure_delay(self):
        link = Link("a", "b", delay_ms=10)
        assert link.transit_time_ms(0.0, 100) == 10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Link("a", "b", delay_ms=-1)
        with pytest.raises(ValueError):
            Link("a", "b", 1, bandwidth_mbps=0)
        with pytest.raises(ValueError):
            Link("a", "b", 1, loss_rate=1.0)
        with pytest.raises(ValueError):
            Link("a", "b", 1, jitter_ms=-1)


class TestSerialization:
    def test_bandwidth_adds_delay(self):
        # 1 Mbps: 1250 bytes = 10 ms serialization.
        link = Link("a", "b", delay_ms=5, bandwidth_mbps=1.0)
        assert link.serialization_delay_ms(1250) == pytest.approx(10.0)
        assert link.transit_time_ms(0.0, 1250) == pytest.approx(15.0)

    def test_fifo_queueing(self):
        link = Link("a", "b", delay_ms=0, bandwidth_mbps=1.0)
        first = link.transit_time_ms(0.0, 1250)
        second = link.transit_time_ms(0.0, 1250)  # must wait for first
        assert first == pytest.approx(10.0)
        assert second == pytest.approx(20.0)

    def test_no_queue_after_idle(self):
        link = Link("a", "b", delay_ms=0, bandwidth_mbps=1.0)
        link.transit_time_ms(0.0, 1250)
        later = link.transit_time_ms(100.0, 1250)
        assert later == pytest.approx(10.0)

    def test_infinite_bandwidth_has_no_serialization(self):
        link = Link("a", "b", delay_ms=1)
        assert link.serialization_delay_ms(10**6) == 0.0


class TestLoss:
    def test_lossless_by_default(self):
        link = Link("a", "b", delay_ms=1)
        assert all(
            link.transit_time_ms(0, 100) is not None for _ in range(100)
        )

    def test_loss_rate_applies(self):
        link = Link("a", "b", 1, loss_rate=0.5, rng=random.Random(1))
        outcomes = [link.transit_time_ms(0, 100) for _ in range(400)]
        lost = sum(1 for o in outcomes if o is None)
        assert 120 < lost < 280
        assert link.packets_lost == lost
        assert link.packets_sent == 400 - lost


class TestJitter:
    def test_jitter_bounded(self):
        link = Link("a", "b", 10, jitter_ms=5, rng=random.Random(2))
        for _ in range(50):
            t = link.transit_time_ms(0, 100)
            assert 10 <= t <= 15


class TestAccounting:
    def test_bytes_sent(self):
        link = Link("a", "b", 1)
        for _ in range(10):
            link.transit_time_ms(0, 125)
        assert link.bytes_sent == 1250
        assert link.packets_sent == 10
