"""Property-based tests of the simulation substrate invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.link import Link
from repro.net.simulator import Simulator


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
    @given(st.lists(st.floats(min_value=0, max_value=500), min_size=1,
                    max_size=25),
           st.floats(min_value=0.1, max_value=50))
    @settings(max_examples=25)
    def test_every_sent_packet_arrives_once_after_the_delay(
        self, send_times, delay
    ):
        sim = Simulator()
        link = Link("src", "dst", delay_ms=delay)
        arrivals = []
        for i, t in enumerate(send_times):
            sim.schedule_at(t, lambda i=i, t=t: link.send(
                sim, bytes([i]), lambda p, t=t: arrivals.append(
                    (p[0], sim.now - t)
                )
            ))
        sim.run()
        assert sorted(p for p, _ in arrivals) == list(range(len(send_times)))
        assert all(abs(late - delay) < 1e-9 for _, late in arrivals)
