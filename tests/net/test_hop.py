"""The per-hop fault process: validation, each fault at certainty,
seeded determinism, in-place rearming, and the chaos harness's
``faults.<src>-><dst>.*`` series."""

import random

import pytest

from repro.chaos import ChaosHarness, ChaosScenario
from repro.net.hop import MAX_HOLD, Hop


class TestValidation:
    @pytest.mark.parametrize("name", ("drop", "corrupt", "reorder",
                                      "duplicate"))
    def test_probabilities_validated(self, name):
        for bad in (1.5, -0.1):
            with pytest.raises(ValueError):
                Hop(random.Random(0), **{name: bad})
        hop = Hop(random.Random(0))
        with pytest.raises(ValueError):
            hop.set(**{name: 2.0})

    def test_default_hop_is_faultless_and_draws_nothing(self):
        rng = random.Random(0)
        state = rng.getstate()
        hop = Hop(rng)
        assert [hop.push(bytes([i])) for i in range(5)] == [
            [bytes([i])] for i in range(5)
        ]
        assert hop.push_many([b"a", b"b"]) == [b"a", b"b"]
        assert rng.getstate() == state
        assert hop.counts()["delivered"] == hop.arrived == 7


class TestEachFault:
    def test_certain_drop(self):
        hop = Hop(random.Random(0), drop=1.0)
        assert hop.push(b"x") == []
        assert hop.dropped == 1 and hop.delivered == 0

    def test_certain_duplicate(self):
        hop = Hop(random.Random(0), duplicate=1.0)
        assert hop.push(b"x") == [b"x", b"x"]
        assert hop.duplicated == 1 and hop.delivered == 2

    def test_certain_reorder_holds_back_up_to_max_hold_arrivals(self):
        hop = Hop(random.Random(0), reorder=1.0)
        assert hop.push(b"first") == []
        assert hop.held == 1 and hop.reordered == 1
        hop.set()  # later arrivals pass straight through
        released = []
        for i in range(MAX_HOLD):
            released.append(hop.push(bytes([i])))
        where = [j for j, out in enumerate(released) if b"first" in out]
        assert len(where) == 1 and where[0] < MAX_HOLD
        # Held at its release position, it leaves ahead of that arrival.
        assert released[where[0]] == [b"first", bytes([where[0]])]
        assert hop.held == 0

    def test_certain_corrupt_flips_one_byte(self):
        payload = bytes(range(32))
        (out,) = Hop(random.Random(0), corrupt=1.0).push(payload)
        diff = [a ^ b for a, b in zip(out, payload) if a != b]
        assert diff == [0xFF]

    def test_flush_releases_everything_held(self):
        hop = Hop(random.Random(0), reorder=1.0)
        for i in range(3):
            hop.push(bytes([i]))
        held = hop.held
        assert held > 0
        assert len(hop.flush()) == held and hop.held == 0

    def test_duplicate_copies_leave_together(self):
        """Both copies of a reordered duplicate share one release
        position, so they leave side by side."""
        hop = Hop(random.Random(0), reorder=1.0, duplicate=1.0)
        assert hop.push(b"dup") == []
        assert hop.held == 2
        hop.set()
        released = [p for i in range(MAX_HOLD) for p in hop.push(bytes([i]))]
        at = released.index(b"dup")
        assert released[at:at + 2] == [b"dup", b"dup"]
        assert released.count(b"dup") == 2 and hop.held == 0


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        runs = []
        for _ in range(2):
            hop = Hop(random.Random("seed"), drop=0.3, duplicate=0.2,
                      reorder=0.2)
            runs.append([tuple(hop.push(bytes([i]))) for i in range(60)])
        assert runs[0] == runs[1]

    def test_rearming_in_place_keeps_the_stream(self):
        """Chaos scenarios flip faults on and off mid-run: ``set``
        changes the probabilities, not the RNG or the counts."""
        hop = Hop(random.Random(1), drop=1.0)
        assert hop.push(b"x") == []
        hop.set()  # heal
        assert hop.push(b"y") == [b"y"]
        assert hop.counts()["arrived"] == 2 and hop.dropped == 1

    def test_push_many_after_healing_still_releases_held_packets(self):
        """The no-fault fast path of ``push_many`` waits until nothing
        is held: a healed hop keeps its held packets on schedule."""
        hop = Hop(random.Random(0), reorder=1.0)
        assert hop.push_many([b"held"]) == []
        hop.set()
        batch = [bytes([i]) for i in range(MAX_HOLD)]
        out = hop.push_many(batch)
        assert sorted(out) == sorted(batch + [b"held"])
        assert out != batch + [b"held"]  # it leaves at its release position
        assert hop.held == 0 and hop.delivered == hop.arrived


class TestChaosHarnessHops:
    def test_per_link_rngs_independent(self):
        """Arming the edge hop must not perturb the lark hop's draws."""
        def lark_hop(also_edge):
            harness = ChaosHarness(seed=9)
            scenario = ChaosScenario("s").link_faults("lark", "agg", drop=0.5)
            if also_edge:
                scenario.link_faults("edge", "agg", drop=0.5)
            harness.apply(scenario).run()
            hop = harness.links[("lark", "agg")].hop
            return hop.counts(), hop._rng.getstate()

        assert lark_hop(False) == lark_hop(True)

    def test_unknown_link_refused(self):
        with pytest.raises(KeyError):
            ChaosHarness(seed=0).apply(
                ChaosScenario("s").link_faults("ghost", "agg", drop=0.5)
            )

    def test_injected_drops_counted(self):
        harness = ChaosHarness(seed=3)
        harness.apply(ChaosScenario("s").link_faults("lark", "agg", drop=1.0))
        result = harness.run()
        drops = harness.registry.value("faults.lark->agg.drops")
        assert drops == result.reports_lost == result.reports_sent > 0

    def test_duplicates_and_reorders_counted(self):
        harness = ChaosHarness(seed=3)
        harness.apply(ChaosScenario("s").link_faults(
            "lark", "agg", duplicate=1.0, reorder=1.0
        ))
        result = harness.run()
        hop = harness.links[("lark", "agg")].hop
        value = harness.registry.value
        assert value("faults.lark->agg.duplicates") == hop.duplicated
        assert hop.duplicated == result.reports_duplicated > 0
        assert value("faults.lark->agg.reorders") == hop.reordered > 0

    def test_configured_but_not_fired_counts_nothing(self):
        harness = ChaosHarness(seed=3)
        harness.apply(ChaosScenario("s").link_faults("lark", "agg", drop=0.0))
        harness.run()
        assert harness.registry.value("faults.lark->agg.drops") == 0
        assert harness.registry.value("faults.edge->agg.drops") == 0
