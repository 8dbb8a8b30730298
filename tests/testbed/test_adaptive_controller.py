"""Continuous degradation controller (:class:`AdaptiveBackend`).

The controller is driven here with a scripted clock and counting
backends, so every timing decision — calibration, latency-spike
degradation, cooldown re-promotion, recalibration — is deterministic.
The calibration test is the regression for the bug where auto mode
never timed the columnar path.
"""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.testbed.executor import AdaptiveBackend


class ScriptedClock:
    """perf_counter stand-in: each _timed() call consumes one cost."""

    def __init__(self, costs):
        self.costs = list(costs)
        self.now = 0.0
        self._pending = None

    def __call__(self):
        if self._pending is None:
            # start of a timed section: advance by the next cost
            self._pending = self.costs.pop(0) if self.costs else 1.0
            return self.now
        self.now += self._pending
        self._pending = None
        return self.now


def _fns(calls):
    def make(name):
        def fn(items):
            calls.append(name)
            return list(items)

        return fn

    return make("scalar"), make("columnar")


def _controller(calls, costs, **kwargs):
    scalar, columnar = _fns(calls)
    defaults = dict(
        mode="auto",
        calibration_rounds=1,
        min_window=2,
        window=4,
        spike_factor=2.0,
        cooldown_flushes=2,
        registry=MetricsRegistry(),
        clock=ScriptedClock(costs),
    )
    defaults.update(kwargs)
    return AdaptiveBackend(scalar, columnar, **defaults)


class TestCalibration:
    def test_auto_mode_times_both_candidates(self):
        """Regression: calibration must probe columnar too."""
        calls = []
        # probe order is columnar, scalar (higher tier first);
        # columnar is fastest at 1.0 per item
        adaptive = _controller(calls, [1.0, 9.0])
        for _ in range(4):
            adaptive.run([1, 2])
        assert calls[:2] == ["columnar", "scalar"]
        assert adaptive.chosen == "columnar"
        assert adaptive.history[0]["reason"] == "calibration"
        assert adaptive.history[0]["to"] == "columnar"

    def test_fastest_candidate_wins_not_highest_tier(self):
        calls = []
        # columnar probe costs 9.0, scalar 1.0
        adaptive = _controller(calls, [9.0, 1.0])
        for _ in range(4):
            adaptive.run([1, 2])
        assert adaptive.chosen == "scalar"

    def test_fixed_modes_bypass_measurement(self):
        calls = []
        scalar, columnar = _fns(calls)
        adaptive = AdaptiveBackend(
            scalar, columnar, mode="columnar",
            registry=MetricsRegistry(),
        )
        adaptive.run([1, 2, 3])
        assert calls == ["columnar"]
        assert adaptive.chosen == "columnar"
        assert adaptive.history == []

    @pytest.mark.parametrize("mode", ["gpu", "batch"])
    def test_unknown_mode_rejected(self, mode):
        calls = []
        scalar, columnar = _fns(calls)
        with pytest.raises(ValueError):
            AdaptiveBackend(scalar, columnar, mode=mode)


class TestLatencySpikeDegradation:
    def _degraded(self, registry=None):
        calls = []
        registry = registry or MetricsRegistry()
        # calibration: columnar 1.0, scalar 3.0 -> columnar
        # steady flushes then spike at 10x baseline
        costs = [1.0, 3.0, 1.0, 10.0, 10.0]
        adaptive = _controller(calls, costs, registry=registry)
        for _ in range(5):
            adaptive.run([1])
        return adaptive, calls, registry

    def test_sustained_spike_steps_one_tier_down(self):
        adaptive, _calls, registry = self._degraded()
        assert adaptive.chosen == "scalar"
        last = adaptive.history[-1]
        assert last["from"] == "columnar"
        assert last["to"] == "scalar"
        assert last["reason"] == "latency"
        assert registry.value("adaptive.spikes") == 1
        assert registry.value("adaptive.degradations") == 1
        assert registry.value("adaptive.tier") == 0  # scalar

    def test_cooldown_then_promotion_probe_recovers(self):
        adaptive, calls, registry = self._degraded()
        # two cheap scalar flushes (cooldown), then the probe finds
        # columnar fast again
        adaptive._clock.costs.extend([3.0, 3.0, 1.0])
        for _ in range(3):
            adaptive.run([1])
        assert adaptive.chosen == "columnar"
        assert adaptive.history[-1]["reason"] == "recovered"
        assert registry.value("adaptive.promotions") == 1
        assert registry.value("adaptive.tier") == 1

    def test_slow_promotion_probe_stays_put(self):
        calls = []
        registry = MetricsRegistry()
        costs = [1.0, 3.0]  # calibration -> columnar
        costs += [1.0, 10.0]  # steady, then sustained spike: degrade
        # cooldown flush on scalar, then every probe of columnar still
        # sees it pathologically slow — the controller keeps probing
        # after each cooldown but never promotes
        costs += [3.0, 100.0, 3.0, 100.0]
        adaptive = _controller(calls, costs, registry=registry)
        for _ in range(8):
            adaptive.run([1])
        assert adaptive.chosen == "scalar"
        assert registry.counter("adaptive.promotions").value == 0
        assert adaptive._degraded_from == ["columnar"]

    def test_degradation_ladder_bottoms_out_at_scalar(self):
        calls = []
        registry = MetricsRegistry()
        costs = [1.0, 3.0]  # columnar wins
        # spike repeatedly: columnar -> scalar -> (floor)
        costs += [1.0, 10.0, 10.0]  # degrade to scalar
        costs += [1.0, 10.0, 10.0, 10.0]  # scalar spikes go nowhere
        adaptive = _controller(
            calls, costs, registry=registry, cooldown_flushes=50
        )
        for _ in range(9):
            adaptive.run([1])
        assert adaptive.chosen == "scalar"
        assert registry.value("adaptive.tier") == 0
        tiers = [h["to"] for h in adaptive.history]
        assert tiers == ["columnar", "scalar"]


class TestErrorDegradation:
    def test_backend_error_counts_degrades_and_reraises(self):
        registry = MetricsRegistry()
        boom = {"armed": False}

        def scalar(items):
            return list(items)

        def columnar(items):
            if boom["armed"]:
                raise RuntimeError("kernel fault")
            return list(items)

        adaptive = AdaptiveBackend(
            scalar, columnar,
            mode="auto",
            calibration_rounds=1,
            registry=registry,
            clock=ScriptedClock([1.0, 3.0, 1.0]),
        )
        for _ in range(3):
            adaptive.run([1])
        assert adaptive.chosen == "columnar"
        boom["armed"] = True
        with pytest.raises(RuntimeError):
            adaptive.run([1])
        # the error is surfaced AND the controller has already degraded
        assert adaptive.chosen == "scalar"
        assert adaptive.errors == 1
        assert registry.value("adaptive.errors") == 1
        assert adaptive.history[-1]["reason"] == "error"


class TestRecalibration:
    def test_probe_reelects_a_faster_candidate(self):
        calls = []
        registry = MetricsRegistry()
        # calibration: columnar 1.0, scalar 9.0 -> columnar; the first
        # probe then measures scalar at 0.5 per item — faster than
        # columnar's 1.0 baseline — and re-elects it
        costs = [1.0, 9.0, 0.5, 1.0, 1.0]
        adaptive = _controller(
            calls, costs, registry=registry, recalibrate_every=3,
            spike_factor=10.0,
        )
        for _ in range(5):
            adaptive.run([1])
        assert adaptive.chosen == "scalar"
        assert any(
            h["reason"] == "recalibration" for h in adaptive.history
        )

    def test_default_is_sticky_no_probes(self):
        calls = []
        adaptive = _controller(calls, [1.0, 9.0] + [1.0] * 20)
        for _ in range(12):
            adaptive.run([1])
        # after the 2 calibration flushes everything runs columnar
        assert set(calls[2:]) == {"columnar"}
