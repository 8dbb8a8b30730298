"""Boundary-parameter tests for the analytic model.

The speedup/breakdown equations are exercised elsewhere at the paper's
operating points; these tests pin their behavior at the edges — empty
(zero) forwarding interval, the extremes of the interpolation range,
zero-cost components, single-site measurement runs — where off-by-one
and division bugs live.
"""

from dataclasses import asdict

import pytest

from repro.measurement.study import MeasurementStudy
from repro.model.breakdown import (
    app_insa_breakdown,
    baseline_breakdown,
    trans_insa_breakdown,
)
from repro.model.params import (
    D_WA_RANGE,
    ScenarioParams,
    interpolated_scenario,
    median_scenario,
    percentile_scenario,
)
from repro.model.periodical import (
    aggregation_bandwidth_kbps,
    periodical_snatch_latency_ms,
    periodical_speedup,
)
from repro.model.speedup import (
    Protocol,
    baseline_latency_ms,
    snatch_latency_ms,
    speedup,
)


class TestIntervalBoundaries:
    def test_zero_interval_equals_per_packet_model(self):
        """An empty forwarding interval degenerates to the per-packet
        speedup exactly."""
        params = median_scenario()
        for protocol in Protocol:
            assert periodical_snatch_latency_ms(
                params, protocol, 0.0
            ) == snatch_latency_ms(params, protocol, insa=True)
            assert periodical_speedup(params, protocol, 0.0) == \
                pytest.approx(speedup(params, protocol, insa=True))

    def test_negative_interval_rejected(self):
        params = median_scenario()
        with pytest.raises(ValueError):
            periodical_snatch_latency_ms(params, Protocol.TRANS_1RTT, -1.0)
        with pytest.raises(ValueError):
            aggregation_bandwidth_kbps(-0.5, 10.0)

    def test_interval_monotonically_decreases_speedup(self):
        params = median_scenario()
        speeds = [
            periodical_speedup(params, Protocol.TRANS_1RTT, interval)
            for interval in (0.0, 10.0, 100.0, 1000.0)
        ]
        assert speeds == sorted(speeds, reverse=True)

    def test_zero_interval_bandwidth_is_per_request(self):
        # interval 0 -> one aggregation packet per request.
        assert aggregation_bandwidth_kbps(0.0, 200.0) == \
            pytest.approx(200.0 * 70 * 8 / 1000.0)

    def test_bandwidth_caps_at_request_rate(self):
        # A 1 ms interval cannot send more packets than requests arrive.
        assert aggregation_bandwidth_kbps(1.0, 10.0) == \
            aggregation_bandwidth_kbps(0.0, 10.0)

    def test_zero_request_rate(self):
        assert aggregation_bandwidth_kbps(100.0, 0.0) == 0.0


class TestInterpolationBoundaries:
    def test_range_endpoints_accepted(self):
        lo, hi = D_WA_RANGE
        assert interpolated_scenario(lo).d_wa == lo
        assert interpolated_scenario(hi).d_wa == hi

    def test_outside_range_rejected(self):
        lo, hi = D_WA_RANGE
        for bad in (lo - 1e-6, hi + 1e-6, -1.0, 1e9):
            with pytest.raises(ValueError):
                interpolated_scenario(bad)

    def test_percentile_extremes(self):
        p0 = percentile_scenario(0.0)
        p100 = percentile_scenario(100.0)
        for name, value in asdict(p0).items():
            assert value >= 0.0, name
            assert getattr(p100, name) >= value, name


class TestScenarioParamBoundaries:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            ScenarioParams(
                d_ci=-0.1, d_ce=1, d_ew=1, d_wa=1, d_ea=1, d_ia=1,
                t_trans=1, t_edge=1, t_web=1, t_analytics=1,
            )

    def test_all_zero_costs_zero_offload(self):
        """Zero-offload corner: every component free except analytics;
        speedup reduces to t_A / t'_A exactly."""
        params = ScenarioParams(
            d_ci=0, d_ce=0, d_ew=0, d_wa=0, d_ea=0, d_ia=0,
            t_trans=0, t_edge=0, t_web=0, t_analytics=500.0,
        )
        for protocol in Protocol:
            assert baseline_latency_ms(params, protocol) == 500.0
            # Without INSA there is nothing left to offload: the
            # analytics cost is paid in full and speedup collapses to 1.
            assert speedup(params, protocol, insa=False) == 1.0
            assert speedup(params, protocol, insa=True) == \
                pytest.approx(500.0 / params.t_analytics_insa)

    def test_snatch_default_edge_cost_mirrors_baseline(self):
        params = median_scenario()
        assert params.t_edge_snatch == params.t_edge


class TestBreakdownBoundaries:
    def test_until_unknown_label_raises(self):
        with pytest.raises(KeyError):
            baseline_breakdown().until("no-such-step")

    def test_until_last_label_equals_total(self):
        for breakdown in (
            baseline_breakdown(), app_insa_breakdown(), trans_insa_breakdown()
        ):
            last = breakdown.steps[-1].label
            assert breakdown.until(last) == pytest.approx(breakdown.total_ms)

    def test_prefix_sums_monotone(self):
        breakdown = baseline_breakdown()
        running = [breakdown.until(s.label) for s in breakdown.steps]
        assert running == sorted(running)
        assert all(value >= 0 for value in running)


class TestMeasurementBoundaries:
    def test_single_site_run(self):
        result = MeasurementStudy(seed=5).run(max_sites=1)
        assert len(result.measurements) + result.discarded_sites == 1
        if result.measurements:
            summary = result.summary()
            assert all(v >= 0 for v in summary.values())

    def test_zero_sites_run(self):
        # max_sites=None means "all"; use an explicit tiny census cut.
        result = MeasurementStudy(seed=5).run(max_sites=2)
        assert len(result.measurements) + result.discarded_sites == 2
