"""Figure 1 time-cost breakdown anchors."""

from dataclasses import replace

import pytest

from repro.model.breakdown import (
    app_insa_breakdown,
    baseline_breakdown,
    figure1_scenario,
    trans_insa_breakdown,
)


class TestBaselineBreakdown:
    def test_total_matches_paper(self):
        assert baseline_breakdown().total_ms == pytest.approx(1008.3, abs=2.0)

    def test_pre_analytics_cost(self):
        """Data reaches the analytics server after ~508.3 ms."""
        breakdown = baseline_breakdown()
        assert breakdown.until("web -> analytics delivery") == pytest.approx(
            508.3, abs=2.0
        )

    def test_handshakes_total(self):
        breakdown = baseline_breakdown()
        handshakes = sum(
            step.duration_ms
            for step in breakdown.steps
            if "handshake" in step.label
        )
        assert handshakes == pytest.approx(97.8, abs=0.1)

    def test_processing_total(self):
        breakdown = baseline_breakdown()
        processing = sum(
            step.duration_ms
            for step in breakdown.steps
            if "processing" in step.label
        )
        assert processing == pytest.approx(378.2, abs=0.1)

    def test_unknown_step(self):
        with pytest.raises(KeyError):
            baseline_breakdown().until("nonexistent step")


class TestSnatchBreakdowns:
    def test_app_insa_total(self):
        """~80 % reduction: 1008.3 -> 228.6 ms."""
        assert app_insa_breakdown().total_ms == pytest.approx(228.6, abs=1.0)

    def test_trans_insa_total(self):
        """~95 % reduction: down to ~48 ms."""
        assert trans_insa_breakdown().total_ms == pytest.approx(48.0, abs=1.0)

    def test_reduction_fractions(self):
        base = baseline_breakdown().total_ms
        assert 1 - app_insa_breakdown().total_ms / base == pytest.approx(
            0.80, abs=0.03
        )
        assert 1 - trans_insa_breakdown().total_ms / base == pytest.approx(
            0.95, abs=0.02
        )

    def test_rows_render(self):
        rows = baseline_breakdown().rows()
        assert all(isinstance(label, str) and cost >= 0 for label, cost in rows)


class TestScenarioConsistency:
    def test_figure1_uses_measured_medians(self):
        p = figure1_scenario()
        assert p.d_ce == 6.7
        assert p.t_edge == 136.6
        assert p.t_web == 241.6
        assert p.d_wa == 32.3

    def test_custom_params_flow_through(self):
        p = replace(figure1_scenario(), t_analytics=100.0)
        assert baseline_breakdown(p).total_ms == pytest.approx(
            1008.3 - 400.0, abs=2.0
        )
