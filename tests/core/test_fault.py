"""Fault detection and repair (section 6)."""

import random

import pytest

from repro.core.aggswitch import AggSwitch
from repro.core.edge_service import SnatchEdgeServer
from repro.core.fault import Discrepancy, FaultRepairLoop, ResultVerifier
from repro.core.larkswitch import LarkSwitch
from repro.core.schema import Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec

from tests.control import new_controller, settled


class TestResultVerifier:
    def test_identical_reports_consistent(self):
        verifier = ResultVerifier()
        report = {"by_gender": {("c0", "f"): 10, ("c0", "m"): 5}}
        assert verifier.consistent(report, report)

    def test_detects_missing_counts(self):
        verifier = ResultVerifier()
        truth = {"by_gender": {"f": 10}}
        got = {"by_gender": {"f": 7}}
        diffs = verifier.diff(got, truth)
        assert len(diffs) == 1
        assert diffs[0].in_network == 7 and diffs[0].ground_truth == 10
        assert diffs[0].relative_error == pytest.approx(0.3)

    def test_detects_spurious_counts(self):
        verifier = ResultVerifier()
        diffs = verifier.diff({"by_gender": {"x": 3}}, {"by_gender": {}})
        assert len(diffs) == 1 and diffs[0].ground_truth == 0

    def test_missing_statistic_entirely(self):
        verifier = ResultVerifier()
        diffs = verifier.diff({}, {"sums": {"all": 100}})
        assert len(diffs) == 1

    def test_tolerance_absorbs_udp_loss(self):
        """Appendix B.3: <0.01 % loss should not trip the detector."""
        verifier = ResultVerifier(relative_tolerance=0.01)
        truth = {"by_gender": {"f": 10_000}}
        got = {"by_gender": {"f": 9_999}}  # one lost packet
        assert verifier.consistent(got, truth)

    def test_sorted_by_severity(self):
        verifier = ResultVerifier()
        truth = {"s": {"a": 100, "b": 100}}
        got = {"s": {"a": 10, "b": 90}}
        diffs = verifier.diff(got, truth)
        assert diffs[0].key == "a"

    def test_none_values_treated_as_zero(self):
        verifier = ResultVerifier()
        diffs = verifier.diff({"mins": {"all": None}}, {"mins": {"all": 5}})
        assert len(diffs) == 1

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            ResultVerifier(relative_tolerance=-0.1)


class TestVerifierSymmetry:
    """Regression: the diff used to build its key union from truth keys
    plus only *truthy* report cells, and iterated report-side statistics
    not at all — so spurious in-network state could slip through."""

    def test_report_only_statistic_detected(self):
        verifier = ResultVerifier()
        diffs = verifier.diff({"ghost_stat": {"a": 3}}, {})
        assert len(diffs) == 1
        assert diffs[0].statistic == "ghost_stat"
        assert diffs[0].ground_truth == 0

    def test_falsy_report_cell_still_compared(self):
        """A cell the switch reports as 0 against a non-zero truth is a
        discrepancy even though the report value is falsy."""
        verifier = ResultVerifier()
        diffs = verifier.diff({"s": {"a": 0}}, {"s": {"a": 4}})
        assert len(diffs) == 1
        assert diffs[0].in_network == 0 and diffs[0].ground_truth == 4

    def test_diff_symmetric_under_swap(self):
        verifier = ResultVerifier()
        left = {"s": {"a": 5}}
        right = {"t": {"b": 7}}
        assert len(verifier.diff(left, right)) == len(
            verifier.diff(right, left)
        )

    def test_both_sides_zero_is_consistent(self):
        verifier = ResultVerifier()
        assert verifier.consistent({"s": {"a": 0}}, {"s": {"a": 0}})


class TestRepairLoop:
    def _deployment(self):
        controller = new_controller(seed=3)
        agg = AggSwitch("agg", random.Random(1))
        lark = LarkSwitch("lark", random.Random(2))
        edge = SnatchEdgeServer("edge", random.Random(3))
        controller.attach_agg_switch(agg)
        controller.attach_lark_switch(lark)
        controller.attach_edge_server(edge)
        features = [Feature.categorical("gender", ["f", "m", "x"])]
        specs = [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")]
        handle = settled(controller.add_application, "ads", features, specs)
        return controller, agg, lark, handle

    def test_failed_key_update_detected_and_repaired(self):
        """Simulate a LarkSwitch that missed a parameter update: its
        rules vanish, counts drift, the loop resyncs it."""
        controller, agg, lark, handle = self._deployment()
        loop = FaultRepairLoop(controller)
        # Fault injection: the switch loses the application.
        lark.revoke_application(handle.app_id)
        assert not controller.is_consistent("ads")

        codec = TransportCookieCodec(
            handle.app_id, handle.transport_schema, handle.key,
            random.Random(4),
        )
        # Traffic during the fault produces nothing at the switch.
        for _ in range(5):
            result = lark.process_quic_packet(codec.encode({"gender": "f"}))
            assert result.aggregation_payload is None
        in_network = agg.report(handle.app_id)
        ground_truth = {"by_gender": {"f": 5, "m": 0, "x": 0}}
        discrepancies = loop.check("ads", in_network, ground_truth)
        controller.bus.quiesce(raise_on_error=True)
        assert discrepancies
        assert controller.is_consistent("ads")
        assert loop.history[0].devices_resynced == 1

        # After the repair, traffic counts again.
        result = lark.process_quic_packet(codec.encode({"gender": "f"}))
        assert result.aggregation_payload is not None

    def test_healthy_system_triggers_no_repair(self):
        controller, agg, _lark, handle = self._deployment()
        loop = FaultRepairLoop(controller)
        report = agg.report(handle.app_id)
        truth = {"by_gender": {"f": 0, "m": 0, "x": 0}}
        assert loop.check("ads", report, truth) == []
        assert loop.history == []

    def test_resync_is_idempotent(self):
        controller, _agg, _lark, _handle = self._deployment()
        assert controller.resync("ads") == 0

    def test_self_scheduling_loop_repairs_without_manual_check(self):
        """The loop on a simulator: verification ticks periodically,
        spots an injected fault, and resyncs — zero check() calls.
        It shares the control plane's simulator, so the resync lands."""
        controller, agg, lark, handle = self._deployment()
        loop = FaultRepairLoop(controller)
        sim = controller.bus.sim
        truth = {"by_gender": {"f": 0}}
        loop.schedule(
            "ads",
            in_network_fn=lambda: agg.report(handle.app_id),
            ground_truth_fn=lambda: dict(truth),
            period_ms=100.0,
            until_ms=500.0,
        )
        # Fault at t=150: the switch loses its rules; truth keeps moving.
        sim.schedule_at(150.0, lambda: lark.revoke_application(handle.app_id))
        sim.schedule_at(
            150.0, lambda: truth.__setitem__("by_gender", {"f": 9})
        )
        sim.run()
        assert loop.checks_run == 5
        assert loop.history  # detected
        assert loop.history[0].at_ms == 200.0  # the first tick after it
        assert controller.is_consistent("ads")
