"""End-to-end chaos: injected fault -> degrade -> detect -> repair.

The acceptance scenario (``standard_outage``) combines a LarkSwitch
crash with self-healing restart, 5 % periodical-report loss, and one
lost controller RPC during re-enrollment — and must end consistent,
with zero manual ``check()`` calls, bit-for-bit deterministic per seed.

``CHAOS_SEED`` (env) reruns the deterministic suite under other seeds;
the CI chaos job sweeps a small matrix of them.
"""

import os
import random

import pytest

from repro.chaos import (
    ChaosEvent,
    ChaosHarness,
    ChaosScenario,
    DeviceLifecycle,
    standard_outage,
)
from repro.core.aggswitch import AggSwitch
from repro.core.controller import SnatchController
from repro.core.edge_service import SnatchEdgeServer
from repro.core.larkswitch import LarkSwitch
from repro.core.rpc import RpcBus
from repro.core.schema import Feature
from repro.core.stats import StatKind, StatSpec
from repro.net.simulator import Simulator

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))


def _bus_deployment(seed=0, **bus_kwargs):
    """Controller + one device per tier riding a retrying RpcBus."""
    defaults = dict(default_delay_ms=10, timeout_ms=45, max_retries=5,
                    seed=seed)
    defaults.update(bus_kwargs)
    bus = RpcBus(Simulator(), **defaults)
    controller = SnatchController(seed=seed, bus=bus)
    agg = AggSwitch("agg", random.Random(1))
    lark = LarkSwitch("lark", random.Random(2))
    edge = SnatchEdgeServer("edge", random.Random(3))
    controller.attach_agg_switch(agg)
    controller.attach_lark_switch(lark)
    controller.attach_edge_server(edge)
    return bus, controller, agg, lark, edge


def _add_app(controller):
    return controller.add_application(
        "ads",
        [Feature.categorical("gender", ["f", "m", "x"])],
        [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")],
    )


class TestPushOrderingUnderRetry:
    """Tiered ack barriers: AggSwitch -> LarkSwitch -> edge survives
    control-plane loss and retries (satellite test b)."""

    def _register_calls(self, bus, device):
        return [
            r for r in bus.log
            if r.device == device and r.method == "register_application"
        ]

    def test_ordering_without_faults(self):
        bus, controller, agg, lark, edge = _bus_deployment()
        handle = _add_app(controller)
        bus.quiesce(raise_on_error=True)
        (agg_call,) = self._register_calls(bus, "agg")
        (lark_call,) = self._register_calls(bus, "lark")
        (edge_call,) = self._register_calls(bus, "edge")
        assert agg_call.acked_at_ms <= lark_call.sent_at_ms
        assert lark_call.acked_at_ms <= edge_call.sent_at_ms
        assert controller.is_consistent("ads")
        assert handle.app_id in agg.registered_app_ids()

    def test_lost_agg_push_delays_lower_tiers(self):
        """A dropped tier-0 RPC must delay the lark/edge pushes past
        the retried ack — never reorder them."""
        bus, controller, _agg, _lark, _edge = _bus_deployment()
        bus.drop_next("agg")
        _add_app(controller)
        bus.quiesce(raise_on_error=True)
        assert bus.retries() >= 1
        (agg_call,) = self._register_calls(bus, "agg")
        (lark_call,) = self._register_calls(bus, "lark")
        (edge_call,) = self._register_calls(bus, "edge")
        assert agg_call.attempts == 2
        assert agg_call.acked_at_ms <= lark_call.sent_at_ms
        assert lark_call.acked_at_ms <= edge_call.sent_at_ms

    def test_ordering_under_sustained_loss(self):
        bus, controller, _agg, _lark, _edge = _bus_deployment(seed=11)
        for name in ("agg", "lark", "edge"):
            bus.set_loss(name, 0.4)
        _add_app(controller)
        bus.quiesce(raise_on_error=True)
        for upper, lower in (("agg", "lark"), ("lark", "edge")):
            (up,) = self._register_calls(bus, upper)
            (low,) = self._register_calls(bus, lower)
            assert up.acked_at_ms <= low.sent_at_ms
        assert controller.is_consistent("ads")

    def test_controller_log_preserves_tier_order(self):
        bus, controller, _agg, _lark, _edge = _bus_deployment()
        bus.drop_next("lark", 2)
        _add_app(controller)
        bus.quiesce(raise_on_error=True)
        # One RpcCall per call, in the order sent; retries are counted
        # in ``attempts``.
        assert [call.device for call in bus.log] == ["agg", "lark", "edge"]
        assert all(call.acked_at_ms is not None for call in bus.log)
        assert bus.log[1].attempts == 3


class TestCrashRecovery:
    def test_crash_loses_state_and_reenrollment_restores_it(self):
        bus, controller, _agg, lark, _edge = _bus_deployment()
        handle = _add_app(controller)
        bus.quiesce(raise_on_error=True)
        lifecycle = DeviceLifecycle(bus.sim, controller)
        lifecycle.crash("lark", down_ms=100.0)
        assert not lark.alive
        assert handle.app_id not in lark.registered_app_ids()
        bus.quiesce(raise_on_error=True)
        assert lark.alive
        assert handle.app_id in lark.registered_app_ids()
        kinds = [e.kind for e in lifecycle.events]
        assert kinds == ["crash", "restart", "reenroll"]

    def test_crash_is_idempotent(self):
        bus, controller, _agg, _lark, _edge = _bus_deployment()
        _add_app(controller)
        bus.quiesce(raise_on_error=True)
        lifecycle = DeviceLifecycle(bus.sim, controller)
        lifecycle.crash("lark")
        lifecycle.crash("lark")  # no-op: already down
        assert [e.kind for e in lifecycle.events] == ["crash"]

    def test_dropped_reenrollment_push_is_retried(self):
        """The acceptance scenario's 'one lost controller RPC': the
        re-enrollment push is dropped once and the retry carries it."""
        bus, controller, _agg, lark, _edge = _bus_deployment()
        handle = _add_app(controller)
        bus.quiesce(raise_on_error=True)
        retries_before = bus.retries()
        lifecycle = DeviceLifecycle(bus.sim, controller)
        lifecycle.crash("lark")
        bus.drop_next("lark")
        lifecycle.restart("lark")
        bus.quiesce(raise_on_error=True)
        assert bus.retries() > retries_before
        assert handle.app_id in lark.registered_app_ids()

    def test_unknown_device_rejected(self):
        bus, controller, _agg, _lark, _edge = _bus_deployment()
        lifecycle = DeviceLifecycle(bus.sim, controller)
        with pytest.raises(KeyError):
            lifecycle.crash("ghost")


class TestScenarioDsl:
    def test_builders_chain(self):
        scenario = (
            ChaosScenario("s")
            .crash("lark", at_ms=100.0, down_ms=50.0)
            .link_faults("lark", "agg", drop=0.1)
            .drop_rpc("lark", at_ms=140.0)
            .rpc_loss("edge", 0.2)
        )
        assert [e.action for e in scenario.events] == [
            "crash", "link_faults", "drop_rpc", "rpc_loss",
        ]

    def test_standard_outage_shape(self):
        scenario = standard_outage(crash_at_ms=450.0, down_ms=220.0)
        actions = {e.action for e in scenario.events}
        assert actions == {"crash", "link_faults", "drop_rpc"}
        (crash,) = [e for e in scenario.events if e.action == "crash"]
        assert crash.at_ms == 450.0

    def test_unknown_action_rejected(self):
        harness = ChaosHarness(seed=0)
        scenario = ChaosScenario("bad")
        scenario.events.append(ChaosEvent(0.0, "explode", {}))
        with pytest.raises(ValueError):
            scenario.apply(harness)


class TestReportLossRepair:
    """Satellite test a: N% of periodical UDP reports lost, drift
    detected and repaired by the self-scheduled verification loop."""

    def test_heavy_loss_detected_and_repaired(self):
        harness = ChaosHarness(seed=1)
        harness.apply(ChaosScenario("lossy").link_faults(
            "lark", "agg", drop=0.5
        ))
        result = harness.run()
        assert result.reports_lost > 0  # faults actually fired
        assert result.repairs  # drift detected
        assert all(r[3] for r in result.repairs)  # each reconciled
        assert result.consistent
        assert result.checks_run > 0

    def test_repair_lands_within_one_verification_period(self):
        """Every detected drift is repaired in the same tick it is
        detected, so no two consecutive checks both see drift from a
        single loss burst."""
        harness = ChaosHarness(seed=1)
        harness.apply(ChaosScenario("lossy").link_faults(
            "lark", "agg", drop=0.5
        ))
        result = harness.run()
        for at_ms, _count, _resynced, reconciled in result.repairs:
            assert reconciled
            assert at_ms <= harness.duration_ms + harness.verify_margin_ms

    def test_duplicates_also_repaired(self):
        harness = ChaosHarness(seed=2)
        harness.apply(ChaosScenario("dup").link_faults(
            "lark", "agg", duplicate=0.8
        ))
        result = harness.run()
        assert result.reports_duplicated > 0
        assert result.consistent

    def test_no_faults_no_repairs(self):
        result = ChaosHarness(seed=5).run()
        assert result.reports_lost == 0
        assert result.repairs == []
        assert result.consistent
        assert result.checks_run > 0


class TestFallback:
    """Satellite test c: LarkSwitch down -> application-layer cookie
    processing at the edge keeps the aggregate flowing."""

    def test_crash_degrades_to_app_layer_and_stays_consistent(self):
        harness = ChaosHarness(seed=3)
        harness.apply(
            ChaosScenario("outage").crash("lark", at_ms=450.0, down_ms=220.0)
        )
        result = harness.run()
        assert result.fallback_events > 0
        assert result.fallback_events < result.events_total
        kinds = [(e[1], e[2]) for e in result.lifecycle]
        assert ("lark", "crash") in kinds
        assert ("lark", "restart") in kinds
        assert ("lark", "reenroll") in kinds
        assert result.consistent

    def test_kill_and_restart_mid_run_stays_consistent(self):
        """The same outage under the swept seed."""
        harness = ChaosHarness(seed=CHAOS_SEED)
        harness.apply(
            ChaosScenario("outage").crash("lark", at_ms=450.0, down_ms=220.0)
        )
        result = harness.run()
        assert result.consistent
        assert result.fallback_events > 0  # the crash actually bit
        kinds = [(e[1], e[2]) for e in result.lifecycle]
        assert ("lark", "crash") in kinds
        assert ("lark", "restart") in kinds
        assert ("lark", "reenroll") in kinds

    def test_no_crash_no_fallback(self):
        result = ChaosHarness(seed=3).run()
        assert result.fallback_events == 0


class TestAcceptance:
    """The issue's acceptance scenario, end to end."""

    def _run(self, seed):
        harness = ChaosHarness(seed=seed)
        harness.apply(standard_outage())
        return harness.run()

    def test_standard_outage_self_heals(self):
        result = self._run(CHAOS_SEED)
        assert result.consistent
        assert result.checks_run > 0  # verification self-scheduled
        assert result.rpc_retries >= 1  # the dropped RPC was retried
        assert result.rpc_failures == 0  # ... and eventually acked
        assert result.fallback_events > 0  # degraded while lark was down
        assert result.repairs  # drift detected and repaired

    def test_deterministic_across_runs(self):
        first = self._run(CHAOS_SEED)
        second = self._run(CHAOS_SEED)
        assert first.fingerprint() == second.fingerprint()
        assert first.final_report == second.final_report

    @pytest.mark.parametrize("seed", [0, 7, 9])
    def test_deterministic_per_seed(self, seed):
        assert self._run(seed).fingerprint() == self._run(seed).fingerprint()

    def test_different_seeds_differ(self):
        assert (
            self._run(0).fingerprint() != self._run(1).fingerprint()
        )

    def test_report_loss_seed_still_heals(self):
        """A seed where the 5 % drop actually fires on a report."""
        result = self._run(9)
        assert result.reports_lost >= 1
        assert result.consistent

    def test_harness_runs_once(self):
        harness = ChaosHarness(seed=0)
        harness.run()
        with pytest.raises(RuntimeError):
            harness.run()
