"""Chaos engineering for the Snatch reproduction (paper section 6).

The paper argues every Snatch failure mode surfaces as in-network
aggregates drifting from the web-server-side ground truth, and that a
detect -> report -> resync loop recovers.  This package makes those
failures *producible* and the recovery *automatic*:

* :class:`~repro.chaos.lifecycle.DeviceLifecycle` — crash/restart
  device state machines with controller re-enrollment;
* :class:`~repro.chaos.scenario.ChaosScenario` — named, scripted fault
  timelines (link loss, device crashes, dropped control-plane RPCs);
* :class:`~repro.chaos.harness.ChaosHarness` — a full simulated
  deployment (controller + retrying RpcBus + LarkSwitch + AggSwitch +
  edge server + lossy links) driving traffic, a periodic verification
  loop, and automatic repair, deterministically from one seed.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "harness": ("ChaosHarness", "ChaosResult"),
    "lifecycle": ("DeviceLifecycle", "LifecycleEvent"),
    "scenario": ("ChaosEvent", "ChaosScenario", "standard_outage"),
    "shard_faults": ("ShardCrash", "ShardFaultPlan", "ShardKill"),
})
