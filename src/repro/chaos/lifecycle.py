"""Device crash / restart / re-enrollment state machine.

Snatch devices (LarkSwitches, AggSwitches, edge servers) hold all of
their per-application state — table entries, AES keys, statistics
registers — in volatile memory, so a crash loses everything.  The
recovery contract (paper section 6) is controller-driven: a restarted
device comes back *empty*, re-enrolls with the controller, and the
controller re-pushes the current parameters of every application over
the (retrying) control plane.

:class:`DeviceLifecycle` owns that cycle on a simulator: it schedules
crashes, drives restarts after a configurable downtime, triggers
:meth:`SnatchController.reenroll_device`, and records every transition
for assertions and reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["DeviceLifecycle", "LifecycleEvent"]


@dataclass(frozen=True)
class LifecycleEvent:
    """One device state transition."""

    at_ms: float
    device: str
    kind: str  # "crash" | "restart" | "reenroll"
    detail: int = 0  # for reenroll: number of applications re-pushed


class DeviceLifecycle:
    """Crash/restart orchestration for a controller's devices."""

    def __init__(self, sim, controller,
                 registry: Optional[MetricsRegistry] = None,
                 tracer=None):
        self.sim = sim
        self.controller = controller
        self.events: List[LifecycleEvent] = []
        self.tracer = tracer
        self.metrics = registry if registry is not None else get_registry()
        self._m_crashes = self.metrics.counter("lifecycle.crashes")
        self._m_restarts = self.metrics.counter("lifecycle.restarts")
        self._m_reenrollments = self.metrics.counter("lifecycle.reenrollments")
        self._m_apps_repushed = self.metrics.counter("lifecycle.apps_repushed")
        self._outage_spans: Dict[str, Any] = {}

    # -- lookup -----------------------------------------------------------------

    def _find(self, device_name: str) -> Any:
        for devices in (
            self.controller._agg_switches,
            self.controller._lark_switches,
            self.controller._edge_servers,
        ):
            for device in devices:
                if device.name == device_name:
                    return device
        raise KeyError("no device %r attached to the controller" % device_name)

    # -- transitions ------------------------------------------------------------

    def crash(self, device_name: str,
              down_ms: Optional[float] = None) -> None:
        """Crash ``device_name`` now; with ``down_ms`` set, schedule the
        restart + re-enrollment automatically (self-healing)."""
        device = self._find(device_name)
        if not device.alive:
            return
        device.crash()
        self.events.append(
            LifecycleEvent(self.sim.now, device_name, "crash")
        )
        self._m_crashes.inc()
        if self.tracer is not None:
            self.tracer.event("chaos.inject", device=device_name,
                              fault="crash")
            self._outage_spans[device_name] = self.tracer.start(
                "chaos.outage", device=device_name
            )
        if down_ms is not None:
            if down_ms <= 0:
                raise ValueError("downtime must be positive")
            self.sim.schedule(down_ms, lambda: self.restart(device_name))

    def restart(self, device_name: str) -> int:
        """Bring the device back empty and re-enroll it: the controller
        re-pushes every current application's parameters over its
        RpcBus (with a bus timeout, a lost push is retried until
        acked).  Returns applications re-pushed."""
        device = self._find(device_name)
        if device.alive:
            return 0
        device.restart()
        self.events.append(
            LifecycleEvent(self.sim.now, device_name, "restart")
        )
        self._m_restarts.inc()
        pushed = self.controller.reenroll_device(device)
        self.events.append(
            LifecycleEvent(self.sim.now, device_name, "reenroll", pushed)
        )
        self._m_reenrollments.inc()
        self._m_apps_repushed.inc(pushed)
        span = self._outage_spans.pop(device_name, None)
        if span is not None:
            self.tracer.finish(span, apps_repushed=pushed)
        return pushed
