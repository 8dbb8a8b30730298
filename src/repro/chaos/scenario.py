"""Named, scripted fault scenarios.

A :class:`ChaosScenario` is a declarative timeline of fault events —
device crashes, hop faults on a report link, forced control-plane RPC
drops — that :meth:`ChaosScenario.apply` schedules onto a
:class:`~repro.chaos.harness.ChaosHarness`.  A ``link_faults`` event
sets the link's seeded :class:`~repro.net.hop.Hop`: each report handed
to it is dropped, duplicated or held back a few reports (``reorder``)
with the given probabilities, drawn per report.  Scenarios are pure
data until applied, so the same scenario can run under many seeds (the
CI chaos job does exactly that).

:func:`standard_outage` builds the canonical end-to-end scenario from
the issue's acceptance criteria: a LarkSwitch crash with self-healing
restart, 5 % periodical-report loss on the switch-to-AggSwitch link,
and one lost controller RPC during re-enrollment (exercising the
retry/backoff path).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["ChaosEvent", "ChaosScenario", "standard_outage"]


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted fault."""

    at_ms: float
    action: str  # "crash" | "link_faults" | "drop_rpc" | "rpc_loss"
    params: Dict[str, Any] = field(default_factory=dict)


class ChaosScenario:
    """An ordered list of fault events with a builder API."""

    def __init__(self, name: str):
        self.name = name
        self.events: List[ChaosEvent] = []

    # -- builders ---------------------------------------------------------------

    def crash(self, device: str, at_ms: float,
              down_ms: Optional[float] = None) -> "ChaosScenario":
        """Crash ``device`` at ``at_ms``; restart after ``down_ms``."""
        self.events.append(
            ChaosEvent(at_ms, "crash",
                       {"device": device, "down_ms": down_ms})
        )
        return self

    def link_faults(self, src: str, dst: str, at_ms: float = 0.0,
                    **spec) -> "ChaosScenario":
        """Set the ``src -> dst`` hop's faults at ``at_ms``; pass
        ``drop=`` / ``duplicate=`` / ``reorder=`` (none heals it)."""
        self.events.append(
            ChaosEvent(at_ms, "link_faults",
                       {"src": src, "dst": dst, "spec": dict(spec)})
        )
        return self

    def drop_rpc(self, device: str, at_ms: float,
                 count: int = 1) -> "ChaosScenario":
        """Force the next ``count`` control-plane attempts to ``device``
        after ``at_ms`` to be lost (they will be retried)."""
        self.events.append(
            ChaosEvent(at_ms, "drop_rpc", {"device": device, "count": count})
        )
        return self

    def rpc_loss(self, device: str, rate: float,
                 at_ms: float = 0.0) -> "ChaosScenario":
        """Sustained random control-plane loss toward ``device``."""
        self.events.append(
            ChaosEvent(at_ms, "rpc_loss", {"device": device, "rate": rate})
        )
        return self

    # -- execution --------------------------------------------------------------

    def apply(self, harness) -> None:
        """Schedule every event onto the harness's simulator.  Events
        at ``at_ms <= now`` take effect immediately."""
        for event in self.events:
            self._arm(harness, event)

    def _arm(self, harness, event: ChaosEvent) -> None:
        def fire() -> None:
            if event.action == "crash":
                harness.lifecycle.crash(
                    event.params["device"], event.params.get("down_ms")
                )
            elif event.action == "link_faults":
                harness.set_link_faults(
                    event.params["src"], event.params["dst"],
                    **event.params["spec"]
                )
            elif event.action == "drop_rpc":
                harness.bus.drop_next(
                    event.params["device"], event.params.get("count", 1)
                )
            elif event.action == "rpc_loss":
                harness.bus.set_loss(
                    event.params["device"], event.params["rate"]
                )
            else:
                raise ValueError("unknown chaos action %r" % event.action)

        if event.at_ms <= harness.sim.now:
            fire()
        else:
            harness.sim.schedule_at(event.at_ms, fire)


def standard_outage(
    crash_at_ms: float = 450.0,
    down_ms: float = 220.0,
    report_loss: float = 0.05,
    lark: str = "lark",
    agg: str = "agg",
) -> ChaosScenario:
    """The acceptance scenario: LarkSwitch crash (with self-healing
    restart and re-enrollment), 5 % periodical-report loss on the
    lark -> agg link, and one lost controller RPC during the
    re-enrollment push (retried until acked)."""
    scenario = ChaosScenario("standard-outage")
    scenario.link_faults(lark, agg, at_ms=0.0, drop=report_loss)
    scenario.crash(lark, at_ms=crash_at_ms, down_ms=down_ms)
    # Drop the re-enrollment push: schedule the forced drop just before
    # the restart so the first attempt is lost and the retry carries it.
    scenario.drop_rpc(lark, at_ms=crash_at_ms + down_ms - 0.001, count=1)
    return scenario
