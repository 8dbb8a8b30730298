"""Discrete-event network simulation substrate.

Replaces the paper's six-machine testbed + Tofino + Linux ``tc`` setup
(section 5.2) with a deterministic simulator: nodes, shaped links,
server queues, and in-path switch processing.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "faults": ("FaultModel", "LinkFaultSpec", "LinkFaults"),
    "link": ("Link",),
    "node": ("Node", "ProcessingNode", "SinkNode", "SwitchNode"),
    "packet": ("NetPacket",),
    "simulator": ("Event", "Simulator"),
    "topology": ("Network", "NoRouteError"),
})
