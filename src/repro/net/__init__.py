"""Discrete-event network simulation substrate.

Replaces the paper's six-machine testbed + Tofino + Linux ``tc`` setup
(section 5.2) with a deterministic simulator, delay links and one seeded
fault process per hop.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "hop": ("Hop",),
    "link": ("Link",),
    "simulator": ("Event", "Simulator"),
})
