"""repro: a full reproduction of *Snatch: Online Streaming Analytics at
the Network Edge* (EuroSys 2024).

Subpackages
-----------
``repro.crypto``       AES-128 (from scratch) + key management
``repro.quic``         QUIC connection IDs and handshakes
``repro.switch``       P4/Tofino-style programmable-switch model
``repro.net``          discrete-event simulator, links + per-hop faults
``repro.chaos``        scripted fault scenarios + self-healing harness
``repro.streaming``    Spark-Streaming-like micro-batch engine
``repro.measurement``  synthetic global measurement study
``repro.model``        analytic speedup model (paper Eqs. 1-6)
``repro.core``         Snatch itself: semantic cookies, LarkSwitch,
                       AggSwitch, edge service, controller, privacy
``repro.workloads``    ad-campaign / crowd / resource-demand workloads
``repro.testbed``      end-to-end experiments (paper Figure 6)
``repro.obs``          metrics registry, sim-time tracer, exporters
``repro.cli``          ``python -m repro.cli`` command-line front end

Quickstart
----------
>>> from repro.testbed import TestbedConfig, TestbedExperiment, Scheme
>>> result = TestbedExperiment(
...     TestbedConfig(scheme=Scheme.TRANS_1RTT, insa=True)
... ).run()
>>> result.median_latency_ms  # ~61 ms, vs ~506 ms without Snatch
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "core.aggregation": ("ForwardingMode",),
    "core.aggswitch": ("AggSwitch",),
    "core.controller": ("SnatchController",),
    "core.edge_service": ("SnatchEdgeServer",),
    "core.larkswitch": ("LarkSwitch",),
    "core.schema": ("CookieSchema", "Feature"),
    "core.stats": ("StatKind", "StatSpec"),
    "model.speedup": ("Protocol", "speedup"),
    "testbed.config": ("Scheme", "TestbedConfig"),
    "testbed.experiment": ("TestbedExperiment",),
})
__all__.append("__version__")
