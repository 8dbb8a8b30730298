"""repro.obs: observability for the reproduction.

A process-wide but injectable :class:`MetricsRegistry` (counters,
gauges, fixed-bucket histograms), a :class:`Tracer` producing sim-time
spans off ``Simulator.now``, and deterministic exporters (JSON lines,
aligned text tables).  The switch pipeline, RPC bus, fault model,
device lifecycle and chaos repair loop all write here, so one dump
shows where every simulated millisecond and packet went.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "export": (
        "dump_jsonl", "jsonl_lines", "parse_jsonl", "render_spans",
        "render_table",
    ),
    "registry": (
        "Counter", "DEFAULT_LATENCY_EDGES_US", "Gauge", "Histogram",
        "MetricsRegistry", "get_registry", "scoped_registry", "set_registry",
    ),
    "tracer": ("Span", "Tracer"),
})
