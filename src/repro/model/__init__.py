"""Analytic speedup model: the paper's equations (1)-(6), the Figure 1
breakdown, and the periodical-forwarding extension."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "breakdown": (
        "Breakdown", "BreakdownStep", "app_insa_breakdown",
        "baseline_breakdown", "figure1_scenario", "trans_insa_breakdown",
    ),
    "params": (
        "D_CA_RANGE", "D_EA_RANGE", "D_WA_RANGE", "INSA_ANALYTICS_MS",
        "ScenarioParams", "interpolated_scenario", "median_scenario",
        "percentile_scenario", "us_scenario", "worldwide_scenario",
    ),
    "periodical": (
        "AGG_PACKET_BYTES", "aggregation_bandwidth_kbps", "bandwidth_sweep",
        "periodical_snatch_latency_ms", "periodical_speedup",
    ),
    "speedup": (
        "LatencyPair", "Protocol", "baseline_latency_ms", "latency_pair",
        "snatch_latency_ms", "speedup", "speedup_table",
    ),
})
