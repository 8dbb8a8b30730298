"""Synthetic reproduction of the paper's global measurement study:
dVPN site census (Fig. 4), delay distributions (Fig. 5(a)), the AWS
inter-DC matrix (Fig. 9(a)), and per-provider edge delays (Fig. 9(b)).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "delays": (
        "MEDIANS", "all_delay_curves", "client_to_closest_cloud",
        "client_to_edge", "client_to_isp", "client_to_web_server",
        "edge_to_cloud", "inter_dc",
    ),
    "interdc": (
        "AWS_REGIONS", "US_REGIONS", "delay_matrix", "haversine_km",
        "matrix_stats", "region_delay_ms",
    ),
    "providers": (
        "EdgeProvider", "OFFNET_COVERAGE", "PROVIDERS", "best_edge_delay",
        "provider_curves", "site_edge_delays",
    ),
    "quantiles": ("QuantileCurve",),
    "sites": (
        "COUNTRY_CONTINENTS", "Site", "SiteCensus", "TOTAL_COUNTRIES",
        "TOTAL_SITES", "generate_sites",
    ),
    "study": ("MeasurementStudy", "SiteMeasurement", "StudyResult"),
})
