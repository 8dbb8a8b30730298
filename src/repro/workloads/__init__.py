"""Workloads from the paper's three motivating applications:
ad-campaign analytics, real-time crowd analytics, and resource-demand
scaling (section 2.3) — plus the struct-of-arrays event-stream
substrate (:mod:`repro.workloads.columns`) their batched generators
share."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "adcampaign": (
        "AGE_BRACKETS", "AdCampaignWorkload", "AdEvent", "AdEventStream",
        "EVENT_TYPES", "GENDERS", "GEOS", "UserProfile",
    ),
    "columns": ("EventColumns", "EventStream"),
    "crowd": (
        "CrowdEventStream", "CrowdMember", "CrowdWorkload", "INTERESTS",
        "REGIONS",
    ),
    "resource": (
        "Autoscaler", "ResourceDemandWorkload", "ResourceEventStream",
        "Tenant",
    ),
    "scale": ("ScaleEventStream", "ScaleWorkload"),
    "ysb": ("YsbEvent", "YsbEventStream", "YsbPipeline", "YsbWorkload"),
})
