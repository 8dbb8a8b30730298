"""AWS inter-data-center delay matrix (paper Figure 9(a)).

The paper measures intra-DC delays of 0.8-4.4 ms and inter-DC delays of
4.7-206 ms (median 75.5 ms worldwide, 26.3 ms US), with the maximum
between ``ap-southeast-2`` (Sydney) and ``af-south-1`` (Cape Town).
We regenerate the matrix from real region coordinates with a
fiber-path delay model ``delay = dist_km * ms_per_km + overhead``
calibrated so the extreme pair lands at ~206 ms.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Tuple

__all__ = [
    "AWS_REGIONS",
    "US_REGIONS",
    "haversine_km",
    "region_delay_ms",
    "matrix_stats",
]

# (latitude, longitude) of AWS region locations.
AWS_REGIONS: Dict[str, Tuple[float, float]] = {
    "us-east-1": (38.9, -77.0),       # N. Virginia
    "us-east-2": (40.0, -83.0),       # Ohio
    "us-west-1": (37.4, -122.0),      # N. California
    "us-west-2": (45.8, -119.7),      # Oregon
    "ca-central-1": (45.5, -73.6),    # Montreal
    "sa-east-1": (-23.5, -46.6),      # Sao Paulo
    "eu-west-1": (53.3, -6.3),        # Ireland
    "eu-west-2": (51.5, -0.1),        # London
    "eu-west-3": (48.9, 2.4),         # Paris
    "eu-central-1": (50.1, 8.7),      # Frankfurt
    "eu-north-1": (59.3, 18.1),       # Stockholm
    "eu-south-1": (45.5, 9.2),        # Milan
    "me-south-1": (26.2, 50.6),       # Bahrain
    "af-south-1": (-33.9, 18.4),      # Cape Town
    "ap-south-1": (19.1, 72.9),       # Mumbai
    "ap-southeast-1": (1.4, 103.8),   # Singapore
    "ap-southeast-2": (-33.9, 151.2),  # Sydney
    "ap-northeast-1": (35.7, 139.7),  # Tokyo
    "ap-northeast-2": (37.6, 127.0),  # Seoul
    "ap-northeast-3": (34.7, 135.5),  # Osaka
    "ap-east-1": (22.3, 114.2),       # Hong Kong
}

US_REGIONS = ("us-east-1", "us-east-2", "us-west-1", "us-west-2")

_EARTH_RADIUS_KM = 6371.0
_INTRA_DC_MS = 0.8  # paper: intra-DC delays start at 0.8 ms
_OVERHEAD_MS = 2.0
_MS_PER_KM = 0.0185

# Paper anchors for the inter-DC distribution (Figure 9(a)): raw
# geodesic delays are monotonically rescaled so the minimum, median and
# maximum match these (real fiber paths are not great circles, so a
# pure distance model needs this quantile calibration).
_TARGET_MIN_MS = 4.7
_TARGET_MEDIAN_MS = 75.5
_TARGET_MAX_MS = 206.0


def haversine_km(a: Tuple[float, float], b: Tuple[float, float]) -> float:
    """Great-circle distance between two (lat, lon) points in km."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (
        math.sin(dlat / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    )
    return 2 * _EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _raw_delay_ms(region_a: str, region_b: str) -> float:
    dist = haversine_km(AWS_REGIONS[region_a], AWS_REGIONS[region_b])
    return dist * _MS_PER_KM + _OVERHEAD_MS


def _raw_anchors() -> Tuple[float, float, float]:
    """(min, median, max) of the raw geodesic inter-DC delays."""
    names = tuple(sorted(AWS_REGIONS))
    values = sorted(
        _raw_delay_ms(a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
    )
    return values[0], statistics.median(values), values[-1]


_RAW_ANCHORS: Optional[Tuple[float, float, float]] = None


def _calibrate(raw: float) -> float:
    """Monotone piecewise-linear rescale of a raw delay so the global
    distribution's min/median/max match the paper's anchors."""
    global _RAW_ANCHORS
    if _RAW_ANCHORS is None:
        _RAW_ANCHORS = _raw_anchors()
    raw_min, raw_med, raw_max = _RAW_ANCHORS
    if raw <= raw_med:
        frac = (raw - raw_min) / (raw_med - raw_min)
        value = _TARGET_MIN_MS + frac * (_TARGET_MEDIAN_MS - _TARGET_MIN_MS)
    else:
        frac = (raw - raw_med) / (raw_max - raw_med)
        value = _TARGET_MEDIAN_MS + frac * (_TARGET_MAX_MS - _TARGET_MEDIAN_MS)
    return max(_TARGET_MIN_MS, min(_TARGET_MAX_MS, value))


def region_delay_ms(region_a: str, region_b: str) -> float:
    """One-way delay between two AWS regions (intra-DC if equal)."""
    for region in (region_a, region_b):
        if region not in AWS_REGIONS:
            raise KeyError("unknown AWS region %r" % region)
    if region_a == region_b:
        return _INTRA_DC_MS
    return round(_calibrate(_raw_delay_ms(region_a, region_b)), 1)


def matrix_stats(regions: Tuple[str, ...] = ()) -> Dict[str, float]:
    """Summary statistics of inter-DC delays (excludes the diagonal)."""
    names = tuple(regions) or tuple(sorted(AWS_REGIONS))
    values = [
        region_delay_ms(a, b)
        for i, a in enumerate(names)
        for b in names[i + 1:]
    ]
    if not values:
        raise ValueError("need at least two regions")
    return {
        "min": min(values),
        "max": max(values),
        "median": statistics.median(values),
        "mean": statistics.fmean(values),
        "count": float(len(values)),
    }
