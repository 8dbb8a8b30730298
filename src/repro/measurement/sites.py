"""Synthetic dVPN measurement sites (paper Figure 4).

The paper measures 2,253 residential Mysterium dVPN nodes across 87
countries over 14 days; the US hosts the most sites, followed by the UK
and Germany.  We regenerate a site census with those properties: a
Zipf-like allocation over 87 countries with the paper's top countries
pinned, each site annotated with its country, continent, nearest AWS
region, and a 'remoteness' coordinate that correlates its delay
percentiles across metrics.

The paper also discards nodes miscategorized as residential — those
whose first 10 traceroute hops never reach a public IP; we model that
filter with a per-site residential flag.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["Site", "SiteCensus", "generate_sites", "TOTAL_SITES",
           "TOTAL_COUNTRIES", "COUNTRY_CONTINENTS"]

TOTAL_SITES = 2253
TOTAL_COUNTRIES = 87

# Countries explicitly named or implied by the paper, with continent
# and the closest AWS region.  Remaining countries are generated.
COUNTRY_CONTINENTS: Dict[str, Tuple[str, str]] = {
    "US": ("North America", "us-east-1"),
    "GB": ("Europe", "eu-west-2"),
    "DE": ("Europe", "eu-central-1"),
    "FR": ("Europe", "eu-west-3"),
    "NL": ("Europe", "eu-central-1"),
    "CA": ("North America", "ca-central-1"),
    "BR": ("South America", "sa-east-1"),
    "IN": ("Asia", "ap-south-1"),
    "JP": ("Asia", "ap-northeast-1"),
    "AU": ("Oceania", "ap-southeast-2"),
    "SG": ("Asia", "ap-southeast-1"),
    "ZA": ("Africa", "af-south-1"),
    "KR": ("Asia", "ap-northeast-2"),
    "HK": ("Asia", "ap-east-1"),
    "IT": ("Europe", "eu-south-1"),
    "SE": ("Europe", "eu-north-1"),
    "IE": ("Europe", "eu-west-1"),
    "BH": ("Asia", "me-south-1"),
}

_CONTINENT_REGIONS = {
    "North America": "us-east-1",
    "South America": "sa-east-1",
    "Europe": "eu-central-1",
    "Asia": "ap-southeast-1",
    "Oceania": "ap-southeast-2",
    "Africa": "af-south-1",
}

_CONTINENT_WEIGHTS = [
    ("Europe", 0.40),
    ("North America", 0.25),
    ("Asia", 0.20),
    ("South America", 0.07),
    ("Oceania", 0.04),
    ("Africa", 0.04),
]


@dataclass
class Site:
    """One measurement vantage point (a residential dVPN node)."""

    site_id: int
    country: str
    continent: str
    nearest_region: str
    remoteness: float  # in [0, 1]; correlates delay percentiles
    residential: bool = True
    isp_asn: int = 0


@dataclass
class SiteCensus:
    """The full generated site population with per-country counts."""

    sites: List[Site]

    def per_country(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for site in self.sites:
            counts[site.country] = counts.get(site.country, 0) + 1
        return counts

    def top_countries(self, n: int = 10) -> List[Tuple[str, int]]:
        return sorted(
            self.per_country().items(), key=lambda kv: (-kv[1], kv[0])
        )[:n]

    def countries(self) -> int:
        return len(self.per_country())


def _zipf_allocation(
    total: int, ranks: int, exponent: float = 1.0
) -> List[int]:
    """Allocate ``total`` items over ``ranks`` buckets Zipf-style, with
    every bucket getting at least one."""
    weights = [1.0 / (rank ** exponent) for rank in range(1, ranks + 1)]
    scale = total / sum(weights)
    counts = [max(1, int(w * scale)) for w in weights]
    # Fix rounding drift on the largest bucket.
    counts[0] += total - sum(counts)
    return counts


def generate_sites(
    total_sites: int = TOTAL_SITES,
    total_countries: int = TOTAL_COUNTRIES,
    seed: int = 2024,
    non_residential_rate: float = 0.08,
) -> SiteCensus:
    """Generate the synthetic census.

    Country ranks follow the paper's ordering (US, GB, DE first), with
    synthetic ISO-like codes for the long tail.
    """
    if total_sites < total_countries:
        raise ValueError("need at least one site per country")
    rng = random.Random(seed)
    named = list(COUNTRY_CONTINENTS)
    countries: List[str] = list(named)
    serial = 0
    while len(countries) < total_countries:
        code = "X%02d" % serial
        serial += 1
        countries.append(code)
    counts = _zipf_allocation(total_sites, total_countries, exponent=1.1)

    sites: List[Site] = []
    site_id = 0
    for country, count in zip(countries, counts):
        if country in COUNTRY_CONTINENTS:
            continent, region = COUNTRY_CONTINENTS[country]
        else:
            continent = rng.choices(
                [c for c, _ in _CONTINENT_WEIGHTS],
                weights=[w for _, w in _CONTINENT_WEIGHTS],
            )[0]
            region = _CONTINENT_REGIONS[continent]
        for _ in range(count):
            sites.append(
                Site(
                    site_id=site_id,
                    country=country,
                    continent=continent,
                    nearest_region=region,
                    remoteness=rng.random(),
                    residential=rng.random() >= non_residential_rate,
                    isp_asn=rng.randint(1000, 65000),
                )
            )
            site_id += 1
    return SiteCensus(sites=sites)
