"""Site census: totals, country ranking, residential filtering."""

import pytest

from repro.measurement.sites import (
    COUNTRY_CONTINENTS,
    TOTAL_COUNTRIES,
    TOTAL_SITES,
    generate_sites,
)


class TestCensusShape:
    def test_totals_match_paper(self):
        census = generate_sites()
        assert len(census.sites) == TOTAL_SITES == 2253
        assert census.countries() == TOTAL_COUNTRIES == 87

    def test_us_uk_de_lead(self):
        top = generate_sites().top_countries(3)
        assert [country for country, _n in top] == ["US", "GB", "DE"]

    def test_every_country_has_a_site(self):
        counts = generate_sites().per_country()
        assert all(n >= 1 for n in counts.values())

    def test_zipf_like_decay(self):
        top = generate_sites().top_countries(10)
        counts = [n for _c, n in top]
        assert counts == sorted(counts, reverse=True)
        assert counts[0] > 3 * counts[9]

    def test_named_countries_have_fixed_continents(self):
        census = generate_sites()
        by_country = {}
        for site in census.sites:
            by_country.setdefault(site.country, site.continent)
        for country, (continent, _region) in COUNTRY_CONTINENTS.items():
            assert by_country[country] == continent

    def test_remoteness_in_unit_interval(self):
        assert all(
            0.0 <= site.remoteness <= 1.0
            for site in generate_sites().sites
        )


class TestResidentialFilter:
    def test_some_sites_non_residential(self):
        census = generate_sites(non_residential_rate=0.2, seed=3)
        residential = [s for s in census.sites if s.residential]
        assert 0 < len(residential) < len(census.sites)

    def test_zero_rate(self):
        census = generate_sites(non_residential_rate=0.0)
        assert all(s.residential for s in census.sites)


class TestDeterminism:
    def test_same_seed_same_census(self):
        a = generate_sites(seed=5)
        b = generate_sites(seed=5)
        assert a.per_country() == b.per_country()
        assert [s.remoteness for s in a.sites[:20]] == [
            s.remoteness for s in b.sites[:20]
        ]

    def test_custom_sizes(self):
        census = generate_sites(total_sites=200, total_countries=10)
        assert len(census.sites) == 200
        assert census.countries() == 10

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            generate_sites(total_sites=5, total_countries=10)
