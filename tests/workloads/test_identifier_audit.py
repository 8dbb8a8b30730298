"""No shipped workload puts an individual identifier on the wire.

Snatch replaces user-ID cookies with non-identifying feature vectors
(paper sections 1 and 3.6), so every workload's cookie schema must pass
the identifier audit: no single feature may have a cardinality that
rivals the population it is drawn from.  The population is the
workload's ``num_users`` where it has one, else the ten million users
``examples/privacy_audit.py`` audits against.
"""

import pytest

from repro import workloads
from repro.core.privacy import IdentifiabilityError, audit_schema
from repro.core.schema import CookieSchema, Feature

DEFAULT_POPULATION = 10_000_000

WORKLOADS = sorted(
    name for name in workloads.__all__
    if name.endswith("Workload")
    and hasattr(getattr(workloads, name), "schema")
)


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_feature_is_an_identifier(name):
    workload = getattr(workloads, name)()
    population = getattr(workload, "num_users", DEFAULT_POPULATION)
    rejected = [
        finding
        for finding in audit_schema(
            workload.schema(), population, strict=False
        )
        if finding.severity == "reject" and finding.feature != "*"
    ]
    assert rejected == []


@pytest.mark.parametrize("population", (10**3, 10**4, 10**5, 10**6, 10**7))
def test_a_population_sized_feature_is_rejected(population):
    """The audit the shipped workloads pass is not vacuous: a cookie
    that names one of ``population`` users, beside an ordinary
    demographic, is rejected on that feature, and on the joint
    cardinality it drives past the population, at every population;
    the strict audit refuses the schema outright."""
    schema = CookieSchema(
        "per-user",
        (
            Feature.categorical("gender", ("f", "m", "x")),
            Feature.number("user", 0, population - 1),
        ),
    )
    rejected = [
        finding.feature
        for finding in audit_schema(schema, population, strict=False)
        if finding.severity == "reject"
    ]
    assert rejected == ["user", "*"]
    with pytest.raises(IdentifiabilityError):
        audit_schema(schema, population)
