"""``cookie_rows`` — the columnar tier's integer view of a batch's
cookie contents — against ``cookie_values_at``, the scalar tier's
value dicts: the row of event ``i`` is ``validate_values`` of its
dict, for every workload that feeds the encode cache."""

import pytest

from repro.workloads.adcampaign import AdCampaignWorkload
from repro.workloads.crowd import CrowdWorkload
from repro.workloads.resource import ResourceDemandWorkload
from repro.workloads.scale import ScaleWorkload

WORKLOADS = {
    "adcampaign": lambda: AdCampaignWorkload(num_users=150, seed=8),
    "scale": lambda: ScaleWorkload(num_users=5000, seed=8),
    "crowd": lambda: CrowdWorkload(num_members=150, seed=8),
    "resource": lambda: ResourceDemandWorkload(num_tenants=150, seed=8),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rows_are_the_validated_values(name):
    workload = WORKLOADS[name]()
    schema = workload.schema()
    names = schema.feature_names()
    cols = workload.stream(20000.0, 30.0).generate_batch(400)
    assert len(cols) == 400
    expected = []
    for i in range(len(cols)):
        wires = schema.validate_values(workload.cookie_values_at(cols, i))
        expected.append(tuple(wires.get(n, -1) for n in names))
    assert workload.cookie_rows(cols, range(len(cols))) == expected
    # Any subset, any order: the rows of exactly the listed events.
    picked = [7, 3, 399, 3]
    assert workload.cookie_rows(cols, picked) == [
        expected[i] for i in picked
    ]
    assert workload.cookie_rows(cols, []) == []
    assert {type(w) for row in expected for w in row} == {int}
