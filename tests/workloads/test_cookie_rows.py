"""``cookie_rows`` — the columnar tier's integer view of a batch's
cookie contents — against ``cookie_values_at``, the scalar tier's
value dicts: the row of event ``i`` is ``validate_values`` of its
dict, for every workload that feeds the encode cache.  The ad workload
returns large selections as one int64 matrix; ``_tuples`` reads either
shape as a list of tuples."""

import pytest

from repro.switch import columns

from repro.workloads.adcampaign import AdCampaignWorkload
from repro.workloads.crowd import CrowdWorkload
from repro.workloads.resource import ResourceDemandWorkload

WORKLOADS = {
    "adcampaign": lambda: AdCampaignWorkload(num_users=150, seed=8),
    "crowd": lambda: CrowdWorkload(num_members=150, seed=8),
    "resource": lambda: ResourceDemandWorkload(num_tenants=150, seed=8),
}


def _tuples(rows):
    return list(map(tuple, rows.tolist() if hasattr(rows, "tolist") else rows))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rows_are_the_validated_values(name):
    _check_rows(WORKLOADS[name]())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_rows_with_the_numpy_gate_closed(name):
    previous = columns._FORCED
    columns.force_numpy(False)
    try:
        _check_rows(WORKLOADS[name]())
    finally:
        columns._FORCED = previous


def _check_rows(workload):
    schema = workload.schema()
    names = schema.feature_names()
    cols = workload.stream(20000.0, 30.0).generate_batch(400)
    assert len(cols) == 400
    expected = []
    for i in range(len(cols)):
        wires = schema.validate_values(workload.cookie_values_at(cols, i))
        expected.append(tuple(wires.get(n, -1) for n in names))
    assert _tuples(workload.cookie_rows(cols, range(len(cols)))) == expected
    # Any subset, any order: the rows of exactly the listed events.
    for picked in ([7, 3, 399, 3], [399 - 5 * i for i in range(70)]):
        assert _tuples(workload.cookie_rows(cols, picked)) == [
            expected[i] for i in picked
        ]
    assert _tuples(workload.cookie_rows(cols, [])) == []
    assert {type(w) for row in expected for w in row} == {int}
