"""Report verification is strict on every result type.

``counts_match_reference`` on the three testbed results answers the
same question — does the in-network aggregate equal ground truth — so
it must answer it the same way: every reference cell reported with its
exact count, and no non-zero cell the reference lacks.
"""

import pytest

from repro.testbed.config import TestbedConfig
from repro.testbed.experiment import TestbedResult
from repro.testbed.network_testbed import NetworkRunResult
from repro.testbed.pipeline import PipelineResult

REFERENCE = {"gender_by_campaign": {("camp-0", "m"): 3, ("camp-1", "f"): 1}}


def _pipeline(report):
    return PipelineResult(
        events=4, batches=1, payloads=1, merged=1, periods=1,
        backend="columnar", report=report, reference=REFERENCE,
        register_state={}, cache_stats={},
    )


def _network(report):
    return NetworkRunResult(
        latencies_ms=[1.0], aggregation_packets=1, aggregation_bytes=70,
        report=report, reference=REFERENCE, lost_packets=0,
    )


def _experiment(report):
    return TestbedResult(
        config=TestbedConfig(), records=[], aggregation_bytes=70,
        aggregation_packets=1, aggregated_report=report,
        reference_counts=REFERENCE,
    )


RESULTS = (_pipeline, _network, _experiment)


def _report(cells=()):
    merged = dict(REFERENCE["gender_by_campaign"])
    merged.update(cells)
    return {"gender_by_campaign": merged}


@pytest.mark.parametrize("make", RESULTS)
class TestCountsMatchReference:
    def test_exact_report_verifies(self, make):
        assert make(_report()).counts_match_reference()

    def test_zero_cells_the_reference_lacks_are_fine(self, make):
        report = _report(cells={("camp-1", "m"): 0})
        assert make(report).counts_match_reference()

    def test_spurious_cell_fails(self, make):
        report = _report(cells={("camp-1", "m"): 2})
        assert not make(report).counts_match_reference()

    def test_wrong_or_missing_count_fails(self, make):
        assert not make(
            _report(cells={("camp-0", "m"): 2})
        ).counts_match_reference()
        assert not make(
            {"gender_by_campaign": {("camp-0", "m"): 3}}
        ).counts_match_reference()
