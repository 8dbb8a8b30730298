"""Ten campaigns make a 140-cell period (sixteen, 224): more than one
aggregation packet counts (127), so every periodical tier sends
fragments.  Each must still report ground truth."""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.experiment import TestbedExperiment
from repro.testbed.pipeline import PIPELINE_BACKENDS, StreamingPipeline
from repro.workloads.adcampaign import AdCampaignWorkload


@pytest.mark.parametrize("num_campaigns", [10, 16])
@pytest.mark.parametrize("backend", PIPELINE_BACKENDS)
def test_wide_periodical_pipeline(backend, num_campaigns):
    workload = AdCampaignWorkload(
        num_users=400, num_campaigns=num_campaigns, seed=11
    )
    with StreamingPipeline(
        workload,
        mode=ForwardingMode.PERIODICAL,
        period_ms=500,
        backend=backend,
    ) as pipe:
        result = pipe.run(4000, 2000)
    # Three boundaries plus the tail flush; each period touched more
    # than 127 cells (140 or 224), so each is two fragments.
    assert result.periods == 4
    assert result.payloads == 8
    assert result.counts_match_reference()


@pytest.mark.parametrize("insa", [True, False])
@pytest.mark.parametrize(
    "scheme", [Scheme.TRANS_1RTT, Scheme.TRANS_0RTT, Scheme.APP_HTTPS]
)
def test_ten_campaigns_periodical_testbed(scheme, insa):
    result = TestbedExperiment(TestbedConfig(
        scheme=scheme,
        insa=insa,
        num_campaigns=10,
        num_users=400,
        requests_per_second=800,
        forwarding=ForwardingMode.PERIODICAL,
        period_ms=1000,
        duration_ms=2000,
    )).run()
    # Two busy periods of two fragments each, then the stragglers'.
    assert result.aggregation_packets >= 5
    assert result.counts_match_reference()
    # Every record completes, with its period's last fragment.
    assert all(r.completed_ms is not None for r in result.records)
