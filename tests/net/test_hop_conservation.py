"""Hop conservation: every lark -> agg hop accounts for each arrival.

``arrived - dropped + duplicated == delivered + held`` must hold on the
hop after a run of each harness that carries one: the testbed DES, the
chaos harness, and all three streaming-pipeline tiers (the persistent
tier's counts ride the worker's barrier reply).
"""

import pytest

from repro.chaos import ChaosHarness, ChaosScenario, standard_outage
from repro.core.aggregation import ForwardingMode
from repro.obs.registry import MetricsRegistry
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.experiment import TestbedExperiment
from repro.testbed.pipeline import PIPELINE_BACKENDS, StreamingPipeline
from repro.workloads.adcampaign import AdCampaignWorkload


def _conserved(counts):
    return (
        counts["arrived"] - counts["dropped"] + counts["duplicated"]
        == counts["delivered"] + counts["held"]
    )


@pytest.mark.parametrize("forwarding", (
    ForwardingMode.PER_PACKET, ForwardingMode.PERIODICAL,
))
def test_testbed_des(forwarding):
    experiment = TestbedExperiment(
        TestbedConfig(
            scheme=Scheme.TRANS_1RTT, requests_per_second=40,
            duration_ms=2000, forwarding=forwarding, period_ms=100.0,
        ),
        agg_loss_rate=0.2,
    )
    result = experiment.run()
    lark = experiment._lark_link.hop.counts()
    assert lark["dropped"] == result.lost_packets > 0
    assert lark["delivered"] == result.aggregation_packets
    for link in (experiment._lark_link, experiment._edge_link):
        assert _conserved(link.hop.counts())


@pytest.mark.parametrize("scenario", (
    standard_outage(),
    ChaosScenario("dup").link_faults("lark", "agg", duplicate=0.8),
    ChaosScenario("all").link_faults(
        "lark", "agg", drop=0.2, duplicate=0.3, reorder=0.3
    ),
), ids=("standard-outage", "duplicate", "drop-duplicate-reorder"))
def test_chaos_harness(scenario):
    harness = ChaosHarness(seed=9)
    result = harness.apply(scenario).run()
    hops = [link.hop for link in harness.links.values()]
    assert sum(hop.arrived for hop in hops) == result.reports_sent > 0
    assert sum(hop.dropped for hop in hops) == result.reports_lost
    assert sum(hop.held for hop in hops) == result.reports_held
    for hop in hops:
        assert _conserved(hop.counts())


@pytest.mark.parametrize("scenario", (
    standard_outage(),
    ChaosScenario("drop-dup").link_faults(
        "lark", "agg", drop=0.3, duplicate=0.5
    ),
), ids=("standard-outage", "drop-duplicate"))
def test_chaos_without_reorder_holds_nothing(scenario):
    """Only ``reorder`` holds reports back; drops and duplicates
    settle before the run ends."""
    harness = ChaosHarness(seed=9)
    result = harness.apply(scenario).run()
    assert result.reports_held == 0
    assert all(link.hop.held == 0 for link in harness.links.values())


@pytest.mark.parametrize("seed,held", ((0, 2), (1, 2), (2, 1), (9, 3)))
def test_chaos_reorder_holds_reports_past_the_run(seed, held):
    """A chaos ``reorder`` holds a report back k *reports*; the ones
    held when the last period closes are never delivered: late loss,
    counted in ``reports_held`` and not in ``reports_lost``."""
    harness = ChaosHarness(seed=seed)
    result = harness.apply(
        ChaosScenario("r").link_faults("lark", "agg", reorder=0.3)
    ).run()
    lark = harness.links[("lark", "agg")].hop.counts()
    assert lark["arrived"] == result.reports_sent == 9
    assert lark["held"] == result.reports_held == held
    assert lark["delivered"] == 9 - held
    assert result.reports_lost == 0
    for link in harness.links.values():
        assert _conserved(link.hop.counts())
    # The repair loop reconciled what the held reports left out.
    assert result.consistent


@pytest.mark.parametrize("backend", PIPELINE_BACKENDS)
def test_streaming_pipeline(backend):
    seen = []
    with StreamingPipeline(
        AdCampaignWorkload(num_users=80, seed=11),
        seed=11,
        mode=ForwardingMode.PERIODICAL,
        period_ms=20.0,
        backend=backend,
        batch_size=64,
        corrupt_probability=0.2,
        reorder_probability=0.3,
        checkpoint_every_periods=1,
        on_batch=lambda pipe, _cols: seen.append(dict(pipe.hop_counts)),
        registry=MetricsRegistry(),
    ) as pipe:
        result = pipe.run(3000.0, 400.0)
    counts = result.hop
    assert counts["arrived"] == result.payloads > 0
    assert counts["held"] == 0 and counts["reordered"] > 0
    assert counts["delivered"] == result.payloads
    assert _conserved(counts)
    # Period-checkpoint barriers report mid-run counts, some of them
    # with payloads still held back.
    mid = [c for c in seen if c]
    assert mid and any(c["held"] for c in mid)
    assert all(_conserved(c) for c in mid)
