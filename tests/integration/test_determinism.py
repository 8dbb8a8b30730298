"""Determinism: identical configurations must reproduce bit-identical
results — the property that makes a simulation study reviewable."""

from repro.core.aggregation import ForwardingMode
from repro.measurement.study import MeasurementStudy
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.experiment import TestbedExperiment
from repro.workloads.adcampaign import AdCampaignWorkload


class TestTestbedDeterminism:
    def test_chain_experiment_reproducible(self):
        config = TestbedConfig(
            scheme=Scheme.TRANS_1RTT, insa=True,
            requests_per_second=50, duration_ms=2000, seed=77,
        )
        a = TestbedExperiment(config).run()
        b = TestbedExperiment(config).run()
        assert a.latencies() == b.latencies()
        assert a.aggregated_report == b.aggregated_report
        assert a.aggregation_bytes == b.aggregation_bytes

    def test_lossy_chain_experiment_reproducible(self):
        config = TestbedConfig(
            scheme=Scheme.TRANS_1RTT, insa=True,
            requests_per_second=30, duration_ms=1500, seed=78,
        )
        a = TestbedExperiment(config, agg_loss_rate=0.01).run()
        b = TestbedExperiment(config, agg_loss_rate=0.01).run()
        assert a.latencies() == b.latencies()
        assert a.lost_packets == b.lost_packets
        assert a.aggregated_report == b.aggregated_report

    def test_periodical_reproducible(self):
        config = TestbedConfig(
            scheme=Scheme.APP_HTTPS, insa=True,
            requests_per_second=100, duration_ms=1500,
            forwarding=ForwardingMode.PERIODICAL, period_ms=100, seed=79,
        )
        a = TestbedExperiment(config).run()
        b = TestbedExperiment(config).run()
        assert a.latencies() == b.latencies()

    def test_lossy_periodical_reproducible(self):
        """A lost fragment withholds its whole period: which one is lost
        must be the same on every run of one seed."""
        config = TestbedConfig(
            scheme=Scheme.TRANS_1RTT, insa=True,
            requests_per_second=100, duration_ms=1500,
            forwarding=ForwardingMode.PERIODICAL, period_ms=100, seed=80,
        )
        a = TestbedExperiment(config, agg_loss_rate=0.2).run()
        b = TestbedExperiment(config, agg_loss_rate=0.2).run()
        assert a.lost_packets > 0
        assert a.lost_packets == b.lost_packets
        assert a.latencies() == b.latencies()
        assert a.aggregated_report == b.aggregated_report

    def test_different_seeds_differ(self):
        base = dict(scheme=Scheme.TRANS_1RTT, insa=True,
                    requests_per_second=50, duration_ms=2000)
        a = TestbedExperiment(TestbedConfig(seed=1, **base)).run()
        b = TestbedExperiment(TestbedConfig(seed=2, **base)).run()
        assert a.records[0].event.time_ms != b.records[0].event.time_ms


class TestStudyDeterminism:
    def test_campaign_reproducible(self):
        a = MeasurementStudy(seed=11).run(max_sites=150)
        b = MeasurementStudy(seed=11).run(max_sites=150)
        assert a.summary() == b.summary()
        assert a.discarded_sites == b.discarded_sites

    def test_workload_reproducible(self):
        a = AdCampaignWorkload(seed=4).generate_events(100, 1000)
        b = AdCampaignWorkload(seed=4).generate_events(100, 1000)
        assert a == b
