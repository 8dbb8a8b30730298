"""The testbed DES's lossy LarkSwitch -> AggSwitch link (Appendix B.3):
losing UDP aggregation packets loses those data points and nothing
else, and each switch runs its per-packet entry point."""

import random
from collections import Counter

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.stats import counts_match
from repro.model.params import percentile_scenario
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.experiment import TestbedExperiment

_UDP_IP_OVERHEAD_BYTES = 28

# The five request pathways, per-packet and periodical where both exist.
PATHWAYS = {
    "baseline": dict(scheme=Scheme.BASELINE, insa=False),
    "app-https": dict(scheme=Scheme.APP_HTTPS),
    "app-periodical": dict(
        scheme=Scheme.APP_HTTPS,
        forwarding=ForwardingMode.PERIODICAL, period_ms=100.0,
    ),
    "1rtt": dict(),
    "0rtt": dict(scheme=Scheme.TRANS_0RTT),
    "no-insa": dict(insa=False),
    "periodical": dict(forwarding=ForwardingMode.PERIODICAL, period_ms=100.0),
}
# Pathways whose aggregation packets leave from the edge (or that have
# none), and those that cross the lossy LarkSwitch -> AggSwitch link.
EDGE_PATHWAYS = ("baseline", "app-https", "app-periodical")
LARK_PATHWAYS = ("1rtt", "0rtt", "no-insa", "periodical")


def _config(**kwargs):
    defaults = dict(
        scheme=Scheme.TRANS_1RTT,
        insa=True,
        requests_per_second=20,
        duration_ms=2500,
    )
    defaults.update(kwargs)
    return TestbedConfig(**defaults)


def _undercount(result):
    counted = sum(result.aggregated_report["gender_by_campaign"].values())
    expected = sum(result.reference_counts["gender_by_campaign"].values())
    return expected - counted


class TestLossBehaviour:
    def test_counts_exact_without_loss(self):
        result = TestbedExperiment(_config()).run()
        assert result.counts_match_reference()
        assert result.lost_packets == 0
        assert result.aggregation_packets == result.completed

    def test_loss_degrades_gracefully(self):
        """Per-packet forwarding: the aggregate undercounts by exactly
        the lost packets, and only their requests never complete."""
        result = TestbedExperiment(_config(), agg_loss_rate=0.05).run()
        assert result.lost_packets > 0
        assert result.aggregation_packets == result.completed
        assert result.completed + result.lost_packets == len(result.records)
        assert _undercount(result) == result.lost_packets

    def test_tiny_wan_loss_rarely_matters(self):
        result = TestbedExperiment(_config(), agg_loss_rate=0.0001).run()
        assert _undercount(result) <= 1

    def test_loss_rate_outside_unit_interval_is_refused(self):
        with pytest.raises(ValueError, match="loss rate"):
            TestbedExperiment(_config(), agg_loss_rate=1.0)


class TestLinkPlacement:
    """Only the LarkSwitch -> AggSwitch hop is lossy, as in the
    prototype: the edge's aggregation stream is untouched."""

    @pytest.mark.parametrize("pathway", EDGE_PATHWAYS)
    def test_pathways_off_the_lark_link_lose_nothing(self, pathway):
        config = _config(**PATHWAYS[pathway])
        lossless = TestbedExperiment(config).run()
        lossy = TestbedExperiment(config, agg_loss_rate=0.2).run()
        assert lossy.lost_packets == 0
        assert lossy.latencies() == lossless.latencies()
        assert lossy.aggregated_report == lossless.aggregated_report
        assert lossy.aggregation_packets == lossless.aggregation_packets
        assert lossy.aggregation_bytes == lossless.aggregation_bytes
        assert lossy.completed == len(lossy.records)

    @pytest.mark.parametrize("pathway", LARK_PATHWAYS)
    def test_every_emitted_packet_is_delivered_or_lost(self, pathway):
        """The LarkSwitch emits the same payloads whatever happens
        downstream; the link splits them into delivered and lost."""
        config = _config(**PATHWAYS[pathway])
        lossless = TestbedExperiment(config).run()
        lossy = TestbedExperiment(config, agg_loss_rate=0.2).run()
        assert lossy.lost_packets > 0
        assert (
            lossy.aggregation_packets + lossy.lost_packets
            == lossless.aggregation_packets
        )
        assert lossy.aggregation_bytes < lossless.aggregation_bytes


class TestLinkCounters:
    @pytest.mark.parametrize("pathway", PATHWAYS)
    def test_counters_are_what_the_agg_switch_received(
        self, pathway, monkeypatch
    ):
        """``aggregation_packets`` / ``aggregation_bytes`` count the
        delivered packets (payload plus UDP/IP headers), on every
        pathway, lossy or not."""
        experiment = TestbedExperiment(
            _config(**PATHWAYS[pathway]), agg_loss_rate=0.2
        )
        received = []
        process_packet = experiment.agg.process_packet

        def recording(payload):
            received.append(payload)
            return process_packet(payload)

        monkeypatch.setattr(experiment.agg, "process_packet", recording)
        result = experiment.run()
        assert result.aggregation_packets == len(received)
        assert result.aggregation_bytes == sum(
            len(p) + _UDP_IP_OVERHEAD_BYTES for p in received
        )

    @pytest.mark.parametrize("rate", (0.05, 0.2, 0.5))
    def test_observed_loss_tracks_the_rate(self, rate):
        result = TestbedExperiment(
            _config(requests_per_second=200), agg_loss_rate=rate
        ).run()
        sent = result.aggregation_packets + result.lost_packets
        sigma = (rate * (1 - rate) / sent) ** 0.5
        assert abs(result.lost_packets / sent - rate) < 4 * sigma


class TestLossAndLatency:
    @pytest.mark.parametrize("pathway", LARK_PATHWAYS)
    def test_loss_never_delays_a_delivered_request(self, pathway):
        """A lost packet only withholds its own requests' results: every
        request the lossy run completes, it completes when the lossless
        run does."""
        config = _config(**PATHWAYS[pathway])
        lossless = TestbedExperiment(config).run()
        lossy = TestbedExperiment(config, agg_loss_rate=0.2).run()
        assert lossy.completed < lossless.completed
        for kept, clean in zip(lossy.records, lossless.records):
            if kept.completed_ms is not None:
                assert kept.completed_ms == clean.completed_ms

    @pytest.mark.parametrize("percentile", (25, 50, 75, 90))
    def test_delivered_latency_is_the_analytic_sum(self, percentile):
        """Under loss, each delivered Trans-1RTT + INSA request still
        takes d_CI + d_IA plus the two switch hops, at every delay
        percentile."""
        result = TestbedExperiment(
            _config(delay_percentile=percentile), agg_loss_rate=0.2
        ).run()
        params = percentile_scenario(percentile)
        analytic = params.d_ci + params.d_ia + 2 * 0.101  # two switch hops
        assert result.lost_packets > 0
        for latency in result.latencies():
            assert latency == pytest.approx(analytic, rel=1e-9)

    @pytest.mark.parametrize("pathway", ("0rtt", "no-insa"))
    def test_undercount_is_the_lost_packets(self, pathway):
        """Per-packet forwarding carries one data point per packet on
        the other transport pathways too."""
        result = TestbedExperiment(
            _config(**PATHWAYS[pathway]), agg_loss_rate=0.05
        ).run()
        assert result.lost_packets > 0
        assert _undercount(result) == result.lost_packets


class TestPerPacketEntryPoints:
    def test_switches_run_the_per_packet_programs(self, monkeypatch):
        """The LarkSwitch sees each request's QUIC packet and the
        AggSwitch each delivered aggregation packet through the
        per-packet entry point, as the P4 programs would."""
        experiment = TestbedExperiment(_config(), agg_loss_rate=0.05)
        calls = {"lark": 0, "agg": 0}

        def counting(name, entry):
            def run(item):
                calls[name] += 1
                return entry(item)
            return run

        def columnar(_items):
            raise AssertionError("the testbed took the columnar path")

        lark, agg = experiment.lark, experiment.agg
        monkeypatch.setattr(lark, "process_quic_packet",
                            counting("lark", lark.process_quic_packet))
        monkeypatch.setattr(agg, "process_packet",
                            counting("agg", agg.process_packet))
        monkeypatch.setattr(lark, "process_quic_columnar", columnar)
        monkeypatch.setattr(agg, "process_columnar", columnar)
        result = experiment.run()
        assert result.lost_packets > 0
        assert calls["lark"] == len(result.records)
        assert calls["agg"] == result.aggregation_packets


def test_a_lost_fragment_costs_only_its_own_cells(monkeypatch):
    """Ten campaigns make a 140-cell period, sent as two fragments.
    When one fragment of such a period is lost, the report is short by
    exactly that fragment's cells: a fresh AggSwitch fed only the lost
    payloads makes up the difference to ground truth."""
    experiment = TestbedExperiment(
        TestbedConfig(
            scheme=Scheme.TRANS_1RTT,
            insa=True,
            num_campaigns=10,
            num_users=400,
            requests_per_second=800,
            forwarding=ForwardingMode.PERIODICAL,
            period_ms=1000,
            duration_ms=2000,
            seed=3,  # loses the second fragment of the second period
        ),
        agg_loss_rate=0.25,
    )
    periods, delivered = [], []
    end_period = experiment.lark.end_period
    process_packet = experiment.agg.process_packet

    def recording_end_period(app_id):
        payloads = end_period(app_id)
        periods.append(payloads)
        return payloads

    def recording_process_packet(payload):
        delivered.append(payload)
        return process_packet(payload)

    monkeypatch.setattr(experiment.lark, "end_period", recording_end_period)
    monkeypatch.setattr(
        experiment.agg, "process_packet", recording_process_packet
    )
    result = experiment.run()

    sent = Counter(p for payloads in periods for p in payloads)
    lost = list((sent - Counter(delivered)).elements())
    assert len(lost) == result.lost_packets
    assert any(
        len(payloads) > 1 and set(payloads) & set(lost)
        for payloads in periods
    ), "no fragment of a multi-fragment period was lost"
    assert not result.counts_match_reference()

    [app_id] = experiment.agg.registered_app_ids()
    fresh = AggSwitch("fresh", random.Random(0))
    fresh.register_application(
        app_id, experiment.workload.schema(), experiment._key,
        experiment.workload.specs(),
    )
    for payload in lost:
        assert fresh.process_packet(payload).merged
    recovered = fresh.report(app_id)
    combined = {
        stat: Counter(cells) + Counter(recovered.get(stat, {}))
        for stat, cells in result.aggregated_report.items()
    }
    assert counts_match(combined, result.reference_counts)
