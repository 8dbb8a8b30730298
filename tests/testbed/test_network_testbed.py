"""Packet-routed testbed: agreement with the chain-based experiment
and link-level loss behaviour."""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.testbed import network_testbed
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.experiment import TestbedExperiment
from repro.testbed.network_testbed import NetworkTestbed


def _config(**kwargs):
    defaults = dict(
        scheme=Scheme.TRANS_1RTT,
        insa=True,
        requests_per_second=20,
        duration_ms=2500,
    )
    defaults.update(kwargs)
    return TestbedConfig(**defaults)


class TestConfig:
    """The testbed models Trans-1RTT + INSA with per-packet forwarding
    and nothing else: a config that asks for another pathway is
    refused up front instead of silently run as that one."""

    @pytest.mark.parametrize("field,config", [
        ("scheme", TestbedConfig()),
        ("scheme", _config(scheme=Scheme.TRANS_0RTT)),
        ("scheme", _config(scheme=Scheme.APP_HTTPS)),
        ("insa", _config(insa=False)),
        ("forwarding", _config(
            forwarding=ForwardingMode.PERIODICAL, period_ms=100.0,
        )),
        ("period_ms", _config(period_ms=100.0)),
    ], ids=("baseline", "0rtt", "app-https", "no-insa", "periodical",
            "period"))
    def test_unmodeled_config_is_refused(self, field, config):
        with pytest.raises(ValueError, match=r"config\.%s=" % field):
            NetworkTestbed(config)

    def test_default_config_is_the_modeled_pathway(self):
        testbed = NetworkTestbed()
        assert testbed.config.scheme is Scheme.TRANS_1RTT
        assert testbed.config.insa
        assert testbed.config.forwarding == ForwardingMode.PER_PACKET
        result = testbed.run()
        assert result.latencies_ms and result.counts_match_reference()


class TestAgreement:
    def test_latency_matches_chain_based_experiment(self):
        """Two independent implementations of the Trans-1RTT + INSA
        pathway (explicit chains vs hop-by-hop packets) must agree."""
        config = _config()
        chain = TestbedExperiment(config).run()
        network = NetworkTestbed(config).run()
        assert network.median_latency_ms == pytest.approx(
            chain.median_latency_ms, rel=0.02
        )

    def test_counts_exact_without_loss(self):
        result = NetworkTestbed(_config()).run()
        assert result.counts_match_reference()
        assert result.lost_packets == 0
        assert result.aggregation_packets == len(result.latencies_ms)

    def test_latency_scales_with_percentile(self):
        low = NetworkTestbed(_config(delay_percentile=25)).run()
        high = NetworkTestbed(_config(delay_percentile=90)).run()
        assert low.median_latency_ms < high.median_latency_ms

    def test_original_traffic_still_reaches_web(self):
        testbed = NetworkTestbed(_config())
        result = testbed.run()
        web = testbed.net.nodes["web"]
        # Every request's original QUIC packet continued to the web
        # server (Snatch never disturbs the user's traffic).
        assert web.completed == len(result.latencies_ms)


class TestLossBehaviour:
    def test_loss_degrades_gracefully(self):
        """Appendix B.3: losing aggregation packets loses those data
        points and nothing else."""
        result = NetworkTestbed(_config(), agg_loss_rate=0.05).run()
        assert result.lost_packets > 0
        total = result.lost_packets + len(result.latencies_ms)
        assert len(result.latencies_ms) == total - result.lost_packets
        # The aggregate undercounts by exactly the lost packets.
        counted = sum(result.report["gender_by_campaign"].values())
        expected = sum(result.reference["gender_by_campaign"].values())
        assert expected - counted == result.lost_packets

    def test_tiny_wan_loss_rarely_matters(self):
        result = NetworkTestbed(_config(), agg_loss_rate=0.0001).run()
        counted = sum(result.report["gender_by_campaign"].values())
        expected = sum(result.reference["gender_by_campaign"].values())
        assert expected - counted <= 1


class TestStreamingIngest:
    @pytest.mark.parametrize("batch", (1, 7, 1024))
    def test_ingest_batch_size_is_unobservable(self, batch, monkeypatch):
        """The pump's micro-batch is an implementation detail: a
        one-event, an odd-sized and a larger-than-the-run batch give
        the same run as the default one."""
        default = NetworkTestbed(_config()).run()
        monkeypatch.setattr(network_testbed, "_INGEST_BATCH", batch)
        other = NetworkTestbed(_config()).run()
        assert other.latencies_ms == default.latencies_ms
        assert other.report == default.report
        assert other.reference == default.reference
        assert other.aggregation_packets == default.aggregation_packets
        assert other.aggregation_bytes == default.aggregation_bytes

    def test_cache_serves_repeat_visitors(self):
        # 5 users x 8 campaigns x 2 event types = 80 distinct cookies,
        # far fewer than the ~500 requests: repeat hits are guaranteed.
        testbed = NetworkTestbed(
            _config(requests_per_second=200, num_users=5)
        )
        result = testbed.run()
        stats = testbed.cookie_cache.stats()
        assert stats["misses"] > 0
        assert stats["hits"] > 0
        assert (
            stats["hits"] + stats["queued_hits"] + stats["misses"]
            == len(result.latencies_ms)
        )

    def test_rekey_with_warm_cache_never_serves_stale_cookies(self):
        """Regression: a rekey must invalidate the encode cache along
        with the switch tiers — a warm cache serving old-key blocks
        would fail every decode and zero the analytics."""
        testbed = NetworkTestbed(_config())
        cols = testbed.workload.stream(1000.0, 100.0).generate_batch(64)
        testbed.cookie_cache.encode_columns(
            testbed.workload.cookie_keys(cols),
            lambda i: testbed.workload.cookie_values_at(cols, i),
        )
        assert len(testbed.cookie_cache) > 0
        testbed.rekey(bytes(range(16)))
        assert testbed.cookie_cache.epoch == 1
        assert len(testbed.cookie_cache) == 0
        result = testbed.run()
        assert result.counts_match_reference()
        assert result.lost_packets == 0


class TestSwitchNodes:
    def test_switch_nodes_run_the_per_packet_programs(self, monkeypatch):
        """The in-path LarkSwitch and AggSwitch nodes hand each packet
        to the per-packet entry point, as the P4 programs would."""
        testbed = NetworkTestbed(_config())
        calls = {"lark": 0, "agg": 0}

        def counting(name, entry):
            def run(item):
                calls[name] += 1
                return entry(item)
            return run

        def columnar(_items):
            raise AssertionError("switch node took the columnar path")

        lark, agg = testbed.lark_device, testbed.agg_device
        monkeypatch.setattr(lark, "process_quic_packet",
                            counting("lark", lark.process_quic_packet))
        monkeypatch.setattr(agg, "process_packet",
                            counting("agg", agg.process_packet))
        monkeypatch.setattr(lark, "process_quic_columnar", columnar)
        monkeypatch.setattr(agg, "process_columnar", columnar)
        result = testbed.run()
        assert result.counts_match_reference()
        assert calls["lark"] == len(result.latencies_ms)
        assert calls["agg"] == result.aggregation_packets


class TestWebServerOutage:
    def test_transport_path_survives_web_failure(self):
        """The transport-layer pathway forks at the LarkSwitch, before
        the web server; a web-server outage therefore cannot touch the
        analytics stream, even as the original requests are dropped."""
        testbed = NetworkTestbed(_config(duration_ms=2000))
        web = testbed.net.nodes["web"]
        web.fail_until(recover_at_ms=1000)
        result = testbed.run()
        # Analytics completed for every request despite the outage...
        assert result.counts_match_reference()
        assert len(result.latencies_ms) == result.aggregation_packets
        # ...while the web server genuinely dropped original traffic
        # during its first-second downtime.
        assert web.dropped > 0
        assert web.completed < len(result.latencies_ms)
