"""Packet-routed testbed: agreement with the chain-based experiment
and link-level loss behaviour."""

import pytest

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
    def test_streaming_pump_matches_materialized_run(self):
        """The pull-based ingest pump (micro-batched generation plus
        the cookie encode cache) must be observably identical to the
        legacy materialize-everything loop."""
        streamed = NetworkTestbed(_config(), streaming_ingest=True).run()
        legacy = NetworkTestbed(_config(), streaming_ingest=False).run()
        assert streamed.latencies_ms == legacy.latencies_ms
        assert streamed.report == legacy.report
        assert streamed.reference == legacy.reference
        assert streamed.aggregation_packets == legacy.aggregation_packets
        assert streamed.aggregation_bytes == legacy.aggregation_bytes

    def test_ingest_batch_size_is_unobservable(self):
        small = NetworkTestbed(_config(), ingest_batch=7).run()
        large = NetworkTestbed(_config(), ingest_batch=1024).run()
        assert small.latencies_ms == large.latencies_ms
        assert small.report == large.report

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


def _record_batches(monkeypatch, testbed):
    """Wrap both devices' columnar kernels to record flush sizes, and
    make their per-packet entry points fail if anything calls them."""
    sizes = {"lark": [], "agg": []}

    def recording(name, kernel):
        def run(items):
            sizes[name].append(len(items))
            return kernel(items)
        return run

    def per_packet(_item):
        raise AssertionError("windowed run took the per-packet path")

    lark, agg = testbed.lark_device, testbed.agg_device
    monkeypatch.setattr(
        lark, "process_quic_columnar",
        recording("lark", lark.process_quic_columnar),
    )
    monkeypatch.setattr(
        agg, "process_columnar", recording("agg", agg.process_columnar)
    )
    monkeypatch.setattr(lark, "process_quic_packet", per_packet)
    monkeypatch.setattr(agg, "process_packet", per_packet)
    return sizes


class TestBatchWindow:
    """``batch_window_ms > 0``: both switch nodes buffer arriving
    packets for a window and flush them straight into the columnar
    kernels; per-packet outcomes are those of the window-0 run."""

    def test_flushes_go_to_the_columnar_kernels_only(self, monkeypatch):
        testbed = NetworkTestbed(_config(), batch_window_ms=5.0)
        sizes = _record_batches(monkeypatch, testbed)
        result = testbed.run()
        assert result.counts_match_reference()
        assert sum(sizes["lark"]) == len(result.latencies_ms)
        assert sum(sizes["agg"]) == result.aggregation_packets

    @pytest.mark.parametrize("window_ms", (1.0, 5.0, 20.0))
    def test_latency_is_the_window_zero_latency_plus_waits(self, window_ms):
        """Each packet waits at most one window at the LarkSwitch and
        one at the AggSwitch; nothing else about it changes."""
        scalar = NetworkTestbed(_config()).run()
        windowed = NetworkTestbed(_config(), batch_window_ms=window_ms).run()
        assert windowed.report == scalar.report
        assert windowed.aggregation_packets == scalar.aggregation_packets
        assert windowed.aggregation_bytes == scalar.aggregation_bytes
        assert len(windowed.latencies_ms) == len(scalar.latencies_ms)
        for base, waited in zip(scalar.latencies_ms, windowed.latencies_ms):
            assert base - 1e-9 <= waited <= base + 2 * window_ms + 1e-9

    def test_batch_max_one_is_the_window_zero_run(self):
        scalar = NetworkTestbed(_config()).run()
        single = NetworkTestbed(
            _config(), batch_window_ms=50.0, batch_max=1
        ).run()
        assert single.latencies_ms == scalar.latencies_ms
        assert single.report == scalar.report

    @pytest.mark.parametrize("batch_max", (2, 8))
    def test_flushes_are_capped_at_batch_max(self, monkeypatch, batch_max):
        testbed = NetworkTestbed(
            _config(requests_per_second=200, duration_ms=1000),
            batch_window_ms=50.0, batch_max=batch_max,
        )
        sizes = _record_batches(monkeypatch, testbed)
        result = testbed.run()
        assert result.counts_match_reference()
        for name in ("lark", "agg"):
            assert max(sizes[name]) == batch_max
            assert min(sizes[name]) >= 1

    @pytest.mark.parametrize("agg_shards", (2, 3))
    def test_sharded_agg_reports_the_window_zero_result(self, agg_shards):
        scalar = NetworkTestbed(_config()).run()
        sharded = NetworkTestbed(
            _config(), batch_window_ms=5.0, agg_shards=agg_shards
        ).run()
        assert sharded.counts_match_reference()
        assert sharded.report == scalar.report

    @pytest.mark.parametrize(
        "option",
        ({"batch_window_ms": -1.0}, {"batch_max": 0}, {"ingest_batch": 0}),
        ids=("negative-window", "zero-batch-max", "zero-ingest-batch"),
    )
    def test_invalid_option_rejected(self, option):
        with pytest.raises(ValueError):
            NetworkTestbed(_config(), **option)


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
