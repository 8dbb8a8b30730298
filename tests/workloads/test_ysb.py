"""Yahoo Streaming Benchmark on the micro-batch engine."""

import pytest

from repro.workloads.ysb import YsbPipeline, YsbWorkload


class TestWorkload:
    def test_campaign_table_shape(self):
        workload = YsbWorkload(num_campaigns=5, ads_per_campaign=4, seed=1)
        assert len(workload.campaigns) == 5
        assert len(workload.ad_to_campaign) == 20
        assert all(
            campaign in workload.campaigns
            for campaign in workload.ad_to_campaign.values()
        )

    def test_event_stream(self):
        workload = YsbWorkload(seed=2)
        events = workload.generate_events(100, 5000)
        assert 350 <= len(events) <= 650
        assert all(e.ad_id in workload.ad_to_campaign for e in events)
        times = [e.event_time_ms for e in events]
        assert times == sorted(times)

    def test_reference_only_counts_views(self):
        workload = YsbWorkload(seed=3)
        events = workload.generate_events(300, 2000)
        reference = workload.reference_window_counts(events, 1000)
        views = sum(1 for e in events if e.event_type == "view")
        assert sum(reference.values()) == views

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            YsbWorkload(num_campaigns=0)
        with pytest.raises(ValueError):
            YsbWorkload().generate_events(0, 100)


class TestPipeline:
    def test_matches_reference_exactly(self):
        workload = YsbWorkload(num_campaigns=5, ads_per_campaign=4, seed=1)
        events = workload.generate_events(200, 3000)
        pipeline = YsbPipeline(workload, window_ms=1000,
                               batch_interval_ms=500)
        pipeline.feed(events)
        pipeline.run(4000)
        assert pipeline.results() == workload.reference_window_counts(
            events, 1000
        )

    def test_window_equals_interval(self):
        workload = YsbWorkload(seed=4)
        events = workload.generate_events(100, 2000)
        pipeline = YsbPipeline(workload, window_ms=500)
        pipeline.feed(events)
        pipeline.run(2500)
        assert pipeline.results() == workload.reference_window_counts(
            events, 500
        )

    def test_non_view_events_excluded(self):
        workload = YsbWorkload(seed=5)
        events = [
            e for e in workload.generate_events(200, 1000)
            if e.event_type != "view"
        ]
        pipeline = YsbPipeline(workload, window_ms=1000)
        pipeline.feed(events)
        pipeline.run(2000)
        assert pipeline.results() == {}

    @pytest.mark.parametrize("window_ms,interval_ms", [
        (300, 100), (400, 400), (600, 200), (1000, 100), (1000, 250),
        (1000, 500), (2000, 500),
    ])
    def test_window_grid_matches_reference_with_a_bounded_cache(
        self, window_ms, interval_ms
    ):
        workload = YsbWorkload(num_campaigns=4, ads_per_campaign=3, seed=7)
        events = workload.generate_events(150, 4000)
        pipeline = YsbPipeline(workload, window_ms=window_ms,
                               batch_interval_ms=interval_ms)
        pipeline.feed(events)
        pipeline.run(4000 + window_ms)  # past the last window's end
        assert pipeline.results() == workload.reference_window_counts(
            events, window_ms
        )
        # No stream holds more batches than the window spans.
        span = window_ms // interval_ms
        assert all(len(s._cache) <= span for s in pipeline.ssc._streams)

    def test_window_must_align_with_interval(self):
        with pytest.raises(ValueError, match="multiple"):
            YsbPipeline(YsbWorkload(seed=6), window_ms=1000,
                        batch_interval_ms=300)
