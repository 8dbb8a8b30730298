"""Analytics server: micro-batch pipeline vs INSA reports."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analytics_server import AnalyticsServer
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec


def _schema():
    return CookieSchema(
        "ads",
        (
            Feature.categorical("campaign", ["c0", "c1"]),
            Feature.categorical("gender", ["f", "m", "x"]),
        ),
    )


def _specs():
    return [
        StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender",
                 group_by="campaign"),
        StatSpec("gender_total", StatKind.COUNT_BY_CLASS, "gender"),
    ]


class TestStreamingPath:
    def test_grouped_counts_from_batches(self):
        server = AnalyticsServer(_schema(), _specs(), batch_interval_ms=100)
        records = [
            ({"campaign": "c0", "gender": "f"}, 10),
            ({"campaign": "c0", "gender": "f"}, 20),
            ({"campaign": "c1", "gender": "m"}, 30),
            ({"campaign": "c0", "gender": "x"}, 150),  # second batch
        ]
        for values, t in records:
            server.submit_record(values, t)
        ran = server.run_pending_batches(until_ms=300)
        assert ran == 3
        report = server.report()
        assert report["by_gender"][("c0", "f")] == 2
        assert report["by_gender"][("c1", "m")] == 1
        assert report["by_gender"][("c0", "x")] == 1
        assert report["gender_total"]["f"] == 2

    def test_counts_accumulate_across_batches(self):
        server = AnalyticsServer(_schema(), _specs(), batch_interval_ms=100)
        server.submit_record({"campaign": "c0", "gender": "f"}, 10)
        server.run_pending_batches(100)
        server.submit_record({"campaign": "c0", "gender": "f"}, 110)
        server.run_pending_batches(200)
        assert server.report()["by_gender"][("c0", "f")] == 2

    def test_incomplete_records_filtered(self):
        server = AnalyticsServer(_schema(), _specs(), batch_interval_ms=100)
        server.submit_record({"gender": "f"}, 10)  # no campaign
        server.run_pending_batches(100)
        report = server.report()
        assert report["by_gender"] == {}
        assert report["gender_total"]["f"] == 1

    def test_result_latency(self):
        server = AnalyticsServer(_schema(), _specs(), batch_interval_ms=150)
        assert server.result_latency_ms(10, processing_ms=115) == 265
        assert server.result_latency_ms(150, processing_ms=115) == 415

    @given(
        records=st.lists(st.tuples(
            st.sampled_from(["c0", "c1", None]),
            st.sampled_from(["f", "m", "x"]),
            st.floats(min_value=0, max_value=399.9),
        ), max_size=40),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_arrival_order_gives_the_same_report(self, records, seed):
        """Submission order inside and across batches does not change
        the counts: the report equals a plain fold of the records."""
        shuffled = list(records)
        random.Random(seed).shuffle(shuffled)
        server = AnalyticsServer(_schema(), _specs(), batch_interval_ms=100)
        for campaign, gender, t in shuffled:
            values = {"gender": gender}
            if campaign is not None:
                values["campaign"] = campaign
            server.submit_record(values, t)
        server.run_pending_batches(400)
        by_gender, total = {}, {}
        for campaign, gender, _t in records:
            total[gender] = total.get(gender, 0) + 1
            if campaign is not None:
                key = (campaign, gender)
                by_gender[key] = by_gender.get(key, 0) + 1
        assert server.report() == {
            "by_gender": by_gender, "gender_total": total,
        }


class TestInsaPath:
    def test_insa_report_takes_precedence(self):
        server = AnalyticsServer(_schema(), _specs(), batch_interval_ms=100)
        server.submit_record({"campaign": "c0", "gender": "f"}, 10)
        server.run_pending_batches(100)
        insa = {"by_gender": {("c0", "f"): 42}}
        server.receive_insa_report(insa)
        assert server.report() == insa
        assert server.insa_reports_received == 1


class TestValidation:
    def test_only_class_counts_supported(self):
        with pytest.raises(ValueError, match="count-by-class"):
            AnalyticsServer(
                CookieSchema("x", (Feature.number("n", 0, 9),)),
                [StatSpec("s", StatKind.SUM, "n")],
            )
