"""The two analytics pathways must produce identical results.

INSA: LarkSwitch decodes -> AggSwitch merges -> report.
No INSA: LarkSwitch early-forwards raw semantic records -> micro-batch
engine at the analytics server.

Same semantic cookies in, same grouped counts out — only the latency
differs.  This is the paper's core consistency claim made executable.
"""

import random

import pytest

from repro.core.aggswitch import AggSwitch
from repro.core.analytics_server import AnalyticsServer
from repro.core.larkswitch import LarkSwitch
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.workloads.adcampaign import AdCampaignWorkload

KEY = bytes(range(16))
APP = 0x5C


@pytest.fixture()
def setup():
    workload = AdCampaignWorkload(num_users=60, num_campaigns=4, seed=17)
    schema = workload.schema()
    specs = [
        StatSpec("gender_by_campaign", StatKind.COUNT_BY_CLASS,
                 "gender", group_by="campaign"),
    ]
    lark = LarkSwitch("lark", random.Random(1))
    lark.register_application(APP, schema, KEY, specs)
    agg = AggSwitch("agg", random.Random(2))
    agg.register_application(APP, schema, KEY, specs)
    analytics = AnalyticsServer(schema, specs, batch_interval_ms=150)
    codec = TransportCookieCodec(APP, schema, KEY, random.Random(3))
    return workload, lark, agg, analytics, codec


class TestPathEquivalence:
    def test_reports_identical(self, setup):
        workload, lark, agg, analytics, codec = setup
        events = workload.generate_events(80, 2000)
        for event in events:
            values = event.user.semantic_values(
                event.campaign, event.event_type
            )
            # INSA path: through the switches.
            result = lark.process_quic_packet(codec.encode(values))
            agg.process_packet(result.aggregation_payload)
            # No-INSA path: decoded values early-forwarded to the
            # analytics server's engine.
            analytics.submit_record(result.decoded_values, event.time_ms)

        analytics.run_pending_batches(until_ms=2500)
        insa_report = agg.report(APP)["gender_by_campaign"]
        streaming_report = analytics.report()["gender_by_campaign"]
        # Identical non-zero cells.
        insa_nonzero = {k: v for k, v in insa_report.items() if v}
        assert insa_nonzero == streaming_report
        # And both equal ground truth.
        truth = workload.reference_counts(events)["gender_by_campaign"]
        assert insa_nonzero == truth

    def test_latency_gap_matches_model(self, setup):
        """The streaming path's result latency (batch boundary +
        processing) exceeds INSA's by orders of magnitude."""
        _w, _lark, _agg, analytics, _codec = setup
        arrival = 10.0
        streaming_latency = analytics.result_latency_ms(arrival) - arrival
        insa_latency = 1.0  # line-rate aggregation
        assert streaming_latency > 100 * insa_latency

    def test_streaming_path_survives_reordering(self, setup):
        """Records may arrive out of order within a batch; counts must
        not care."""
        workload, lark, _agg, analytics, codec = setup
        events = workload.generate_events(50, 140)  # all in one batch
        values_list = []
        for event in events:
            values = event.user.semantic_values(
                event.campaign, event.event_type
            )
            values_list.append((values, event.time_ms))
        random.Random(5).shuffle(values_list)
        assert values_list != sorted(values_list, key=lambda vt: vt[1])
        for values, t in values_list:
            analytics.submit_record(values, t)
        analytics.run_pending_batches(until_ms=300)
        truth = workload.reference_counts(events)["gender_by_campaign"]
        assert analytics.report()["gender_by_campaign"] == truth
