"""The two analytics pathways must produce identical results.

INSA: LarkSwitch decodes -> AggSwitch merges -> report.
No INSA: LarkSwitch early-forwards raw semantic records -> micro-batch
engine, the L1-L4 operator chain of Figure 1(a) (``filter`` by the
event's fields, ``map`` to ((group, class), 1), ``reduceByKey``).

Same semantic cookies in, same grouped counts out — only the latency
differs.  This is the paper's core consistency claim made executable.
"""

import random

import pytest

from repro.core.aggswitch import AggSwitch
from repro.core.larkswitch import LarkSwitch
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.streaming.context import StreamingContext
from repro.testbed.spark_model import SparkLatencyModel
from repro.workloads.adcampaign import AdCampaignWorkload

KEY = bytes(range(16))
APP = 0x5C
INTERVAL_MS = 150


class MicroBatchCounts:
    """The no-INSA engine: grouped counts over early-forwarded records."""

    def __init__(self, feature, group_by):
        self.ssc = StreamingContext(batch_interval_ms=INTERVAL_MS)
        self.input = self.ssc.input_stream(num_partitions=4)
        self.counts = {}
        (
            self.input
            .filter(lambda r: feature in r and group_by in r)     # L1
            .map(lambda r: ((r[group_by], r[feature]), 1))        # L2/L3
            .reduceByKey(lambda a, b: a + b)                      # L4
            .foreachRDD(self._sink)
        )

    def _sink(self, rdd, _index):
        for key, count in rdd.collect():
            self.counts[key] = self.counts.get(key, 0) + count


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
    engine = MicroBatchCounts("gender", "campaign")
    codec = TransportCookieCodec(APP, schema, KEY, random.Random(3))
    return workload, lark, agg, engine, codec


class TestPathEquivalence:
    def test_reports_identical(self, setup):
        workload, lark, agg, engine, codec = setup
        events = workload.generate_events(80, 2000)
        for event in events:
            values = event.user.semantic_values(
                event.campaign, event.event_type
            )
            # INSA path: through the switches.
            result = lark.process_quic_packet(codec.encode(values))
            agg.process_packet(result.aggregation_payload)
            # No-INSA path: decoded values early-forwarded to the
            # micro-batch engine.
            engine.input.push(dict(result.decoded_values), event.time_ms)

        engine.ssc.run_until(2500)
        insa_report = agg.report(APP)["gender_by_campaign"]
        # Identical non-zero cells.
        insa_nonzero = {k: v for k, v in insa_report.items() if v}
        assert insa_nonzero == engine.counts
        # And both equal ground truth.
        truth = workload.reference_counts(events)["gender_by_campaign"]
        assert insa_nonzero == truth

    def test_latency_gap_matches_model(self):
        """The streaming path's result latency (batch boundary +
        processing) exceeds INSA's by orders of magnitude."""
        arrival = 10.0
        spark = SparkLatencyModel(interval_ms=INTERVAL_MS)
        streaming_latency = spark.result_time_ms(arrival) - arrival
        assert streaming_latency == INTERVAL_MS - arrival + 115.0
        insa_latency = 1.0  # line-rate aggregation
        assert streaming_latency > 100 * insa_latency

    def test_streaming_path_survives_reordering(self, setup):
        """Records may arrive out of order within a batch; counts must
        not care."""
        workload, _lark, _agg, engine, _codec = setup
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
            engine.input.push(dict(values), t)
        assert len(engine.ssc.run_until(300)) == 2
        truth = workload.reference_counts(events)["gender_by_campaign"]
        assert engine.counts == truth
