"""Hot-path instrumentation: pipeline stages and the LarkSwitch.

Each test injects a fresh :class:`MetricsRegistry` so assertions see
exactly the series of the component under test (and, implicitly, that
instrumented components honour the ``registry=`` argument instead of
writing to the process default).
"""

import random

from repro.core.larkswitch import LarkSwitch
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs import DEFAULT_LATENCY_EDGES_US, MetricsRegistry
from repro.switch.pipeline import SwitchPipeline
from repro.switch.tables import (
    MatchActionTable,
    MatchKey,
    MatchKind,
    TableEntry,
)


def _classifier_pipeline(registry):
    """Two stages: stage 0 matches app==7, stage 1 never matches."""
    pipe = SwitchPipeline("t", registry=registry)
    classify = MatchActionTable(
        "classify", [MatchKey("app", MatchKind.EXACT, 8)]
    )
    classify.insert(TableEntry(match_values=(7,), action="mark"))
    pipe.add_table(stage=0, table=classify)
    pipe.add_table(
        stage=1,
        table=MatchActionTable(
            "never", [MatchKey("app", MatchKind.EXACT, 8)]
        ),
    )
    pipe.register_action("mark", lambda p, phv, params: None)
    return pipe


class TestPipelineMetrics:
    def test_per_stage_hits_and_misses(self):
        registry = MetricsRegistry()
        pipe = _classifier_pipeline(registry)
        pipe.process({"app": 7})  # stage0 hit, stage1 miss
        pipe.process({"app": 9})  # stage0 miss, stage1 miss
        assert registry.value("pipeline.t.packets") == 2
        assert registry.value("pipeline.t.stage00.hits") == 1
        assert registry.value("pipeline.t.stage00.misses") == 1
        assert registry.value("pipeline.t.stage01.misses") == 2
        assert registry.value("pipeline.t.drops") == 0

    def test_drop_counted_and_later_stages_skipped(self):
        registry = MetricsRegistry()
        pipe = _classifier_pipeline(registry)
        pipe.register_action(
            "kill", lambda p, phv, params: setattr(phv, "drop", True)
        )
        killer = MatchActionTable(
            "killer", [MatchKey("app", MatchKind.EXACT, 8)]
        )
        killer.insert(TableEntry(match_values=(7,), action="kill"))
        pipe.stages[0].add_table(killer)
        pipe.process({"app": 7})
        assert registry.value("pipeline.t.drops") == 1
        # The drop in stage 0 means stage 1's table never looked up.
        assert registry.value("pipeline.t.stage01.misses") == 0

    def test_latency_histogram_charges_extra_latency(self):
        registry = MetricsRegistry()
        pipe = SwitchPipeline("t", registry=registry)
        pipe.process({})  # line rate only: 1 us
        hist = registry.get("pipeline.t.latency_us")
        assert hist.edges == DEFAULT_LATENCY_EDGES_US
        assert hist.count == 1
        assert hist.total == 1

    def test_shared_name_shares_series(self):
        """Two pipelines with one name aggregate into one series, the
        way two replicas share a Prometheus metric."""
        registry = MetricsRegistry()
        SwitchPipeline("t", registry=registry).process({})
        SwitchPipeline("t", registry=registry).process({})
        assert registry.value("pipeline.t.packets") == 2


APP = 0x42
KEY = bytes(range(16))


def _schema():
    return CookieSchema(
        "app",
        (
            Feature.categorical("gender", ["f", "m", "x"]),
            Feature.number("demand", 0, 1000),
        ),
    )


class TestLarkSwitchMetrics:
    def test_packet_decode_and_register_series(self):
        registry = MetricsRegistry()
        lark = LarkSwitch("lark", random.Random(3), registry=registry)
        lark.register_application(
            APP, _schema(), KEY,
            [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")],
        )
        codec = TransportCookieCodec(APP, _schema(), KEY, random.Random(4))
        result = lark.process_quic_packet(codec.encode({"gender": "x"}))
        assert result.matched
        assert registry.value("lark.lark.packets") == 1
        assert registry.value("lark.lark.decoded") == 1
        assert registry.value("lark.lark.register_updates") >= 1
        # The underlying pipeline meters into the same registry.
        assert registry.value("pipeline.lark.packets") == 1
        assert registry.value("lark.lark.decode_failures") == 0
