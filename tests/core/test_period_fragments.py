"""Periodical snapshots larger than one aggregation packet.

An aggregation packet counts at most ``MAX_COUNTED_ITEMS`` (127) items,
so a period that touched more register cells is sent as several
fragments.  The AggSwitch folds each cell on its own, so fragment order
does not matter, and a period of at most 127 cells is still the one
packet it always was.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    MAX_COUNTED_ITEMS,
    AggregationCodec,
    AggregationPacket,
    ForwardingMode,
)
from repro.core.aggswitch import AggSwitch
from repro.core.edge_service import SnatchEdgeServer
from repro.core.larkswitch import LarkSwitch, flatten_snapshot, period_payload
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec, SwitchStatistics
from repro.core.transport_cookie import TransportCookieCodec
from repro.switch.registers import RegisterFile
from repro.workloads.adcampaign import AdCampaignWorkload

KEY = bytes(range(16))
APP = 0x5C


def _period(num_campaigns, seed=3):
    """A lark that saw one busy period of the ad workload, its events
    and its workload."""
    workload = AdCampaignWorkload(
        num_users=300, num_campaigns=num_campaigns, seed=seed
    )
    lark = LarkSwitch("lark", random.Random(seed))
    lark.register_application(
        APP, workload.schema(), KEY, workload.specs(),
        mode=ForwardingMode.PERIODICAL, period_ms=1000,
    )
    codec = TransportCookieCodec(
        APP, workload.schema(), KEY, random.Random(seed + 1)
    )
    events = workload.generate_events(2000, 1000)
    for event in events:
        lark.process_quic_packet(codec.encode(
            event.user.semantic_values(event.campaign, event.event_type)
        ))
    return lark, events, workload


def _agg(workload):
    agg = AggSwitch("agg", random.Random(9))
    agg.register_application(APP, workload.schema(), KEY, workload.specs())
    return agg


class TestFragments:
    def test_wide_period_splits_into_fragments_of_at_most_127(self):
        lark, _events, _workload = _period(num_campaigns=10)
        app = lark._apps[APP]
        cells = len(flatten_snapshot(app.stats.snapshot(), app.stats.lanes))
        assert cells > MAX_COUNTED_ITEMS
        payloads = lark.end_period(APP)
        assert len(payloads) == -(-cells // MAX_COUNTED_ITEMS)
        items = [app.agg_codec.decode(p).items for p in payloads]
        assert all(len(i) <= MAX_COUNTED_ITEMS for i in items)
        assert sum(len(i) for i in items) == cells
        # Registers reset once every fragment has encoded.
        assert app.stats.updates == 0
        assert lark.end_period(APP) == []

    def test_narrow_period_is_one_unchanged_packet(self):
        lark, _events, _workload = _period(num_campaigns=8)
        twin, _events, _workload = _period(num_campaigns=8)
        app = twin._apps[APP]
        items = flatten_snapshot(app.stats.snapshot(), app.stats.lanes)
        assert len(items) <= MAX_COUNTED_ITEMS
        expected = app.agg_codec.encode(AggregationPacket(
            app_id=APP, mode=ForwardingMode.PERIODICAL,
            items=items, source="lark",
        ))
        assert lark.end_period(APP) == [expected]

    @pytest.mark.parametrize("order", ["forward", "reverse", "shuffled"])
    @pytest.mark.parametrize("num_campaigns", [2, 8, 9, 10, 16, 24])
    def test_fragments_fold_to_ground_truth_in_any_order(
        self, num_campaigns, order
    ):
        lark, events, workload = _period(num_campaigns)
        payloads = lark.end_period(APP)
        cells = 14 * num_campaigns  # gender 3 + age 5 + geo 6 per campaign
        assert len(payloads) == -(-cells // MAX_COUNTED_ITEMS)
        if order == "reverse":
            payloads.reverse()
        elif order == "shuffled":
            random.Random(num_campaigns).shuffle(payloads)
        agg = _agg(workload)
        for payload in payloads:
            assert agg.process_packet(payload).merged
        report = agg.report(APP)
        for name, truth in workload.reference_counts(events).items():
            assert {k: v for k, v in report[name].items() if v} == truth

    def test_forward_and_reverse_end_with_identical_registers(self):
        lark, _events, workload = _period(num_campaigns=10)
        payloads = lark.end_period(APP)
        forward, reverse = _agg(workload), _agg(workload)
        for payload in payloads:
            forward.process_packet(payload)
        for payload in reversed(payloads):
            reverse.process_packet(payload)
        assert forward.merge(APP) == reverse.merge(APP)

    def test_edge_server_fragments_too(self):
        workload = AdCampaignWorkload(num_users=300, num_campaigns=10, seed=5)
        edge = SnatchEdgeServer("edge", random.Random(5))
        edge.register_application(
            APP, workload.schema(), KEY, workload.specs(),
            mode=ForwardingMode.PERIODICAL, period_ms=1000,
        )
        app = edge._apps[APP]
        events = workload.generate_events(4000, 1000)
        for event in events:
            app.stats.update(
                event.user.semantic_values(event.campaign, event.event_type)
            )
        payloads = edge.end_period(APP)
        assert len(payloads) > 1
        agg = _agg(workload)
        for payload in reversed(payloads):
            agg.process_packet(payload)
        report = agg.report(APP)
        for name, cells in workload.reference_counts(events).items():
            assert {k: v for k, v in report[name].items() if v} == cells


_WIDE = CookieSchema("wide", (
    Feature.categorical("a", ["a%d" % i for i in range(20)]),
    Feature.categorical("b", ["b%d" % i for i in range(20)]),
))
_WIDE_SPECS = [StatSpec("ab", StatKind.COUNT_BY_CLASS, "b", group_by="a")]


@given(cells=st.sets(
    st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=400,
))
@settings(max_examples=40, deadline=None)
def test_split_is_the_snapshot_in_cell_order(cells):
    """Any set of touched cells (0..400 of a 400-cell array) leaves as
    ceil(n / 127) fragments (one, possibly empty, when n <= 127) whose
    items, concatenated, are the unsplit snapshot's."""
    stats = SwitchStatistics(_WIDE, _WIDE_SPECS, RegisterFile())
    for a, b in sorted(cells):
        stats.update({"a": "a%d" % a, "b": "b%d" % b})
    codec = AggregationCodec(APP, KEY, random.Random(1))
    payloads = period_payload(stats, codec, "lark")
    items = flatten_snapshot(stats.snapshot(), stats.lanes)
    assert len(items) == len(cells)
    assert len(payloads) == max(1, -(-len(cells) // MAX_COUNTED_ITEMS))
    decoded = [codec.decode(p) for p in payloads]
    assert all(d.mode == ForwardingMode.PERIODICAL for d in decoded)
    assert [i for d in decoded for i in d.items] == items

