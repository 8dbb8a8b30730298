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
from repro.switch import columns
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



# -- the grouped 16 x 10 spec --------------------------------------------------

_GROUPED = CookieSchema("grouped", (
    Feature.categorical("g", ["g%d" % i for i in range(16)]),
    Feature.categorical("c", ["c%d" % i for i in range(10)]),
    Feature.number("v", 0, 1000),
))
_GROUPED_SPECS = [
    StatSpec("c_by_g", StatKind.COUNT_BY_CLASS, "c", group_by="g"),
    StatSpec("v_avg", StatKind.AVG, "v", group_by="g"),
    StatSpec("v_max", StatKind.MAX, "v", group_by="g"),
    StatSpec("v_min", StatKind.MIN, "v", group_by="g"),
    StatSpec("v_sum", StatKind.SUM, "v", group_by="g"),
]
# 16 x 10 class counts, AVG's two lanes and MAX, MIN, SUM per group.
_GROUPED_CELLS = 16 * 10 + 16 * 2 + 16 * 3
_MTU_PAYLOAD = 1500 - 20 - 8  # IPv4 and UDP headers


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield
    finally:
        columns._FORCED = previous


@pytest.mark.usefixtures("kernel_form")
@pytest.mark.parametrize("agg_tier", ("scalar", "columnar"))
@pytest.mark.parametrize("lark_tier", ("scalar", "columnar"))
def test_grouped_16_by_10_spec_fragments_fit_and_fold(lark_tier, agg_tier):
    """Every busy period touches all 240 cells of a class count over a
    16 x 10 cross plus AVG, MAX, MIN and SUM grouped by the 16-class
    feature: it leaves as ceil(240 / 127) fragments, each inside a
    1500-byte MTU, and the AggSwitch report after three periods equals
    one fold of every cookie — on either tier of either switch."""
    lark = LarkSwitch("lark", random.Random(4))
    lark.register_application(
        APP, _GROUPED, KEY, _GROUPED_SPECS,
        mode=ForwardingMode.PERIODICAL, period_ms=1000,
    )
    agg = AggSwitch("agg", random.Random(5))
    agg.register_application(APP, _GROUPED, KEY, _GROUPED_SPECS)
    codec = TransportCookieCodec(APP, _GROUPED, KEY, random.Random(6))
    single = SwitchStatistics(_GROUPED, _GROUPED_SPECS, RegisterFile())
    rng = random.Random(7)
    app = lark._apps[APP]
    for _period in range(3):
        cookies = [
            {"g": "g%d" % g, "c": "c%d" % c, "v": rng.randrange(1001)}
            for g in range(16) for c in range(10)
        ] + [
            {"g": "g%d" % rng.randrange(16), "c": "c%d" % rng.randrange(10),
             "v": rng.randrange(1001)}
            for _ in range(80)
        ]
        rng.shuffle(cookies)
        cids = [codec.encode(values) for values in cookies]
        if lark_tier == "scalar":
            for cid in cids:
                lark.process_quic_packet(cid)
        else:
            assert lark.process_quic_columnar(cids).folded == len(cids)
        for values in cookies:
            single.update(values)
        items = flatten_snapshot(app.stats.snapshot(), app.stats.lanes)
        assert len(items) == _GROUPED_CELLS
        payloads = lark.end_period(APP)
        assert len(payloads) == -(-_GROUPED_CELLS // MAX_COUNTED_ITEMS) == 2
        assert max(map(len, payloads)) <= _MTU_PAYLOAD
        if agg_tier == "scalar":
            assert all(agg.process_packet(p).merged for p in payloads)
        else:
            assert agg.process_columnar(payloads).merged == len(payloads)
    assert agg.report(APP) == single.report()
