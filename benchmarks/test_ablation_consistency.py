"""Ablation: the section-4.3 versioning scheme vs naive rekeying.

Sweeps the controller->AggSwitch RPC skew and measures the fraction of
requests lost during a key rotation under (a) naive in-place rekeying
and (b) the paper's versioned update.  Versioning loses nothing at any
skew; naive rekeying loses everything inside the skew window.  The
versioned arm drives :class:`SnatchController` itself.
"""

import random

from conftest import attach, emit_table

from repro.core.aggswitch import AggSwitch
from repro.core.controller import SnatchController
from repro.core.larkswitch import LarkSwitch
from repro.core.rpc import RpcBus
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec

OLD_KEY = bytes(range(16))
NEW_KEY = bytes(range(16, 32))
APP = 0x42
REQUESTS = 40
HORIZON_MS = 400.0


def _schema():
    return CookieSchema(
        "ads", (Feature.categorical("gender", ["f", "m", "x"]),)
    )


def _specs():
    return [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")]


def _request_times():
    return [(i + 1) * HORIZON_MS / (REQUESTS + 1) for i in range(REQUESTS)]


def _fire(lark, agg, codec, lost):
    """One request through lark and agg; counts it lost unless merged."""
    result = lark.process_quic_packet(codec.encode({"gender": "f"}))
    if (result.aggregation_payload is None
            or not agg.process_packet(result.aggregation_payload).merged):
        lost[0] += 1


def _run_naive(agg_delay_ms: float) -> float:
    """In-place rekey, broadcast at t=0: the scheme the paper rejects,
    so the controller has no API for it and it stays hand-rolled."""
    lark = LarkSwitch("lark", random.Random(1))
    lark.register_application(APP, _schema(), OLD_KEY, _specs())
    agg = AggSwitch("agg", random.Random(2))
    agg.register_application(APP, _schema(), OLD_KEY, _specs())
    bus = RpcBus(default_delay_ms=10)
    bus.register_device("lark", lark, delay_ms=10)
    bus.register_device("agg", agg, delay_ms=agg_delay_ms)
    bus.call("lark", "rekey_application", APP, NEW_KEY)
    bus.call("agg", "rekey_application", APP, NEW_KEY)

    lost = [0]

    def fire():
        # The lark re-encodes with its *current* key.
        key = NEW_KEY if bus.sim.now >= bus.delay_to("lark") else OLD_KEY
        codec = TransportCookieCodec(APP, _schema(), key, random.Random(5))
        _fire(lark, agg, codec, lost)

    for at_ms in _request_times():
        bus.sim.schedule_at(at_ms, fire)
    bus.quiesce()
    return lost[0] / REQUESTS


def _run_versioned(agg_delay_ms: float) -> float:
    """The controller's own versioned update over the same skewed bus:
    a new app-ID installed AggSwitch-first, the old one retired after
    the grace period.  Users hold whichever cookie version their last
    response planted; model users still on the old version."""
    bus = RpcBus(default_delay_ms=10)
    controller = SnatchController(bus, seed=1)
    lark = LarkSwitch("lark", random.Random(1))
    agg = AggSwitch("agg", random.Random(2))
    controller.attach_lark_switch(lark, delay_ms=10)
    controller.attach_agg_switch(agg, delay_ms=agg_delay_ms)
    old = controller.add_application("ads", list(_schema().features), _specs())
    bus.quiesce(raise_on_error=True)

    start = bus.sim.now
    controller.update_application("ads")
    codec = TransportCookieCodec(
        old.app_id, old.transport_schema, old.key, random.Random(5)
    )
    lost = [0]
    for at_ms in _request_times():
        bus.sim.schedule_at(start + at_ms, lambda: _fire(lark, agg, codec, lost))
    bus.sim.schedule_at(start + HORIZON_MS, controller.retire_old_versions)
    bus.quiesce(raise_on_error=True)
    assert controller.is_consistent("ads")
    return lost[0] / REQUESTS


def test_ablation_versioned_vs_naive_rotation(benchmark):
    def compute():
        rows = []
        for skew in (50, 120, 250):
            rows.append(
                (
                    skew,
                    _run_naive(skew),
                    _run_versioned(skew),
                )
            )
        return rows

    rows = benchmark.pedantic(compute, rounds=1, iterations=1)
    emit_table(
        "Ablation: data lost during key rotation (fraction of %d requests)"
        % REQUESTS,
        ["agg RPC skew ms", "naive rekey", "versioned update"],
        [
            [skew, "%.0f%%" % (100 * naive), "%.0f%%" % (100 * versioned)]
            for skew, naive, versioned in rows
        ],
    )
    attach(benchmark, rows=[list(map(float, r)) for r in rows])
    for skew, naive, versioned in rows:
        assert versioned == 0.0
        assert naive > 0.0
    # Larger skew windows lose more under the naive scheme.
    naive_series = [naive for _s, naive, _v in rows]
    assert naive_series == sorted(naive_series)
