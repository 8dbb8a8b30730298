"""RPC bus + the section-4.3 consistency experiment.

The naive in-place key rotation loses data during the RPC skew window;
the controller's versioned update (new app-ID, grace period) does not.
"""

import random

import pytest

from repro.core.aggswitch import AggSwitch
from repro.core.controller import SnatchController
from repro.core.cookie_cache import CookieEncodeCache
from repro.core.larkswitch import LarkSwitch
from repro.core.rpc import RpcBus
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.quic.connection_id import ConnectionID

OLD_KEY = bytes(range(16))
NEW_KEY = bytes(range(16, 32))
APP = 0x42


def _schema():
    return CookieSchema(
        "ads", (Feature.categorical("gender", ["f", "m", "x"]),)
    )


def _specs():
    return [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")]


class TestRpcBus:
    def test_calls_deliver_after_delay(self):
        bus = RpcBus(default_delay_ms=25)
        calls = []

        class Device:
            def ping(self, value):
                calls.append((bus.sim.now, value))

        bus.register_device("d", Device())
        record = bus.call("d", "ping", 7)
        assert not record.completed
        bus.quiesce()
        assert calls == [(25.0, 7)]
        assert record.completed

    def test_per_device_delays(self):
        bus = RpcBus(default_delay_ms=10)
        order = []

        class Device:
            def __init__(self, name):
                self.name = name

            def mark(self):
                order.append((bus.sim.now, self.name))

        bus.register_device("near", Device("near"), delay_ms=5)
        bus.register_device("far", Device("far"), delay_ms=90)
        bus.call("far", "mark")
        bus.call("near", "mark")
        bus.quiesce()
        assert order == [(5.0, "near"), (90.0, "far")]

    def test_errors_captured_not_raised(self):
        bus = RpcBus(default_delay_ms=1)

        class Flaky:
            def boom(self):
                raise RuntimeError("nope")

        bus.register_device("f", Flaky())
        record = bus.call("f", "boom")
        bus.quiesce()
        assert record.error is not None and "nope" in record.error
        assert not record.completed

    def test_unknown_device(self):
        bus = RpcBus()
        with pytest.raises(KeyError):
            bus.call("ghost", "m")
        with pytest.raises(KeyError):
            bus.delay_to("ghost")

    def test_duplicate_device(self):
        bus = RpcBus()
        bus.register_device("d", object())
        with pytest.raises(ValueError):
            bus.register_device("d", object())


class TestConsistencyExperiment:
    """The paper's scenario, made executable."""

    def _deployment(self):
        lark = LarkSwitch("lark", random.Random(1))
        lark.register_application(APP, _schema(), OLD_KEY, _specs())
        agg = AggSwitch("agg", random.Random(2))
        agg.register_application(APP, _schema(), OLD_KEY, _specs())
        bus = RpcBus(default_delay_ms=10)
        # The LarkSwitch is a fast hop away; the AggSwitch's control
        # plane is across the WAN.
        bus.register_device("lark", lark, delay_ms=10)
        bus.register_device("agg", agg, delay_ms=120)
        return lark, agg, bus

    def _traffic(self, lark, agg, codec, at_ms, bus):
        """One request at simulated time at_ms; returns merged?"""
        outcome = {}

        def fire():
            result = lark.process_quic_packet(codec.encode({"gender": "f"}))
            if result.aggregation_payload is None:
                outcome["merged"] = False
                return
            outcome["merged"] = agg.process_packet(
                result.aggregation_payload
            ).merged

        bus.sim.schedule_at(at_ms, fire)
        return outcome

    def test_naive_rekey_loses_data_in_the_skew_window(self):
        lark, agg, bus = self._deployment()
        new_codec = TransportCookieCodec(
            APP, _schema(), NEW_KEY, random.Random(3)
        )
        # t=0: the controller broadcasts an in-place rekey.
        bus.call("lark", "rekey_application", APP, NEW_KEY)
        bus.call("agg", "rekey_application", APP, NEW_KEY)
        # t=50: the lark (rekeyed at t=10) emits NEW_KEY aggregation
        # packets, but the agg (rekeys at t=120) still expects OLD_KEY.
        during = self._traffic(lark, agg, new_codec, at_ms=50, bus=bus)
        after = self._traffic(lark, agg, new_codec, at_ms=200, bus=bus)
        bus.quiesce()
        assert during["merged"] is False   # data silently lost
        assert after["merged"] is True     # consistent again

    def test_versioned_update_never_loses_data(self):
        """The controller's actual scheme, over the same skewed bus: a
        *new* app-ID is installed agg-first; the old version keeps
        running until retirement, so every instant has a
        fully-consistent pipeline for whichever cookie version the user
        holds."""
        bus = RpcBus(default_delay_ms=10)
        controller = SnatchController(bus, seed=1)
        lark = LarkSwitch("lark", random.Random(1))
        agg = AggSwitch("agg", random.Random(2))
        controller.attach_lark_switch(lark, delay_ms=10)
        controller.attach_agg_switch(agg, delay_ms=120)
        old = controller.add_application(
            "ads", list(_schema().features), _specs()
        )
        bus.quiesce(raise_on_error=True)
        old_codec = TransportCookieCodec(
            old.app_id, old.transport_schema, old.key, random.Random(3)
        )

        start = bus.sim.now
        new = controller.update_application("ads")
        # Old-version cookies flow throughout the update: before the
        # agg's RPC lands, between the two tiers, and after both.
        outcomes = [
            self._traffic(lark, agg, old_codec, start + t, bus)
            for t in (50, 125, 300)
        ]
        bus.quiesce(raise_on_error=True)
        assert all(o["merged"] for o in outcomes)
        (agg_call, lark_call) = bus.log[-2:]
        assert lark_call.sent_at_ms >= agg_call.deliver_at_ms
        # New-version cookies work once both tiers know the app.
        new_codec = TransportCookieCodec(
            new.app_id, new.transport_schema, new.key, random.Random(4)
        )
        result = lark.process_quic_packet(new_codec.encode({"gender": "m"}))
        assert agg.process_packet(result.aggregation_payload).merged
        # After the grace period the old version's rules are revoked.
        assert controller.retire_old_versions() == 1
        bus.quiesce(raise_on_error=True)
        assert not lark.process_quic_packet(
            old_codec.encode({"gender": "f"})
        ).matched
        assert controller.is_consistent("ads")

    def test_client_mints_the_new_version_only_once_every_tier_holds_it(self):
        """A minting client attached to the controller adopts the new
        version only after the last tier's barrier: every cookie it
        mints while the update rides the skewed bus is matched by the
        LarkSwitch and merged by the AggSwitch."""
        bus = RpcBus(default_delay_ms=10)
        controller = SnatchController(bus, seed=1)
        lark = LarkSwitch("lark", random.Random(1))
        agg = AggSwitch("agg", random.Random(2))
        controller.attach_lark_switch(lark, delay_ms=10)
        controller.attach_agg_switch(agg, delay_ms=120)
        old = controller.add_application(
            "ads", list(_schema().features), _specs()
        )
        bus.quiesce(raise_on_error=True)
        cache = CookieEncodeCache(TransportCookieCodec(
            old.app_id, old.transport_schema, old.key, random.Random(3)
        ))
        controller.attach_client(cache)
        minted = []

        def mint(key):
            raw = cache.encode_columns(
                [key], values_fn=lambda _: {"gender": "f"}
            ).raw[0]
            result = lark.process_quic_packet(ConnectionID(raw))
            merged = result.aggregation_payload is not None and (
                agg.process_packet(result.aggregation_payload).merged
            )
            minted.append((cache.app_id, result.matched, merged))

        start = bus.sim.now
        new = controller.update_application("ads")
        for t in range(0, 300, 5):
            bus.sim.schedule_at(start + t, lambda k=t: mint(k))
        bus.quiesce(raise_on_error=True)
        assert {app_id for app_id, _, _ in minted} == {
            old.app_id, new.app_id,
        }
        assert all(matched and merged for _, matched, merged in minted)
