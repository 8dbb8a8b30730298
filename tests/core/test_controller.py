"""Controller: RPC ordering, versioned updates, developer APIs."""

import random

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.app_cookie import ApplicationCookieCodec, format_cookie_header
from repro.core.controller import SnatchController
from repro.core.edge_service import SnatchEdgeServer
from repro.core.larkswitch import LarkSwitch
from repro.core.rpc import RpcBus
from repro.core.schema import Feature
from repro.core.stats import StatKind, StatSpec

from tests.control import new_controller, settled


def _features():
    return [
        Feature.categorical("gender", ["f", "m", "x"]),
        Feature.number("demand", 0, 100),
    ]


def _specs():
    return [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")]


def _deployment(seed=1):
    controller = new_controller(seed=seed)
    agg = AggSwitch("agg", random.Random(2))
    lark = LarkSwitch("lark", random.Random(3))
    edge = SnatchEdgeServer("edge", random.Random(4))
    controller.attach_agg_switch(agg)
    controller.attach_lark_switch(lark)
    controller.attach_edge_server(edge)
    return controller, agg, lark, edge


def _devices_holding_apps(*devices):
    return [device.name for device in devices if device.registered_app_ids()]


class TestAddApplication:
    def test_all_devices_learn_the_app(self):
        controller, agg, lark, edge = _deployment()
        handle = controller.add_application("ads", _features(), _specs())
        # Sent, not yet delivered: the caller runs the bus.
        assert not controller.is_consistent("ads")
        controller.bus.quiesce(raise_on_error=True)
        for device in (agg, lark, edge):
            assert handle.app_id in device.registered_app_ids()
        assert controller.is_consistent("ads")
        assert controller.applications() == ["ads"]

    def test_install_order_agg_then_lark_then_edge(self):
        """Section 4.3: updates flow AggSwitch -> LarkSwitches -> edge
        servers so no tier ever reports data the tier above cannot
        parse."""
        controller, _agg, _lark, _edge = _deployment()
        settled(controller.add_application, "ads", _features(), _specs())
        log = controller.bus.log
        assert [call.device for call in log] == ["agg", "lark", "edge"]
        assert {call.method for call in log} == {"register_application"}

    def test_duplicate_name_rejected(self):
        controller, *_ = _deployment()
        settled(controller.add_application, "ads", _features(), _specs())
        with pytest.raises(ValueError, match="already"):
            controller.add_application("ads", _features(), _specs())

    def test_handle_contents(self):
        controller, *_ = _deployment()
        handle = settled(
            controller.add_application, "ads", _features(), _specs()
        )
        assert 0 <= handle.app_id <= 255
        assert len(handle.key) == 16
        assert handle.version == 0
        assert handle.overflow_schema is None
        assert handle.mode == ForwardingMode.PER_PACKET

    def test_wide_schema_spills_to_application_layer(self):
        controller, *_ = _deployment()
        wide = [Feature.number("f%d" % i, 0, 2**30) for i in range(6)]
        handle = settled(
            controller.add_application,
            "wide", wide, [StatSpec("s", StatKind.SUM, "f0")],
        )
        assert handle.overflow_schema is not None
        assert handle.transport_schema.fits_transport()

    def test_remove_application(self):
        controller, agg, lark, edge = _deployment()
        handle = settled(
            controller.add_application, "ads", _features(), _specs()
        )
        settled(controller.remove_application, "ads")
        for device in (agg, lark, edge):
            assert handle.app_id not in device.registered_app_ids()
        with pytest.raises(KeyError):
            controller.remove_application("ads")


class TestVersionedUpdates:
    def test_update_creates_new_app_id_and_key(self):
        controller, *_ = _deployment()
        old = settled(
            controller.add_application, "ads", _features(), _specs()
        )
        new = settled(controller.update_application, "ads")
        assert new.app_id != old.app_id
        assert new.key != old.key
        assert new.version == 1

    def test_old_version_kept_until_retired(self):
        controller, agg, _lark, _edge = _deployment()
        old = settled(
            controller.add_application, "ads", _features(), _specs()
        )
        new = settled(controller.update_application, "ads")
        # Grace period: both versions live simultaneously.
        assert old.app_id in agg.registered_app_ids()
        assert new.app_id in agg.registered_app_ids()
        assert controller.pending_retirements() == 1
        assert settled(controller.retire_old_versions) == 1
        assert old.app_id not in agg.registered_app_ids()
        assert controller.pending_retirements() == 0

    def test_add_cookie(self):
        controller, *_ = _deployment()
        settled(controller.add_application, "ads", _features(), _specs())
        handle = settled(
            controller.add_cookie,
            "ads", Feature.categorical("geo", ["NA", "EU"]),
        )
        assert "geo" in handle.schema.feature_names()

    def test_remove_cookie(self):
        controller, *_ = _deployment()
        settled(controller.add_application, "ads", _features(), _specs())
        handle = settled(controller.remove_cookie, "ads", "demand")
        assert handle.schema.feature_names() == ["gender"]
        with pytest.raises(KeyError):
            controller.remove_cookie("ads", "ghost")

    def test_change_feature_range(self):
        controller, *_ = _deployment()
        settled(controller.add_application, "ads", _features(), _specs())
        handle = settled(
            controller.change_feature,
            "ads", Feature.number("demand", 0, 1000),
        )
        assert handle.schema.feature("demand").max_value == 1000
        with pytest.raises(KeyError):
            controller.change_feature(
                "ads", Feature.number("ghost", 0, 1)
            )

    def test_change_forwarding(self):
        controller, _agg, lark, _edge = _deployment()
        settled(controller.add_application, "ads", _features(), _specs())
        handle = settled(
            controller.change_forwarding,
            "ads", ForwardingMode.PERIODICAL, period_ms=150,
        )
        assert handle.mode == ForwardingMode.PERIODICAL
        assert handle.period_ms == 150
        assert lark._apps[handle.app_id].period_ms == 150
        sent = len(controller.bus.log)
        with pytest.raises(ValueError, match="period"):
            controller.change_forwarding("ads", ForwardingMode.PERIODICAL, 0)
        assert len(controller.bus.log) == sent

    def test_update_unknown_app(self):
        controller, *_ = _deployment()
        with pytest.raises(KeyError):
            controller.update_application("ghost")


class TestAppIdAllocation:
    def test_ids_never_reused_across_versions(self):
        controller, *_ = _deployment()
        settled(controller.add_application, "ads", _features(), _specs())
        seen = {controller.application("ads").app_id}
        for _ in range(20):
            handle = settled(controller.update_application, "ads")
            assert handle.app_id not in seen
            seen.add(handle.app_id)

    def test_deterministic_with_seed(self):
        a = _deployment(seed=5)[0]
        b = _deployment(seed=5)[0]
        ha = settled(a.add_application, "ads", _features(), _specs())
        hb = settled(b.add_application, "ads", _features(), _specs())
        assert ha.app_id == hb.app_id
        assert ha.key == hb.key


class TestRefusedBeforeAnyRpc:
    """An application the LarkSwitch would refuse is refused by the
    controller before an app-ID is drawn or any RPC is sent, so no
    AggSwitch keeps an orphan entry."""

    @pytest.mark.parametrize(
        "features, specs, period_ms, match",
        [
            (_features(), _specs(), 0.0, "positive period"),
            (
                [Feature.categorical("sku", [str(i) for i in range(1500)])],
                [StatSpec("by_sku", StatKind.COUNT_BY_CLASS, "sku")],
                100.0,
                "1024",
            ),
        ],
        ids=["no-period", "1500-cells"],
    )
    def test_periodical_app_the_lark_cannot_carry(
        self, features, specs, period_ms, match
    ):
        controller, agg, lark, edge = _deployment()
        with pytest.raises(ValueError, match=match):
            controller.add_application(
                "ads", features, specs,
                mode=ForwardingMode.PERIODICAL, period_ms=period_ms,
            )
        controller.bus.quiesce()
        assert controller.bus.log == []
        assert not controller._used_app_ids
        assert controller.applications() == []
        assert _devices_holding_apps(agg, lark, edge) == []


def _wants_clicks(request):
    return request.get("event") == "click"


class TestEventFilterCarriesOver:
    def _counted(self, edge, handle, event):
        codec = ApplicationCookieCodec(
            handle.app_id, handle.transport_schema, handle.key,
            random.Random(5),
        )
        name, value = codec.encode({"gender": "f"})
        result = edge.handle_request(
            {"event": event}, format_cookie_header({name: value})
        )
        assert result.semantic_matched
        return not result.filtered_out

    @pytest.mark.parametrize("update", [
        lambda c: c.change_forwarding(
            "ads", ForwardingMode.PERIODICAL, period_ms=100.0
        ),
        lambda c: c.add_cookie("ads", Feature.categorical("geo", ["NA", "EU"])),
        lambda c: c.remove_cookie("ads", "demand"),
        lambda c: c.change_feature("ads", Feature.number("demand", 0, 9)),
        lambda c: c.update_application("ads"),
    ], ids=["forwarding", "add-cookie", "remove-cookie", "change-feature",
            "update"])
    def test_new_version_keeps_the_edge_filter(self, update):
        controller, _agg, _lark, edge = _deployment()
        settled(
            controller.add_application, "ads", _features(), _specs(),
            event_filter=_wants_clicks,
        )
        new = update(controller)
        controller.bus.quiesce(raise_on_error=True)
        settled(controller.retire_old_versions)
        assert not self._counted(edge, new, "view")
        assert self._counted(edge, new, "click")
        # A re-enrolled edge gets the filter back with the parameters.
        edge.crash()
        edge.restart()
        assert settled(controller.reenroll_device, edge) == 1
        assert not self._counted(edge, new, "view")
        assert self._counted(edge, new, "click")


class TestTierBarrierOnSkewedBus:
    """Section 4.3's order holds when the AggSwitch is the slowest hop:
    the LarkSwitch's register RPC is not sent before the AggSwitch's
    has landed."""

    def _skewed(self):
        controller = SnatchController(RpcBus(default_delay_ms=10.0), seed=1)
        controller.attach_agg_switch(
            AggSwitch("agg", random.Random(2)), delay_ms=120.0
        )
        controller.attach_lark_switch(
            LarkSwitch("lark", random.Random(3)), delay_ms=10.0
        )
        controller.attach_edge_server(
            SnatchEdgeServer("edge", random.Random(4)), delay_ms=30.0
        )
        return controller

    def test_add_and_update_wait_for_the_agg(self):
        controller = self._skewed()
        bus = controller.bus
        settled(controller.add_application, "ads", _features(), _specs())
        start = bus.sim.now
        settled(controller.update_application, "ads")
        assert [call.device for call in bus.log] == [
            "agg", "lark", "edge", "agg", "lark", "edge",
        ]
        for agg_call, lark_call, edge_call in (bus.log[:3], bus.log[3:]):
            assert lark_call.sent_at_ms >= agg_call.deliver_at_ms
            assert edge_call.sent_at_ms >= lark_call.deliver_at_ms
        assert bus.log[3].sent_at_ms == start
        assert bus.log[4].sent_at_ms == start + 120.0
        assert controller.is_consistent("ads")
