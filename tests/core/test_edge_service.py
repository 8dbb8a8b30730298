"""Snatch edge server: page rules, event filtering, pre-aggregation."""

import random

import pytest

from repro.core.aggregation import AggregationCodec, ForwardingMode
from repro.core.app_cookie import ApplicationCookieCodec, format_cookie_header
from repro.core.edge_service import SnatchEdgeServer
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec

KEY = bytes(range(16))
APP = 0x42


def _schema():
    return CookieSchema(
        "app",
        (
            Feature.categorical("event", ["view", "click", "other"]),
            Feature.categorical("gender", ["f", "m", "x"]),
        ),
    )


def _specs():
    return [StatSpec("by_gender", StatKind.COUNT_BY_CLASS, "gender")]


def _edge(mode=ForwardingMode.PER_PACKET, period=0.0, event_filter=None):
    edge = SnatchEdgeServer("edge", random.Random(1))
    edge.register_application(
        APP, _schema(), KEY, _specs(),
        mode=mode, period_ms=period, event_filter=event_filter,
    )
    return edge


def _cookie_header(values, seed=2):
    codec = ApplicationCookieCodec(APP, _schema(), KEY, random.Random(seed))
    name, value = codec.encode(values)
    return format_cookie_header({name: value, "theme": "dark"})


class TestRequestPath:
    def test_semantic_cookie_processed(self):
        edge = _edge()
        result = edge.handle_request(
            {"event": "view"},
            _cookie_header({"event": "view", "gender": "f"}),
        )
        assert result.served_static
        assert result.semantic_matched
        assert not result.filtered_out
        assert result.aggregation_payload is not None
        assert edge.stats_report(APP)["by_gender"]["f"] == 1

    def test_plain_request_served_without_analytics(self):
        edge = _edge()
        result = edge.handle_request({"path": "/"}, "theme=dark")
        assert result.served_static
        assert not result.semantic_matched
        assert result.aggregation_payload is None

    def test_no_cookie_header(self):
        edge = _edge()
        result = edge.handle_request({"path": "/"})
        assert result.served_static and not result.semantic_matched

    def test_payload_decodable_by_aggswitch_codec(self):
        edge = _edge()
        result = edge.handle_request(
            {"event": "view"}, _cookie_header({"gender": "m"})
        )
        packet = AggregationCodec(APP, KEY, random.Random(3)).decode(
            result.aggregation_payload
        )
        assert packet.mode == ForwardingMode.PER_PACKET
        assert (1, 1) in packet.items  # gender=m is feature 1, wire 1

    def test_requests_counted(self):
        edge = _edge()
        for _ in range(3):
            edge.handle_request({})
        assert edge.requests_handled == 3


class TestEventFilter:
    def test_filtered_events_not_counted(self):
        edge = _edge(
            event_filter=lambda request: request.get("event") == "click"
        )
        result = edge.handle_request(
            {"event": "view"}, _cookie_header({"gender": "f"})
        )
        assert result.semantic_matched and result.filtered_out
        assert result.aggregation_payload is None
        assert edge.stats_report(APP)["by_gender"]["f"] == 0

    def test_passing_events_counted(self):
        edge = _edge(
            event_filter=lambda request: request.get("event") == "click"
        )
        result = edge.handle_request(
            {"event": "click"}, _cookie_header({"gender": "f"})
        )
        assert not result.filtered_out
        assert edge.stats_report(APP)["by_gender"]["f"] == 1


class TestPeriodical:
    def test_accumulates_then_flushes(self):
        edge = _edge(ForwardingMode.PERIODICAL, period=150)
        for gender in ("f", "m", "f"):
            result = edge.handle_request(
                {"event": "view"}, _cookie_header({"gender": gender})
            )
            assert result.aggregation_payload is None
        [payload] = edge.end_period(APP)
        packet = AggregationCodec(APP, KEY, random.Random(4)).decode(payload)
        assert packet.mode == ForwardingMode.PERIODICAL
        # Registers reset after the flush.
        assert edge.stats_report(APP)["by_gender"]["f"] == 0

    def test_empty_period_is_silent(self):
        edge = _edge(ForwardingMode.PERIODICAL, period=150)
        assert edge.end_period(APP) == []

    def test_period_required(self):
        edge = SnatchEdgeServer("e2")
        with pytest.raises(ValueError, match="period"):
            edge.register_application(
                APP, _schema(), KEY, _specs(),
                mode=ForwardingMode.PERIODICAL,
            )

    def test_end_period_wrong_mode(self):
        edge = _edge()
        with pytest.raises(ValueError, match="per-packet"):
            edge.end_period(APP)


class TestRegistration:
    def test_duplicate_rejected(self):
        edge = _edge()
        with pytest.raises(ValueError, match="already"):
            edge.register_application(APP, _schema(), KEY, _specs())

    def test_revoke(self):
        edge = _edge()
        assert edge.revoke_application(APP)
        assert not edge.revoke_application(APP)
        assert edge.registered_app_ids() == []
        result = edge.handle_request(
            {"event": "view"}, _cookie_header({"gender": "f"})
        )
        assert not result.semantic_matched

    def test_unknown_app_end_period(self):
        edge = _edge()
        with pytest.raises(KeyError):
            edge.end_period(0x99)
