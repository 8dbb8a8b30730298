"""Full-system integration: controller-provisioned deployment, QUIC
connections carrying semantic cookies, both switch tiers, and the
analytics result — plus consistency under versioned updates."""

import random

import pytest

from repro.core import (
    AggSwitch,
    Feature,
    ForwardingMode,
    LarkSwitch,
    SnatchEdgeServer,
    StatKind,
    StatSpec,
)
from repro.core.app_cookie import (
    ApplicationCookieCodec,
    format_cookie_header,
)
from repro.core.transport_cookie import (
    COOKIE_BLOCK_START,
    COOKIE_BYTE_END,
    COOKIE_BYTE_START,
    TransportCookieCodec,
)
from repro.quic.connection import (
    HandshakeMode,
    QuicClient,
    QuicServer,
)
from repro.workloads import AdCampaignWorkload

from tests.control import new_controller, settled


def _deployment(seed=11):
    controller = new_controller(seed=seed)
    agg = AggSwitch("agg", random.Random(seed + 1))
    lark = LarkSwitch("lark", random.Random(seed + 2))
    edge = SnatchEdgeServer("edge", random.Random(seed + 3))
    controller.attach_agg_switch(agg)
    controller.attach_lark_switch(lark)
    controller.attach_edge_server(edge)
    return controller, agg, lark, edge


def _ad_features():
    workload = AdCampaignWorkload(num_users=20, num_campaigns=4, seed=5)
    return workload, list(workload.schema().features), workload.specs()


class TestTransportPathOverRealQuic:
    def test_cookie_flows_client_to_analytics(self):
        controller, agg, lark, _edge = _deployment()
        workload, features, specs = _ad_features()
        handle = settled(controller.add_application, "ads", features, specs)

        # The web server plants semantic DstConnID*s via QUIC.
        codec = TransportCookieCodec(
            handle.app_id, handle.transport_schema, handle.key,
            random.Random(1),
        )
        quic_rng = random.Random(2)
        events = workload.generate_events(50, 1000)
        reference = workload.reference_counts(events)
        for event in events:
            values = event.user.semantic_values(
                event.campaign, event.event_type
            )
            server = QuicServer(
                "web", cid_factory=lambda _: codec.encode(values),
                rng=quic_rng,
            )
            client = QuicClient(
                "user-%d" % event.user.user_index, rng=quic_rng,
            )
            connection = client.connect(server)
            # The ISP switch sees the QUIC packet's DstConnID*.
            result = lark.process_quic_packet(connection.dst_conn_id)
            assert result.forwarded_original
            out = agg.process_packet(result.aggregation_payload)
            assert out.merged

        report = agg.report(handle.app_id)
        for (campaign, gender), count in reference["gender_by_campaign"].items():
            assert report["gender_by_campaign"][(campaign, gender)] == count

    def test_1rtt_policy_preserves_cookie_across_connections(self):
        controller, _agg, lark, _edge = _deployment(seed=21)
        _workload, features, specs = _ad_features()
        handle = settled(controller.add_application, "ads", features, specs)
        codec = TransportCookieCodec(
            handle.app_id, handle.transport_schema, handle.key,
            random.Random(3),
        )
        values = {"event": "view", "campaign": "camp-1",
                  "gender": "female", "age": "25-34", "geo": "EU"}
        planted = codec.encode(values)
        block = bytes(planted)[COOKIE_BLOCK_START:COOKIE_BYTE_END]
        # Five fresh 1-RTT connections, each regenerating random bits
        # around the one encrypted block, as CookieEncodeCache serves it.
        for _ in range(5):
            cid = codec.assemble(block)
            assert (bytes(cid)[COOKIE_BYTE_START:COOKIE_BYTE_END]
                    == bytes(planted)[COOKIE_BYTE_START:COOKIE_BYTE_END])
            result = lark.process_quic_packet(cid)
            assert result.decoded_values == values
        assert lark.stats_report(handle.app_id)["gender_by_campaign"][
            ("camp-1", "female")
        ] == 5

    def test_0rtt_replays_same_semantic_cid(self):
        controller, _agg, lark, _edge = _deployment(seed=31)
        _workload, features, specs = _ad_features()
        handle = settled(controller.add_application, "ads", features, specs)
        codec = TransportCookieCodec(
            handle.app_id, handle.transport_schema, handle.key,
            random.Random(5),
        )
        values = {"event": "click", "campaign": "camp-0",
                  "gender": "male", "age": "35-44", "geo": "NA"}
        server = QuicServer(
            "web", cid_factory=lambda _: codec.encode(values),
            rng=random.Random(6),
        )
        client = QuicClient("bob", rng=random.Random(7))
        first = client.connect(server)
        second = client.connect(server)
        assert second.mode is HandshakeMode.ZERO_RTT
        assert second.dst_conn_id == first.dst_conn_id
        result = lark.process_quic_packet(second.dst_conn_id)
        assert result.decoded_values["gender"] == "male"


class TestApplicationLayerPath:
    def test_edge_to_agg_flow(self):
        controller, agg, _lark, edge = _deployment(seed=41)
        workload, features, specs = _ad_features()
        handle = settled(
            controller.add_application, "ads", features, specs,
            event_filter=AdCampaignWorkload.event_filter,
        )
        codec = ApplicationCookieCodec(
            handle.app_id, handle.schema, handle.key, random.Random(8)
        )
        events = workload.generate_events(40, 1000)
        for event in events:
            values = event.user.semantic_values(
                event.campaign, event.event_type
            )
            name, value = codec.encode(values)
            result = edge.handle_request(
                {"event": event.event_type},
                format_cookie_header({name: value}),
            )
            assert result.semantic_matched and not result.filtered_out
            agg.process_packet(result.aggregation_payload)
        reference = workload.reference_counts(events)
        report = agg.report(handle.app_id)
        for key, count in reference["geo_by_campaign"].items():
            assert report["geo_by_campaign"][key] == count

    def test_event_filter_drops_non_ad_traffic(self):
        controller, _agg, _lark, edge = _deployment(seed=51)
        _workload, features, specs = _ad_features()
        handle = settled(
            controller.add_application, "ads", features, specs,
            event_filter=AdCampaignWorkload.event_filter,
        )
        codec = ApplicationCookieCodec(
            handle.app_id, handle.schema, handle.key, random.Random(9)
        )
        name, value = codec.encode(
            {"event": "view", "campaign": "camp-0", "gender": "other",
             "age": "18-24", "geo": "OC"}
        )
        result = edge.handle_request(
            {"event": "page-load"}, format_cookie_header({name: value})
        )
        assert result.filtered_out
        report = edge.stats_report(handle.app_id)
        assert all(v == 0 for v in report["gender_by_campaign"].values())


class TestVersionedConsistency:
    def test_both_versions_decodable_during_grace_period(self):
        controller, agg, lark, _edge = _deployment(seed=61)
        _workload, features, specs = _ad_features()
        old = settled(controller.add_application, "ads", features, specs)
        old_codec = TransportCookieCodec(
            old.app_id, old.transport_schema, old.key, random.Random(10)
        )
        new = settled(controller.update_application, "ads")
        new_codec = TransportCookieCodec(
            new.app_id, new.transport_schema, new.key, random.Random(11)
        )
        values = {"event": "view", "campaign": "camp-2",
                  "gender": "female", "age": "55+", "geo": "AS"}
        for codec in (old_codec, new_codec):
            result = lark.process_quic_packet(codec.encode(values))
            assert result.decoded_values == values
            assert agg.process_packet(result.aggregation_payload).merged
        # After retirement only the new version matches.
        settled(controller.retire_old_versions)
        stale = lark.process_quic_packet(old_codec.encode(values))
        assert not stale.matched
        fresh = lark.process_quic_packet(new_codec.encode(values))
        assert fresh.decoded_values == values

    def test_forwarding_scheme_change_via_controller(self):
        controller, _agg, lark, _edge = _deployment(seed=71)
        _workload, features, specs = _ad_features()
        settled(controller.add_application, "ads", features, specs)
        handle = settled(
            controller.change_forwarding,
            "ads", ForwardingMode.PERIODICAL, period_ms=150,
        )
        codec = TransportCookieCodec(
            handle.app_id, handle.transport_schema, handle.key,
            random.Random(12),
        )
        result = lark.process_quic_packet(
            codec.encode({"event": "click", "campaign": "camp-0",
                          "gender": "male", "age": "18-24", "geo": "NA"})
        )
        assert result.matched
        assert result.aggregation_payload is None  # buffered for the period
        assert len(lark.end_period(handle.app_id)) == 1


class TestPrivacyInvariants:
    def test_no_user_identifier_anywhere_on_the_wire(self):
        """The semantic CID and aggregation packets must not contain
        the user index in any byte — there is simply no identifier."""
        controller, _agg, lark, _edge = _deployment(seed=81)
        workload, features, specs = _ad_features()
        handle = settled(controller.add_application, "ads", features, specs)
        codec = TransportCookieCodec(
            handle.app_id, handle.transport_schema, handle.key,
            random.Random(13),
        )
        user = workload.users[7]
        values = user.semantic_values("camp-1", "view")
        cid = codec.encode(values)
        result = lark.process_quic_packet(cid)
        payload = result.aggregation_payload
        # Schema has no identifier feature at all.
        assert "user" not in " ".join(
            f.name for f in handle.schema.features
        )
        # And the decoded content is only demographics.
        assert set(result.decoded_values) == {
            "event", "campaign", "gender", "age", "geo"
        }
        assert payload is not None
