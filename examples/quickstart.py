"""Quickstart: plant a semantic cookie, catch it at the ISP switch,
aggregate in-network, and read the analytics result.

Run:  python examples/quickstart.py
"""

import random

from repro.core import (
    AggSwitch,
    Feature,
    LarkSwitch,
    SnatchController,
    SnatchEdgeServer,
    StatKind,
    StatSpec,
)
from repro.core.rpc import RpcBus
from repro.core.transport_cookie import TransportCookieCodec


def main() -> None:
    # 1. A trusted controller coordinates all Snatch devices over its
    #    control-plane RPC bus (zero delay here: no WAN in this demo).
    bus = RpcBus(default_delay_ms=0.0)
    controller = SnatchController(bus, seed=7)
    lark = LarkSwitch("isp-switch")
    agg = AggSwitch("agg-switch")
    edge = SnatchEdgeServer("cdn-edge")
    controller.attach_lark_switch(lark)
    controller.attach_agg_switch(agg)
    controller.attach_edge_server(edge)

    # 2. The application developer registers an analytics task:
    #    "composition of users who viewed each ad, by gender".
    handle = controller.add_application(
        name="ad-analytics",
        features=[
            Feature.categorical("campaign", ["sale", "launch", "brand"]),
            Feature.categorical("gender", ["female", "male", "other"]),
        ],
        specs=[
            StatSpec(
                "gender_by_campaign",
                StatKind.COUNT_BY_CLASS,
                "gender",
                group_by="campaign",
            )
        ],
    )
    # The controller only sends RPCs; running the bus delivers them,
    # AggSwitch first, then LarkSwitch, then edge server.
    bus.quiesce(raise_on_error=True)
    print("registered app-ID 0x%02x (version %d)" % (handle.app_id, handle.version))

    # 3. The web server plants semantic cookies in QUIC connection IDs
    #    (here we encode them directly with the developer's codec).
    codec = TransportCookieCodec(
        handle.app_id, handle.transport_schema, handle.key, random.Random(1)
    )
    clicks = [
        ("sale", "female"), ("sale", "female"), ("sale", "male"),
        ("launch", "other"), ("launch", "female"), ("brand", "male"),
    ]

    # 4. User requests pass the ISP switch, which decodes the encrypted
    #    cookie at line rate and emits aggregation packets...
    for campaign, gender in clicks:
        cid = codec.encode({"campaign": campaign, "gender": gender})
        result = lark.process_quic_packet(cid)
        assert result.forwarded_original, "original traffic is never disturbed"
        # 5. ...which the AggSwitch merges on the last hop.
        agg.process_packet(result.aggregation_payload)

    # 6. The analytics result is ready without any request ever
    #    reaching a data center — and without any user ID existing.
    report = agg.report(handle.app_id)
    print("\nusers per (campaign, gender):")
    for (campaign, gender), count in sorted(report["gender_by_campaign"].items()):
        if count:
            print("  %-8s %-8s %d" % (campaign, gender, count))


if __name__ == "__main__":
    main()
