"""Grand tour: a multi-region Snatch deployment, end to end.

Builds the whole paper in one script:

1. regional deployment — US and EU LarkSwitches with distinct derived
   AES keys, one global AggSwitch (section 3.6);
2. a compiled query (section 6 future work) installed on the switches;
3. traffic from the ad-campaign workload through real QUIC connection
   IDs, parsed from raw packet bytes by the P4-style parser;
4. the merged global report, checked against ground truth;
5. a key rotation for one region, invalidating its old cookies only.

Run:  python examples/full_deployment.py
"""

import random

from repro.core import (
    AggSwitch,
    LarkSwitch,
    Query,
    QueryCompiler,
    RegionalDeployment,
)
from repro.core.larkswitch import lark_process_raw
from repro.core.transport_cookie import TransportCookieCodec
from repro.switch.parser import build_snatch_packet
from repro.workloads import AdCampaignWorkload


def main() -> None:
    workload = AdCampaignWorkload(num_users=300, num_campaigns=4, seed=11)
    schema = workload.schema()

    # 2. Compile the analytics task.
    query = (
        Query(schema)
        .where("event", "eq", "view")
        .count_by("gender", group_by="campaign")
        .count_by("geo")
    )
    compiled = QueryCompiler().compile(query)
    print("compiled query: %d switch statistics, fully in-network: %s"
          % (len(compiled.specs), compiled.fully_in_network))

    # 1. Regional deployment.
    deployment = RegionalDeployment(seed=4)
    agg = AggSwitch("global-agg", random.Random(1))
    deployment.attach_agg_switch(agg)
    larks = {}
    for region in ("us", "eu"):
        lark = LarkSwitch("lark-%s" % region, random.Random(len(region)))
        deployment.attach_lark_switch(lark, region)
        larks[region] = lark
    handle = deployment.deploy("ads", list(schema.features), compiled.specs)
    print("regions deployed: %s (distinct app-IDs %s)"
          % (handle.region_names(),
             [handle.app_id_for(r) for r in handle.region_names()]))

    # 3. Traffic: users in each region carry semantic QUIC CIDs; the
    #    regional switch parses raw packet bytes and pre-aggregates.
    rng = random.Random(9)
    accept = compiled.edge_filter()
    events = workload.generate_events(100, 3000)
    counted = 0
    for event in events:
        region = "us" if event.user.geo == "NA" else "eu"
        values = event.user.semantic_values(event.campaign, event.event_type)
        if not accept({"event": event.event_type}):
            continue
        codec = TransportCookieCodec(
            handle.app_id_for(region), handle.transport_schema,
            handle.key_for(region), rng,
        )
        packet_bytes = build_snatch_packet(bytes(codec.encode(values)))
        result = lark_process_raw(larks[region], packet_bytes)
        assert result.forwarded_original
        agg.process_packet(result.aggregation_payload)
        counted += 1

    # 4. The merged global report.
    combined = deployment.combined_report("ads")
    views = [e for e in events if e.event_type == "view"]
    spec_name = compiled.specs[0].name  # gender x campaign
    total = sum(combined[spec_name].values())
    print("\n%d view events in, %d counted globally" % (len(views), total))
    truth = {}
    for event in views:
        key = (event.campaign, event.user.gender)
        truth[key] = truth.get(key, 0) + 1
    mismatches = sum(
        1 for key, count in truth.items()
        if combined[spec_name].get(key, 0) != count
    )
    print("cells matching ground truth: %d/%d"
          % (len(truth) - mismatches, len(truth)))

    # 5. Rotate the EU key: old EU cookies stop decoding, US unaffected.
    old_eu_codec = TransportCookieCodec(
        handle.app_id_for("eu"), handle.transport_schema,
        handle.key_for("eu"), rng,
    )
    deployment.rotate_region("ads", "eu")
    stale = larks["eu"].process_quic_packet(
        old_eu_codec.encode({"event": "view", "campaign": "camp-0",
                             "gender": "female", "age": "18-24",
                             "geo": "EU"})
    )
    print("\nafter EU key rotation: old EU cookie matched=%s "
          "(traffic still forwarded=%s)"
          % (stale.matched, stale.forwarded_original))


if __name__ == "__main__":
    main()
