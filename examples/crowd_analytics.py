"""Real-time crowd analytics with periodical forwarding and local
differential privacy.

The crowd workload (paper section 2.3, example 2) aggregates interests
per region.  Cookies are constant per user, so transport-layer
placement fits naturally; the ISP switch accumulates counts and flushes
them every period, trading a bounded delay for ~100x less aggregation
bandwidth.  Each member additionally perturbs their interest with
k-ary randomized response — the aggregate stays accurate via the
unbiased estimator while no single report can be trusted.

Run:  python examples/crowd_analytics.py
"""

import random

from repro.core import AggSwitch, ForwardingMode, LarkSwitch, RandomizedResponse
from repro.core.transport_cookie import TransportCookieCodec
from repro.workloads import CrowdWorkload

APP_ID = 0x33
PERIOD_MS = 100.0


def main() -> None:
    rng = random.Random(99)
    workload = CrowdWorkload(num_members=800, seed=5)
    schema = workload.schema()
    specs = workload.specs()
    key = bytes(rng.getrandbits(8) for _ in range(16))

    lark = LarkSwitch("isp", random.Random(1))
    lark.register_application(
        APP_ID, schema, key, specs,
        mode=ForwardingMode.PERIODICAL, period_ms=PERIOD_MS,
    )
    agg = AggSwitch("agg", random.Random(2))
    agg.register_application(APP_ID, schema, key, specs)
    codec = TransportCookieCodec(APP_ID, schema, key, random.Random(3))
    dp = RandomizedResponse(schema.feature("interest"), p_truth=0.75,
                            rng=random.Random(4))

    arrivals = workload.arrivals(rate_per_second=400, duration_ms=2000)
    periods = 0
    next_flush = PERIOD_MS
    for time_ms, member in arrivals:
        while time_ms >= next_flush:
            payloads = lark.end_period(APP_ID)
            for payload in payloads:
                agg.process_packet(payload)
            if payloads:
                periods += 1
            next_flush += PERIOD_MS
        values = member.semantic_values()
        values["interest"] = dp.perturb(values["interest"])  # local DP
        lark.process_quic_packet(codec.encode(values))
    payloads = lark.end_period(APP_ID)
    for payload in payloads:
        agg.process_packet(payload)
    if payloads:
        periods += 1

    print("processed %d check-ins over %d periods of %.0f ms"
          % (len(arrivals), periods, PERIOD_MS))

    # De-noise the DP counts per region and compare with ground truth.
    report = agg.report(APP_ID)["interest_by_region"]
    truth = workload.reference_interest_counts(arrivals)
    region = max(set(m.region for _, m in arrivals),
                 key=lambda r: sum(c for (rr, _), c in truth.items() if rr == r))
    observed = {
        interest: report.get((region, interest), 0)
        for interest in schema.feature("interest").classes
    }
    estimated = dp.estimate_counts(observed)
    print("\nbusiest region: %s" % region)
    print("interest     observed(DP)  estimated   true")
    for interest in schema.feature("interest").classes:
        print("%-10s   %8d     %8.1f   %6d" % (
            interest,
            observed[interest],
            estimated[interest],
            truth.get((region, interest), 0),
        ))
    print("\n(epsilon = %.2f per report)" % dp.epsilon)


if __name__ == "__main__":
    main()
