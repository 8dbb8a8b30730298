"""Scalar-vs-columnar switch-kernel benchmark driver.

The columnar paths (:meth:`LarkSwitch.process_quic_columnar`,
:meth:`AggSwitch.process_columnar`) exist so the simulated data plane
stops dominating benchmark wall-clock.  This module measures exactly
that: it replays one seeded connection-ID stream through a scalar
switch and a columnar switch and reports host-CPU throughput for both,
verifying on the way that the two end states agree (the rigorous
bit-identity proof lives in ``tests/differential/``).

Used by ``python -m repro.cli bench`` and ``benchmarks/test_columnar.py``.
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Any, Dict, List

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.larkswitch import LarkSwitch
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs.registry import MetricsRegistry
from repro.quic.connection_id import ConnectionID
from repro.testbed.executor import BACKENDS
from repro.workloads.adcampaign import AdCampaignWorkload, iter_batches

__all__ = [
    "FastpathFixture",
    "run_backend_bench",
    "write_backend_bench",
    "BENCH_APP_ID",
    "BACKENDS",
]

BENCH_APP_ID = 0x5C


class FastpathFixture:
    """Builds matched switches (one per backend under test) over one
    seeded workload."""

    def __init__(
        self,
        mode: str = ForwardingMode.PERIODICAL,
        num_users: int = 2000,
        seed: int = 42,
        shards: int = 1,
    ):
        self.mode = mode
        self.seed = seed
        self.shards = shards
        self.workload = AdCampaignWorkload(num_users=num_users, seed=seed)
        rng = random.Random(seed + 9)
        self.key = bytes(rng.getrandbits(8) for _ in range(16))
        self.schema = self.workload.schema()
        self.specs = self.workload.specs()

    def new_lark(self) -> LarkSwitch:
        lark = LarkSwitch(
            "bench-lark",
            rng=random.Random(self.seed + 1),
            registry=MetricsRegistry(),
        )
        lark.register_application(
            BENCH_APP_ID,
            self.schema,
            self.key,
            self.specs,
            mode=self.mode,
            period_ms=1000.0
            if self.mode == ForwardingMode.PERIODICAL else 0.0,
        )
        return lark

    def new_agg(self, shards: int = 1) -> AggSwitch:
        agg = AggSwitch(
            "bench-agg",
            rng=random.Random(self.seed + 2),
            registry=MetricsRegistry(),
            shards=shards,
        )
        agg.register_application(
            BENCH_APP_ID, self.schema, self.key, self.specs
        )
        return agg

    def make_cids(self, packets: int) -> List[ConnectionID]:
        """One semantic CID per user, replayed in a seeded mix — the
        Snatch CID policy preserves the cookie bytes across a user's
        connections, which is what the columnar decode memo exploits."""
        codec = TransportCookieCodec(
            BENCH_APP_ID, self.schema, self.key, random.Random(self.seed + 3)
        )
        rng = random.Random(self.seed + 4)
        per_user = [
            codec.encode(
                user.semantic_values(rng.choice(self.workload.campaigns),
                                     rng.choice(("view", "click")))
            )
            for user in self.workload.users
        ]
        return [per_user[rng.randrange(len(per_user))] for _ in range(packets)]


def _throughput(seconds: float, packets: int) -> Dict[str, float]:
    return {
        "seconds": seconds,
        "packets_per_second": packets / seconds if seconds > 0 else 0.0,
    }


def _time_backend(
    process_one, process_many, items, backend: str, batch_size: int
) -> float:
    """Run all ``items`` through one backend; returns seconds."""
    gc.collect()  # same GC starting state for every timed run
    t0 = time.perf_counter()
    if backend == "scalar":
        for item in items:
            process_one(item)
    else:
        for chunk in iter_batches(items, batch_size):
            process_many(chunk)
    return time.perf_counter() - t0


def run_backend_bench(
    packets: int = 100_000,
    num_users: int = 2000,
    mode: str = ForwardingMode.PERIODICAL,
    batch_size: int = 1024,
    shards: int = 1,
    agg_packets: int = 5000,
    seed: int = 42,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Scalar vs columnar throughput on one seeded CID stream: a
    LarkSwitch section (the headline) and an AggSwitch section
    (per-packet merge throughput at the requested shard count).

    Timings are interleaved best-of-``repeats`` — each round builds a
    fresh switch per backend and runs them back to back, so a GC pause
    or a noisy neighbour penalizes at most one (backend, round) sample
    instead of biasing a whole backend.  Reports from the final round
    are compared for equality.

    Result layout (JSON-ready)::

        {"lark": {"scalar": {...}, "columnar": {...}, "speedup": 26.8,
                  "reports_match": true},
         "agg": {... same keys, plus "shards" and "packets" ...}}
    """
    fixture = FastpathFixture(
        mode=mode, num_users=num_users, seed=seed, shards=shards
    )
    cids = fixture.make_cids(packets)

    agg_n = min(agg_packets, packets)
    payload_fixture = FastpathFixture(
        mode=ForwardingMode.PER_PACKET, num_users=num_users, seed=seed
    )
    payloads = payload_fixture.new_lark().process_quic_columnar(
        payload_fixture.make_cids(agg_n)
    ).payloads

    best_lark = {backend: float("inf") for backend in BACKENDS}
    best_agg = {backend: float("inf") for backend in BACKENDS}
    lark_reports: Dict[str, Any] = {}
    agg_reports: Dict[str, Any] = {}
    for _ in range(max(1, repeats)):
        for backend in BACKENDS:
            lark = fixture.new_lark()
            elapsed = _time_backend(
                lark.process_quic_packet, lark.process_quic_columnar,
                cids, backend, batch_size,
            )
            best_lark[backend] = min(best_lark[backend], elapsed)
            lark_reports[backend] = lark.stats_report(BENCH_APP_ID)

            agg = fixture.new_agg(shards=shards)
            elapsed = _time_backend(
                agg.process_packet, agg.process_columnar,
                payloads, backend, batch_size,
            )
            best_agg[backend] = min(best_agg[backend], elapsed)
            agg_reports[backend] = agg.report(BENCH_APP_ID)

    def _section(best: Dict[str, float], n: int, reports) -> Dict[str, Any]:
        return {
            **{backend: _throughput(best[backend], n) for backend in BACKENDS},
            "speedup": (
                best["scalar"] / best["columnar"]
                if best["columnar"] > 0 else 0.0
            ),
            "reports_match": reports["columnar"] == reports["scalar"],
        }

    return {
        "packets": packets,
        "unique_users": num_users,
        "mode": mode,
        "batch_size": batch_size,
        "seed": seed,
        "repeats": repeats,
        "lark": _section(best_lark, packets, lark_reports),
        "agg": {
            "shards": shards,
            "packets": len(payloads),
            **_section(best_agg, len(payloads), agg_reports),
        },
    }


def write_backend_bench(result: Dict[str, Any], path: str) -> None:
    """Record a :func:`run_backend_bench` result as
    ``BENCH_columnar.json`` is laid out — the flat result, sorted keys
    — so the CLI and ``benchmarks/test_columnar.py`` write one schema."""
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
