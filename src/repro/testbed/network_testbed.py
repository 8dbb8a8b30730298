"""A packet-routed testbed on the full network simulator.

`repro.testbed.experiment` times the request pathways with explicit
event chains; this module builds the *actual* Figure-2 topology on
:class:`repro.net.Network` — client, LarkSwitch and AggSwitch as
in-path :class:`SwitchNode`-style elements, edge/web as queueing
:class:`ProcessingNode`s, analytics as a sink — and lets real packets
flow hop by hop.  It exists both as a cross-check (its latencies must
agree with the chain-based experiment) and as the natural place to
study link-level effects (loss on the aggregation stream, bandwidth
caps).

Topology and link delays (one-way, from a percentile scenario)::

    client --d_CI-- lark --(d_CE-d_CI)-- edge --d_EW-- web
                      \\                    \\
                       d_IA-eps             d_EA-eps
                        \\                    /
                         agg --eps-- analytics     web --d_WA-eps-- agg

BFS hop-count routing then yields exactly the paper's path delays:
client->edge = d_CE, lark->analytics = d_IA, edge->analytics = d_EA,
web->analytics = d_WA.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.cookie_cache import CookieEncodeCache
from repro.core.larkswitch import LarkSwitch
from repro.core.stats import counts_match
from repro.core.transport_cookie import TransportCookieCodec
from repro.model.params import ScenarioParams, percentile_scenario
from repro.net.node import Node, ProcessingNode, SinkNode, SwitchNode
from repro.net.packet import NetPacket
from repro.net.topology import Network
from repro.quic.connection_id import ConnectionID
from repro.testbed.config import Scheme, TestbedConfig
from repro.workloads.adcampaign import AdCampaignWorkload

__all__ = ["NetworkTestbed", "NetworkRunResult"]

_APP_ID = 0x5C
_EPS_MS = 0.25  # agg -> analytics last hop
_INGEST_BATCH = 256  # events per client-side micro-batch
# The one pathway the topology below models, as TestbedConfig fields:
# Trans-1RTT cookies, INSA in the switches, per-packet forwarding.
_MODELED = {
    "scheme": Scheme.TRANS_1RTT,
    "insa": True,
    "forwarding": ForwardingMode.PER_PACKET,
    "period_ms": 0.0,
}


@dataclass
class NetworkRunResult:
    """Latencies measured at the analytics sink."""

    latencies_ms: List[float]
    aggregation_packets: int
    aggregation_bytes: int
    report: Dict[str, Any]
    reference: Dict[str, Dict[Any, int]]
    lost_packets: int

    @property
    def median_latency_ms(self) -> float:
        if not self.latencies_ms:
            raise ValueError("no completed requests")
        return statistics.median(self.latencies_ms)

    def counts_match_reference(self) -> bool:
        return counts_match(self.report, self.reference)


class NetworkTestbed:
    """Trans-1RTT + INSA over real hop-by-hop packet delivery.

    A ``config`` whose scheme, INSA flag, forwarding mode or period
    asks for any other pathway is refused with a ``ValueError``; the
    default config is the modeled one.
    """

    __test__ = False

    def __init__(
        self,
        config: Optional[TestbedConfig] = None,
        agg_loss_rate: float = 0.0,
        workload: Optional[AdCampaignWorkload] = None,
    ):
        self.config = config or TestbedConfig(**_MODELED)
        for name, modeled in _MODELED.items():
            value = getattr(self.config, name)
            if value != modeled:
                raise ValueError(
                    "NetworkTestbed models only config.%s=%r, not %r"
                    % (name, modeled, value)
                )
        self.workload = workload or AdCampaignWorkload(
            num_users=self.config.num_users,
            num_campaigns=self.config.num_campaigns,
            seed=self.config.seed,
        )
        self.params: ScenarioParams = percentile_scenario(
            self.config.delay_percentile
        )
        rng = random.Random(self.config.seed + 9)
        self._key = bytes(rng.getrandbits(8) for _ in range(16))
        schema = self.workload.schema()
        specs = self.workload.specs()
        self.lark_device = LarkSwitch("lark-dev", random.Random(1))
        self.lark_device.register_application(
            _APP_ID, schema, self._key, specs
        )
        self.agg_device = AggSwitch("agg-dev", random.Random(2))
        self.agg_device.register_application(_APP_ID, schema, self._key, specs)
        # Client-side ingest: generation streams micro-batches of
        # _INGEST_BATCH events and cookies come out of the encode cache
        # (one batched AES pass per batch of misses).
        self.cookie_cache = CookieEncodeCache(
            TransportCookieCodec(_APP_ID, schema, self._key, random.Random(3))
        )
        self.agg_loss_rate = agg_loss_rate
        self.net = Network()
        self._build_topology()

    def rekey(self, new_key: bytes) -> None:
        """Mid-run key replacement on every tier *and* the client-side
        encode cache — the cache invalidates atomically, so no cookie
        encrypted under the old key is minted afterwards."""
        self._key = new_key
        self.agg_device.rekey_application(_APP_ID, new_key)
        self.lark_device.rekey_application(_APP_ID, new_key)
        self.cookie_cache.rekey(new_key)

    # -- topology -----------------------------------------------------------

    def _build_topology(self) -> None:
        p = self.params
        net = self.net
        testbed = self

        class LarkNode(SwitchNode):
            """Runs the real LarkSwitch program on transiting QUIC
            packets and injects aggregation packets toward the agg."""

            def handle(self, packet: NetPacket) -> None:
                if packet.protocol != "quic":
                    self.forward(packet)
                    return
                result = testbed.lark_device.process_quic_packet(
                    ConnectionID(packet.headers["dcid"])
                )
                payload = result.aggregation_payload

                def finish() -> None:
                    if result.forwarded_original:
                        self.forward(packet)
                    if payload is not None:
                        clone = NetPacket(
                            src=self.name,
                            dst="agg",
                            protocol="snatch-agg",
                            size_bytes=len(payload) + 28,
                            payload=payload,
                            headers={"request_id": packet.headers["request_id"],
                                     "t0": packet.created_at_ms},
                        )
                        self.send(clone)

                self.sim.schedule(result.latency_ms, finish)

        class AggNode(SwitchNode):
            """Merges aggregation packets, forwards results onward."""

            def handle(self, packet: NetPacket) -> None:
                if packet.protocol != "snatch-agg":
                    self.forward(packet)
                    return
                result = testbed.agg_device.process_packet(packet.payload)

                def finish() -> None:
                    if result.merged:
                        self.forward(
                            packet.clone(dst="analytics", src=self.name)
                        )

                self.sim.schedule(result.latency_ms, finish)

        net.add_node(Node("client"))
        net.add_node(LarkNode("lark"))
        net.add_node(AggNode("agg"))
        net.add_node(
            ProcessingNode(
                "edge",
                service_time_ms=self.config.edge_service_ms,
                workers=self.config.edge_workers,
            )
        )
        net.add_node(
            ProcessingNode(
                "web",
                service_time_ms=self.config.web_service_ms,
                workers=self.config.web_workers,
            )
        )
        self.analytics = SinkNode("analytics")
        net.add_node(self.analytics)

        net.add_link("client", "lark", delay_ms=p.d_ci)
        net.add_link("lark", "edge", delay_ms=max(0.0, p.d_ce - p.d_ci))
        net.add_link("edge", "web", delay_ms=p.d_ew)
        net.add_link("lark", "agg", delay_ms=max(0.0, p.d_ia - _EPS_MS),
                     loss_rate=self.agg_loss_rate,
                     rng=random.Random(self.config.seed + 20))
        net.add_link("edge", "agg", delay_ms=max(0.0, p.d_ea - _EPS_MS))
        net.add_link("web", "agg", delay_ms=max(0.0, p.d_wa - _EPS_MS))
        net.add_link("agg", "analytics", delay_ms=_EPS_MS)

    # -- run --------------------------------------------------------------------

    def _send_request(self, request_id: int, t0: float, dcid: bytes) -> None:
        packet = NetPacket(
            src="client",
            dst="web",
            protocol="quic",
            size_bytes=1200,
            headers={"dcid": dcid, "request_id": request_id},
            created_at_ms=t0,
        )
        self.net.nodes["client"].send(packet)

    def run(self) -> NetworkRunResult:
        """Pull-based ingest: the pump generates one micro-batch of
        events (struct-of-arrays, no event objects), encodes its
        cookies through the cache, schedules the sends, and re-arms
        itself at the batch's last event time — so generation streams
        alongside the simulation instead of front-loading the run.
        The reference accumulates incrementally batch by batch."""
        latencies: Dict[int, float] = {}
        t0s: Dict[int, float] = {}

        def on_analytics(packet: NetPacket, now_ms: float) -> None:
            request_id = packet.headers.get("request_id")
            if request_id is not None and request_id not in latencies:
                latencies[request_id] = now_ms - t0s[request_id]

        self.analytics.on_receive = on_analytics
        stream = self.workload.stream(
            self.config.requests_per_second, self.config.duration_ms
        )
        reference = self.workload.new_reference()
        workload = self.workload
        cache = self.cookie_cache
        sim = self.net.sim
        send = self._send_request
        next_id = [0]

        def pump() -> None:
            cols = stream.generate_batch(_INGEST_BATCH)
            n = len(cols)
            if not n:
                return
            workload.accumulate_reference(cols, reference)
            keys = workload.cookie_keys(cols)
            cids = cache.encode_columns(
                keys, rows_fn=partial(workload.cookie_rows, cols)
            ).raw
            base = next_id[0]
            next_id[0] = base + n
            times = cols.time_ms
            for i in range(n):
                t0 = times[i]
                t0s[base + i] = t0
                sim.schedule_at(t0, partial(send, base + i, t0, cids[i]))
            sim.schedule_at(times[-1], pump)

        pump()
        sim.run()
        lark_agg = self.net.link("lark", "agg")
        return NetworkRunResult(
            latencies_ms=[latencies[i] for i in sorted(latencies)],
            aggregation_packets=lark_agg.packets_sent,
            aggregation_bytes=lark_agg.bytes_sent,
            report=self.agg_device.report(_APP_ID),
            reference=reference,
            lost_packets=lark_agg.packets_lost,
        )
