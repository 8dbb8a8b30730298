"""End-to-end testbed experiments (paper Figures 6(a)-(c)).

Each experiment drives the *real* Snatch components — transport/
application cookie codecs, LarkSwitch and AggSwitch pipelines, the
Snatch edge server — over the discrete-event simulator, with
inter-component delays taken from the measured distributions at a
configurable percentile (the simulated equivalent of the paper's
``tc``-shaped testbed) and server queueing at the edge and web tiers.

Five request pathways are modelled (config: scheme x INSA):

* **BASELINE**: client -3d_CE-> edge (queue T_E) -3d_EW+T_trans-> web
  (queue T_W) -d_WA-> Spark -> result at batch end + processing.
* **APP_HTTPS**: client -3d_CE-> edge (queue; Snatch page rule decodes
  the cookie and emits an aggregation packet) -d_EA-> AggSwitch ->
  analytics; result immediately (INSA) or after Spark (no INSA).
* **TRANS_1RTT / TRANS_0RTT**: the cookie rides the first QUIC packet:
  client -d_CI-> LarkSwitch (line-rate decode) -d_IA-> AggSwitch ->
  analytics; result immediately (INSA) or after Spark (no INSA).

Every event's semantic data really flows: cookies are AES-encrypted and
decoded by the switch pipelines, and results are checked against the
workload's reference aggregation.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.edge_service import SnatchEdgeServer
from repro.core.larkswitch import LarkSwitch
from repro.core.stats import counts_match
from repro.core.transport_cookie import TransportCookieCodec
from repro.core.app_cookie import ApplicationCookieCodec, format_cookie_header
from repro.model.params import ScenarioParams, percentile_scenario
from repro.net.simulator import Simulator
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.spark_model import SparkLatencyModel
from repro.workloads.adcampaign import AdCampaignWorkload, AdEvent

__all__ = ["TestbedExperiment", "TestbedResult", "RequestRecord"]

_APP_ID = 0x5C
_UDP_IP_OVERHEAD_BYTES = 28


@dataclass
class RequestRecord:
    """Per-request bookkeeping."""

    event: AdEvent
    completed_ms: Optional[float] = None

    @property
    def latency_ms(self) -> Optional[float]:
        if self.completed_ms is None:
            return None
        return self.completed_ms - self.event.time_ms


@dataclass
class TestbedResult:
    """Metrics of one experiment run."""

    __test__ = False

    config: TestbedConfig
    records: List[RequestRecord]
    aggregation_bytes: int
    aggregation_packets: int
    aggregated_report: Dict[str, Any]
    reference_counts: Dict[str, Dict[Any, int]]

    def latencies(self) -> List[float]:
        return [
            r.latency_ms for r in self.records if r.latency_ms is not None
        ]

    @property
    def completed(self) -> int:
        return len(self.latencies())

    @property
    def mean_latency_ms(self) -> float:
        values = self.latencies()
        if not values:
            raise ValueError("no completed requests")
        return statistics.fmean(values)

    @property
    def median_latency_ms(self) -> float:
        values = self.latencies()
        if not values:
            raise ValueError("no completed requests")
        return statistics.median(values)

    def percentile_latency_ms(self, p: float) -> float:
        values = sorted(self.latencies())
        if not values:
            raise ValueError("no completed requests")
        idx = min(len(values) - 1, int(round(p / 100.0 * (len(values) - 1))))
        return values[idx]

    @property
    def bandwidth_kbps(self) -> float:
        """Aggregation-stream bandwidth toward the AggSwitch."""
        return self.aggregation_bytes * 8 / self.config.duration_ms

    def counts_match_reference(self) -> bool:
        """Whether the in-network aggregate equals ground truth (valid
        for per-packet forwarding with no loss)."""
        return counts_match(self.aggregated_report, self.reference_counts)


class TestbedExperiment:
    """Builds and runs one configuration end to end."""

    __test__ = False  # not a pytest class despite the name

    def __init__(
        self,
        config: TestbedConfig,
        workload: Optional[AdCampaignWorkload] = None,
    ):
        self.config = config
        self.workload = workload or AdCampaignWorkload(
            num_users=config.num_users,
            num_campaigns=config.num_campaigns,
            seed=config.seed,
        )
        self.params: ScenarioParams = percentile_scenario(
            config.delay_percentile
        )
        self._rng = random.Random(config.seed + 1)
        self.sim = Simulator()
        self.spark = SparkLatencyModel(
            config.spark_interval_ms, config.spark_batch_ms
        )
        self._key = bytes(self._rng.getrandbits(8) for _ in range(16))
        schema = self.workload.schema()
        specs = self.workload.specs()
        self._schema = schema
        self._specs = specs
        # Real devices.
        self.lark = LarkSwitch("lark", random.Random(config.seed + 2))
        self.agg = AggSwitch("agg", random.Random(config.seed + 3))
        self.edge = SnatchEdgeServer("edge", random.Random(config.seed + 4))
        mode = config.forwarding
        self.lark.register_application(
            _APP_ID, schema, self._key, specs,
            mode=mode, period_ms=config.period_ms or 0.0,
        )
        self.agg.register_application(_APP_ID, schema, self._key, specs)
        self.edge.register_application(
            _APP_ID, schema, self._key, specs,
            mode=mode, period_ms=config.period_ms or 0.0,
            event_filter=AdCampaignWorkload.event_filter,
        )
        self.transport_codec = TransportCookieCodec(
            _APP_ID, schema, self._key, random.Random(config.seed + 5)
        )
        self.app_codec = ApplicationCookieCodec(
            _APP_ID, schema, self._key, random.Random(config.seed + 6)
        )
        # Server queues (testbed machines).
        self._edge_free_at = [0.0] * config.edge_workers
        self._web_free_at = [0.0] * config.web_workers
        # Aggregation-stream accounting.
        self.aggregation_bytes = 0
        self.aggregation_packets = 0
        # Periodical forwarding state.
        self._pending_periodical: List[RequestRecord] = []

    # -- queue helpers ------------------------------------------------------

    def _enqueue(self, free_at: List[float], service_ms: float) -> float:
        """Admit one request to a multi-worker FIFO queue; returns the
        completion time."""
        now = self.sim.now
        idx = min(range(len(free_at)), key=lambda i: free_at[i])
        start = max(now, free_at[idx])
        free_at[idx] = start + service_ms
        return free_at[idx]

    # -- per-request pathways ----------------------------------------------------

    def _complete(self, record: RequestRecord) -> None:
        record.completed_ms = self.sim.now

    def _spark_then_complete(self, record: RequestRecord) -> None:
        result_at = self.spark.result_time_ms(self.sim.now)
        self.sim.schedule_at(result_at, lambda: self._complete(record))

    def _deliver_aggregation(
        self, payload: bytes, record: Optional[RequestRecord],
        records: Optional[List[RequestRecord]] = None,
        from_isp: bool = False,
    ) -> None:
        """Carry an aggregation packet to the AggSwitch + analytics."""
        self.aggregation_bytes += len(payload) + _UDP_IP_OVERHEAD_BYTES
        self.aggregation_packets += 1
        delay = self.params.d_ia if from_isp else self.params.d_ea

        def arrive() -> None:
            result = self.agg.process_packet(payload)

            def at_analytics() -> None:
                targets = records if records is not None else (
                    [record] if record is not None else []
                )
                if self.config.insa:
                    for r in targets:
                        self._complete(r)
                else:
                    for r in targets:
                        self._spark_then_complete(r)

            self.sim.schedule(result.latency_ms, at_analytics)

        self.sim.schedule(delay, arrive)

    def _launch_baseline(self, record: RequestRecord) -> None:
        p = self.params
        cfg = self.config

        def at_edge() -> None:
            done = self._enqueue(self._edge_free_at, cfg.edge_service_ms)

            def to_web() -> None:
                def at_web() -> None:
                    done_web = self._enqueue(
                        self._web_free_at, cfg.web_service_ms
                    )

                    def to_analytics() -> None:
                        self.sim.schedule(
                            p.d_wa, lambda: self._spark_then_complete(record)
                        )

                    self.sim.schedule_at(done_web, to_analytics)

                self.sim.schedule(3 * p.d_ew + p.t_trans, at_web)

            self.sim.schedule_at(done, to_web)

        self.sim.schedule_at(record.event.time_ms + 3 * p.d_ce, at_edge)

    def _launch_app_https(self, record: RequestRecord) -> None:
        p = self.params
        cfg = self.config
        event = record.event
        name, value = self.app_codec.encode(
            event.user.semantic_values(event.campaign, event.event_type)
        )
        cookie_header = format_cookie_header({name: value})

        def at_edge() -> None:
            done = self._enqueue(self._edge_free_at, cfg.edge_service_ms)

            def processed() -> None:
                result = self.edge.handle_request(
                    {"event": event.event_type}, cookie_header
                )
                if result.aggregation_payload is not None:
                    self._deliver_aggregation(
                        result.aggregation_payload, record, from_isp=False
                    )
                elif cfg.forwarding == ForwardingMode.PERIODICAL:
                    self._pending_periodical.append(record)

            self.sim.schedule_at(done, processed)

        self.sim.schedule_at(event.time_ms + 3 * p.d_ce, at_edge)

    def _launch_transport(self, record: RequestRecord) -> None:
        p = self.params
        cfg = self.config
        event = record.event
        cid = self.transport_codec.encode(
            event.user.semantic_values(event.campaign, event.event_type)
        )

        def at_lark() -> None:
            result = self.lark.process_quic_packet(cid)

            def after_pipeline() -> None:
                if result.aggregation_payload is not None:
                    self._deliver_aggregation(
                        result.aggregation_payload, record, from_isp=True
                    )
                elif cfg.forwarding == ForwardingMode.PERIODICAL:
                    self._pending_periodical.append(record)

            self.sim.schedule(result.latency_ms, after_pipeline)

        self.sim.schedule_at(event.time_ms + p.d_ci, at_lark)

    # -- periodical flush timer --------------------------------------------------------

    def _flush_period(self) -> None:
        if self.config.uses_transport_cookie:
            payload = self.lark.end_period(_APP_ID)
            from_isp = True
        else:
            payload = self.edge.end_period(_APP_ID)
            from_isp = False
        pending, self._pending_periodical = self._pending_periodical, []
        if payload is None:
            return
        self._deliver_aggregation(
            payload, None, records=pending, from_isp=from_isp
        )

    # -- run -----------------------------------------------------------------------------

    def run(self) -> TestbedResult:
        cfg = self.config
        events = self.workload.generate_events(
            cfg.requests_per_second, cfg.duration_ms
        )
        records = [RequestRecord(event) for event in events]
        launchers = {
            Scheme.BASELINE: self._launch_baseline,
            Scheme.APP_HTTPS: self._launch_app_https,
            Scheme.TRANS_1RTT: self._launch_transport,
            Scheme.TRANS_0RTT: self._launch_transport,
        }
        launch = launchers[cfg.scheme]
        for record in records:
            launch(record)
        if cfg.forwarding == ForwardingMode.PERIODICAL:
            self.sim.schedule_periodic(
                cfg.period_ms,
                self._flush_period,
                until_ms=cfg.duration_ms + 10 * cfg.period_ms,
            )
        self.sim.run()
        report = (
            self.agg.report(_APP_ID)
            if cfg.scheme is not Scheme.BASELINE
            else {}
        )
        return TestbedResult(
            config=cfg,
            records=records,
            aggregation_bytes=self.aggregation_bytes,
            aggregation_packets=self.aggregation_packets,
            aggregated_report=report,
            reference_counts=self.workload.reference_counts(events),
        )
