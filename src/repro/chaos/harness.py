"""End-to-end chaos harness: injected fault -> degrade -> detect -> repair.

One object builds the whole loop on a single deterministic simulator:

* a :class:`SnatchController` riding a retrying :class:`RpcBus`
  (timeouts, acks, exponential backoff, seeded jitter);
* a LarkSwitch, AggSwitch and edge server enrolled with the controller
  and subject to crash/restart via :class:`DeviceLifecycle`;
* a :class:`Network` whose lark -> agg link carries the periodical UDP
  aggregation reports through a seeded :class:`FaultModel` (drop /
  duplicate / reorder / jitter);
* deterministic synthetic traffic: the transport path through the
  LarkSwitch while it is up, gracefully degrading to application-layer
  cookie processing at the edge server while it is down (the paper's
  incremental-deployment fallback, section 3.3);
* a self-scheduling :class:`FaultRepairLoop` that periodically diffs
  the in-network aggregate against the complete web-server-side ground
  truth, resyncs lost parameters over RPC, and reconciles the drifted
  aggregate — zero manual ``check()`` calls.

Everything is derived from one seed, so a scenario run is reproducible
bit-for-bit (:meth:`ChaosResult.fingerprint`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.chaos.lifecycle import DeviceLifecycle
from repro.core.aggswitch import AggSwitch
from repro.core.aggregation import ForwardingMode
from repro.core.app_cookie import ApplicationCookieCodec, format_cookie_header
from repro.core.controller import SnatchController
from repro.core.edge_service import SnatchEdgeServer
from repro.core.fault import FaultRepairLoop, ResultVerifier
from repro.core.larkswitch import LarkSwitch
from repro.core.rpc import RpcBus
from repro.core.schema import Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.net.faults import FaultModel
from repro.net.node import Node, SinkNode
from repro.net.packet import NetPacket
from repro.net.simulator import Simulator
from repro.net.topology import Network
from repro.obs.export import jsonl_lines, render_spans, render_table
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer

__all__ = ["ChaosHarness", "ChaosResult"]

_UDP_HEADER_BYTES = 28


@dataclass
class ChaosResult:
    """Everything a chaos run produced, canonicalized for comparison."""

    seed: int
    consistent: bool
    events_total: int
    fallback_events: int
    reports_sent: int
    reports_lost: int
    reports_duplicated: int
    rpc_retries: int
    rpc_failures: int
    repairs: List[Tuple[float, int, int, bool]]
    checks_run: int
    lifecycle: List[Tuple[float, str, str, int]]
    final_report: Dict[str, Dict[Any, Any]]
    ground_truth: Dict[str, Dict[Any, Any]]

    def fingerprint(self) -> str:
        """Stable digest of the full run outcome — two runs with the
        same seed and scenario must produce identical fingerprints."""
        canonical = repr((
            self.seed,
            self.consistent,
            self.events_total,
            self.fallback_events,
            self.reports_sent,
            self.reports_lost,
            self.reports_duplicated,
            self.rpc_retries,
            self.rpc_failures,
            self.repairs,
            self.checks_run,
            self.lifecycle,
            sorted(
                (name, sorted((repr(k), v) for k, v in cells.items()))
                for name, cells in self.final_report.items()
            ),
            sorted(
                (name, sorted((repr(k), v) for k, v in cells.items()))
                for name, cells in self.ground_truth.items()
            ),
        ))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ChaosHarness:
    """A self-healing Snatch deployment under scripted faults."""

    REGIONS = ("north", "south", "east", "west")

    def __init__(
        self,
        seed: int = 0,
        duration_ms: float = 1000.0,
        period_ms: float = 100.0,
        verify_every_periods: int = 2,
        events_per_period: int = 20,
        link_delay_ms: float = 5.0,
        rpc_delay_ms: float = 10.0,
        rpc_timeout_ms: float = 45.0,
        rpc_max_retries: int = 5,
        relative_tolerance: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
        backend: str = "scalar",
        agg_shards: int = 1,
    ):
        if duration_ms <= 0 or period_ms <= 0:
            raise ValueError("duration and period must be positive")
        if verify_every_periods < 1:
            raise ValueError("verify_every_periods must be >= 1")
        if backend not in ("scalar", "columnar"):
            raise ValueError("unknown backend %r" % backend)
        # Which switch entry points the data plane exercises.  Events
        # arrive one at a time from the simulator, so the fast path
        # sees single-packet batches — bit-identical to the scalar loop
        # (the differential suite proves it), which is exactly why the
        # fingerprint must not change across backends.
        self.backend = backend
        self.seed = seed
        self.duration_ms = float(duration_ms)
        self.period_ms = float(period_ms)
        self.verify_period_ms = verify_every_periods * self.period_ms
        # Verification runs this long after a period boundary, so every
        # non-lost report for that boundary has landed at the AggSwitch.
        self.verify_margin_ms = link_delay_ms + 10.0

        self.sim = Simulator()
        self.network = Network(self.sim)
        # The harness keeps its own registry/tracer by default so two
        # seeded runs can be compared dump-for-dump without leaking
        # series into (or from) the process-wide default.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(self.sim)
        self.bus = RpcBus(
            self.sim,
            default_delay_ms=rpc_delay_ms,
            timeout_ms=rpc_timeout_ms,
            max_retries=rpc_max_retries,
            retry_jitter_ms=2.0,
            seed=seed,
            registry=self.registry,
        )
        self.controller = SnatchController(seed=seed, bus=self.bus)
        self.lifecycle = DeviceLifecycle(
            self.sim, self.controller,
            registry=self.registry, tracer=self.tracer,
        )

        self.agg = AggSwitch("agg", random.Random("chaos-agg/%d" % seed),
                             registry=self.registry, shards=agg_shards)
        self.lark = LarkSwitch("lark", random.Random("chaos-lark/%d" % seed),
                               registry=self.registry)
        self.edge = SnatchEdgeServer(
            "edge", random.Random("chaos-edge/%d" % seed)
        )
        self.controller.attach_agg_switch(self.agg)
        self.controller.attach_lark_switch(self.lark)
        self.controller.attach_edge_server(self.edge)

        # Data plane: the two report sources and the aggregation sink.
        self.network.add_node(Node("lark"))
        self.network.add_node(Node("edge"))
        sink = SinkNode("agg")
        sink.on_receive = self._on_report
        self.network.add_node(sink)
        self.network.add_link("lark", "agg", link_delay_ms,
                              bidirectional=False)
        self.network.add_link("edge", "agg", link_delay_ms,
                              bidirectional=False)
        self.fault_model = FaultModel(seed, registry=self.registry)

        # The application under test: periodical forwarding so reports
        # ride (losable) UDP packets at period boundaries.
        self.handle = self.controller.add_application(
            "chaos",
            [Feature.categorical("region", list(self.REGIONS))],
            [StatSpec("by_region", StatKind.COUNT_BY_CLASS, "region")],
            mode=ForwardingMode.PERIODICAL,
            period_ms=self.period_ms,
        )
        self.app_id = self.handle.app_id
        self._transport_codec = TransportCookieCodec(
            self.app_id, self.handle.transport_schema, self.handle.key,
            random.Random("chaos-cookie/%d" % seed),
        )
        self._app_codec = ApplicationCookieCodec(
            self.app_id, self.handle.transport_schema, self.handle.key,
            random.Random("chaos-appcookie/%d" % seed),
        )

        # Complete web-server-side data (the delayed ground truth).
        self.ground_truth: Dict[str, Dict[Any, int]] = {"by_region": {}}
        self._truth_at_boundary: Dict[str, Dict[Any, int]] = {"by_region": {}}

        self.repair_loop = FaultRepairLoop(
            self.controller,
            ResultVerifier(relative_tolerance),
            reconciler=self._reconcile,
            registry=self.registry,
            tracer=self.tracer,
        )

        self.events_total = 0
        self.fallback_events = 0
        self.reports_sent = 0
        self.reports_dropped_at_agg = 0
        self._ran = False
        self._m_events = self.registry.counter("chaos.events")
        self._m_fallback = self.registry.counter("chaos.fallback_events")
        self._m_reports = self.registry.counter("chaos.reports_sent")
        self._m_reports_dropped = self.registry.counter(
            "chaos.reports_dropped_at_agg"
        )

        self._schedule_traffic(events_per_period)
        self._schedule_periods()
        self._schedule_verification()

    # -- wiring -----------------------------------------------------------------

    def _schedule_traffic(self, events_per_period: int) -> None:
        """Deterministic event times and values, precomputed from the
        seed.  Traffic starts after one period (the controller's tiered
        install is acked well before that) and never lands exactly on a
        period boundary."""
        rng = random.Random("chaos-traffic/%d" % self.seed)
        start = self.period_ms
        span = self.duration_ms - start
        count = max(1, int(events_per_period * span / self.period_ms))
        spacing = span / count
        for i in range(count):
            at = start + (i + 0.37) * spacing
            region = rng.choice(self.REGIONS)
            self.sim.schedule_at(at, lambda r=region: self._event(r))

    def _schedule_periods(self) -> None:
        self.sim.schedule_periodic(
            self.period_ms,
            self._flush,
            start_ms=2 * self.period_ms,
            until_ms=self.duration_ms,
        )

    def _schedule_verification(self) -> None:
        self.repair_loop.schedule(
            self.sim,
            "chaos",
            in_network_fn=self._in_network_report,
            ground_truth_fn=self._truth_snapshot,
            period_ms=self.verify_period_ms,
            start_ms=2 * self.period_ms + self.verify_margin_ms,
            until_ms=self.duration_ms + self.verify_margin_ms,
        )

    # -- traffic ----------------------------------------------------------------

    def _event(self, region: str) -> None:
        """One user request.  The web server always sees it (ground
        truth is complete); the in-network path depends on which
        devices are up."""
        cells = self.ground_truth["by_region"]
        cells[region] = cells.get(region, 0) + 1
        self.events_total += 1
        self._m_events.inc()
        if self.lark.alive:
            cid = self._transport_codec.encode({"region": region})
            if self.backend == "columnar":
                self.lark.process_quic_columnar([cid])
            else:
                self.lark.process_quic_packet(cid)
        else:
            # Incremental-deployment fallback: no LarkSwitch in path,
            # the edge server processes the application-layer cookie.
            self.fallback_events += 1
            self._m_fallback.inc()
            name, value = self._app_codec.encode({"region": region})
            self.edge.handle_request({}, format_cookie_header({name: value}))

    def _flush(self) -> None:
        """Period boundary: snapshot the truth and emit UDP reports."""
        self._truth_at_boundary = {
            name: dict(cells) for name, cells in self.ground_truth.items()
        }
        for device, source in ((self.lark, "lark"), (self.edge, "edge")):
            if not device.alive:
                continue
            if self.app_id not in device.registered_app_ids():
                continue
            payload = device.end_period(self.app_id)
            if payload is None:
                continue
            self.reports_sent += 1
            self._m_reports.inc()
            self.network.transmit(source, NetPacket(
                src=source,
                dst="agg",
                protocol="udp",
                size_bytes=_UDP_HEADER_BYTES + len(payload),
                payload=payload,
                created_at_ms=self.sim.now,
            ))

    def _on_report(self, packet: NetPacket, _now: float) -> None:
        if not self.agg.alive or self.app_id not in self.agg.registered_app_ids():
            self.reports_dropped_at_agg += 1
            self._m_reports_dropped.inc()
            return
        if self.backend == "columnar":
            self.agg.process_columnar([packet.payload])
        else:
            self.agg.process_packet(packet.payload)

    # -- verification -----------------------------------------------------------

    def _in_network_report(self) -> Dict[str, Dict[Any, Any]]:
        if self.app_id not in self.agg.registered_app_ids():
            return {}
        return self.agg.report(self.app_id)

    def _truth_snapshot(self) -> Dict[str, Dict[Any, Any]]:
        return {
            name: dict(cells)
            for name, cells in self._truth_at_boundary.items()
        }

    def _reconcile(self, _application: str,
                   ground_truth: Dict[str, Dict[Any, Any]]) -> None:
        """Section-6 repair: replace the drifted aggregate with the
        re-computation on the complete web-server data."""
        if self.agg.alive and self.app_id in self.agg.registered_app_ids():
            self.agg.reconcile_report(self.app_id, ground_truth)

    # -- observability ----------------------------------------------------------

    def metrics_jsonl(self) -> str:
        """The run's metrics + spans as a deterministic JSON-lines
        dump (byte-identical for identical seeded runs)."""
        lines = jsonl_lines(self.registry, self.tracer)
        return "\n".join(lines) + ("\n" if lines else "")

    def metrics_table(self) -> str:
        return render_table(self.registry)

    def spans_table(self) -> str:
        return render_spans(self.tracer)

    # -- driving ----------------------------------------------------------------

    def apply(self, scenario) -> "ChaosHarness":
        scenario.apply(self)
        return self

    def run(self) -> ChaosResult:
        """Drain the simulation and assemble the canonical result."""
        if self._ran:
            raise RuntimeError("harness already ran; build a fresh one")
        self._ran = True
        self.fault_model.install(self.network)
        # The root span brackets the whole run, so every chaos-phase
        # span opened inside a scheduled event nests under it.
        with self.tracer.span("chaos.run", seed=self.seed):
            self.sim.run()
        final_report = self._in_network_report()
        truth = {
            name: dict(cells) for name, cells in self.ground_truth.items()
        }
        lark_agg = self.network.link("lark", "agg")
        edge_agg = self.network.link("edge", "agg")
        return ChaosResult(
            seed=self.seed,
            consistent=self.repair_loop.verifier.consistent(
                final_report, truth
            ),
            events_total=self.events_total,
            fallback_events=self.fallback_events,
            reports_sent=self.reports_sent,
            reports_lost=lark_agg.packets_lost + edge_agg.packets_lost,
            reports_duplicated=(
                lark_agg.packets_duplicated + edge_agg.packets_duplicated
            ),
            rpc_retries=self.bus.retries(),
            rpc_failures=len(self.bus.failed()),
            repairs=[
                (r.at_ms, r.discrepancies, r.devices_resynced, r.reconciled)
                for r in self.repair_loop.history
            ],
            checks_run=self.repair_loop.checks_run,
            lifecycle=[
                (e.at_ms, e.device, e.kind, e.detail)
                for e in self.lifecycle.events
            ],
            final_report=final_report,
            ground_truth=truth,
        )
