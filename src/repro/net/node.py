"""Simulated network nodes.

Three kinds of node matter to Snatch's evaluation:

* :class:`Node` — base class; subclasses override :meth:`handle` to
  consume delivered packets.
* :class:`ProcessingNode` — a server with ``workers`` parallel workers
  and a deterministic per-request service time.  Requests queue FIFO
  for the earliest-free worker, so the node behaves like an M/D/c queue
  and saturates at ``workers / service_time`` requests per second.
  This is the congestion mechanism behind paper Figure 6(b), where the
  edge and web servers fall over beyond ~100-300 req/s while the
  line-rate switch path stays flat.
* :class:`SwitchNode` — wraps a :class:`~repro.switch.pipeline.SwitchPipeline`;
  forwards at line rate with the pipeline's per-packet latency and
  re-injects clones and rewritten packets into the network.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.net.packet import NetPacket
from repro.net.simulator import Simulator

__all__ = ["Node", "ProcessingNode", "SwitchNode", "SinkNode"]


class Node:
    """Base network node; ``network`` is attached by the Network."""

    def __init__(self, name: str):
        self.name = name
        self.network = None  # set by Network.add_node
        self.packets_received = 0

    def attach(self, network) -> None:
        self.network = network

    @property
    def sim(self) -> Simulator:
        if self.network is None:
            raise RuntimeError("node %s is not attached to a network" % self.name)
        return self.network.sim

    def send(self, packet: NetPacket) -> None:
        """Hand a packet to the network for delivery toward packet.dst."""
        if self.network is None:
            raise RuntimeError("node %s is not attached to a network" % self.name)
        self.network.transmit(self.name, packet)

    def deliver(self, packet: NetPacket) -> None:
        """Called by the network when a packet arrives at this node."""
        self.packets_received += 1
        self.handle(packet)

    def handle(self, packet: NetPacket) -> None:
        """Consume a delivered packet; default drops it silently."""


class SinkNode(Node):
    """Collects everything it receives, with arrival timestamps."""

    def __init__(self, name: str):
        super().__init__(name)
        self.received: List[NetPacket] = []
        self.arrival_times_ms: List[float] = []
        self.on_receive: Optional[Callable[[NetPacket, float], None]] = None

    def handle(self, packet: NetPacket) -> None:
        self.received.append(packet)
        self.arrival_times_ms.append(self.sim.now)
        if self.on_receive is not None:
            self.on_receive(packet, self.sim.now)


class ProcessingNode(Node):
    """A server with ``workers`` parallel workers (M/D/c queue).

    ``service_time_ms`` may be a float or a callable ``(packet) -> float``
    so heterogeneous request costs can be modelled.  When processing
    completes, ``processor(packet, node)`` runs; it typically mutates
    the payload and sends follow-up packets.
    """

    def __init__(
        self,
        name: str,
        service_time_ms: Any = 1.0,
        workers: int = 1,
        processor: Optional[Callable[[NetPacket, "ProcessingNode"], None]] = None,
        queue_capacity: Optional[int] = None,
    ):
        super().__init__(name)
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.service_time_ms = service_time_ms
        self.workers = workers
        self.processor = processor
        self.queue_capacity = queue_capacity
        self._worker_free_at = [0.0] * workers
        self.busy_ms = 0.0
        self.completed = 0
        self.dropped = 0
        self.queue_waits_ms: List[float] = []
        self._down_until_ms: Optional[float] = None

    # -- failure injection -------------------------------------------------

    def fail_until(self, recover_at_ms: float) -> None:
        """Take the server down: packets arriving before
        ``recover_at_ms`` are dropped (crash / rolling-restart model)."""
        self._down_until_ms = recover_at_ms

    def recover(self) -> None:
        self._down_until_ms = None

    def is_down(self, now_ms: float) -> bool:
        return self._down_until_ms is not None and now_ms < self._down_until_ms

    def _service_time(self, packet: NetPacket) -> float:
        if callable(self.service_time_ms):
            return float(self.service_time_ms(packet))
        return float(self.service_time_ms)

    def capacity_rps(self) -> float:
        """Saturation throughput in requests/second for constant
        service times."""
        if callable(self.service_time_ms):
            raise ValueError("capacity undefined for variable service times")
        return self.workers / (self.service_time_ms / 1000.0)

    def handle(self, packet: NetPacket) -> None:
        now = self.sim.now
        if self.is_down(now):
            self.dropped += 1
            return
        # Find the worker that frees up first.
        idx = min(range(self.workers), key=lambda i: self._worker_free_at[i])
        start = max(now, self._worker_free_at[idx])
        if self.queue_capacity is not None:
            backlog_ms = start - now
            service = self._service_time(packet)
            if service > 0 and backlog_ms / service >= self.queue_capacity:
                self.dropped += 1
                return
        service = self._service_time(packet)
        finish = start + service
        self._worker_free_at[idx] = finish
        self.busy_ms += service
        self.queue_waits_ms.append(start - now)

        def complete() -> None:
            self.completed += 1
            if self.processor is not None:
                self.processor(packet, self)

        self.sim.schedule_at(finish, complete)


class SwitchNode(Node):
    """Wraps a switch pipeline; decides egress from processing results.

    ``packet_to_fields`` extracts PHV fields from a NetPacket;
    ``on_result(result, packet, node)`` interprets the pipeline result
    (forward, clone, drop) and emits packets.  Both hooks are installed
    by the Snatch deployment code in :mod:`repro.core`.
    """

    def __init__(
        self,
        name: str,
        pipeline=None,
        packet_to_fields: Optional[Callable[[NetPacket], Dict[str, Any]]] = None,
        on_result: Optional[Callable[[Any, NetPacket, "SwitchNode"], None]] = None,
    ):
        super().__init__(name)
        self.pipeline = pipeline
        self.packet_to_fields = packet_to_fields
        self.on_result = on_result
        self.forwarded = 0

    def handle(self, packet: NetPacket) -> None:
        if self.pipeline is None or self.packet_to_fields is None:
            # Plain forwarding switch: pass toward the destination.
            self.forward(packet)
            return
        fields = self.packet_to_fields(packet)
        result = self.pipeline.process(fields)

        def finish() -> None:
            if self.on_result is not None:
                self.on_result(result, packet, self)
            elif result.forwarded:
                self.forward(packet)

        self.sim.schedule(result.latency_ms, finish)

    def forward(self, packet: NetPacket) -> None:
        self.forwarded += 1
        self.send(packet)
