"""Controller RPC over the simulated network (paper section 4.3).

The controller updates devices "through RPCs to the corresponding
control plane"; those RPCs take real time to reach switches scattered
across ISPs, which is exactly why naive in-place updates create
inconsistency windows: "some edge servers might change the format of
transport-layer cookies before a LarkSwitch [...] They may result in
missing or incorrect results being reported."

:class:`RpcBus` delivers method calls to named devices after per-device
delays on a :class:`~repro.net.simulator.Simulator`; the consistency
tests and the versioning demo drive it to make the paper's failure
mode — and its version-control fix — observable.

Reliability (section 6 hardening): when constructed with a
``timeout_ms``, the bus runs an acknowledged, at-most-once-execution
protocol — each call is acked one propagation delay after delivery,
unacked calls are retried with exponential backoff plus seeded jitter,
and a device that stays silent through ``max_retries`` attempts is
declared dead (:class:`DeadDeviceError` recorded on the call).  Losses
come from an injected control-plane loss rate, forced drops
(:meth:`RpcBus.drop_next`, for scripted chaos scenarios), or devices
whose ``alive`` flag is False (crashed — see ``repro.chaos``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.simulator import Simulator
from repro.obs.registry import MetricsRegistry, get_registry

__all__ = ["RpcBus", "RpcCall", "RpcError", "DeadDeviceError"]


class DeadDeviceError(RuntimeError):
    """A device stayed unresponsive through every retry attempt."""


class RpcError(RuntimeError):
    """Accumulated RPC failures surfaced by ``quiesce(raise_on_error=True)``.

    ``calls`` holds the failed :class:`RpcCall` records.
    """

    def __init__(self, calls: List["RpcCall"]):
        self.calls = list(calls)
        lines = [
            "%s.%s: %s" % (c.device, c.method, c.error) for c in self.calls
        ]
        super().__init__(
            "%d RPC call(s) failed: %s" % (len(self.calls), "; ".join(lines))
        )


@dataclass
class RpcCall:
    """One in-flight or completed control-plane call."""

    device: str
    method: str
    sent_at_ms: float
    deliver_at_ms: float
    completed: bool = False
    error: Optional[str] = None
    attempts: int = 0
    acked_at_ms: Optional[float] = None
    failed: bool = False
    delivered: bool = False  # the method body ran (at-most-once guard)


class RpcBus:
    """Delivers controller -> device calls with per-device latency.

    Without ``timeout_ms`` the bus behaves like the original
    fire-and-forget transport (one attempt, no acks).  With it, every
    call is acknowledged and retried until acked or declared dead.
    """

    def __init__(self, sim: Optional[Simulator] = None,
                 default_delay_ms: float = 50.0,
                 timeout_ms: Optional[float] = None,
                 max_retries: int = 3,
                 backoff_factor: float = 2.0,
                 retry_jitter_ms: float = 0.0,
                 seed: int = 0,
                 registry: Optional[MetricsRegistry] = None):
        if default_delay_ms < 0:
            raise ValueError("delay must be non-negative")
        if timeout_ms is not None and timeout_ms <= 0:
            raise ValueError("timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if retry_jitter_ms < 0:
            raise ValueError("jitter must be non-negative")
        self.sim = sim or Simulator()
        self.default_delay_ms = default_delay_ms
        self.timeout_ms = timeout_ms
        self.max_retries = max_retries
        self.backoff_factor = backoff_factor
        self.retry_jitter_ms = retry_jitter_ms
        self._rng = random.Random("rpcbus/%d" % seed)
        self._devices: Dict[str, Any] = {}
        self._delays: Dict[str, float] = {}
        self._loss: Dict[str, float] = {}
        self._forced_drops: Dict[str, int] = {}
        self.log: List[RpcCall] = []
        self.metrics = registry if registry is not None else get_registry()
        self._m_sends = self.metrics.counter("rpc.sends")
        self._m_attempts = self.metrics.counter("rpc.attempts")
        self._m_retries = self.metrics.counter("rpc.retries")
        self._m_drops = self.metrics.counter("rpc.drops")
        self._m_acks = self.metrics.counter("rpc.acks")
        self._m_timeouts = self.metrics.counter("rpc.timeouts")
        self._m_handler_errors = self.metrics.counter("rpc.handler_errors")
        self._m_dead = self.metrics.counter("rpc.dead_devices")
        # Simulated milliseconds spent waiting out backoff timers that
        # actually expired into a retry.
        self._m_backoff_ms = self.metrics.counter("rpc.backoff_wait_ms")

    def register_device(self, name: str, device: Any,
                        delay_ms: Optional[float] = None) -> None:
        if name in self._devices:
            raise ValueError("device %r already registered" % name)
        self._devices[name] = device
        self._delays[name] = (
            self.default_delay_ms if delay_ms is None else delay_ms
        )

    def device(self, name: str) -> Any:
        return self._devices[name]

    def delay_to(self, name: str) -> float:
        if name not in self._devices:
            raise KeyError("unknown device %r" % name)
        return self._delays[name]

    # -- fault injection --------------------------------------------------------

    def set_loss(self, name: str, loss_rate: float) -> None:
        """Probability that any one attempt to ``name`` is lost."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")
        if name not in self._devices:
            raise KeyError("unknown device %r" % name)
        self._loss[name] = loss_rate

    def drop_next(self, name: str, count: int = 1) -> None:
        """Deterministically drop the next ``count`` attempts to
        ``name`` (scripted chaos: 'one lost controller RPC')."""
        if name not in self._devices:
            raise KeyError("unknown device %r" % name)
        self._forced_drops[name] = self._forced_drops.get(name, 0) + count

    def _attempt_lost(self, name: str) -> bool:
        pending = self._forced_drops.get(name, 0)
        if pending > 0:
            self._forced_drops[name] = pending - 1
            return True
        rate = self._loss.get(name, 0.0)
        return bool(rate) and self._rng.random() < rate

    # -- calls ------------------------------------------------------------------

    def call(self, device_name: str, method: str, *args: Any,
             **kwargs: Any) -> RpcCall:
        """Schedule ``device.method(*args)`` after the device's RPC
        delay; returns the call record (updated on completion).

        The reserved keyword ``_on_complete`` (a callable taking the
        record) fires once the call reaches a terminal state: acked,
        raised in the device, or declared dead.  In fire-and-forget
        mode (no ``timeout_ms``) it fires right after execution.
        """
        on_complete = kwargs.pop("_on_complete", None)
        if device_name not in self._devices:
            raise KeyError("unknown device %r" % device_name)
        delay = self._delays[device_name]
        record = RpcCall(
            device=device_name,
            method=method,
            sent_at_ms=self.sim.now,
            deliver_at_ms=self.sim.now + delay,
        )
        self.log.append(record)
        self._m_sends.inc()
        self._attempt(record, args, kwargs, on_complete, attempt=0)
        return record

    def _attempt(
        self,
        record: RpcCall,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        on_complete: Optional[Callable[[RpcCall], None]],
        attempt: int,
    ) -> None:
        record.attempts += 1
        self._m_attempts.inc()
        if attempt > 0:
            self._m_retries.inc()
        name = record.device
        target = self._devices[name]
        delay = self._delays[name]
        lost = self._attempt_lost(name)
        if lost:
            self._m_drops.inc()

        def deliver() -> None:
            # A crashed device neither executes nor acks; the retry
            # timer (if any) handles it like a lost packet.
            if not getattr(target, "alive", True):
                return
            if record.delivered or record.failed:
                return  # duplicate attempt after success: execute once
            record.delivered = True
            try:
                getattr(target, record.method)(*args, **kwargs)
                record.completed = True
            except Exception as exc:  # surfaced via the record, not raised
                record.error = "%s: %s" % (type(exc).__name__, exc)
                self._m_handler_errors.inc()
                if on_complete is not None:
                    on_complete(record)
                return
            if self.timeout_ms is None:
                # Fire-and-forget mode: no ack round-trip.
                record.acked_at_ms = self.sim.now
                if on_complete is not None:
                    on_complete(record)
                return

            def ack() -> None:
                record.acked_at_ms = self.sim.now
                self._m_acks.inc()
                if on_complete is not None:
                    on_complete(record)

            self.sim.schedule(delay, ack)

        if not lost:
            self.sim.schedule(delay, deliver)

        if self.timeout_ms is None:
            return
        timeout = self.timeout_ms * (self.backoff_factor ** attempt)
        if self.retry_jitter_ms:
            timeout += self._rng.uniform(0, self.retry_jitter_ms)

        def maybe_retry() -> None:
            if (record.acked_at_ms is not None or record.error is not None
                    or record.failed):
                return
            self._m_timeouts.inc()
            if attempt + 1 > self.max_retries:
                record.failed = True
                record.error = (
                    "DeadDeviceError: device %r unresponsive after "
                    "%d attempt(s)" % (name, record.attempts)
                )
                self._m_dead.inc()
                if on_complete is not None:
                    on_complete(record)
                return
            self._m_backoff_ms.inc(timeout)
            self._attempt(record, args, kwargs, on_complete, attempt + 1)

        self.sim.schedule(timeout, maybe_retry)

    # -- status ---------------------------------------------------------------

    def failed(self) -> List[RpcCall]:
        """Calls that reached a terminal failure (device raised, or the
        retry budget ran out) — previously these were silently buried
        in the log."""
        return [record for record in self.log if record.error is not None]

    def retries(self) -> int:
        """Total re-send attempts across all calls."""
        return sum(max(0, record.attempts - 1) for record in self.log)

    def quiesce(self, until_ms: Optional[float] = None,
                raise_on_error: bool = False) -> None:
        """Run the simulator until all in-flight RPCs delivered.

        With ``raise_on_error=True``, surface accumulated failures as a
        single :class:`RpcError` instead of losing them in the log.
        """
        self.sim.run(until_ms)
        if raise_on_error:
            failures = self.failed()
            if failures:
                raise RpcError(failures)
