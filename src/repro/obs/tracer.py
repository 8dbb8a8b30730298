"""Sim-time tracing: spans whose clock is ``Simulator.now``.

A :class:`Span` brackets a stretch of *simulated* time — a device
outage, a drift-detection window, a repair cycle — with parent/child
nesting and per-span attributes.  Unlike wall-clock tracers, the clock
here is whatever the discrete-event simulator says, so span durations
are exactly the quantities the paper reports (milliseconds of
simulated latency), and two identical seeded runs produce identical
traces.

Span IDs are sequential integers from a per-tracer counter —
deterministic by construction, never derived from ``id()`` or a
wall clock.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Tracer"]


class Span:
    """One named interval of simulated time."""

    __slots__ = (
        "span_id", "name", "start_ms", "end_ms", "parent_id", "attributes",
    )

    def __init__(
        self,
        span_id: int,
        name: str,
        start_ms: float,
        parent_id: Optional[int] = None,
        attributes: Optional[Dict[str, Any]] = None,
    ):
        self.span_id = span_id
        self.name = name
        self.start_ms = start_ms
        self.end_ms: Optional[float] = None
        self.parent_id = parent_id
        self.attributes: Dict[str, Any] = dict(attributes or {})

    @property
    def finished(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            raise ValueError("span %r not finished" % self.name)
        return self.end_ms - self.start_ms

    def snapshot(self) -> Dict[str, Any]:
        return {
            "kind": "span",
            "span_id": self.span_id,
            "name": self.name,
            "parent_id": self.parent_id,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attributes": {
                k: self.attributes[k] for k in sorted(self.attributes)
            },
        }


class Tracer:
    """Produces sim-time spans off a simulator (or any ``now`` source).

    ``clock`` may be a :class:`~repro.net.simulator.Simulator` (its
    ``now`` attribute is read at span start/finish) or a zero-argument
    callable returning the current time in milliseconds.

    Two usage styles:

    * ``with tracer.span("phase"):`` for work that starts and ends
      inside one call frame (nesting is tracked automatically);
    * ``span = tracer.start("outage"); ... tracer.finish(span)`` for
      intervals that begin in one scheduled event and end in another —
      the shape of every chaos phase.
    """

    def __init__(self, clock: Any):
        if callable(clock):
            self._now: Callable[[], float] = clock
        else:
            self._now = lambda: clock.now
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self.spans: List[Span] = []  # every started span, in start order

    def now(self) -> float:
        return self._now()

    def start(self, name: str, parent: Optional[Span] = None,
              **attributes: Any) -> Span:
        """Open a span at the current sim time.  With no explicit
        ``parent``, the innermost open ``with``-style span (if any)
        is the parent."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            next(self._ids),
            name,
            self._now(),
            parent_id=parent.span_id if parent is not None else None,
            attributes=attributes,
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span, **attributes: Any) -> Span:
        """Close a span at the current sim time."""
        if span.finished:
            raise ValueError("span %r already finished" % span.name)
        span.attributes.update(attributes)
        end = self._now()
        if end < span.start_ms:
            raise ValueError(
                "span %r would end before it starts (%.3f < %.3f)"
                % (span.name, end, span.start_ms)
            )
        span.end_ms = end
        return span

    @contextmanager
    def span(self, name: str, **attributes: Any):
        """Context-manager form with automatic parent nesting."""
        span = self.start(name, **attributes)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            self.finish(span)

    def event(self, name: str, **attributes: Any) -> Span:
        """A zero-duration span marking an instant (a fault injection,
        a reconcile)."""
        return self.finish(self.start(name, **attributes))

    def finished_spans(self) -> List[Span]:
        return [s for s in self.spans if s.finished]

    def find(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def clear(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self._ids = itertools.count(1)
