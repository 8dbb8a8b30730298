"""Discrete-event simulation core.

A minimal, deterministic event loop: events are (time, sequence,
callback) triples in a heap; ties break by insertion order so runs are
reproducible.  All times are in milliseconds, matching the paper's
reporting units.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional

__all__ = ["Simulator", "Event"]


@dataclass(order=True)
class Event:
    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """A deterministic discrete-event simulator (times in ms)."""

    def __init__(self):
        self._queue: List[Event] = []
        self._counter = itertools.count()
        self.now: float = 0.0
        self.events_executed: int = 0

    def schedule(self, delay_ms: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay_ms`` from now."""
        if delay_ms < 0:
            raise ValueError("cannot schedule into the past (delay=%r)" % delay_ms)
        event = Event(self.now + delay_ms, next(self._counter), callback)
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time_ms: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation time ``time_ms``."""
        if time_ms < self.now:
            raise ValueError(
                "cannot schedule at %.3f, now is %.3f" % (time_ms, self.now)
            )
        event = Event(time_ms, next(self._counter), callback)
        heapq.heappush(self._queue, event)
        return event

    def schedule_periodic(
        self,
        interval_ms: float,
        callback: Callable[[], None],
        start_ms: Optional[float] = None,
        until_ms: Optional[float] = None,
    ) -> None:
        """Fire ``callback`` every ``interval_ms`` (a periodical
        forwarding timer), starting at ``start_ms`` (default: one
        interval from now), optionally stopping at ``until_ms``."""
        if interval_ms <= 0:
            raise ValueError("interval must be positive")
        first = self.now + interval_ms if start_ms is None else start_ms

        def tick_at(when: float) -> None:
            def fire() -> None:
                callback()
                nxt = when + interval_ms
                if until_ms is None or nxt <= until_ms:
                    tick_at(nxt)

            self.schedule_at(when, fire)

        if until_ms is None or first <= until_ms:
            tick_at(first)

    def run(self, until_ms: Optional[float] = None) -> float:
        """Run events until the queue drains or time passes ``until_ms``.

        Returns the simulation time after the run.
        """
        while self._queue:
            event = self._queue[0]
            if until_ms is not None and event.time > until_ms:
                break
            heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if event.time < self.now:
                raise RuntimeError("event time went backwards")
            self.now = event.time
            self.events_executed += 1
            event.callback()
        if until_ms is not None and self.now < until_ms:
            self.now = until_ms
        return self.now

    def pending(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)
