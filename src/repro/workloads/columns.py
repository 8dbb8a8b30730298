"""Struct-of-arrays event generation for the workload generators.

The scalar generators (``generate_events`` and friends) materialize one
frozen dataclass per event — fine for semantic clarity, but the object
churn dominates end-to-end ingest wall-clock long before the switch
fast paths see a packet.  This module provides the shared batched
substrate:

* :class:`EventColumns` — a micro-batch of events as parallel columns
  (a timestamp list plus one integer index column per drawn attribute),
  the generator-side analogue of
  :class:`repro.switch.columns.PacketColumns`.
* :class:`EventStream` — an incremental pull-based generator with
  exactly one draw routine per stream: ``generate_batch(n)`` (one
  :class:`EventColumns`), which ``generate()`` calls with ``n = 1``
  and wraps into the workload's event object.  A batched stream is
  therefore *draw-for-draw identical* to the scalar one by
  construction, and the legacy list-returning generators are
  reimplemented on top of the stream without disturbing any seeded
  RNG sequence.  Most workloads describe their per-event draws in a
  single ``_draw_row`` that the generic ``generate_batch`` loop
  calls; the ad stream, on the pipeline's hot path, overrides
  ``generate_batch`` with one loop that appends straight to its
  columns instead.

The RNG identity relies on one CPython ``random`` fact the determinism
suite pins: ``rng.randrange(len(seq))`` consumes exactly the same
underlying bits as ``rng.choice(seq)`` (both route through
``_randbelow``), which lets the batched path draw *indexes* into the
static population tables instead of the objects themselves.  The
draw routines spell ``randrange(n)`` as what ``_randbelow`` runs —
``getrandbits(n.bit_length())``, drawn again while the result is
``>= n`` — and the batch loops spell ``expovariate(1.0) * gap`` as
``-log(1.0 - random()) * gap``: the same draws and the same IEEE
arithmetic, two to three Python frames fewer per event (pinned against
recorded streams in ``tests/workloads/test_determinism.py``).
"""

from __future__ import annotations

import random
from math import log as _log
from typing import Dict, List, Tuple

__all__ = ["EventColumns", "EventStream"]


class EventColumns:
    """A micro-batch of generated events in column form.

    ``time_ms`` holds the event timestamps; ``columns`` maps each
    attribute name to a parallel list of small integers (indexes into
    the workload's population tables, or 0/1 flags).  Consumers look
    objects up lazily — nothing per event is allocated here.
    """

    __slots__ = ("time_ms", "columns", "n")

    def __init__(
        self, time_ms: List[float], columns: Dict[str, List[int]]
    ):
        self.time_ms = time_ms
        self.columns = columns
        self.n = len(time_ms)

    def __len__(self) -> int:
        return self.n

    def column(self, name: str) -> List[int]:
        return self.columns[name]


class EventStream:
    """Incremental Poisson-gap event stream over one workload RNG.

    Subclasses define ``column_names``, ``_wrap()`` (row -> the
    workload's scalar event object) and either ``_draw_row()`` (the
    per-event RNG draws, returning one int per column, for the generic
    :meth:`generate_batch` loop) or their own :meth:`generate_batch`.
    The inter-arrival draw happens *after* the row draw, matching the
    legacy ``generate_events`` loops exactly.
    """

    column_names: Tuple[str, ...] = ()

    def __init__(
        self,
        rng: random.Random,
        requests_per_second: float,
        duration_ms: float,
    ):
        if requests_per_second <= 0 or duration_ms <= 0:
            raise ValueError("rate and duration must be positive")
        self._rng = rng
        self._gap = 1000.0 / requests_per_second
        self._duration_ms = duration_ms
        self._t = rng.expovariate(1.0) * self._gap
        self.generated = 0

    # -- per-workload hooks -------------------------------------------------

    def _draw_row(self) -> Tuple[int, ...]:
        raise NotImplementedError

    def _wrap(self, time_ms: float, row: Tuple[int, ...]):
        raise NotImplementedError

    # -- pull API -----------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self._t >= self._duration_ms

    def generate(self):
        """The next scalar event object, or ``None`` when the stream
        has run past ``duration_ms``: a batch of one, wrapped."""
        batch = self.generate_batch(1)
        if not batch.n:
            return None
        columns = batch.columns
        return self._wrap(
            batch.time_ms[0],
            tuple(columns[name][0] for name in self.column_names),
        )

    def generate_batch(self, n: int) -> EventColumns:
        """Up to ``n`` further events as one :class:`EventColumns`.

        Consumes the RNG identically to ``n`` :meth:`generate` calls;
        returns an empty batch once the stream is exhausted.
        """
        if n < 0:
            raise ValueError("batch size must be non-negative")
        times: List[float] = []
        rows: List[Tuple[int, ...]] = []
        t = self._t
        duration = self._duration_ms
        if t < duration and n > 0:
            gap = self._gap
            random = self._rng.random
            draw = self._draw_row
            add_time = times.append
            add_row = rows.append
            for _ in range(n):
                add_time(t)
                add_row(draw())
                # rng.expovariate(1.0) * gap, term for term.
                t = t - _log(1.0 - random()) * gap
                if t >= duration:
                    break
            self._t = t
            self.generated += len(times)
        # One transpose per batch instead of an append per column per
        # event.
        cols = zip(*rows) if rows else ((),) * len(self.column_names)
        return EventColumns(
            times, dict(zip(self.column_names, map(list, cols)))
        )

    def drain(self) -> List:
        """All remaining events as scalar objects (legacy list API)."""
        out = []
        while True:
            event = self.generate()
            if event is None:
                return out
            out.append(event)
