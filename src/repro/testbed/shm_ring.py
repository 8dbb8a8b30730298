"""Shared-memory columnar ring buffers for persistent shard workers.

The multiprocess shard runtime originally re-dispatched work through a
``multiprocessing.Pool`` — every micro-batch paid a task pickle on the
way in and a result pickle on the way out, which at columnar speeds is
the dominant cost of crossing the process boundary.  This module
removes that tax: a :class:`ColumnRing` is a **fixed-capacity SPSC
(single-producer / single-consumer) ring** of struct-of-arrays batch
slots living in one ``multiprocessing.shared_memory`` block.  Steady-
state ingest writes each batch's packed byte matrix and length column
into a slot exactly once; the consumer maps the same bytes as a
:class:`~repro.switch.columns.PacketColumns` view — no pickle, no
copy.

Slot hand-off uses **seqlock-style slot headers** (the Vyukov bounded-
queue protocol specialized to SPSC).  Each slot carries a sequence
word; for ring capacity ``C``:

* slot ``i`` starts with ``seq = i``;
* the producer at monotonic position ``p`` claims slot ``p % C`` when
  ``seq == p``, fills the payload, then *publishes* by storing
  ``seq = p + 1``;
* the consumer at position ``c`` sees slot ``c % C`` ready when
  ``seq == c + 1``, processes the payload in place, then *releases* by
  storing ``seq = c + C``, handing the slot back to the producer one
  lap later.

Because the sequence store is the last write on each side, a reader
can never observe a half-written payload, and because positions are
monotonic a stale sequence value parks the peer instead of corrupting
state.  (CPython's byte-level stores through ``memoryview`` are single
opcodes and x86/ARM64 store ordering keeps the publish store visible
last; the soak and property suites hammer this protocol across
processes.)

Every slot has one layout: a lane of ``row_capacity`` u32 row lengths
and a data region of ``slot_bytes = 64 * row_capacity`` bytes holding
the batch as a packed ``n x max_len`` matrix, rows zero-padded to the
batch's widest row.  Any batch whose rows number at most
``row_capacity`` and whose matrix fits ``slot_bytes`` takes one slot;
:meth:`ColumnRing.push` splits a larger one by rows into pieces that
each fit, and marks every piece after the first ``continued`` so the
consumer can tell one pushed batch from several.  A single row wider
than a whole slot is refused with ``ValueError`` before any slot is
claimed.

Lifecycle rules (the chaos/soak suite enforces them):

* the **creator owns the segment** — only it calls ``unlink()``;
  consumers ``attach()`` and only ever ``close()`` their mapping;
* consumers share the creator's ``resource_tracker``, which unlinks a
  segment still registered only after every process sharing it has
  exited (a killed worker cannot take the ring down with it);
* creators register a ``weakref.finalize`` so even an abandoned ring
  is unlinked at interpreter exit instead of leaking into
  ``/dev/shm``; the finalizer unlinks only in the creating process, so
  a forked child holding a copy of the owner object never does.

Works with or without numpy: the vectorized path does one matrix copy
in and hands out zero-copy views; the pure-Python path writes and
reads rows through ``memoryview`` slices — same wire layout, same
protocol, so the numpy-off CI job exercises identical hand-offs.
"""

from __future__ import annotations

import os
import struct
import time
import weakref
from typing import Any, Dict, List, Optional

from repro.switch.columns import PacketColumns, get_numpy

try:  # pragma: no cover - absent only on exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "ColumnRing",
    "RingSlotView",
    "RingClosed",
    "RingTimeout",
    "shared_memory_available",
    "KIND_DATA",
    "KIND_CONTROL",
]

# Slot kinds.  DATA rows are packet batches; CONTROL slots carry a
# single opaque body row interpreted by the worker command loop
# (epoch / rekey / barrier / shutdown) — routing control through the
# ring keeps commands *ordered* with respect to in-flight data.
KIND_DATA = 0
KIND_CONTROL = 1

_MAGIC = 0x536E5232  # "SnR2"

# Data bytes per slot for each row of capacity.
_BYTES_PER_ROW = 64

# Ring header (64 bytes): magic, capacity, row_capacity, then the
# consumer's position at _TAIL_OFF, mirrored so the producer can count
# occupied slots; the authoritative hand-off is the per-slot sequence.
_HDR = struct.Struct("<III")
_HDR_SIZE = 64
_TAIL_OFF = 16

# Slot header (32 bytes): seq (u64, written last), then kind, n_rows,
# width and continued (u32 each), padded so the lengths lane that
# follows stays 8-byte aligned.
_SLOT_HDR = struct.Struct("<IIII")
_SLOT_HDR_SIZE = 32

_POLL_S = 0.0002  # initial spin-then-sleep granularity for waits
_POLL_MAX_S = 0.005  # idle backoff ceiling (keeps idle peers off the CPU)


class RingClosed(RuntimeError):
    """The peer died or the ring was shut down mid-wait."""


class RingTimeout(TimeoutError):
    """A bounded wait on the ring elapsed."""


def shared_memory_available() -> bool:
    """True when POSIX shared memory actually works here (some
    sandboxes mount no /dev/shm); the shm test suites skip on False."""
    if _shared_memory is None:
        return False
    try:
        probe = _shared_memory.SharedMemory(create=True, size=16)
    except Exception:
        return False
    probe.close()
    probe.unlink()
    return True


def _attach_segment(name: str):
    """Attach a segment the creator owns.  Python 3.13+ takes
    ``track=False`` and the attach is not registered at all.  Before
    3.13 an attach registers the name with the resource tracker too,
    and that is harmless: a worker shares its parent's tracker under
    both start methods, the tracker's registry is a set (a second
    registration is a no-op), and the owner's ``unlink`` unregisters
    the name.  A manual ``unregister`` here would clobber the owner's
    registration in that shared tracker."""
    try:
        return _shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        return _shared_memory.SharedMemory(name=name)


def _max_len(rows) -> int:
    if isinstance(rows, PacketColumns):
        return rows.max_len
    return max((len(r) for r in rows), default=0)


class RingSlotView:
    """A consumer's in-place view of one occupied slot.

    Valid only until :meth:`ColumnRing.release` hands the slot back —
    the producer reuses the memory one lap later, so consumers must
    finish (or copy) before releasing.  ``continued`` is True for the
    second and later pieces of a batch :meth:`ColumnRing.push` split.
    """

    __slots__ = ("kind", "n_rows", "width", "continued", "_lengths", "_data")

    def __init__(self, kind, n_rows, width, continued, lengths, data):
        self.kind = kind
        self.n_rows = n_rows
        self.width = width
        self.continued = continued
        self._lengths = lengths
        self._data = data

    def _matrix(self) -> bool:
        """True when the slot is mapped as numpy arrays (the
        pure-Python path holds a ``memoryview``)."""
        return (
            self._data is not None
            and not isinstance(self._data, memoryview)
            and get_numpy() is not None
        )

    def columns(self) -> PacketColumns:
        """The batch as a zero-copy :class:`PacketColumns` (vectorized
        path) or a materialized one (pure-Python path)."""
        if self._matrix():
            return PacketColumns.from_matrix(self._data, self._lengths)
        return PacketColumns(self.rows())

    def rows(self) -> List[bytes]:
        """Materialized per-row bytes (always copies)."""
        data = self._data.tobytes() if self._matrix() else self._data
        w = self.width
        return [
            bytes(data[i * w:i * w + int(self._lengths[i])])
            for i in range(self.n_rows)
        ]

    def body(self) -> bytes:
        """First row's bytes — the payload of a CONTROL slot."""
        rows = self.rows()
        return rows[0] if rows else b""


class ColumnRing:
    """Fixed-capacity SPSC columnar batch ring over shared memory.

    One side constructs with :meth:`create` (the owner: allocates and
    ultimately unlinks the segment), the other with :meth:`attach`
    from the :attr:`descriptor` the owner passed across the process
    boundary.  ``push``/``pop`` then move batches without pickling.
    """

    def __init__(self, shm, capacity, row_capacity, owner: bool):
        self._shm = shm
        self.capacity = capacity
        self.row_capacity = row_capacity
        self.slot_bytes = _BYTES_PER_ROW * row_capacity
        self._owner = owner
        self._closed = False
        self._stride = _SLOT_HDR_SIZE + 4 * row_capacity + self.slot_bytes
        # Producer/consumer cursors are process-local; the shared
        # header mirrors the consumer's for len().
        self._head = 0
        self._tail = self._read_tail()
        self._pending_release: Optional[int] = None
        self._active_view: Optional[RingSlotView] = None
        np = get_numpy()
        self._np_lengths: List[Any] = []
        self._np_data: List[Any] = []
        if np is not None:
            for i in range(capacity):
                lengths_off = self._slot_base(i) + _SLOT_HDR_SIZE
                self._np_lengths.append(np.frombuffer(
                    shm.buf, dtype=np.uint32, count=row_capacity,
                    offset=lengths_off,
                ))
                self._np_data.append(np.frombuffer(
                    shm.buf, dtype=np.uint8, count=self.slot_bytes,
                    offset=lengths_off + 4 * row_capacity,
                ))
        if owner:
            # Unlink even if the creator forgets close(): a leaked ring
            # in /dev/shm outlives the run and the soak test hunts for
            # exactly that.
            self._finalizer = weakref.finalize(
                self, ColumnRing._cleanup, shm, os.getpid()
            )
        else:
            self._finalizer = None

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls, capacity: int = 8, row_capacity: int = 1024
    ) -> "ColumnRing":
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if row_capacity < 1:
            raise ValueError("row_capacity must be >= 1")
        stride = _SLOT_HDR_SIZE + (4 + _BYTES_PER_ROW) * row_capacity
        shm = _shared_memory.SharedMemory(
            create=True, size=_HDR_SIZE + capacity * stride
        )
        _HDR.pack_into(shm.buf, 0, _MAGIC, capacity, row_capacity)
        ring = cls(shm, capacity, row_capacity, owner=True)
        for i in range(capacity):
            ring._write_seq(i, i)
        return ring

    @classmethod
    def attach(cls, descriptor: Dict[str, Any]) -> "ColumnRing":
        """Map an existing ring from its :attr:`descriptor`."""
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        shm = _attach_segment(descriptor["name"])
        if _HDR.unpack_from(shm.buf, 0)[0] != _MAGIC:
            shm.close()
            raise ValueError("not a ColumnRing segment")
        return cls(
            shm, descriptor["capacity"], descriptor["row_capacity"],
            owner=False,
        )

    @property
    def descriptor(self) -> Dict[str, Any]:
        """Picklable attach recipe (rides in the worker start args)."""
        return {
            "name": self._shm.name,
            "capacity": self.capacity,
            "row_capacity": self.row_capacity,
        }

    # -- raw header access -------------------------------------------------

    def _read_tail(self) -> int:
        return int.from_bytes(
            self._shm.buf[_TAIL_OFF:_TAIL_OFF + 8], "little"
        )

    def _write_tail(self, value: int) -> None:
        self._shm.buf[_TAIL_OFF:_TAIL_OFF + 8] = value.to_bytes(8, "little")

    def _slot_base(self, index: int) -> int:
        return _HDR_SIZE + index * self._stride

    def _read_seq(self, index: int) -> int:
        base = self._slot_base(index)
        return int.from_bytes(self._shm.buf[base:base + 8], "little")

    def _write_seq(self, index: int, value: int) -> None:
        base = self._slot_base(index)
        self._shm.buf[base:base + 8] = value.to_bytes(8, "little")

    # -- waiting -----------------------------------------------------------

    def _wait(self, ready, timeout, alive_check) -> bool:
        """Spin-then-sleep until ``ready()``; False on timeout.  Raises
        :class:`RingClosed` when ``alive_check`` reports a dead peer."""
        if ready():
            return True
        deadline = None if timeout is None else time.monotonic() + timeout
        spins = 0
        delay = _POLL_S
        while True:
            if ready():
                return True
            spins += 1
            if spins > 64:
                if alive_check is not None and not alive_check():
                    # One last look: the peer may have published its
                    # final slots before dying.
                    if ready():
                        return True
                    raise RingClosed("ring peer died mid-wait")
                if deadline is not None and time.monotonic() > deadline:
                    return False
                # Exponential backoff toward _POLL_MAX_S: a long-idle
                # consumer must not steal the producer's core with
                # thousands of wakeups a second (the latency cost is
                # bounded by the ceiling, well under a period flush).
                time.sleep(delay)
                delay = min(_POLL_MAX_S, delay * 1.25)

    # -- producer side -----------------------------------------------------

    def try_push(
        self, rows, kind: int = KIND_DATA, continued: bool = False
    ) -> bool:
        """Push one batch into one slot if a slot is free.

        ``rows`` is a :class:`PacketColumns` or a sequence of bytes.
        Returns False when the ring is full; raises ``ValueError`` for
        a batch that does not fit one slot (:meth:`push` splits it).
        ``continued`` marks the slot as a later piece of a split batch.
        """
        if self._closed:
            raise RingClosed("push on closed ring")
        n = len(rows)
        width = _max_len(rows)
        if n > self.row_capacity or n * width > self.slot_bytes:
            raise ValueError(
                "batch of %d rows x %d bytes exceeds one slot (%d rows, "
                "%d bytes)" % (n, width, self.row_capacity, self.slot_bytes)
            )
        p = self._head
        index = p % self.capacity
        if self._read_seq(index) != p:
            return False
        self._fill_slot(index, rows, n, width)
        base = self._slot_base(index)
        # Everything but seq (bytes 0..8), which publishes last.
        _SLOT_HDR.pack_into(
            self._shm.buf, base + 8, kind, n, width, int(continued)
        )
        self._write_seq(index, p + 1)  # publish
        self._head = p + 1
        return True

    def _fill_slot(self, index, rows, n, width) -> None:
        np = get_numpy()
        if (
            np is not None
            and isinstance(rows, PacketColumns)
            and rows.vectorized
            and n
        ):
            # Matrix fast path: the whole batch lands as one packed
            # copy — the only copy the batch ever pays.
            self._np_lengths[index][:n] = rows.lengths
            self._np_data[index][: n * width] = rows.data.reshape(-1)
            return
        buf = self._shm.buf
        lengths_off = self._slot_base(index) + _SLOT_HDR_SIZE
        data_off = lengths_off + 4 * self.row_capacity
        for i, row in enumerate(rows):
            row = bytes(row)
            buf[lengths_off + 4 * i:lengths_off + 4 * i + 4] = (
                len(row).to_bytes(4, "little")
            )
            start = data_off + i * width
            # Zero-pad to the batch width so stale bytes never alias.
            buf[start:start + width] = row + bytes(width - len(row))

    def push(
        self,
        rows,
        kind: int = KIND_DATA,
        timeout: Optional[float] = None,
        alive_check=None,
    ) -> None:
        """Blocking push; a batch larger than one slot is split by rows.

        Raises ``ValueError`` — before any slot is claimed — when one
        row is wider than a whole slot, and :class:`RingTimeout` /
        :class:`RingClosed` on a bounded or abandoned wait.
        """
        width = _max_len(rows)
        if width > self.slot_bytes:
            raise ValueError(
                "row of %d bytes exceeds the %d-byte slot"
                % (width, self.slot_bytes)
            )
        n = len(rows)
        step = self.row_capacity
        if width:
            step = min(step, self.slot_bytes // width)
        for lo in range(0, max(n, 1), step):
            piece = rows if n <= step else self._slice_rows(
                rows, lo, min(n, lo + step)
            )
            ok = self._wait(
                lambda: self._read_seq(self._head % self.capacity)
                == self._head,
                timeout, alive_check,
            )
            if not ok:
                raise RingTimeout("ring full for %.1fs" % (timeout or 0.0))
            if not self.try_push(piece, kind, continued=lo > 0):
                raise RuntimeError(  # pragma: no cover - SPSC
                    "slot stolen under SPSC producer"
                )

    @staticmethod
    def _slice_rows(rows, lo, hi):
        if isinstance(rows, PacketColumns):
            if rows.vectorized and get_numpy() is not None:
                return PacketColumns.from_matrix(
                    rows.data[lo:hi], rows.lengths[lo:hi]
                )
            return PacketColumns(rows.raw[lo:hi])
        return rows[lo:hi]

    # -- consumer side -----------------------------------------------------

    def try_pop(self) -> Optional[RingSlotView]:
        """The next occupied slot as an in-place view, or None when the
        ring is empty.  The previous view must have been released."""
        if self._closed:
            raise RingClosed("pop on closed ring")
        if self._pending_release is not None:
            raise RuntimeError("previous slot not released")
        index = self._tail % self.capacity
        if self._read_seq(index) != self._tail + 1:
            return None
        base = self._slot_base(index)
        kind, n, width, continued = _SLOT_HDR.unpack_from(
            self._shm.buf, base + 8
        )
        if get_numpy() is not None and self._np_data:
            lengths = self._np_lengths[index][:n]
            data = (
                self._np_data[index][: n * width].reshape(n, width)
                if n else None
            )
        else:
            lengths_off = base + _SLOT_HDR_SIZE
            lengths = [
                int.from_bytes(
                    self._shm.buf[lengths_off + 4 * i:lengths_off + 4 * i + 4],
                    "little",
                )
                for i in range(n)
            ]
            data_off = lengths_off + 4 * self.row_capacity
            data = self._shm.buf[data_off:data_off + n * width]
        view = RingSlotView(kind, n, width, bool(continued), lengths, data)
        self._pending_release = index
        self._active_view = view
        return view

    def pop(
        self, timeout: Optional[float] = None, alive_check=None
    ) -> Optional[RingSlotView]:
        """Blocking pop; None on timeout."""
        ok = self._wait(
            lambda: self._read_seq(self._tail % self.capacity)
            == self._tail + 1,
            timeout, alive_check,
        )
        if not ok:
            return None
        return self.try_pop()

    def release(self) -> None:
        """Hand the last popped slot back to the producer."""
        index = self._pending_release
        if index is None:
            raise RuntimeError("no slot pending release")
        self._write_seq(index, self._tail + self.capacity)
        self._tail += 1
        self._write_tail(self._tail)
        self._pending_release = None
        self._sever_view()

    def _sever_view(self) -> None:
        # Enforce the view contract: after release the slot belongs to
        # the producer again, so sever the view's buffers — a stale
        # reference now raises instead of reading recycled memory, and
        # no exported pointer can block close().
        view = self._active_view
        if view is not None:
            view._lengths = None
            view._data = None
            self._active_view = None

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        """Occupied slots (producer view)."""
        return self._head - self._read_tail()

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def reset(self) -> None:
        """Empty the ring (supervisor-side, after replacing a dead
        consumer): discard unconsumed slots."""
        self._head = 0
        self._tail = 0
        self._pending_release = None
        self._write_tail(0)
        for i in range(self.capacity):
            self._write_seq(i, i)

    # -- lifecycle ---------------------------------------------------------

    @staticmethod
    def _cleanup(shm, creator: int) -> None:  # pragma: no cover
        # Exit-path safety net.
        if os.getpid() != creator:
            # A forked child's copy of the owner: the segment is not
            # its to unlink, and its mapping goes when it exits.
            return
        try:
            shm.close()
        except Exception:
            pass
        try:
            shm.unlink()
        except Exception:
            pass

    def close(self) -> None:
        """Unmap; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        # Drop every numpy view before closing the mapping: an exported
        # buffer keeps SharedMemory.close() from releasing it.
        self._np_lengths = []
        self._np_data = []
        self._sever_view()
        if self._finalizer is not None:
            self._finalizer.detach()
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - lingering consumer view
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass

    def __enter__(self) -> "ColumnRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
