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
copy on the uniform-length fast path.

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

Batches whose rows fit the slot geometry (``rows <= row_capacity`` and
``max_len <= row_width``) take the fast path.  Oversized batches split
by rows; **over-wide (ragged) rows spill to a side buffer** — a bump-
allocated byte arena at the tail of the same segment.  The spill slot
records the blob offset, and since SPSC consumption is strictly in
order, the consumer retires arena space by advancing a shared tail
offset — no free list needed.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

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
# (rekey / epoch bump / barrier / shutdown) — routing control through
# the ring keeps commands *ordered* with respect to in-flight data.
KIND_DATA = 0
KIND_CONTROL = 1

_MAGIC = 0x536E5231  # "SnR1"

# Ring header (64 bytes): magic, capacity, row_capacity, row_width,
# spill_bytes, then the shared cursor block.  head/tail mirror the
# producer/consumer positions for observability and metadata
# snapshots; the authoritative hand-off is the per-slot sequence.
_HDR = struct.Struct("<IIIIQQQQQ")  # magic, cap, rowcap, rowwid,
#                                     spill_bytes, head, tail,
#                                     spill_head, spill_tail
_HDR_SIZE = 64

# Slot header (48 bytes): seq, kind, n_rows, width, reserved,
# blob_off, blob_advance.
_SLOT_HDR = struct.Struct("<QIIIIQQ")
_SLOT_HDR_SIZE = 48

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


class RingSlotView:
    """A consumer's in-place view of one occupied slot.

    Valid only until :meth:`ColumnRing.release` hands the slot back —
    the producer reuses the memory one lap later, so consumers must
    finish (or copy) before releasing.
    """

    __slots__ = ("kind", "n_rows", "width", "_lengths", "_data", "_pos")

    def __init__(self, kind, n_rows, width, lengths, data, pos):
        self.kind = kind
        self.n_rows = n_rows
        self.width = width
        self._lengths = lengths
        self._data = data
        self._pos = pos

    def columns(self) -> PacketColumns:
        """The batch as a zero-copy :class:`PacketColumns` (vectorized
        path) or a materialized one (pure-Python path)."""
        np = get_numpy()
        if np is not None and self._data is not None and not isinstance(
            self._data, (bytes, memoryview)
        ):
            return PacketColumns.from_matrix(self._data, self._lengths)
        return PacketColumns(self.rows())

    def rows(self) -> List[bytes]:
        """Materialized per-row bytes (always copies)."""
        np = get_numpy()
        if np is not None and self._data is not None and not isinstance(
            self._data, (bytes, memoryview)
        ):
            flat = self._data.tobytes()
            w = self.width
            return [
                flat[i * w:i * w + int(self._lengths[i])]
                for i in range(self.n_rows)
            ]
        data = self._data
        w = self.width
        return [
            bytes(data[i * w:i * w + self._lengths[i]])
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

    def __init__(self, shm, capacity, row_capacity, row_width,
                 spill_bytes, owner: bool):
        self._shm = shm
        self.capacity = capacity
        self.row_capacity = row_capacity
        self.row_width = row_width
        self.spill_bytes = spill_bytes
        self._owner = owner
        self._closed = False
        self._slot_bytes = (
            _SLOT_HDR_SIZE + 4 * row_capacity + row_capacity * row_width
        )
        self._slots_off = _HDR_SIZE
        self._spill_off = _HDR_SIZE + capacity * self._slot_bytes
        # Producer/consumer cursors are process-local; the shared
        # header mirrors them for snapshots and liveness probes.
        self._head = self._read_u64(5)
        self._tail = self._read_u64(6)
        self._pending_release: Optional[int] = None
        # python-side stats
        self.pushed = 0
        self.popped = 0
        self.spills = 0
        np = get_numpy()
        self._np_lengths: List[Any] = []
        self._np_data: List[Any] = []
        if np is not None:
            for i in range(capacity):
                base = self._slots_off + i * self._slot_bytes
                self._np_lengths.append(np.frombuffer(
                    shm.buf, dtype=np.uint32, count=row_capacity,
                    offset=base + _SLOT_HDR_SIZE,
                ))
                self._np_data.append(np.frombuffer(
                    shm.buf, dtype=np.uint8,
                    count=row_capacity * row_width,
                    offset=base + _SLOT_HDR_SIZE + 4 * row_capacity,
                ))
            self._np_spill = np.frombuffer(
                shm.buf, dtype=np.uint8, count=spill_bytes,
                offset=self._spill_off,
            ) if spill_bytes else None
        else:
            self._np_spill = None
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
        cls,
        capacity: int = 8,
        row_capacity: int = 1024,
        row_width: int = 128,
        spill_bytes: int = 1 << 20,
    ) -> "ColumnRing":
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        if capacity < 2:
            raise ValueError("capacity must be >= 2")
        if row_capacity < 1 or row_width < 1:
            raise ValueError("row_capacity and row_width must be >= 1")
        slot_bytes = _SLOT_HDR_SIZE + 4 * row_capacity + (
            row_capacity * row_width
        )
        total = _HDR_SIZE + capacity * slot_bytes + spill_bytes
        shm = _shared_memory.SharedMemory(create=True, size=total)
        _HDR.pack_into(
            shm.buf, 0, _MAGIC, capacity, row_capacity, row_width,
            spill_bytes, 0, 0, 0, 0,
        )
        ring = cls(shm, capacity, row_capacity, row_width, spill_bytes,
                   owner=True)
        for i in range(capacity):
            ring._write_seq(i, i)
        return ring

    @classmethod
    def attach(cls, descriptor: Dict[str, int]) -> "ColumnRing":
        """Map an existing ring from its :attr:`descriptor`."""
        if _shared_memory is None:
            raise RuntimeError("multiprocessing.shared_memory unavailable")
        shm = _attach_segment(descriptor["name"])
        magic = _HDR.unpack_from(shm.buf, 0)[0]
        if magic != _MAGIC:
            shm.close()
            raise ValueError("not a ColumnRing segment")
        return cls(
            shm,
            descriptor["capacity"],
            descriptor["row_capacity"],
            descriptor["row_width"],
            descriptor["spill_bytes"],
            owner=False,
        )

    @property
    def descriptor(self) -> Dict[str, int]:
        """Picklable attach recipe (rides in the worker start args)."""
        return {
            "name": self._shm.name,
            "capacity": self.capacity,
            "row_capacity": self.row_capacity,
            "row_width": self.row_width,
            "spill_bytes": self.spill_bytes,
        }

    # -- raw header access -------------------------------------------------

    def _read_u64(self, field: int) -> int:
        # Header layout: IIII (16B) then Q spill_bytes at 16, then the
        # cursor block — fields: 5=head@24 6=tail@32 7=spill_head@40
        # 8=spill_tail@48.
        off = 24 + (field - 5) * 8
        return int.from_bytes(self._shm.buf[off:off + 8], "little")

    def _write_u64(self, field: int, value: int) -> None:
        off = 24 + (field - 5) * 8
        self._shm.buf[off:off + 8] = value.to_bytes(8, "little")

    def _slot_base(self, index: int) -> int:
        return self._slots_off + index * self._slot_bytes

    def _read_seq(self, index: int) -> int:
        base = self._slot_base(index)
        return int.from_bytes(self._shm.buf[base:base + 8], "little")

    def _write_seq(self, index: int, value: int) -> None:
        base = self._slot_base(index)
        self._shm.buf[base:base + 8] = value.to_bytes(8, "little")

    def _write_slot_header(self, index, kind, n_rows, width,
                           blob_off, blob_advance) -> None:
        base = self._slot_base(index)
        # Everything but seq (bytes 0..8), which publishes last.
        self._shm.buf[base + 8:base + _SLOT_HDR_SIZE] = struct.pack(
            "<IIIIQQ8x", kind, n_rows, width, 0, blob_off, blob_advance
        )

    def _read_slot_header(self, index) -> Tuple[int, int, int, int, int]:
        base = self._slot_base(index)
        kind, n_rows, width, _r, blob_off, blob_adv = struct.unpack_from(
            "<IIIIQQ", self._shm.buf, base + 8
        )
        return kind, n_rows, width, blob_off, blob_adv

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

    def try_push(self, rows, kind: int = KIND_DATA) -> bool:
        """Push one batch if the geometry fits and a slot is free.

        ``rows`` is a :class:`PacketColumns` or a sequence of bytes.
        Returns False when the ring is full; raises ``ValueError`` for
        batches that need splitting or spilling (:meth:`push` handles
        both transparently).
        """
        if self._closed:
            raise RingClosed("push on closed ring")
        n = len(rows)
        if n > self.row_capacity:
            raise ValueError("batch of %d rows exceeds slot capacity %d"
                             % (n, self.row_capacity))
        if isinstance(rows, PacketColumns):
            max_len = rows.max_len
        else:
            max_len = max((len(r) for r in rows), default=0)
        if max_len > self.row_width:
            raise ValueError("row of %d bytes exceeds slot width %d"
                             % (max_len, self.row_width))
        p = self._head
        index = p % self.capacity
        if self._read_seq(index) != p:
            return False
        self._fill_slot(index, rows, n, max_len, kind)
        self._write_slot_header(index, kind, n, max_len, 0, 0)
        self._write_seq(index, p + 1)  # publish
        self._head = p + 1
        self._write_u64(5, self._head)
        self.pushed += 1
        return True

    def _fill_slot(self, index, rows, n, width, kind) -> None:
        np = get_numpy()
        if (
            np is not None
            and isinstance(rows, PacketColumns)
            and rows.vectorized
            and n
        ):
            # Uniform fast path: the whole batch lands as one packed
            # matrix copy — the only copy the batch ever pays.
            self._np_lengths[index][:n] = rows.lengths
            flat = self._np_data[index]
            flat[: n * width] = rows.data[:, :width].reshape(-1)
            return
        base = self._slot_base(index) + _SLOT_HDR_SIZE
        buf = self._shm.buf
        lengths_off = base
        data_off = base + 4 * self.row_capacity
        for i, row in enumerate(rows):
            row = bytes(row)
            buf[lengths_off + 4 * i:lengths_off + 4 * i + 4] = (
                len(row).to_bytes(4, "little")
            )
            start = data_off + i * width
            if row:
                buf[start:start + len(row)] = row
            # zero-pad the remainder so stale bytes never alias
            if len(row) < width:
                buf[start + len(row):start + width] = bytes(
                    width - len(row)
                )

    def push(
        self,
        rows,
        kind: int = KIND_DATA,
        timeout: Optional[float] = None,
        alive_check=None,
    ) -> None:
        """Blocking push with transparent split and spill.

        Batches with more rows than a slot holds are split; batches
        with rows wider than the slot lane spill to the side arena.
        Raises :class:`RingTimeout` / :class:`RingClosed` on a bounded
        or abandoned wait.
        """
        n = len(rows)
        if isinstance(rows, PacketColumns):
            max_len = rows.max_len
        else:
            max_len = max((len(r) for r in rows), default=0)
        if max_len > self.row_width:
            self._push_spill(rows, kind, timeout, alive_check)
            return
        if n > self.row_capacity:
            for lo in range(0, n, self.row_capacity):
                self.push(
                    self._slice_rows(rows, lo,
                                     min(n, lo + self.row_capacity)),
                    kind, timeout, alive_check,
                )
            return
        ok = self._wait(
            lambda: self._read_seq(self._head % self.capacity) == self._head,
            timeout, alive_check,
        )
        if not ok:
            raise RingTimeout("ring full for %.1fs" % (timeout or 0.0))
        if not self.try_push(rows, kind):  # pragma: no cover - SPSC
            raise RuntimeError("slot stolen under SPSC producer")

    @staticmethod
    def _slice_rows(rows, lo, hi):
        if isinstance(rows, PacketColumns):
            np = get_numpy()
            if np is not None and rows.vectorized:
                return PacketColumns.from_matrix(
                    rows.data[lo:hi], rows.lengths[lo:hi]
                )
            return PacketColumns(rows.raw[lo:hi])
        return rows[lo:hi]

    # -- spill arena -------------------------------------------------------

    def _push_spill(self, rows, kind, timeout, alive_check) -> None:
        """Ragged fallback: serialize the batch into the side arena and
        publish a slot that references the blob."""
        if not self.spill_bytes:
            raise ValueError("ring has no spill arena for ragged rows")
        raws = [bytes(r) for r in rows]
        n = len(raws)
        width = max((len(r) for r in raws), default=0)
        blob_len = 8 + 4 * n + n * width
        if blob_len > self.spill_bytes:
            if n <= 1:
                raise ValueError(
                    "single row of %d bytes exceeds the %d-byte spill "
                    "arena" % (width, self.spill_bytes)
                )
            mid = n // 2
            self._push_spill(raws[:mid], kind, timeout, alive_check)
            self._push_spill(raws[mid:], kind, timeout, alive_check)
            return

        def alloc_ready() -> bool:
            used = self._read_u64(7) - self._read_u64(8)
            return used + blob_len <= self.spill_bytes

        if not self._wait(alloc_ready, timeout, alive_check):
            raise RingTimeout("spill arena full")
        head = self._read_u64(7)
        offset, advance = head % self.spill_bytes, blob_len
        self._write_blob(offset, raws, n, width)
        ok = self._wait(
            lambda: self._read_seq(self._head % self.capacity) == self._head,
            timeout, alive_check,
        )
        if not ok:
            raise RingTimeout("ring full for spill slot")
        p = self._head
        index = p % self.capacity
        self._write_slot_header(index, kind, n, width, offset, advance)
        self._write_u64(7, self._read_u64(7) + advance)  # spill_head
        self._write_seq(index, p + 1)
        self._head = p + 1
        self._write_u64(5, self._head)
        self.pushed += 1
        self.spills += 1

    def _spill_write(self, offset: int, payload: bytes) -> None:
        """Store bytes at a logical arena offset, wrapping modularly —
        a blob may be physically split across the arena edge, which
        keeps allocation free of end-of-arena padding (padding can
        wedge: a blob longer than the space left before the edge would
        never fit at that head position, even with the arena empty)."""
        arena = self.spill_bytes
        buf = self._shm.buf
        pos = offset % arena
        first = min(len(payload), arena - pos)
        base = self._spill_off
        buf[base + pos:base + pos + first] = payload[:first]
        if first < len(payload):
            buf[base:base + len(payload) - first] = payload[first:]

    def _spill_read(self, offset: int, length: int) -> bytes:
        arena = self.spill_bytes
        buf = self._shm.buf
        pos = offset % arena
        first = min(length, arena - pos)
        base = self._spill_off
        head = bytes(buf[base + pos:base + pos + first])
        if first == length:
            return head
        return head + bytes(buf[base:base + length - first])

    def _write_blob(self, offset, raws, n, width) -> None:
        parts = [struct.pack("<II", n, width)]
        parts.extend(len(row).to_bytes(4, "little") for row in raws)
        for row in raws:
            parts.append(row)
            if len(row) < width:
                parts.append(bytes(width - len(row)))
        self._spill_write(offset, b"".join(parts))

    # -- consumer side -----------------------------------------------------

    def try_pop(self) -> Optional[RingSlotView]:
        """The next occupied slot as an in-place view, or None when the
        ring is empty.  The previous view must have been released."""
        if self._closed:
            raise RingClosed("pop on closed ring")
        if self._pending_release is not None:
            raise RuntimeError("previous slot not released")
        c = self._tail
        index = c % self.capacity
        if self._read_seq(index) != c + 1:
            return None
        kind, n, width, blob_off, blob_adv = self._read_slot_header(index)
        if blob_adv:
            view = self._blob_view(kind, blob_off, blob_adv)
        else:
            np = get_numpy()
            if np is not None and self._np_data:
                lengths = self._np_lengths[index][:n]
                data = (
                    self._np_data[index][: n * width].reshape(n, width)
                    if n else None
                )
                view = RingSlotView(kind, n, width, lengths, data, c)
            else:
                base = self._slot_base(index) + _SLOT_HDR_SIZE
                lengths = [
                    int.from_bytes(
                        self._shm.buf[base + 4 * i:base + 4 * i + 4],
                        "little",
                    )
                    for i in range(n)
                ]
                data = self._shm.buf[
                    base + 4 * self.row_capacity:
                    base + 4 * self.row_capacity + n * width
                ]
                view = RingSlotView(kind, n, width, lengths, data, c)
        self._pending_release = index
        self._pending_blob_advance = blob_adv
        self._active_view = view
        return view

    def _blob_view(self, kind, offset, advance) -> RingSlotView:
        header = self._spill_read(offset, 8)
        n, width = struct.unpack("<II", header)
        body = self._spill_read(offset + 8, 4 * n + n * width)
        lengths = [
            int.from_bytes(body[4 * i:4 * i + 4], "little")
            for i in range(n)
        ]
        data = body[4 * n:]
        return RingSlotView(kind, n, width, lengths, data, self._tail)

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
        """Hand the last popped slot back to the producer (and retire
        its spill blob, if any)."""
        index = self._pending_release
        if index is None:
            raise RuntimeError("no slot pending release")
        c = self._tail
        if self._pending_blob_advance:
            self._write_u64(
                8, self._read_u64(8) + self._pending_blob_advance
            )
        self._write_seq(index, c + self.capacity)
        self._tail = c + 1
        self._write_u64(6, self._tail)
        self._pending_release = None
        self._pending_blob_advance = 0
        # Enforce the view contract: after release the slot belongs to
        # the producer again, so sever the view's buffers — a stale
        # reference now raises instead of reading recycled memory, and
        # no exported pointer can block close().
        view = self._active_view
        if view is not None:
            view._lengths = None
            view._data = None
            self._active_view = None
        self.popped += 1

    # -- introspection / metadata ------------------------------------------

    def __len__(self) -> int:
        """Occupied slots (producer view)."""
        return self._head - self._read_u64(6)

    @property
    def empty(self) -> bool:
        return len(self) == 0

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def snapshot(self) -> Dict[str, Any]:
        """Ring *metadata* (cursors, sequence words, counters) — the
        bookkeeping a supervisor would persist across a consumer
        respawn.  Slot payloads are deliberately excluded: an in-flight
        batch is replayed from upstream, never trusted from a ring a
        dead worker may have half-consumed."""
        return {
            "head": self._head,
            "tail": self._read_u64(6),
            "spill_head": self._read_u64(7),
            "spill_tail": self._read_u64(8),
            "seqs": [self._read_seq(i) for i in range(self.capacity)],
            "pushed": self.pushed,
            "popped": self.popped,
            "spills": self.spills,
        }

    def load_snapshot(self, meta: Dict[str, Any]) -> None:
        """Restore cursors and sequence words saved by :meth:`snapshot`."""
        if len(meta["seqs"]) != self.capacity:
            raise ValueError("snapshot capacity mismatch")
        self._head = int(meta["head"])
        self._tail = int(meta["tail"])
        self._write_u64(5, self._head)
        self._write_u64(6, self._tail)
        self._write_u64(7, int(meta["spill_head"]))
        self._write_u64(8, int(meta["spill_tail"]))
        for i, seq in enumerate(meta["seqs"]):
            self._write_seq(i, int(seq))
        self.pushed = int(meta.get("pushed", 0))
        self.popped = int(meta.get("popped", 0))
        self.spills = int(meta.get("spills", 0))

    def reset(self) -> None:
        """Empty the ring (supervisor-side, after replacing a dead
        consumer): discard unconsumed slots and spill space."""
        self._head = 0
        self._tail = 0
        self._pending_release = None
        self._pending_blob_advance = 0
        for field in (5, 6, 7, 8):
            self._write_u64(field, 0)
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
        self._np_spill = None
        view = self._active_view
        if view is not None:
            view._lengths = None
            view._data = None
            self._active_view = None
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

    _pending_blob_advance = 0
    _active_view: Optional[RingSlotView] = None
