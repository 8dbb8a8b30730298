"""Client-side encode cache for transport-layer semantic cookies.

The paper's client policy (section 3.1) already implies this
optimization: the semantic region of the connection ID — bytes
[1, 18), the app-ID byte plus the encrypted cookie block — is
*preserved across connections*, while bytes 0 and 18-19 (DCID and
DCID-R2) are regenerated per connection.  A web server minting
cookies for the same user therefore re-derives the identical
encrypted block every time; only the three random framing bytes
differ.  For the constant-cookie workloads (crowd, resource,
ad-campaign demographics) that makes the AES pass per request pure
waste.

:class:`CookieEncodeCache` memoizes the encrypted 16-byte cookie
block per **identity code** — a non-negative integer the workload
assigns to each cookie identity (a member index; for the ad workload
``(user * campaigns + campaign) * 2 + click``) — in an exact LRU
bounded by its capacity.  The LRU is one slot table: a code-indexed
slot map that grows to the largest code seen, one key and one
last-use stamp per slot, and one ``(capacity, 16)`` block slab, all
stdlib ``array('q')`` / ``bytearray`` buffers.  A touch log holds the
slot of every stamp in stamp order; an entry is live while its slot's
stamp is its index, so the oldest entries are the first live ones
from the log's head and eviction scans neither the capacity nor the
log behind the head.  There is no object per cookie.  Misses within
a batch are packed and encrypted in one AES pass
(:meth:`~repro.core.transport_cookie.TransportCookieCodec.encrypt_rows`)
whose ``(m, 16)`` output goes straight into the slab and the wire
matrix.

The probe has two forms over that one state: a numpy form, which
views the buffers with ``frombuffer`` and runs a batch in a fixed
number of numpy calls, and a Python form, which runs with the numpy
gate closed and for batches under :data:`SLOT_KERNEL_MIN_ROWS`.  The
key is an identity, never the cookie's content: content keys would
give users with equal demographics one ECB block, a linkage leak.
Correctness invariants:

* **Decode identity** — a cached cookie and a freshly encoded cookie
  decrypt to the same feature values (the cached block *is* the
  fresh block; only padding-bit draws are skipped on a hit).
* **Exact LRU** — hits are restamped in probe order, misses enter in
  first-occurrence order and the oldest stamps leave: the order and
  count of a key-by-key LRU that evicts after every insert, in
  either form.
* **Epoch invalidation** — a controller push or revoke for this
  application bumps the epoch and drops every cached block, so a
  mid-run rekey or version update never serves a cookie minted under
  the superseded key (hook up via
  ``SnatchController.attach_client(cache)``).
* **Gate-independent wire bytes** — ``encode_columns`` resolves
  blocks and draws the per-packet framing bytes in the same order
  in either form, so from the same RNG state and cache contents it
  emits byte-identical wire cookies.  (A *warm* batch is also
  byte-identical to one-key batches in turn; on misses the batch
  draws padding in one ``getrandbits`` call per block ahead of the
  framing bytes, which only changes random bits that nothing
  downstream decodes.)
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import compress, count, islice, repeat
from operator import eq
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.transport_cookie import TransportCookieCodec
from repro.crypto.aes import random_bytes
from repro.switch.columns import PacketColumns, get_numpy

__all__ = ["CookieEncodeCache", "SLOT_KERNEL_MIN_ROWS"]

_DEFAULT_CAPACITY = 4096

# Batches with fewer keys take the Python form even with the numpy
# gate open: the numpy form is ~40 numpy calls whatever the batch.
# Measured on the ad workload's stream (8 campaigns, 4096 entries,
# 30k events; 2000 users miss 86 % of lookups, 200 users 10 %), us/event
# for cookie_keys plus encode_columns, AES pass and pack included,
# median of 5 alternating runs on a 2-vCPU Xeon, Python 3.11, numpy 2.4:
#
#     keys   2000 users py / numpy   200 users py / numpy
#        8      17.03 / 17.04           7.76 / 7.07
#       16      10.18 / 9.88            4.55 / 4.26
#       24       8.07 / 7.03            3.53 / 3.21
#       32       6.58 / 5.94            3.09 / 2.63
#      128       3.86 / 2.32            1.78 / 1.35
#
# The forms are within 10 % of each other below 24 keys; from 24 the
# numpy form leads by 10 % or more.  The cut sits there rather than at
# 16 so that the Python form, which the gate-closed configuration
# needs anyway, also runs in a ledger workload (ad-cold-b32's last,
# 18-event batch), where the reach audit sees it.
SLOT_KERNEL_MIN_ROWS = 24

# The touch log is rebuilt from its live entries once it is this many
# times the capacity long, so each rebuild (a sort of the slots by
# stamp, ~2 ms at 4096 entries) follows at least fifteen capacities'
# worth of touches: ~30 ns per touch, for a log of 0.5 MB at 4096.
_LOG_SLACK = 16


class CookieEncodeCache:
    """LRU cache of encrypted cookie blocks keyed by identity code.

    The key is the caller's *identity* for the cookie (a user index, an
    ad workload's ``(user, campaign, click)`` code), never its content:
    two users with equal demographics keep separate entries, as they
    keep separate cookies.  Keys are non-negative ints (a list, or a
    1-D integer numpy array); the slot map is as long as the largest
    key, so codes should be dense.  The cookie contents are only asked
    for on cache misses — the point of the cache is that building them
    and running AES both drop out of the per-request hot loop.
    """

    def __init__(
        self,
        codec: TransportCookieCodec,
        capacity: int = _DEFAULT_CAPACITY,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._codec = codec
        self._capacity = capacity
        # Per slot: its key, its stamp (the touch log index of its last
        # use) and its block, 16 bytes of the slab.
        self._keys = array("q", bytes(8 * capacity))
        self._stamps = array("q", bytes(8 * capacity))
        self._slab = bytearray(16 * capacity)
        self._empty()
        self.epoch = 0
        self.hits = 0
        # Repeats of a miss already queued in the same batch: they are
        # served without an extra AES pass, but the block was not in
        # the cache when the batch arrived — counting them as hits
        # made warm-cache hit rates look far better than they were.
        self.queued_hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def _empty(self) -> None:
        """No entry: slots ``[0, size)`` are taken, ``slot_of[code]`` is
        a code's slot or -1, and the touch log holds the slot of every
        stamp in stamp order, none live before its head."""
        self._slot_of = array("q")
        self._np_views: Optional[Tuple[Any, ...]] = None
        self._log = array("q")
        self._head = 0
        self._size = 0

    # -- introspection -----------------------------------------------------

    @property
    def codec(self) -> TransportCookieCodec:
        return self._codec

    @property
    def app_id(self) -> int:
        return self._codec.app_id

    def __len__(self) -> int:
        return self._size

    def items(self) -> List[Tuple[int, bytes]]:
        """``(key, block)`` per cached entry in LRU order, least
        recently used first."""
        keys, slab = self._keys, memoryview(self._slab)
        return [(keys[s], bytes(slab[16 * s:][:16])) for s in self._by_age()]

    def stats(self) -> Dict[str, int]:
        return {
            "size": self._size,
            "capacity": self._capacity,
            "epoch": self.epoch,
            "hits": self.hits,
            "queued_hits": self.queued_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    # -- invalidation ------------------------------------------------------

    def invalidate(self) -> None:
        """Drop every cached block and start a new epoch."""
        self._empty()
        self.epoch += 1
        self.invalidations += 1

    def rebind(self, codec: TransportCookieCodec) -> None:
        """Switch to a new codec (new app-ID / schema / key) and
        invalidate — the cached blocks were encrypted under the old
        parameters."""
        self._codec = codec
        self.invalidate()

    def rekey(self, new_key: bytes) -> None:
        """Replace the AES key in place (same app-ID, schema and —
        crucially for deterministic runs — the same RNG stream)."""
        old = self._codec
        self.rebind(
            TransportCookieCodec(old.app_id, old.schema, new_key, old.rng)
        )

    # -- controller client hooks ------------------------------------------

    def on_application_push(self, handle: Any) -> None:
        """Controller installed a version of the application this cache
        mints for (matched by name when the handle carries one, else by
        app-ID): adopt the new parameters."""
        name = getattr(handle, "name", None)
        schema_name = getattr(self._codec.schema, "app_name", None)
        if name is not None and schema_name is not None:
            if name != schema_name and handle.app_id != self.app_id:
                return
        elif handle.app_id != self.app_id:
            return
        schema = getattr(handle, "transport_schema", None) or handle.schema
        self.rebind(
            TransportCookieCodec(
                handle.app_id, schema, handle.key, self._codec.rng
            )
        )

    def on_application_revoke(self, app_id: int) -> None:
        """Controller revoked an application; if it is the one we mint
        for, stop serving its cached blocks."""
        if app_id == self.app_id:
            self.invalidate()

    # -- the slot table ------------------------------------------------------

    def _codes(self, keys):
        """The batch's keys checked (non-negative ints) and the slot map
        grown past the largest, before anything else changes; returns
        them as the form that runs the batch takes them — an int64
        array with numpy (the gate open, ``SLOT_KERNEL_MIN_ROWS`` keys
        or more), a list of ints otherwise — and that numpy or None."""
        np = get_numpy() if len(keys) >= SLOT_KERNEL_MIN_ROWS else None
        typed = getattr(keys, "ndim", 0) == 1 and keys.dtype.kind in "iu"
        if np is not None and typed:
            codes = keys.astype("int64", copy=False)
            ints, low, top = True, int(codes.min()), int(codes.max())
        else:
            # An array's elements come back as Python scalars (nested
            # lists for more than one dimension), so one check covers
            # both forms of input.
            codes = keys.tolist() if hasattr(keys, "tolist") else list(keys)
            ints = set(map(type, codes)) <= {int}
            low, top = (min(codes), max(codes)) if ints and codes else (0, -1)
        if not ints or low < 0:
            raise ValueError("cache keys are non-negative ints")
        grow = top + 1 - len(self._slot_of)
        if grow > 0:
            # A new buffer, not an in-place resize: numpy views of the
            # old one may be alive.
            more = array("q", [-1]) * max(grow, len(self._slot_of))
            self._slot_of = self._slot_of + more
            self._np_views = None
        return codes if np is None else np.asarray(codes, dtype=np.int64), np

    def _views(self, np):
        """numpy views of the slot map, keys, stamps and slab."""
        if self._np_views is None:
            self._np_views = (
                np.frombuffer(self._slot_of, dtype=np.int64),
                np.frombuffer(self._keys, dtype=np.int64),
                np.frombuffer(self._stamps, dtype=np.int64),
                np.frombuffer(self._slab, dtype=np.uint8).reshape(-1, 16),
            )
        return self._np_views

    def _oldest(self, np, need: int):
        """The slots of the ``need`` least recently used entries, and
        the log head moved past them: the first ``need`` live entries
        of the touch log from its head (an entry is live while its
        slot's stamp is its index).  The numpy form checks a window of
        the log that doubles until it holds them."""
        log, head = self._log, self._head
        if np is None:
            logged = map(log.__getitem__, count(head))
            ok = map(eq, map(self._stamps.__getitem__, logged), count(head))
            live = compress(count(head), ok)
            found = list(islice(live, need))
            self._head = found[-1] + 1
            return list(map(log.__getitem__, found))
        stamps = self._views(np)[2]
        logged = np.frombuffer(log, dtype=np.int64)[head:]
        span, live = need + 32, ()
        while len(live) < need:
            span *= 2
            window = logged[:span]
            live = np.flatnonzero(
                stamps[window] == np.arange(head, head + len(window))
            )
        self._head = head + int(live[need - 1]) + 1
        return window[live[:need]]

    def _make_room(self, np, m: int):
        """The slots a batch's ``m`` new entries take, in entry order:
        the free ones, then the oldest entries' (evicted).  Past the
        capacity the batch's first ``m - capacity`` misses take no slot
        (each is evicted by a later one); returns the slots and that
        count."""
        size, skip = self._size, max(0, m - self._capacity)
        free = min(self._capacity - size, m - skip)
        need = m - skip - free
        self._size = size + free
        self.evictions += skip + need
        if np is None:
            victims = self._oldest(None, need) if need else []
            leaving = map(self._keys.__getitem__, victims)
            forget = map(self._slot_of.__setitem__, leaving, repeat(-1))
            deque(forget, maxlen=0)
            return [*range(size, size + free), *victims], skip
        taken = np.arange(size, size + free)
        if need:
            victims = self._oldest(np, need)
            slot_of, keys = self._views(np)[:2]
            slot_of[keys[victims]] = -1
            taken = np.concatenate((taken, victims)) if free else victims
        return taken, skip

    def _by_age(self) -> List[int]:
        """The taken slots, least recently used first."""
        return sorted(range(self._size), key=self._stamps.__getitem__)

    def _compact(self) -> None:
        """Once the touch log is ``_LOG_SLACK`` capacities long, rebuild
        it from its live entries — one per taken slot, in stamp order —
        and renumber their stamps from 0."""
        if len(self._log) > _LOG_SLACK * self._capacity:
            live = self._by_age()
            deque(map(self._stamps.__setitem__, live, count()), maxlen=0)
            self._log = array("q", live)
            self._head = 0

    def _resolve_py(self, codes: List[int], rows_fn) -> List[bytes]:
        """The Python form: the encrypted block of every packet.

        Every packet probes the slot map; the first occurrence of
        each missed key gives the batch positions, in order, that get
        wire rows (``rows_fn(positions)``), one pack (one padding draw
        per miss, in that order) and one AES pass.  Nothing moves and
        nothing is counted until the pack has accepted every row.
        Then the hits are restamped and logged in probe order, the
        misses take free slots or the oldest entries' and are logged
        in first-occurrence order."""
        slot_of, slab, stamps, log = (
            self._slot_of, self._slab, self._stamps, self._log
        )
        slots = list(map(slot_of.__getitem__, codes))
        missed = list(compress(count(), map(eq, slots, repeat(-1))))
        missed_codes = list(map(codes.__getitem__, missed))
        first = dict(zip(reversed(missed_codes), reversed(missed)))
        positions = sorted(first.values())
        encrypted = []
        if positions:
            encrypted = self._codec.encrypt_rows(rows_fn(positions))
        if not isinstance(encrypted, list):
            flat = encrypted.tobytes()
            encrypted = [flat[i:i + 16] for i in range(0, len(flat), 16)]
        fresh = list(map(codes.__getitem__, positions))
        block_of = dict(zip(fresh, encrypted))
        out = [
            slab[16 * s:16 * s + 16] if s >= 0 else block_of[code]
            for s, code in zip(slots, codes)
        ]
        m = len(fresh)
        self.hits += len(slots) - len(missed)
        self.queued_hits += len(missed) - m
        self.misses += m
        hit_slots = list(filter((-1).__ne__, slots))
        deque(map(stamps.__setitem__, hit_slots, count(len(log))), maxlen=0)
        log.extend(hit_slots)
        taken, skip = self._make_room(None, m)
        entering = fresh[skip:]
        deque(map(self._keys.__setitem__, taken, entering), maxlen=0)
        deque(map(slot_of.__setitem__, entering, taken), maxlen=0)
        deque(map(stamps.__setitem__, taken, count(len(log))), maxlen=0)
        for slot, block in zip(taken, encrypted[skip:]):
            slab[16 * slot:16 * slot + 16] = block
        log.extend(taken)
        self._compact()
        return out

    def _resolve_np(self, np, codes, rows_fn, out) -> None:
        """The numpy form: the encrypted block of every packet, written
        into ``out`` (the wire matrix's ``(n, 16)`` block columns).

        The same probe, counts and LRU moves as :meth:`_resolve_py`,
        in a fixed number of numpy calls (eviction aside: see
        :meth:`_oldest`).  The first position of each missed key is
        the least of its positions, folded into the slot map itself
        by ``minimum.at`` (and the map restored before ``rows_fn``
        runs); a slot hit twice keeps its later stamp (``maximum.at``:
        numpy leaves a repeated plain assignment unordered)."""
        slot_of, keys, stamps, slab = self._views(np)
        log = self._log
        slots = slot_of[codes]
        hit = slots >= 0
        missed = np.flatnonzero(~hit)
        missed_codes = codes[missed]
        slot_of[missed_codes] = len(codes)
        np.minimum.at(slot_of, missed_codes, missed)
        first = slot_of[missed_codes]
        slot_of[missed_codes] = -1
        firsts = first == missed
        positions = missed[firsts]
        m = len(positions)
        if m:
            encrypted = self._codec.encrypt_rows(rows_fn(positions.tolist()))
            out[missed] = encrypted if m == len(missed) else (
                encrypted[np.searchsorted(positions, first)]
            )
        hit_slots = slots[hit]
        out[hit] = slab[hit_slots]
        self.hits += len(hit_slots)
        self.queued_hits += len(missed) - m
        self.misses += m
        clock = np.arange(len(log), len(log) + len(hit_slots))
        np.maximum.at(stamps, hit_slots, clock)
        log.frombytes(hit_slots.tobytes())
        if m:
            taken, skip = self._make_room(np, m)
            entering = missed_codes[firsts][skip:]
            keys[taken] = entering
            slot_of[entering] = taken
            stamps[taken] = np.arange(len(log), len(log) + len(taken))
            slab[taken] = encrypted[skip:]
            log.frombytes(taken.tobytes())
        self._compact()

    # -- encoding ----------------------------------------------------------

    def encode_columns(
        self,
        keys: Sequence[int],
        values_fn: Optional[Callable[[int], Dict[str, Any]]] = None,
        *,
        rows_fn: Optional[Callable[[List[int]], Any]] = None,
    ):
        """Wire cookies for a whole batch as a
        :class:`~repro.switch.columns.PacketColumns` (no per-packet
        ``ConnectionID`` objects; ``.raw`` gives the rows): resolve the
        encrypted blocks (one AES pass over the misses), then draw the
        framing bytes (DCID, then the two DCID-R2 bytes) per packet in
        order.  Rows are assembled one by one
        (:meth:`TransportCookieCodec.assemble`) when the numpy gate is
        closed, as one matrix otherwise.

        ``keys`` are the packets' identity codes (non-negative ints, or
        one integer numpy array); anything else raises ``ValueError``
        before the cache, its counters or the RNG change.  The cookie contents of
        the misses come from one of two callbacks: ``rows_fn(positions)``
        returns the wire rows (see
        :meth:`TransportCookieCodec.pack_rows`: a list of rows or one
        int64 matrix) of the listed batch positions — integers in, no
        value dict built; ``values_fn(i)`` returns the value dict of
        position ``i`` and is adapted to rows through
        ``validate_values``."""
        if (values_fn is None) == (rows_fn is None):
            raise TypeError("pass exactly one of values_fn and rows_fn")
        if rows_fn is None:
            codec = self._codec

            def rows_fn(positions: List[int]) -> List[Sequence[int]]:
                return codec.rows_from_values(
                    [values_fn(i) for i in positions]
                )

        codes, np = self._codes(keys)
        n = len(codes)
        if np is not None:
            data = np.empty((n, 20), dtype=np.uint8)
            self._resolve_np(np, codes, rows_fn, data[:, 2:18])
        else:
            blocks = self._resolve_py(codes, rows_fn)
            np, assemble = get_numpy(), self._codec.assemble
            if np is None:
                # The framing bytes of the matrix below, cookie by cookie.
                return PacketColumns(list(map(bytes, map(assemble, blocks))))
            data = np.empty((n, 20), dtype=np.uint8)
            data[:, 2:18] = np.frombuffer(
                b"".join(blocks), dtype=np.uint8
            ).reshape(n, 16)
        framing = random_bytes(self._codec.rng, 3 * n)
        data[:, 1] = self.app_id
        drawn = np.frombuffer(framing, dtype=np.uint8).reshape(n, 3)
        data[:, 0] = drawn[:, 0]
        data[:, 18:20] = drawn[:, 1:]
        return PacketColumns.from_matrix(data)
