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
block per caller-chosen key (typically the user index), bounded LRU.
Misses within a batch are packed and encrypted in one batched AES
pass (:meth:`~repro.core.transport_cookie.TransportCookieCodec.encrypt_rows`).
Correctness invariants:

* **Decode identity** — a cached cookie and a freshly encoded cookie
  decrypt to the same feature values (the cached block *is* the
  fresh block; only padding-bit draws are skipped on a hit).
* **Epoch invalidation** — a controller push or revoke for this
  application bumps the epoch and drops every cached block, so a
  mid-run rekey or version update never serves a cookie minted under
  the superseded key (hook up via
  ``SnatchController.attach_client(cache)``).
* **Gate-independent wire bytes** — ``encode_columns`` resolves
  blocks and draws the per-packet framing bytes in the same order
  with the numpy gate open or closed, so from the same RNG state and
  cache contents it emits byte-identical wire cookies.  (A *warm*
  batch is also byte-identical to one-key batches in turn; on misses
  the batch draws padding in one ``getrandbits`` call per block ahead
  of the framing bytes, which only changes random bits that nothing
  downstream decodes.)
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import compress, repeat
from operator import not_
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.transport_cookie import TransportCookieCodec
from repro.crypto.aes import random_bytes

__all__ = ["CookieEncodeCache"]

_DEFAULT_CAPACITY = 4096


class CookieEncodeCache:
    """LRU cache of encrypted cookie blocks keyed by user identity.

    The key is the caller's *identity* for the cookie (a user index, a
    ``(user, campaign, click)`` triple), never its content: two users
    with equal demographics keep separate entries, as they keep
    separate cookies.  The cookie contents are only asked for on cache
    misses — the point of the cache is that building them and running
    AES both drop out of the per-request hot loop.
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
        self._blocks: "OrderedDict[Hashable, bytes]" = OrderedDict()
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

    # -- introspection -----------------------------------------------------

    @property
    def codec(self) -> TransportCookieCodec:
        return self._codec

    @property
    def app_id(self) -> int:
        return self._codec.app_id

    def __len__(self) -> int:
        return len(self._blocks)

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._blocks),
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
        self._blocks.clear()
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

    # -- encoding ----------------------------------------------------------

    def _resolve_blocks(
        self,
        keys: Sequence[Hashable],
        rows_fn: Callable[[List[int]], Any],
    ) -> List[bytes]:
        """Encrypted block per packet.  Every packet probes the cache
        under its caller-given identity key; the first occurrence of
        each missed key gives the batch positions, in order, that get
        wire rows (``rows_fn(positions)``), one pack (one padding draw
        per miss, in that order) and one AES pass
        (:meth:`TransportCookieCodec.encrypt_rows`).

        The probe runs in C: one ``get`` per key; an all-hit batch
        then moves its keys to the LRU end in probe order and is done.
        With misses, the bookkeeping is C calls too: the first
        position of each missed key is a dict built back to front (the
        earliest position is written last); after the AES pass the
        hits move to the LRU end, the new blocks enter it with one
        ``update`` in first-occurrence order and the overflow leaves
        its front in one pass.  That is the order and count evicting
        after every insert gives, even when the batch's new keys
        outnumber the entries: the entry just inserted is never the
        front.  The only Python step per miss is filling its first
        position (and a repeat's, from it).  Nothing moves and nothing
        is counted until the pack has accepted every row.
        """
        blocks = self._blocks
        out: List[Optional[bytes]] = list(map(blocks.get, keys))
        if None not in out:
            deque(map(blocks.move_to_end, compress(keys, out)), maxlen=0)
            self.hits += len(out)
            return out  # type: ignore[return-value]
        missed = list(compress(range(len(out)), map(not_, out)))
        missed_keys = list(map(keys.__getitem__, missed))
        first = dict(zip(reversed(missed_keys), reversed(missed)))
        positions = sorted(first.values())
        encrypted = self._codec.encrypt_rows(rows_fn(positions))
        # A repeat of a miss in the same batch is served from its AES
        # pass but counted apart from the hits: its block was not in
        # the cache when the batch arrived.
        self.hits += len(out) - len(missed)
        self.queued_hits += len(missed) - len(positions)
        self.misses += len(positions)
        deque(map(blocks.move_to_end, compress(keys, out)), maxlen=0)
        blocks.update(zip(map(keys.__getitem__, positions), encrypted))
        overflow = len(blocks) - self._capacity
        if overflow > 0:
            deque(map(blocks.popitem, repeat(False, overflow)), maxlen=0)
            self.evictions += overflow
        for i, block in zip(positions, encrypted):
            out[i] = block
        if len(positions) < len(missed):
            for i in set(missed).difference(positions):
                out[i] = out[first[keys[i]]]
        return out  # type: ignore[return-value]

    def encode_columns(
        self,
        keys: Sequence[Hashable],
        values_fn: Optional[Callable[[int], Dict[str, Any]]] = None,
        *,
        rows_fn: Optional[Callable[[List[int]], Any]] = None,
    ):
        """Wire cookies for a whole batch as a
        :class:`~repro.switch.columns.PacketColumns` (no per-packet
        ``ConnectionID`` objects; ``.raw`` gives the rows): resolve the
        encrypted blocks (one AES pass over the misses), then draw the
        framing bytes (DCID, then the two DCID-R2 bytes) per packet in
        order.  Rows are assembled one by one when the numpy gate is
        closed, as one matrix otherwise.

        The cookie contents of the misses come from one of two
        callbacks: ``rows_fn(positions)`` returns the wire rows (see
        :meth:`TransportCookieCodec.pack_rows`: a list of rows or one
        int64 matrix) of the listed batch positions — integers in, no
        value dict built; ``values_fn(i)`` returns the value dict of
        position ``i`` and is adapted to rows through
        ``validate_values``."""
        from repro.switch.columns import PacketColumns, get_numpy

        if (values_fn is None) == (rows_fn is None):
            raise TypeError("pass exactly one of values_fn and rows_fn")
        if rows_fn is None:
            codec = self._codec

            def rows_fn(positions: List[int]) -> List[Sequence[int]]:
                return codec.rows_from_values(
                    [values_fn(i) for i in positions]
                )

        blocks = self._resolve_blocks(keys, rows_fn)
        np = get_numpy()
        n = len(blocks)
        framing = random_bytes(self._codec.rng, 3 * n)
        if np is None:
            app_byte = bytes([self.app_id])
            return PacketColumns([
                framing[i:i + 1] + app_byte + block + framing[i + 1:i + 3]
                for i, block in zip(range(0, 3 * n, 3), blocks)
            ])
        data = np.empty((n, 20), dtype=np.uint8)
        if n:
            data[:, 2:18] = np.frombuffer(
                b"".join(blocks), dtype=np.uint8
            ).reshape(n, 16)
        data[:, 1] = self.app_id
        drawn = np.frombuffer(framing, dtype=np.uint8).reshape(n, 3)
        data[:, 0] = drawn[:, 0]
        data[:, 18:20] = drawn[:, 1:]
        return PacketColumns.from_matrix(data)
