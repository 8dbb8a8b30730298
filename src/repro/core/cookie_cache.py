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
Misses within a batch are encrypted in one batched AES pass
(:func:`~repro.crypto.aes.encrypt_blocks_many`).  Correctness
invariants:

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
  batch is also byte-identical to sequential ``encode`` calls; on
  misses the batch draws padding in one ``getrandbits`` call per block
  ahead of the framing bytes, which only changes random bits that
  nothing downstream decodes.)
"""

from __future__ import annotations

from collections import OrderedDict, deque
from itertools import compress, repeat
from operator import not_
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence

from repro.core.transport_cookie import TransportCookieCodec
from repro.crypto.aes import encrypt_blocks_many
from repro.quic.connection_id import ConnectionID

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

    def _lookup(self, key: Hashable) -> Optional[bytes]:
        block = self._blocks.get(key)
        if block is not None:
            self._blocks.move_to_end(key)
            self.hits += 1
        return block

    def _store(self, key: Hashable, block: bytes) -> None:
        self._blocks[key] = block
        self._blocks.move_to_end(key)
        if len(self._blocks) > self._capacity:
            self._blocks.popitem(last=False)
            self.evictions += 1

    def _resolve_blocks(
        self,
        keys: Sequence[Hashable],
        rows_fn: Callable[[List[int]], List[Sequence[int]]],
    ) -> List[bytes]:
        """Encrypted block per packet.  Every packet probes the cache
        under its caller-given identity key; the misses' batch
        positions are collected in first-occurrence order, and only
        those get wire rows (``rows_fn(positions)``), one pack (one
        padding draw per miss, in that order) and one batched AES
        pass.

        The probe runs in C: one ``get`` per key, then ``move_to_end``
        for each hit in probe order.  Only the misses visit the table
        of misses pending in this batch, which is the same thing as
        asking it first: a pending key is stored after the AES pass,
        so it is never in the cache while the batch is probed."""
        blocks = self._blocks
        out: List[Optional[bytes]] = list(map(blocks.get, keys))
        deque(map(blocks.move_to_end, compress(keys, out)), maxlen=0)
        if None not in out:
            self.hits += len(out)
            return out  # type: ignore[return-value]
        miss_order: List[Hashable] = []
        miss_positions: List[int] = []
        miss_backrefs: Dict[Hashable, List[int]] = {}
        queued = 0
        for i in compress(range(len(out)), map(not_, out)):
            key = keys[i]
            pending = miss_backrefs.get(key)
            if pending is not None:
                # Repeat of a miss already queued in this batch: served
                # from the pending AES pass, but not a true cache hit.
                pending.append(i)
                queued += 1
            else:
                miss_order.append(key)
                miss_positions.append(i)
                miss_backrefs[key] = [i]
        self.hits += len(out) - len(miss_positions) - queued
        self.queued_hits += queued
        self.misses += len(miss_positions)
        codec = self._codec
        encrypted = encrypt_blocks_many(
            codec.aes, codec.pack_rows(rows_fn(miss_positions))
        )
        for key, block in zip(miss_order, encrypted):
            self._store(key, block)
            for i in miss_backrefs[key]:
                out[i] = block
        return out  # type: ignore[return-value]

    def encode(
        self, key: Hashable, values_fn: Callable[[], Dict[str, Any]]
    ) -> ConnectionID:
        """Single-cookie entry point (the testbed's scalar backend)."""
        block = self._lookup(key)
        if block is None:
            self.misses += 1
            block = self._codec.aes.encrypt_block(
                self._codec.encode_block(values_fn())
            )
            self._store(key, block)
        return self._codec.assemble(block)

    def encode_columns(
        self,
        keys: Sequence[Hashable],
        values_fn: Optional[Callable[[int], Dict[str, Any]]] = None,
        *,
        rows_fn: Optional[
            Callable[[List[int]], List[Sequence[int]]]
        ] = None,
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
        :meth:`TransportCookieCodec.pack_rows`) of the listed batch
        positions — integers in, no value dict built; ``values_fn(i)``
        returns the value dict of position ``i`` and is adapted to
        rows through ``validate_values``."""
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
        getrandbits = self._codec.rng.getrandbits
        n = len(blocks)
        framing = bytes(map(getrandbits, repeat(8, 3 * n)))
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
