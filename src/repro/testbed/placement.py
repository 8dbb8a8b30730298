"""Skew-aware shard placement: virtual-bucket maps + epoch rebalancing.

The shard runtimes originally partitioned with ``crc32(key) % shards``
— the literal in-switch bank partition.  That is fine when traffic is
uniform, but zipfian user populations (the scale workload's head) make
it badly skewed: the hottest shard gates every epoch barrier, so added
shards buy almost nothing.

This module splits placement into two deterministic layers:

* a :class:`PartitionMap` of ``buckets`` **virtual buckets**: a key
  hashes to ``crc32(key) % buckets`` exactly once, and a small
  bucket→shard table says where the bucket lives.  The default table
  (``bucket % shards``) reproduces the legacy modulo partition bit for
  bit whenever ``shards`` divides ``buckets``, so a map-less caller
  and a default-map caller agree on every packet.
* a :class:`PlacementController` that accounts per-bucket load at
  epoch barriers and **re-assigns buckets between epochs**: move the
  hottest buckets of overloaded shards onto the lightest shards
  (hysteresis + cooldown so a borderline imbalance cannot thrash), and
  optionally resize the shard fleet with minimal bucket movement.

Why placement may change between epochs with **zero state migration**:
every per-shard fold (register add/min/max, sketch union) is
associative and commutative, and the end-of-run read-out merges all
shard snapshots anyway — so which shard folded which bucket is
invisible in the final snapshot.  The differential suite pins this:
static and rebalanced placements produce byte-identical reports.

Everything here is pure integer/float arithmetic over explicit inputs
— no wall clock, no RNG — so a plan is reproducible across processes
and replays (crash recovery replays an epoch under the map that was
live when the epoch was cut; the shard executor partitions each window
once to guarantee it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.registry import MetricsRegistry, get_registry
from repro.switch.hashing import crc32

__all__ = [
    "DEFAULT_BUCKETS",
    "PartitionMap",
    "PlacementController",
]

DEFAULT_BUCKETS = 256


@dataclass(frozen=True)
class PartitionMap:
    """Immutable bucket→shard table, picklable and versioned.

    ``assignment[b]`` is the shard owning virtual bucket ``b``; every
    bucket is always owned by exactly one live shard (a class
    invariant, checked at construction).  Maps are value objects:
    rebalancing or resizing returns a **new** map with ``version + 1``
    so the epoch protocol can tell replicas apart.
    """

    shards: int
    buckets: int = DEFAULT_BUCKETS
    assignment: Tuple[int, ...] = ()
    version: int = 0

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.buckets < self.shards:
            raise ValueError("buckets must be >= shards")
        if not self.assignment:
            object.__setattr__(
                self,
                "assignment",
                tuple(b % self.shards for b in range(self.buckets)),
            )
        else:
            object.__setattr__(
                self, "assignment", tuple(self.assignment)
            )
            if len(self.assignment) != self.buckets:
                raise ValueError(
                    "assignment must cover all %d buckets" % self.buckets
                )
            if any(
                not 0 <= s < self.shards for s in self.assignment
            ):
                raise ValueError("assignment names a shard out of range")

    # -- lookups -----------------------------------------------------------

    def shard_for(self, key: bytes) -> int:
        """The shard owning one partition key under this map."""
        return self.assignment[crc32(key) % self.buckets]

    def shard_buckets(self, shard: int) -> List[int]:
        return [
            b for b, s in enumerate(self.assignment) if s == shard
        ]

    # -- load views --------------------------------------------------------

    def shard_loads(
        self, bucket_loads: Sequence[float]
    ) -> List[float]:
        """Per-shard load, summed from per-bucket loads."""
        loads = [0.0] * self.shards
        for bucket, load in enumerate(bucket_loads):
            loads[self.assignment[bucket]] += load
        return loads

    def imbalance(self, bucket_loads: Sequence[float]) -> float:
        """``max/mean`` of the per-shard loads (1.0 = perfect; the
        skew metric every bench and acceptance bar uses)."""
        loads = self.shard_loads(bucket_loads)
        total = sum(loads)
        if total <= 0 or self.shards == 0:
            return 1.0
        return max(loads) / (total / self.shards)

    def moved_buckets(self, other: "PartitionMap") -> int:
        """How many buckets own a different shard in ``other``."""
        if other.buckets != self.buckets:
            raise ValueError("maps must share a bucket count")
        return sum(
            1
            for a, b in zip(self.assignment, other.assignment)
            if a != b
        )

    # -- planning ----------------------------------------------------------

    def rebalanced(
        self,
        bucket_loads: Sequence[float],
        target: float = 1.05,
        max_moves: Optional[int] = None,
    ) -> "PartitionMap":
        """Deterministic greedy rebalance: repeatedly move the hottest
        *movable* bucket of the heaviest shard onto the lightest shard,
        until the heaviest shard is within ``target`` of the mean (or
        no move improves things).  Ties break on the lowest shard /
        bucket id, so the plan is identical across processes.  Returns
        ``self`` when no move is made.
        """
        if len(bucket_loads) != self.buckets:
            raise ValueError("bucket_loads must cover all buckets")
        assignment = list(self.assignment)
        loads = self.shard_loads(bucket_loads)
        total = sum(loads)
        if total <= 0:
            return self
        mean = total / self.shards
        counts = [0] * self.shards
        for shard in assignment:
            counts[shard] += 1
        budget = (
            2 * self.buckets if max_moves is None else max(0, max_moves)
        )
        moved = False
        for _ in range(budget):
            heavy = min(
                range(self.shards), key=lambda s: (-loads[s], s)
            )
            light = min(
                range(self.shards), key=lambda s: (loads[s], s)
            )
            if loads[heavy] <= target * mean or heavy == light:
                break
            gap = loads[heavy] - loads[light]
            # Largest bucket whose move strictly shrinks the heavy/light
            # gap; a shard never gives up its last bucket.
            best = -1
            best_load = 0.0
            if counts[heavy] > 1:
                for bucket, shard in enumerate(assignment):
                    if shard != heavy:
                        continue
                    load = bucket_loads[bucket]
                    if 0.0 < load < gap and load > best_load:
                        best = bucket
                        best_load = load
            if best < 0:
                break
            assignment[best] = light
            loads[heavy] -= best_load
            loads[light] += best_load
            counts[heavy] -= 1
            counts[light] += 1
            moved = True
        if not moved:
            return self
        return PartitionMap(
            shards=self.shards,
            buckets=self.buckets,
            assignment=tuple(assignment),
            version=self.version + 1,
        )

    def resized(self, new_shards: int) -> "PartitionMap":
        """Minimal-movement fleet resize.

        Growing moves buckets **only onto the new shards** (donors are
        the shards with the most buckets, which give up their
        highest-index buckets); shrinking moves **only the retired
        shards'** buckets (onto the surviving shards with the fewest
        buckets).  Surviving-to-surviving moves never happen, so a
        single-step resize relocates about ``buckets / new_shards``
        buckets — the property suite pins the exact bound.
        """
        if new_shards < 1:
            raise ValueError("shards must be >= 1")
        if new_shards > self.buckets:
            raise ValueError("buckets must be >= shards")
        if new_shards == self.shards:
            return self
        assignment = list(self.assignment)
        counts = [0] * max(new_shards, self.shards)
        for shard in assignment:
            counts[shard] += 1
        if new_shards > self.shards:
            quota = self.buckets // new_shards
            for shard in range(self.shards, new_shards):
                while counts[shard] < quota:
                    donor = min(
                        range(self.shards),
                        key=lambda s: (-counts[s], s),
                    )
                    if counts[donor] <= quota:
                        break
                    bucket = max(
                        b
                        for b, s in enumerate(assignment)
                        if s == donor
                    )
                    assignment[bucket] = shard
                    counts[donor] -= 1
                    counts[shard] += 1
        else:
            for bucket, shard in enumerate(assignment):
                if shard < new_shards:
                    continue
                target = min(
                    range(new_shards), key=lambda s: (counts[s], s)
                )
                assignment[bucket] = target
                counts[shard] -= 1
                counts[target] += 1
        return PartitionMap(
            shards=new_shards,
            buckets=self.buckets,
            assignment=tuple(assignment),
            version=self.version + 1,
        )


class PlacementController:
    """Epoch-boundary placement decisions under hysteresis + cooldown.

    A control-plane component: the data plane feeds it per-bucket packet
    counts (``observe``), and at each epoch barrier the runtime asks
    it for the next epoch's map (``end_epoch``).  Decisions are pure
    functions of the observed loads and the epoch counter — sim-time,
    never wall-clock — so a run replays identically.

    * **Load accounting** — per-bucket counts accumulate into an
      exponentially decayed window (``decay`` keeps a little history
      so one quiet epoch cannot erase a hot spot) and surface in
      ``repro.obs``: ``<name>.packets`` (counter), ``<name>.imbalance``
      / ``.shards`` / ``.map_version`` (gauges), ``<name>.rebalances``
      / ``.resizes`` / ``.moves`` (counters).
    * **Rebalancing** — when the measured ``max/mean`` exceeds
      ``target_imbalance`` (the hysteresis band: anything under it is
      left alone) and ``cooldown_epochs`` have passed since the last
      change, plan a greedy move of hot buckets to light shards.
    * **Elastic resize** — with ``target_shard_load`` set, size the
      fleet to ``ceil(epoch_load / target_shard_load)`` within
      ``[min_shards, max_shards]``; the resize is minimal-movement and
      followed by a load-aware rebalance in the same decision.

    ``history`` records every applied change for the bench and tests.
    """

    def __init__(
        self,
        shards: int,
        buckets: int = DEFAULT_BUCKETS,
        target_imbalance: float = 1.15,
        rebalance_margin: float = 0.05,
        cooldown_epochs: int = 1,
        decay: float = 0.5,
        target_shard_load: Optional[float] = None,
        min_shards: int = 1,
        max_shards: Optional[int] = None,
        max_moves: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        name: str = "placement",
    ):
        if target_imbalance <= 1.0:
            raise ValueError("target_imbalance must be > 1")
        if not 0.0 <= decay < 1.0:
            raise ValueError("decay must be in [0, 1)")
        if cooldown_epochs < 0:
            raise ValueError("cooldown_epochs must be >= 0")
        if min_shards < 1:
            raise ValueError("min_shards must be >= 1")
        if max_shards is not None and max_shards < min_shards:
            raise ValueError("max_shards must be >= min_shards")
        self.map = PartitionMap(shards=shards, buckets=buckets)
        self.target_imbalance = target_imbalance
        # Plan below the trigger bar so a post-rebalance shard sitting
        # exactly on the threshold does not re-trigger next epoch.
        self.rebalance_margin = rebalance_margin
        self.cooldown_epochs = cooldown_epochs
        self.decay = decay
        self.target_shard_load = target_shard_load
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.max_moves = max_moves
        self.registry = registry if registry is not None else get_registry()
        self.name = name
        self.epoch = 0
        self.rebalances = 0
        self.resizes = 0
        self.moves = 0
        self.history: List[Dict[str, Any]] = []
        self._window: List[float] = [0.0] * buckets
        self._pending: List[float] = [0.0] * buckets
        self._pending_total = 0.0
        self._last_change = -(10 ** 9)
        self._gauges()

    # -- accounting --------------------------------------------------------

    def observe(self, bucket_counts: Sequence[float]) -> None:
        """Account one batch/epoch worth of per-bucket packet counts."""
        if len(bucket_counts) != self.map.buckets:
            raise ValueError("bucket_counts must cover all buckets")
        pending = self._pending
        total = 0.0
        for bucket, count in enumerate(bucket_counts):
            if count:
                pending[bucket] += count
                total += count
        if total:
            self._pending_total += total
            self.registry.counter(self.name + ".packets").inc(int(total))

    @property
    def imbalance(self) -> float:
        """Current ``max/mean`` over the decayed load window."""
        return self.map.imbalance(self._window)

    # -- epoch barrier -----------------------------------------------------

    def end_epoch(self) -> PartitionMap:
        """Close the accounting epoch and return the map for the next
        one (``self.map``; a new object exactly when placement
        changed).  Callers apply the returned map to the *next*
        epoch's partitioning — never retroactively."""
        self.epoch += 1
        decay = self.decay
        window = self._window
        pending = self._pending
        for bucket in range(self.map.buckets):
            window[bucket] = window[bucket] * decay + pending[bucket]
            pending[bucket] = 0.0
        epoch_load = self._pending_total
        self._pending_total = 0.0
        imbalance = self.map.imbalance(window)
        cooled = (
            self.epoch - self._last_change > self.cooldown_epochs
        )
        if cooled:
            resized = self._maybe_resize(epoch_load)
            rebalanced = self._maybe_rebalance(imbalance)
            if resized or rebalanced:
                self._last_change = self.epoch
        self._gauges()
        return self.map

    def _maybe_resize(self, epoch_load: float) -> bool:
        if self.target_shard_load is None or epoch_load <= 0:
            return False
        want = max(
            self.min_shards,
            -(-int(epoch_load) // max(1, int(self.target_shard_load))),
        )
        if self.max_shards is not None:
            want = min(want, self.max_shards)
        want = min(want, self.map.buckets)
        if want == self.map.shards:
            return False
        before = self.map
        self.map = before.resized(want)
        self.resizes += 1
        moved = sum(
            1
            for a, b in zip(before.assignment, self.map.assignment)
            if a != b
        )
        self.moves += moved
        self.registry.counter(self.name + ".resizes").inc()
        self.registry.counter(self.name + ".moves").inc(moved)
        self.history.append(
            {
                "epoch": self.epoch,
                "action": "resize",
                "from_shards": before.shards,
                "to_shards": want,
                "moves": moved,
                "version": self.map.version,
            }
        )
        return True

    def _maybe_rebalance(self, imbalance: float) -> bool:
        if imbalance <= self.target_imbalance:
            # Inside the hysteresis band: leave the map alone.
            return False
        before = self.map
        plan_target = max(
            1.0 + 1e-9, self.target_imbalance - self.rebalance_margin
        )
        self.map = before.rebalanced(
            self._window, target=plan_target, max_moves=self.max_moves
        )
        if self.map is before:
            return False
        self.rebalances += 1
        moved = before.moved_buckets(self.map)
        self.moves += moved
        self.registry.counter(self.name + ".rebalances").inc()
        self.registry.counter(self.name + ".moves").inc(moved)
        self.history.append(
            {
                "epoch": self.epoch,
                "action": "rebalance",
                "imbalance": imbalance,
                "planned": self.map.imbalance(self._window),
                "moves": moved,
                "version": self.map.version,
            }
        )
        return True

    def _gauges(self) -> None:
        self.registry.gauge(self.name + ".shards").set(self.map.shards)
        self.registry.gauge(self.name + ".map_version").set(
            self.map.version
        )
        self.registry.gauge(self.name + ".imbalance").set(
            self.imbalance
        )
