"""The shard count a :class:`~repro.testbed.executor.ShardExecutor`
splits a stream over.

The split is one fixed rule, ``crc32(key) % shards``
(:func:`repro.testbed.executor.partition_columns`), so the only value
placement carries is the shard count.  Every per-shard fold is
associative and commutative, which makes the merged report independent
of which shard folded which packet.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PartitionMap"]


@dataclass(frozen=True)
class PartitionMap:
    """A validated shard count: what ``ShardExecutor(placement=)``
    accepts."""

    shards: int

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
