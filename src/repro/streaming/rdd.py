"""Resilient Distributed Datasets (RDDs) — the batch layer under DStreams.

Spark Streaming's micro-batch model turns every batch interval of
streaming data into one RDD and runs batch operators on it (paper
section 2.1).  This is a single-process RDD with the operators the
kept DStreams and the YSB join delegate to: partitioned, eager,
deterministic.  Partitions are modelled explicitly as a list of lists.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Tuple

__all__ = ["RDD"]


class RDD:
    """An immutable, partitioned collection of records."""

    def __init__(self, partitions: Iterable[Iterable[Any]]):
        self._partitions: List[List[Any]] = [list(p) for p in partitions]
        if not self._partitions:
            self._partitions = [[]]

    # -- constructors -----------------------------------------------------

    @classmethod
    def of(cls, records: Iterable[Any], num_partitions: int = 1) -> "RDD":
        """Distribute ``records`` round-robin over ``num_partitions``."""
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        parts: List[List[Any]] = [[] for _ in range(num_partitions)]
        for i, record in enumerate(records):
            parts[i % num_partitions].append(record)
        return cls(parts)

    @classmethod
    def empty(cls, num_partitions: int = 1) -> "RDD":
        return cls([[] for _ in range(max(1, num_partitions))])

    # -- introspection -----------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def collect(self) -> List[Any]:
        return list(itertools.chain.from_iterable(self._partitions))

    def count(self) -> int:
        return sum(len(p) for p in self._partitions)

    # -- transformations -----------------------------------------------------

    def map(self, fn: Callable[[Any], Any]) -> "RDD":
        return RDD([[fn(x) for x in p] for p in self._partitions])

    def filter(self, predicate: Callable[[Any], bool]) -> "RDD":
        return RDD([[x for x in p if predicate(x)] for p in self._partitions])

    def reduce_by_key(self, fn: Callable[[Any, Any], Any]) -> "RDD":
        acc: Dict[Any, Any] = {}
        for key, value in self.collect():
            acc[key] = fn(acc[key], value) if key in acc else value
        items = sorted(acc.items(), key=lambda kv: repr(kv[0]))
        return self._partition_pairs(items)

    def join(self, other: "RDD") -> "RDD":
        """Inner join on key: ``(k, (left, right))`` per matching pair."""
        right: Dict[Any, List[Any]] = {}
        for key, value in other.collect():
            right.setdefault(key, []).append(value)
        left: Dict[Any, List[Any]] = {}
        for key, value in self.collect():
            if key in right:
                left.setdefault(key, []).append(value)
        out = [
            (key, (lv, rv))
            for key in sorted(left, key=repr)
            for lv in left[key]
            for rv in right[key]
        ]
        return self._partition_pairs(out)

    def union(self, other: "RDD") -> "RDD":
        return RDD(self._partitions + other._partitions)

    def _partition_pairs(self, items: List[Tuple[Any, Any]]) -> "RDD":
        """Hash-partition (key, value) pairs over this RDD's partition
        count, Spark's default partitioner."""
        parts: List[List[Any]] = [[] for _ in self._partitions]
        for key, value in items:
            parts[hash(key) % len(parts)].append((key, value))
        return RDD(parts)

    def __repr__(self) -> str:
        return "RDD(%d partitions, %d records)" % (
            self.num_partitions,
            self.count(),
        )
