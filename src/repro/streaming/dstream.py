"""Discretized streams (DStreams): the operators the pipelines run.

A DStream is a sequence of RDDs, one per batch interval.  The paper's
Appendix C classifies every PySpark ``DStream`` method by whether
Snatch's in-network streaming analytics can execute it; Table 1 is
that classification (:mod:`repro.core.insa`), not an execution.  This
engine keeps the operators the Spark baseline's pipelines use — the
YSB query and the micro benches —
under Spark's (Pythonic camelCase) names, each of them a Table 1 row.

Each DStream node computes its batch-``i`` RDD from its parent's
batch-``i`` (or windowed past) RDDs; results are cached per batch so
windowed re-reads are cheap, and the context evicts every batch older
than the widest registered window.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.streaming.rdd import RDD

__all__ = ["DStream"]


def _num_batches(duration_ms: float, interval_ms: float) -> int:
    if duration_ms <= 0:
        raise ValueError("duration must be positive")
    batches = int(round(duration_ms / interval_ms))
    if batches == 0 or abs(batches * interval_ms - duration_ms) > 1e-9:
        raise ValueError(
            "duration %.3f ms is not a multiple of the batch interval %.3f ms"
            % (duration_ms, interval_ms)
        )
    return batches


class DStream:
    """Base DStream: caches per-batch RDDs computed from its parent."""

    def __init__(self, ssc):
        self._ssc = ssc
        self._cache: Dict[int, RDD] = {}
        ssc._register_stream(self)

    # -- engine plumbing ---------------------------------------------------

    def _compute(self, batch_index: int) -> RDD:
        raise NotImplementedError

    def rdd_for_batch(self, batch_index: int) -> RDD:
        if batch_index < 0:
            return RDD.empty()
        if batch_index not in self._cache:
            self._cache[batch_index] = self._compute(batch_index)
        return self._cache[batch_index]

    # -- operators (Table 1 rows) ----------------------------------------------

    def map(self, fn: Callable[[Any], Any]) -> "DStream":
        return TransformedDStream(self, lambda rdd: rdd.map(fn))

    def filter(self, fn: Callable[[Any], bool]) -> "DStream":
        return TransformedDStream(self, lambda rdd: rdd.filter(fn))

    def transform(self, fn: Callable[[RDD], RDD]) -> "DStream":
        """Apply ``fn(rdd) -> RDD`` to every batch."""
        return TransformedDStream(self, fn)

    def reduceByKey(self, fn: Callable[[Any, Any], Any]) -> "DStream":
        return TransformedDStream(self, lambda rdd: rdd.reduce_by_key(fn))

    def window(
        self, windowDuration_ms: float, slideDuration_ms: Optional[float] = None
    ) -> "DStream":
        return WindowedDStream(self, windowDuration_ms, slideDuration_ms)

    def reduceByKeyAndWindow(
        self,
        reduce_fn: Callable[[Any, Any], Any],
        windowDuration_ms: float,
        slideDuration_ms: Optional[float] = None,
    ) -> "DStream":
        """Spark's form without its inverse function: the window is
        recomputed, which gives the same result."""
        return self.window(windowDuration_ms, slideDuration_ms).reduceByKey(
            reduce_fn
        )

    def foreachRDD(self, fn: Callable[[RDD, int], None]) -> None:
        """Register an output operation; ``fn(rdd, batch_index)``."""
        self._ssc._register_output(self, fn)


class InputDStream(DStream):
    """The ingestion point: records pushed with timestamps are binned
    into batches by arrival time."""

    def __init__(self, ssc, num_partitions: int = 1):
        super().__init__(ssc)
        self._num_partitions = num_partitions
        self._pending: Dict[int, list] = {}

    def push(self, record: Any, time_ms: float) -> int:
        """Add a record arriving at ``time_ms``; returns the batch index
        that will contain it."""
        if time_ms < 0:
            raise ValueError("time must be non-negative")
        batch_index = int(time_ms // self._ssc.batch_interval_ms)
        self._pending.setdefault(batch_index, []).append(record)
        return batch_index

    def push_all(self, records, time_ms: float) -> None:
        for record in records:
            self.push(record, time_ms)

    def _compute(self, batch_index: int) -> RDD:
        records = self._pending.pop(batch_index, [])
        return RDD.of(records, self._num_partitions)


class TransformedDStream(DStream):
    """Unary transformation of a parent's per-batch RDD."""

    def __init__(self, parent: DStream, fn: Callable[[RDD], RDD]):
        super().__init__(parent._ssc)
        self._parent = parent
        self._fn = fn

    def _compute(self, batch_index: int) -> RDD:
        return self._fn(self._parent.rdd_for_batch(batch_index))


class WindowedDStream(DStream):
    """Union of the parent's RDDs over the trailing window.

    Emits only on slide boundaries; other batches yield empty RDDs,
    matching Spark's slide semantics.
    """

    def __init__(
        self,
        parent: DStream,
        window_ms: float,
        slide_ms: Optional[float] = None,
    ):
        ssc = parent._ssc
        interval = ssc.batch_interval_ms
        self.window_batches = _num_batches(window_ms, interval)
        self.slide_batches = (
            _num_batches(slide_ms, interval) if slide_ms is not None else 1
        )
        super().__init__(ssc)
        self._parent = parent

    def _compute(self, batch_index: int) -> RDD:
        if (batch_index + 1) % self.slide_batches != 0:
            return RDD.empty()
        rdd = RDD.empty()
        start = max(0, batch_index - self.window_batches + 1)
        for idx in range(start, batch_index + 1):
            rdd = rdd.union(self._parent.rdd_for_batch(idx))
        return rdd
