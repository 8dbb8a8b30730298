"""StreamingContext: the micro-batch scheduler.

Spark Streaming aggregates the stream over a fixed interval and runs
batch analytics on each interval's data (paper section 2.1).  The
paper's testbed sets the interval to 150 ms; its analytical model uses
Spark's 1 s default, for an average in-batch wait of interval/2.

The context here is deterministic and clock-free: callers push
timestamped records into input streams and then drive batches with
:meth:`run_batch` / :meth:`run_until`.  Each batch materializes every
registered stream, fires output operations, and then evicts every
cached batch older than the widest registered window — nothing reads
it again, so each stream holds at most that many batches.  A
configurable ``processing_time_ms`` (constant or callable on the
batch's record count) models the analytics computation cost that each
:class:`BatchInfo` records.
"""

from __future__ import annotations

from typing import Any, Callable, List, Tuple

from repro.streaming.dstream import DStream, InputDStream, WindowedDStream
from repro.streaming.rdd import RDD

__all__ = ["StreamingContext", "BatchInfo"]

DEFAULT_BATCH_INTERVAL_MS = 1000.0  # Spark's default interval [25].


class BatchInfo:
    """Bookkeeping for one completed micro-batch."""

    def __init__(self, index: int, start_ms: float, end_ms: float,
                 processing_ms: float, num_records: int):
        self.index = index
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.processing_ms = processing_ms
        self.num_records = num_records

    def __repr__(self) -> str:
        return "BatchInfo(#%d, [%.0f, %.0f) ms, %d records, +%.1f ms)" % (
            self.index, self.start_ms, self.end_ms, self.num_records,
            self.processing_ms,
        )


class StreamingContext:
    """Drives DStream computation batch by batch."""

    def __init__(
        self,
        batch_interval_ms: float = DEFAULT_BATCH_INTERVAL_MS,
        processing_time_ms: Any = 0.0,
    ):
        if batch_interval_ms <= 0:
            raise ValueError("batch interval must be positive")
        self.batch_interval_ms = float(batch_interval_ms)
        self.processing_time_ms = processing_time_ms
        self.batches_run = 0
        self.batch_history: List[BatchInfo] = []
        self._streams: List[DStream] = []
        self._outputs: List[Tuple[DStream, Callable[[RDD, int], None]]] = []
        self._input_streams: List[InputDStream] = []
        # Batches the widest window reads back (1 with no window).
        self._widest_window = 1

    # -- graph registration ------------------------------------------------

    def _register_stream(self, stream: DStream) -> None:
        self._streams.append(stream)
        if isinstance(stream, InputDStream):
            self._input_streams.append(stream)
        elif isinstance(stream, WindowedDStream):
            self._widest_window = max(
                self._widest_window, stream.window_batches
            )

    def _register_output(
        self, stream: DStream, fn: Callable[[RDD, int], None]
    ) -> None:
        self._outputs.append((stream, fn))

    def input_stream(self, num_partitions: int = 1) -> InputDStream:
        """Create an ingestion stream (like ``queueStream``)."""
        return InputDStream(self, num_partitions)

    # -- time arithmetic ------------------------------------------------------

    def batch_time_ms(self, batch_index: int) -> float:
        """End time of batch ``batch_index`` (results computed then)."""
        return (batch_index + 1) * self.batch_interval_ms

    # -- execution ----------------------------------------------------------------

    def _processing_cost(self, num_records: int) -> float:
        if callable(self.processing_time_ms):
            return float(self.processing_time_ms(num_records))
        return float(self.processing_time_ms)

    def run_batch(self) -> BatchInfo:
        """Materialize every stream for the next batch, fire outputs and
        evict the batch that just left the widest window."""
        index = self.batches_run
        num_records = 0
        for stream in self._input_streams:
            num_records += stream.rdd_for_batch(index).count()
        for stream in self._streams:
            stream.rdd_for_batch(index)
        for stream, fn in self._outputs:
            fn(stream.rdd_for_batch(index), index)
        for stream in self._streams:
            stream._cache.pop(index - self._widest_window, None)
        self.batches_run += 1
        info = BatchInfo(
            index=index,
            start_ms=index * self.batch_interval_ms,
            end_ms=self.batch_time_ms(index),
            processing_ms=self._processing_cost(num_records),
            num_records=num_records,
        )
        self.batch_history.append(info)
        return info

    def run_until(self, time_ms: float) -> List[BatchInfo]:
        """Run every batch whose interval ends at or before ``time_ms``."""
        out = []
        while self.batch_time_ms(self.batches_run) <= time_ms:
            out.append(self.run_batch())
        return out
