"""Latency model of the analytics cluster (Spark Streaming).

The testbed's analytics server is a 3-node Spark Streaming cluster
with a 150 ms interval; results for a record become available at the
end of the batch containing it plus the batch's processing time.
Batches run sequentially on the cluster, so sustained processing
longer than the interval backs the scheduler up — the model accounts
for that, although the paper's configuration ("the interval minimizes
the time cost") keeps processing within the interval.

The model is timing only: it takes arrival times, never records, and
computes no aggregate.  The testbed's report comes from the AggSwitch
(the baseline scheme reports none); this model only decides when a
no-INSA result appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = ["SparkLatencyModel"]


class SparkLatencyModel:
    """Batch-boundary latency accounting for the analytics cluster."""

    def __init__(
        self,
        interval_ms: float = 150.0,
        batch_processing_ms: float = 115.0,
    ):
        if interval_ms <= 0:
            raise ValueError("interval must be positive")
        if batch_processing_ms < 0:
            raise ValueError("processing time must be non-negative")
        self.interval_ms = interval_ms
        self.batch_processing_ms = batch_processing_ms
        self.records_submitted = 0
        # Sequential-batch backlog: when processing exceeds the
        # interval, later batches start late.
        self._busy_until_ms = 0.0
        self._last_boundary_ms = -1.0

    def batch_boundary_after(self, arrival_ms: float) -> float:
        """End of the batch interval that contains ``arrival_ms``."""
        if arrival_ms < 0:
            raise ValueError("arrival must be non-negative")
        return (math.floor(arrival_ms / self.interval_ms) + 1) * self.interval_ms

    def result_time_ms(self, arrival_ms: float) -> float:
        """When the batch result containing this record is available."""
        self.records_submitted += 1
        boundary = self.batch_boundary_after(arrival_ms)
        if boundary > self._last_boundary_ms:
            # A new batch: it starts when the cluster frees up.
            start = max(boundary, self._busy_until_ms)
            self._busy_until_ms = start + self.batch_processing_ms
            self._last_boundary_ms = boundary
        return self._busy_until_ms

    @property
    def mean_latency_ms(self) -> float:
        """Expected analytics latency for uniform arrivals: half the
        interval of waiting plus the batch processing time."""
        return self.interval_ms / 2.0 + self.batch_processing_ms
