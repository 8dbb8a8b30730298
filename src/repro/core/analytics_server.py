"""The analytics server — the terminus of the streaming cycle.

Two ingestion modes, matching the evaluation:

* **INSA**: the AggSwitch has already computed the aggregate; the
  server just records the delivered report (sub-millisecond).
* **No INSA**: early-forwarded semantic records arrive over persistent
  connections (paper footnote 2) and flow into the Spark-like
  micro-batch engine, which recomputes the same grouped counts — so
  both paths produce *identical* results, only at different latencies.

The no-INSA pipeline is built from the real engine primitives:
``filter`` by event type, ``map`` to ((group, class), 1), and
``reduceByKey`` — exactly the L1-L4 operator chain of Figure 1(a).
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List

from repro.core.schema import CookieSchema
from repro.core.stats import StatKind, StatSpec
from repro.streaming.context import StreamingContext

__all__ = ["AnalyticsServer"]


class AnalyticsServer:
    """Consumes semantic data and produces the application's report."""

    def __init__(
        self,
        schema: CookieSchema,
        specs: List[StatSpec],
        batch_interval_ms: float = 150.0,
    ):
        for spec in specs:
            if spec.kind is not StatKind.COUNT_BY_CLASS:
                raise ValueError(
                    "the streaming pipeline currently recomputes "
                    "count-by-class statistics; got %s" % spec.kind
                )
        self.schema = schema
        self.specs = list(specs)
        self.ssc = StreamingContext(batch_interval_ms=batch_interval_ms)
        self._input = self.ssc.input_stream(num_partitions=4)
        self._batch_results: Dict[str, Dict[Any, int]] = defaultdict(dict)
        self._build_pipeline()
        self.insa_reports_received = 0
        self._insa_report: Dict[str, Dict[Any, Any]] = {}

    # -- the L1-L4 operator chain ------------------------------------------

    def _build_pipeline(self) -> None:
        for spec in self.specs:
            feature = spec.feature
            group_by = spec.group_by

            def keyer(record, feature=feature, group_by=group_by):
                value = record[feature]
                if group_by is None:
                    return (value, 1)
                return ((record[group_by], value), 1)

            def has_fields(record, feature=feature, group_by=group_by):
                if feature not in record:
                    return False
                return group_by is None or group_by in record

            counts = (
                self._input
                .filter(has_fields)       # L1: filter by event fields
                .map(keyer)               # L2/L3: key by (group, class)
                .reduceByKey(lambda a, b: a + b)  # L4: count
            )

            def sink(rdd, _index, name=spec.name):
                for key, count in rdd.collect():
                    self._batch_results[name][key] = (
                        self._batch_results[name].get(key, 0) + count
                    )

            counts.foreachRDD(sink)

    # -- ingestion -------------------------------------------------------------

    def submit_record(self, values: Dict[str, Any], time_ms: float) -> None:
        """Early-forwarded semantic data (no INSA) enters the engine;
        its arrival time picks the batch."""
        self._input.push(dict(values), time_ms)

    def run_pending_batches(self, until_ms: float) -> int:
        """Run every batch due by ``until_ms``."""
        before = self.ssc.batches_run
        self.ssc.run_until(until_ms)
        return self.ssc.batches_run - before

    def receive_insa_report(self, report: Dict[str, Dict[Any, Any]]) -> None:
        """An AggSwitch delivered the finished aggregate."""
        self.insa_reports_received += 1
        self._insa_report = report

    # -- results ----------------------------------------------------------------

    def report(self) -> Dict[str, Dict[Any, Any]]:
        """The unified result: INSA report when present, else the
        engine's accumulated counts."""
        if self._insa_report:
            return self._insa_report
        return {
            spec.name: dict(self._batch_results.get(spec.name, {}))
            for spec in self.specs
        }

    def result_latency_ms(self, arrival_ms: float,
                          processing_ms: float = 115.0) -> float:
        """When a record arriving at ``arrival_ms`` is reflected in a
        result (batch boundary + processing)."""
        boundary = self.ssc.batch_time_ms(
            self.ssc.batch_index_for(arrival_ms)
        )
        return boundary + processing_ms
