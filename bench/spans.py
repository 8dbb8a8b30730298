"""In-memory wall-clock spans recorded from outside the program.

The traced repetition times each layer through proxies that ``rep.py``
sets on the public layer-entry methods (instance attributes where the
object is reachable, class attributes for ``ShardWorker``, one module
attribute for ``partition_columns``).  Nothing under ``src/`` knows it
is being traced; spans inside the program are a later change.

A span is ``[name, start_ns, end_ns, parent]`` where ``parent`` is the
index of the enclosing span (-1 for a root) and ``name`` is
``<layer>.<operation>``.  Spans are appended in start order.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional

ROOTS = ("pipeline.run", "executor.run")


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        # One [occupied_slots, was_full, rows] sample per ring push,
        # read through the public len(ring) / ring.full before the push.
        self.pushes: List[list] = []
        # Spans / pushes before these indexes belong to set-up.
        self.span_mark = 0
        self.push_mark = 0

    def mark_ready(self) -> None:
        self.span_mark = len(self.spans)
        self.push_mark = len(self.pushes)

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns

        def proxy(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args, **kwargs)
            span = [name, 0, 0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()

        return proxy

    def wrap_attr(self, name: str, owner: Any, attr: str, **kw: Any) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def sample_ring(self, worker: Any, rows: Any, *_a: Any, **_k: Any) -> None:
        ring = worker.ring
        self.pushes.append([len(ring), bool(ring.full), len(rows)])


def install_worker_proxies(tracer: Tracer) -> None:
    """Class-level: workers are constructed inside the pipeline /
    executor, so the handle class is the only reachable seam.  Spawned
    worker processes re-import the unpatched class."""
    import repro.testbed.executor as executor_module
    from repro.testbed.worker import ShardWorker

    tracer.wrap_attr("worker.spawn", ShardWorker, "__init__")
    tracer.wrap_attr(
        "worker.push", ShardWorker, "push_batch", before=tracer.sample_ring
    )
    tracer.wrap_attr("worker.drain", ShardWorker, "drain")
    tracer.wrap_attr(
        "executor.partition", executor_module, "partition_columns"
    )


def install_pipeline_proxies(tracer: Tracer, pipeline: Any) -> None:
    workload = pipeline.workload
    make_stream = workload.stream

    def stream(*args: Any, **kwargs: Any) -> Any:
        made = make_stream(*args, **kwargs)
        tracer.wrap_attr("workloads.generate", made, "generate_batch")
        return made

    workload.stream = stream
    tracer.wrap_attr("workloads.reference", workload, "accumulate_reference")
    tracer.wrap_attr("workloads.cookie_keys", workload, "cookie_keys")
    tracer.wrap_attr("cookie_cache.encode", pipeline.cache, "encode_columns")
    tracer.wrap_attr(
        "larkswitch.process", pipeline.lark, "process_quic_columnar"
    )
    tracer.wrap_attr("larkswitch.end_period", pipeline.lark, "end_period")
    tracer.wrap_attr("aggswitch.process", pipeline.agg, "process_columnar")
    tracer.wrap_attr("aggswitch.report", pipeline.agg, "report")
    tracer.wrap_attr("aggswitch.merge", pipeline.agg, "merge")
    tracer.wrap_attr("pipeline.run", pipeline, "run")
