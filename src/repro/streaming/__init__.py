"""Streaming-analytics substrate: the Spark-Streaming-like micro-batch
engine behind the no-INSA baseline.  It runs the operators the YSB
query and the micro benches use; Table 1's other DStream methods
are classified (:mod:`repro.core.insa`), not executed.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "context": ("BatchInfo", "DEFAULT_BATCH_INTERVAL_MS", "StreamingContext"),
    "dstream": ("DStream",),
    "rdd": ("RDD",),
})
