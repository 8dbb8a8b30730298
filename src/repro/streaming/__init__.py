"""Streaming-analytics substrate: a Spark-Streaming-like micro-batch
engine (RDDs + the full Table-1 DStream surface) plus a Kafka-like
message queue for ingestion.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "context": ("BatchInfo", "DEFAULT_BATCH_INTERVAL_MS", "StreamingContext"),
    "dstream": ("DStream",),
    "queue": ("Consumer", "Message", "MessageBroker", "Topic"),
    "rdd": ("RDD",),
})
