"""HTTP/CDN substrate: the application-layer path's web machinery —
requests/responses, a TTL'd LRU edge cache, the origin server, and a
Snatch-enabled CDN edge with page rules (paper sections 2.3, 3.3)."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "cache": ("CacheStats", "LruTtlCache"),
    "cdn": ("CdnEdge", "EdgeServed"),
    "http": ("HttpRequest", "HttpResponse", "Method", "Status"),
    "origin": ("OriginServer",),
})
