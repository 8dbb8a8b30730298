"""Inputs and ground truth, made from the seed alone.

``prepare`` replays the workload's seeded event stream once per
benchmark invocation, outside every measured region, and tallies the
expected report with its own few lines of counting — never with the
pipeline's reference accumulator, which is part of the program under
test.  Every repetition is then checked against the same expected event
count and report digest, which is also what makes ``ad-cold``,
``ad-cold-b32`` and ``ad-cold-persistent`` provably identical: they
share a stream, hence a digest.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import Counter
from typing import Any, Dict, Optional

from workloads import (
    APP_ID,
    CACHE_CAPACITY,
    REQUESTS_PER_SECOND,
    Workload,
)


def cookie_key(seed: int) -> bytes:
    """The AES key of the lark-sharded stream (prep encodes with it,
    the shard replicas decode with it)."""
    rng = random.Random(seed + 9)
    return bytes(rng.getrandbits(8) for _ in range(16))


def report_digest(report: Dict[str, Dict[Any, int]]) -> str:
    """sha256 of the canonical report: per statistic, the non-zero
    (group, class) counts in sorted order."""
    canonical = {
        stat: sorted(
            [list(key), count] for key, count in cells.items() if count
        )
        for stat, cells in report.items()
    }
    return hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()
    ).hexdigest()


def prepare(
    spec: Workload, seed: int, packets_path: Optional[str]
) -> Dict[str, Any]:
    """Expected event count and report digest for ``(spec, seed)``.

    For the executor workload the stream is also pre-encoded to wire
    cookies and saved to ``packets_path`` as one ``(n, 20)`` uint8
    matrix for the repetitions to load.
    """
    from repro.workloads.adcampaign import AdCampaignWorkload

    started = time.perf_counter()
    workload = AdCampaignWorkload(num_users=spec.num_users, seed=seed)
    stream = workload.stream(REQUESTS_PER_SECOND, spec.duration_ms)
    encode = None
    matrices = []
    if packets_path is not None:
        from repro.core.cookie_cache import CookieEncodeCache
        from repro.core.transport_cookie import TransportCookieCodec

        codec = TransportCookieCodec(
            APP_ID, workload.schema(), cookie_key(seed), random.Random(3)
        )
        encode = CookieEncodeCache(
            codec, capacity=CACHE_CAPACITY
        ).encode_columns
    pairs: Counter = Counter()
    while True:
        columns = stream.generate_batch(8192)
        if not len(columns):
            break
        pairs.update(zip(columns.column("user"), columns.column("campaign")))
        if encode is not None:
            matrices.append(
                encode(
                    workload.cookie_keys(columns),
                    lambda i, _c=columns: workload.cookie_values_at(_c, i),
                ).data
            )
    stats = workload.specs()
    expected: Dict[str, Counter] = {stat.name: Counter() for stat in stats}
    for (user_index, campaign_index), count in pairs.items():
        user = workload.users[user_index]
        campaign = workload.campaigns[campaign_index]
        for stat in stats:
            expected[stat.name][
                (campaign, getattr(user, stat.feature))
            ] += count
    if packets_path is not None:
        import numpy

        os.makedirs(os.path.dirname(packets_path), exist_ok=True)
        numpy.save(packets_path, numpy.concatenate(matrices))
    return {
        "events": sum(pairs.values()),
        "digest": report_digest(expected),
        "prep_s": time.perf_counter() - started,
    }
