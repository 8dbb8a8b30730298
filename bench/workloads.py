"""The benchmark's workloads as one data table.

Consumed by ``run.py`` (which also renders ``BENCHMARK.json`` from it),
``rep.py`` (which builds the system under test from it) and the README.
Every workload is an ``AdCampaignWorkload(seed=S)`` stream; the columns
that differ are the ones the program's behaviour depends on: working
set against the encode cache, batch shape, forwarding mode, process
tier.  ``events`` is the nominal stream length of one repetition (the
Poisson generator lands within a few hundred of it, the same count for
a seed on every commit), sized for 0.6 to 1.5 seconds on the recorded
host so that eight or more repetitions, each with its own host-speed
samples, fit in one invocation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

APP_ID = 0x5C
PERIOD_MS = 250.0
CACHE_CAPACITY = 4096
# Stamps sim-time only: the pipeline pulls as fast as it can (closed loop).
REQUESTS_PER_SECOND = 20000.0
# lark-sharded: packets handed to one ShardExecutor.run() call.
RUN_PACKETS = 32768
WARMUP_PACKETS = 64


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    events: int
    num_users: int = 2000
    # "pipeline" runs StreamingPipeline end to end; "executor" feeds a
    # pre-encoded packet stream to a persistent lark ShardExecutor.
    kind: str = "pipeline"
    pipeline: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.events * 1000.0 / REQUESTS_PER_SECOND


_COLD = {"mode": "periodical", "backend": "columnar", "batch_size": 1024}
# ad-cold, ad-cold-b32 and ad-cold-persistent run one stream, so their
# reports must be identical; sized so the slowest of them (b32) takes
# about 1.2 s.
COLD_EVENTS = 30_000

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ad-cold",
            why="Flagship single-process path; 32k cookie keys are 8x the "
            "encode cache, so AES encode and lark decode-miss kernels do "
            "the work. Baseline for every pair below.",
            events=COLD_EVENTS,
            pipeline=_COLD,
        ),
        Workload(
            name="ad-hot",
            why="Same code with 200 users: 3.2k keys fit the encode cache "
            "and decode memo, AES is bypassed; an encode optimisation must "
            "move ad-cold and leave this flat.",
            events=150_000,
            num_users=200,
            pipeline=_COLD,
        ),
        Workload(
            name="ad-cold-b32",
            why="ad-cold at batch_size=32: per-batch fixed overhead instead "
            "of per-row cost; a change that buys large-batch speed with "
            "per-call set-up loses here. Report identical to ad-cold.",
            events=COLD_EVENTS,
            pipeline={**_COLD, "batch_size": 32},
        ),
        Workload(
            name="ad-perpacket",
            why="per_packet forwarding: every event emits an encrypted "
            "payload, so lark emission and the agg fold dominate; the only "
            "workload where aggswitch has real work.",
            events=6_000,
            pipeline={**_COLD, "mode": "per_packet"},
        ),
        Workload(
            name="ad-cold-persistent",
            why="ad-cold with the agg stage in a ring-fed worker process: "
            "the process tier's tax (or win) on identical input, in "
            "throughput, CPU and set-up. Report identical to ad-cold.",
            events=COLD_EVENTS,
            pipeline={**_COLD, "backend": "persistent"},
        ),
        Workload(
            name="lark-sharded",
            why="ad-cold's stream pre-encoded, then lark ShardExecutor on "
            "min(2,nproc) ring workers: partition, ring push, worker fold "
            "and barrier/merge sit on the blocking path only here.",
            events=150_000,
            kind="executor",
        ),
    )
}
