"""No import may move into a timed region.

Lazy package exports (``repro._lazy``) defer an import to the first use
of a name; if that first use sat inside ``run()``, set-up cost would
have moved into the throughput figure instead of going away.  Each
shape below runs in a fresh interpreter and reports which modules
``run()`` added to ``sys.modules`` — the answer must be none.
"""

import json
import textwrap

import pytest

from repro.testbed.shm_ring import shared_memory_available
from tests.fresh import fresh_interpreter

needs_shm = pytest.mark.skipif(
    not shared_memory_available(), reason="needs POSIX shared memory"
)

_PIPELINE = textwrap.dedent(
    """
    import json
    import sys

    from repro.testbed.pipeline import StreamingPipeline
    from repro.workloads.adcampaign import AdCampaignWorkload

    if __name__ == "__main__":
        workload = AdCampaignWorkload(num_users=300, seed=5)
        with StreamingPipeline(
            workload, app_id=0x5C, seed=5, period_ms=250.0,
            cache_capacity=256, **json.loads(sys.argv[1])
        ) as pipeline:
            before = set(sys.modules)
            result = pipeline.run(4000.0, 1000.0)
            imported = sorted(set(sys.modules) - before)
        print(json.dumps({
            "imported": imported,
            "events": result.events,
            "verified": result.counts_match_reference(),
        }))
    """
)

_EXECUTOR = textwrap.dedent(
    """
    import json
    import sys

    from repro.switch.columns import PacketColumns
    from repro.testbed.executor import ShardExecutor, ShardSpec
    from repro.testbed.placement import PartitionMap
    from tests.differential.workloads import APP_ID, DifferentialWorkload

    if __name__ == "__main__":
        wl = DifferentialWorkload(seed=11)
        spec = ShardSpec(
            kind="lark", app_id=APP_ID, schema=wl.schema, key=wl.key,
            specs=tuple(wl.specs), seed=7,
        )
        packets = [bytes(c) for c in wl.cids("uniform", 2000)]
        with ShardExecutor(
            spec, shards=2, backend="columnar", persistent=True,
            placement=PartitionMap(2),
        ) as executor:
            # The first run brings the fleet up; it is every caller's
            # warm-up, not its timed region.
            warm = executor.run(PacketColumns(packets[:64]))
            before = set(sys.modules)
            result = executor.run(PacketColumns(packets))
            imported = sorted(set(sys.modules) - before)
        print(json.dumps({
            "imported": imported,
            "events": result.total_packets,
            "verified": warm.used_workers and result.used_workers,
        }))
    """
)


@pytest.mark.parametrize(
    "shape",
    [
        pytest.param(
            {"mode": "periodical", "backend": "columnar", "batch_size": 1024},
            id="periodical-b1024",
        ),
        pytest.param(
            {"mode": "periodical", "backend": "columnar", "batch_size": 32},
            id="periodical-b32",
        ),
        pytest.param(
            {"mode": "per_packet", "backend": "columnar", "batch_size": 1024},
            id="per-packet",
        ),
        pytest.param(
            {"mode": "periodical", "backend": "persistent",
             "batch_size": 1024},
            id="persistent",
            marks=needs_shm,
        ),
    ],
)
def test_pipeline_run_imports_nothing(shape):
    out = fresh_interpreter(_PIPELINE, json.dumps(shape))
    assert out["events"] > 3000 and out["verified"]
    assert out["imported"] == []


@needs_shm
def test_warmed_executor_run_imports_nothing():
    out = fresh_interpreter(_EXECUTOR)
    assert out["events"] == 2000 and out["verified"]
    assert out["imported"] == []
