"""Columnar backend throughput on a 100k-packet run.

Drives one seeded connection-ID stream through both execution
backends — the scalar per-packet data plane and the columnar fast path
— with interleaved best-of-N timing, then records the comparison into
``BENCH_columnar.json`` at the repo root (the same flat layout
``python -m repro.cli bench --compare`` writes).  ``tests/differential``
proves the backends bit-identical; this benchmark proves the columnar
path is worth having:

* lark periodical: columnar >= 10x scalar;
* agg merge: columnar >= 1.0x scalar (a fast path regressed below
  scalar once — this pins the fix).

Run directly: ``PYTHONPATH=src python -m pytest benchmarks/test_columnar.py -s``
"""

import os

from conftest import attach, emit_table
from repro.core.aggregation import ForwardingMode
from repro.switch.columns import numpy_enabled
from repro.testbed.fastpath import (
    BACKENDS,
    run_backend_bench,
    write_backend_bench,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_JSON_PATH = os.path.join(_REPO_ROOT, "BENCH_columnar.json")

PACKETS = 100_000
USERS = 2000
BATCH_SIZE = 1024
REPEATS = 3


def test_columnar_backends(benchmark):
    """Headline: periodical lark columnar >= 10x scalar, agg >= 1x."""
    result = benchmark.pedantic(
        run_backend_bench,
        kwargs=dict(
            packets=PACKETS,
            num_users=USERS,
            mode=ForwardingMode.PERIODICAL,
            batch_size=BATCH_SIZE,
            repeats=REPEATS,
        ),
        rounds=1,
        iterations=1,
    )

    rows = []
    for section in ("lark", "agg"):
        data = result[section]
        rows.append(
            [section]
            + ["%.0f" % data[b]["packets_per_second"] for b in BACKENDS]
            + ["%.2fx" % data["speedup"],
               "yes" if data["reports_match"] else "NO"]
        )
    emit_table(
        "Execution backends: scalar vs columnar",
        ["path", "scalar pkts/s", "columnar pkts/s", "col/scalar", "match"],
        rows,
    )

    write_backend_bench(result, _JSON_PATH)
    attach(
        benchmark,
        lark_columnar_vs_scalar=result["lark"]["speedup"],
        agg_columnar_vs_scalar=result["agg"]["speedup"],
        json_path=_JSON_PATH,
    )

    assert result["lark"]["reports_match"]
    assert result["agg"]["reports_match"]
    if not numpy_enabled():
        # Without numpy the kernels run their Python forms; identity
        # still holds but the bars below are numpy-path-only.
        return
    # Acceptance bars: the columnar lark path recorded 26.8x scalar on
    # the periodical workload (10x asserted, CI runners are noisy), and
    # the agg fast path may not regress below scalar.
    assert result["lark"]["speedup"] >= 10.0, (
        "expected lark columnar >= 10x scalar, measured %.2fx"
        % result["lark"]["speedup"]
    )
    assert result["agg"]["speedup"] >= 1.0, (
        "agg columnar path slower than scalar: %.2fx"
        % result["agg"]["speedup"]
    )
