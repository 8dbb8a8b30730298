"""Cross-check: the testbed DES against the analytic model.

The chain-based experiment (`repro.testbed.experiment`) times the
Trans-1RTT + INSA pathway event by event through the real switches; its
median must equal the analytic model's prediction ``d_CI + d_IA +
switch costs`` at every delay percentile.  Both are the same sum of
link delays and two per-packet switch latencies, so the tolerance is
float rounding, not a modelling margin.
"""

import pytest
from conftest import attach, emit_metrics, emit_table

from repro.model.params import percentile_scenario
from repro.obs import scoped_registry
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.experiment import TestbedExperiment


def _compute():
    rows = []
    for percentile in (25, 50, 75):
        config = TestbedConfig(
            scheme=Scheme.TRANS_1RTT,
            insa=True,
            delay_percentile=percentile,
            requests_per_second=20,
            duration_ms=2500,
        )
        chain = TestbedExperiment(config).run().median_latency_ms
        params = percentile_scenario(percentile)
        analytic = params.d_ci + params.d_ia + 2 * 0.101  # two switch hops
        rows.append((percentile, chain, analytic))
    return rows


def test_testbed_crosscheck(benchmark):
    # Meter the whole cross-check in an isolated registry so the
    # benchmark JSON carries the pipeline/switch series of exactly
    # this run.
    with scoped_registry() as registry:
        rows = benchmark.pedantic(_compute, rounds=1, iterations=1)

    emit_table(
        "Cross-check: Trans-1RTT + INSA median latency (ms)",
        ["percentile", "chain DES", "analytic"],
        [
            [p, round(chain, 2), round(analytic, 2)]
            for p, chain, analytic in rows
        ],
    )
    attach(benchmark, medians=[round(r[1], 2) for r in rows])
    emit_metrics(benchmark, registry, "testbed data-plane metrics")
    for _percentile, chain, analytic in rows:
        assert chain == pytest.approx(analytic, rel=1e-9)
