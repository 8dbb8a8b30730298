"""Chaos coverage for the post-fast-path data plane.

The original chaos suite predates the columnar entry points and
sharded AggSwitch banks; it only ever exercised the scalar loop on a
single bank.  These tests re-run the crash/loss scenarios with the
fast path and shards engaged and require two things:

* every scenario still self-heals to a consistent, verified report;
* the run **fingerprint** — ground truth, final report, repair and
  lifecycle history — is byte-identical across backends and shard
  counts, because the execution backend is a performance choice, not a
  semantic one.
"""

import os

import pytest

from repro.chaos import ChaosHarness, ChaosScenario, standard_outage

BACKENDS = ("scalar", "columnar")

#: CI sweeps this (same knob as tests/chaos/test_chaos.py).
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))


def _run(seed=CHAOS_SEED, backend="scalar", agg_shards=1, scenario=None):
    harness = ChaosHarness(
        seed=seed, backend=backend, agg_shards=agg_shards
    )
    if scenario is not None:
        harness.apply(scenario)
    return harness.run()


def _outage():
    return ChaosScenario("outage").crash(
        "lark", at_ms=450.0, down_ms=220.0
    )


class TestLarkCrashOnFastPaths:
    def test_kill_and_restart_mid_run_stays_consistent(self):
        """The acceptance case: LarkSwitch killed and restarted
        mid-run while the data plane runs the fast path over sharded
        aggregation banks — the report must still verify."""
        result = _run(backend="columnar", agg_shards=2, scenario=_outage())
        assert result.consistent
        assert result.fallback_events > 0  # the crash actually bit
        kinds = [(e[1], e[2]) for e in result.lifecycle]
        assert ("lark", "crash") in kinds
        assert ("lark", "restart") in kinds
        assert ("lark", "reenroll") in kinds

    def test_fingerprint_identical_across_backends(self):
        reference = _run(scenario=_outage()).fingerprint()
        assert (
            _run(backend="columnar", scenario=_outage()).fingerprint()
            == reference
        )

    def test_fingerprint_identical_across_shard_counts(self):
        reference = _run(scenario=_outage()).fingerprint()
        assert (
            _run(backend="columnar", agg_shards=3,
                 scenario=_outage()).fingerprint()
            == reference
        )


class TestStandardOutageOnFastPaths:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_standard_outage_self_heals(self, backend):
        result = _run(
            backend=backend, agg_shards=2, scenario=standard_outage()
        )
        assert result.consistent
        assert result.fallback_events > 0
        assert result.repairs
        assert all(r[3] for r in result.repairs)

    @pytest.mark.parametrize("seed", [0, 7, 9])
    def test_deterministic_per_seed_on_columnar_shards(self, seed):
        first = _run(
            seed=seed, backend="columnar", agg_shards=2,
            scenario=standard_outage(),
        )
        second = _run(
            seed=seed, backend="columnar", agg_shards=2,
            scenario=standard_outage(),
        )
        assert first.fingerprint() == second.fingerprint()


class TestReportLossOnFastPaths:
    def test_heavy_loss_repaired_on_columnar_sharded(self):
        result = _run(
            seed=1, backend="columnar", agg_shards=2,
            scenario=ChaosScenario("lossy").link_faults(
                "lark", "agg", drop=0.5
            ),
        )
        assert result.reports_lost > 0
        assert result.repairs
        assert result.consistent


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            ChaosHarness(backend="gpu")
