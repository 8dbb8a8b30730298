"""Public API surface: every documented name imports and the package
quickstart from the README actually runs."""

import importlib

import pytest

import repro

SUBPACKAGES = (
    "repro.crypto",
    "repro.quic",
    "repro.switch",
    "repro.net",
    "repro.obs",
    "repro.chaos",
    "repro.streaming",
    "repro.measurement",
    "repro.model",
    "repro.core",
    "repro.workloads",
    "repro.testbed",
    "repro.cli",
)


class TestImports:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_subpackage_imports(self, module_name):
        module = importlib.import_module(module_name)
        assert module is not None

    @pytest.mark.parametrize("module_name", SUBPACKAGES[:-1])
    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), "%s.%s" % (module_name, name)

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert hasattr(repro, name)
        assert repro.__version__ == "1.0.0"


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        from repro.testbed import Scheme, TestbedConfig, TestbedExperiment

        baseline = TestbedExperiment(
            TestbedConfig(scheme=Scheme.BASELINE, duration_ms=2000)
        ).run()
        snatch = TestbedExperiment(
            TestbedConfig(
                scheme=Scheme.TRANS_1RTT, insa=True, duration_ms=2000
            )
        ).run()
        assert 450 < baseline.median_latency_ms < 560
        assert 55 < snatch.median_latency_ms < 67
        assert snatch.counts_match_reference()
