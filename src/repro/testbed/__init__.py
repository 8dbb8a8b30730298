"""Testbed harness: the simulated equivalent of the paper's 6-machine
plus Tofino testbed, driving real Snatch components end to end."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "config": ("Scheme", "TestbedConfig"),
    "experiment": ("RequestRecord", "TestbedExperiment", "TestbedResult"),
    "network_testbed": ("NetworkRunResult", "NetworkTestbed"),
    "pipeline": ("PipelineResult", "ReorderInjector", "StreamingPipeline"),
    "spark_model": ("SparkLatencyModel",),
    "supervisor": ("ShardSupervisor", "SupervisedRunResult"),
})
