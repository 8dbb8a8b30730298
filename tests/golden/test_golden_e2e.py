"""Golden end-to-end conformance: the full pipeline, byte-compared.

One pinned scenario — Trans-1RTT clients -> LarkSwitch -> AggSwitch ->
analytics on the testbed DES, each switch running its per-packet entry
point, with loss on the lark -> agg link — is serialized to canonical
JSON and compared byte-for-byte against a checked-in golden file.  Any
drift in the simulator, the crypto, the statistics layout, the switch
programs, or the metrics namespace shows up as a diff here.

Regenerate deliberately with::

    PYTHONPATH=src python -m pytest tests/golden --regen-goldens
"""

import json
import os

from repro.obs import MetricsRegistry, scoped_registry
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.experiment import TestbedExperiment

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_e2e.json")


def _canonical(obj):
    """JSON-ready form: tuple dict keys become 'a|b' strings, floats
    are kept as repr-stable Python floats."""
    if isinstance(obj, dict):
        return {
            "|".join(map(str, k)) if isinstance(k, tuple) else str(k):
                _canonical(v)
            for k, v in obj.items()
        }
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def run_pinned_scenario():
    """The frozen scenario behind the golden file.  Changing anything
    here invalidates the golden — regenerate and review the diff."""
    config = TestbedConfig(
        scheme=Scheme.TRANS_1RTT,
        insa=True,
        requests_per_second=30.0,
        duration_ms=2000.0,
    )
    with scoped_registry(MetricsRegistry()) as registry:
        result = TestbedExperiment(
            config,
            agg_loss_rate=0.2,      # faults on: lossy lark->agg link
        ).run()
        metrics = registry.snapshot()
    return {
        "scenario": {
            "scheme": config.scheme.value,
            "insa": config.insa,
            "requests_per_second": config.requests_per_second,
            "duration_ms": config.duration_ms,
            "agg_loss_rate": 0.2,
        },
        "completed_requests": result.completed,
        "latencies_ms": result.latencies(),
        "aggregation_packets": result.aggregation_packets,
        "aggregation_bytes": result.aggregation_bytes,
        "lost_packets": result.lost_packets,
        "report": _canonical(result.aggregated_report),
        "reference": _canonical(result.reference_counts),
        "metrics": _canonical(metrics),
    }


def _serialize(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_golden_e2e_conformance(regen_goldens):
    payload = run_pinned_scenario()
    serialized = _serialize(payload)
    if regen_goldens or not os.path.exists(GOLDEN_PATH):
        with open(GOLDEN_PATH, "w") as fh:
            fh.write(serialized)
        if regen_goldens:
            return
    with open(GOLDEN_PATH) as fh:
        golden = fh.read()
    assert serialized == golden, (
        "end-to-end output drifted from the golden file; if the change "
        "is intentional, rerun with --regen-goldens and review the diff"
    )


def test_golden_scenario_is_self_consistent():
    """The pinned scenario itself must stay healthy: deterministic
    across runs and internally consistent despite the lossy link."""
    first = run_pinned_scenario()
    second = run_pinned_scenario()
    assert first == second
    assert first["completed_requests"] > 0
    assert first["aggregation_packets"] > 0
    # agg_loss_rate=0.2 must actually drop something, else the golden
    # is not exercising the fault path it claims to.
    assert first["lost_packets"] > 0
