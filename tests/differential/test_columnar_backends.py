"""Differential proof that the execution backends are bit-identical.

Companion to ``test_scalar_vs_columnar``: every workload shape runs
through the scalar loop and the columnar path, at five seeds, and every
observable — per-packet results, digests, decoded values, raw register
contents, statistics reports — must match byte for byte.  The same
streams are then replayed with numpy force-disabled
(:func:`force_numpy`), proving the pure-Python kernel forms are the
semantic reference, and through the sharded :class:`ShardExecutor`,
proving the partition/fold algebra reconstructs single-switch state
exactly (the ring-worker transport has its own differential,
``test_persistent_backend.py``).
"""

import pytest

from repro.core.aggregation import ForwardingMode
from repro.switch.columns import force_numpy, numpy_enabled
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.workloads.adcampaign import iter_batches

from tests.differential.workloads import (
    APP_ID,
    SHAPES,
    DifferentialWorkload,
    register_state,
)

SEEDS = (11, 23, 37, 41, 59)
BATCH_SIZES = {11: 1, 23: 7, 37: 64, 41: 113, 59: 4096}
PACKETS = 240
FAST_BACKENDS = ("columnar",)


@pytest.fixture
def no_numpy():
    """Force the pure-Python kernels for the duration of a test."""
    force_numpy(False)
    try:
        yield
    finally:
        force_numpy(None)


def _run_lark(switch, cids, backend, batch_size):
    if backend == "scalar":
        return [switch.process_quic_packet(cid) for cid in cids]
    results = []
    for chunk in iter_batches(cids, batch_size):
        results.extend(switch.process_quic_columnar(chunk))
    return results


def _run_agg(switch, payloads, backend, batch_size):
    if backend == "scalar":
        return [switch.process_packet(p) for p in payloads]
    results = []
    for chunk in iter_batches(payloads, batch_size):
        results.extend(switch.process_columnar(chunk))
    return results


def _assert_lark_identical(wl, shape, seed, mode):
    cids = wl.cids(shape, PACKETS)
    scalar = wl.new_lark(mode=mode)
    scalar_results = _run_lark(scalar, cids, "scalar", 0)
    for backend in FAST_BACKENDS:
        fast = wl.new_lark(mode=mode)
        fast_results = _run_lark(fast, cids, backend, BATCH_SIZES[seed])
        assert len(fast_results) == len(scalar_results)
        for i, (s, f) in enumerate(zip(scalar_results, fast_results)):
            assert f == s, "packet %d diverged (%s, seed %d, %s)" % (
                i, shape, seed, backend
            )
        assert register_state(fast) == register_state(scalar), backend
        assert fast.stats_report(APP_ID) == scalar.stats_report(APP_ID)


def _assert_agg_identical(wl, shape, seed, shards=1):
    payloads = wl.payloads(shape, PACKETS)
    assert payloads, "workload produced no aggregation payloads"
    scalar = wl.new_agg(shards=shards)
    scalar_results = _run_agg(scalar, payloads, "scalar", 0)
    for backend in FAST_BACKENDS:
        fast = wl.new_agg(shards=shards)
        fast_results = _run_agg(fast, payloads, backend, BATCH_SIZES[seed])
        assert fast_results == scalar_results, backend
        assert register_state(fast) == register_state(scalar), backend
        assert fast.merge(APP_ID) == scalar.merge(APP_ID)
        assert fast.report(APP_ID) == scalar.report(APP_ID)


# -- backend identity --------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_backends_bit_identical(shape, seed):
    """Periodical lark: scalar == columnar on every shape."""
    _assert_lark_identical(
        DifferentialWorkload(seed), shape, seed, ForwardingMode.PERIODICAL
    )


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_backends_per_packet_mode(shape, seed):
    """Per-packet mode encodes a payload per match (fresh IV from the
    app RNG); all backends must consume the RNG in global packet order."""
    _assert_lark_identical(
        DifferentialWorkload(seed), shape, seed, ForwardingMode.PER_PACKET
    )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_agg_backends_bit_identical(shape, seed):
    """AggSwitch: scalar == columnar, single bank."""
    _assert_agg_identical(DifferentialWorkload(seed), shape, seed)


@pytest.mark.parametrize("seed", SEEDS[:2])
def test_agg_backends_bit_identical_sharded(seed):
    """Same, with hash-partitioned register banks."""
    _assert_agg_identical(
        DifferentialWorkload(seed), "zipfian", seed, shards=3
    )


# -- numpy-disabled fallback -------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("shape", SHAPES)
def test_backends_identical_without_numpy(no_numpy, shape, seed):
    """With the numpy gate closed the columnar entry points run their
    kernels' Python forms — identity must hold there too."""
    assert not numpy_enabled()
    wl = DifferentialWorkload(seed)
    _assert_lark_identical(wl, shape, seed, ForwardingMode.PERIODICAL)
    _assert_agg_identical(wl, shape, seed)


@pytest.mark.parametrize("seed", SEEDS[:1])
def test_numpy_and_fallback_agree(seed):
    """The vectorized and pure-Python kernels produce identical state
    on the same stream (only meaningful when numpy is importable)."""
    if not numpy_enabled():
        pytest.skip("numpy unavailable")
    wl = DifferentialWorkload(seed)
    cids = wl.cids("adversarial", PACKETS)
    vec = wl.new_lark()
    _run_lark(vec, cids, "columnar", 64)
    force_numpy(False)
    try:
        plain = wl.new_lark()
        _run_lark(plain, cids, "columnar", 64)
    finally:
        force_numpy(None)
    assert register_state(vec) == register_state(plain)
    assert vec.stats_report(APP_ID) == plain.stats_report(APP_ID)


# -- shard executor ----------------------------------------------------------


def _agg_spec(wl):
    return ShardSpec(
        kind="agg",
        app_id=APP_ID,
        schema=wl.schema,
        key=wl.key,
        specs=tuple(wl.specs),
        seed=wl.seed,
    )


def _lark_spec(wl):
    return ShardSpec(
        kind="lark",
        app_id=APP_ID,
        schema=wl.schema,
        key=wl.key,
        specs=tuple(wl.specs),
        seed=wl.seed,
        mode=ForwardingMode.PERIODICAL,
        period_ms=1000.0,
        dedup=False,
    )


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("backend", ("scalar", "columnar"))
def test_shard_executor_agg_matches_single_switch(seed, backend):
    """Sequential sharded execution folds back to the single-switch
    snapshot and report, whatever the per-shard backend."""
    wl = DifferentialWorkload(seed)
    payloads = wl.payloads("zipfian", PACKETS)
    single = wl.new_agg(shards=1)
    for p in payloads:
        single.process_packet(p)
    executor = ShardExecutor(
        _agg_spec(wl), shards=3, backend=backend
    )
    result = executor.run(payloads)
    assert result.total_packets == len(payloads)
    assert result.snapshot == single.merge(APP_ID)
    assert result.report == single.report(APP_ID)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_shard_executor_lark_matches_single_switch(seed):
    """Lark partition keeps each user's packets on one shard; the
    merged snapshot equals the single-switch register state."""
    wl = DifferentialWorkload(seed)
    cids = [bytes(c) for c in wl.cids("zipfian", PACKETS)]
    single = wl.new_lark()
    for cid in wl.cids("zipfian", PACKETS):
        single.process_quic_packet(cid)
    executor = ShardExecutor(
        _lark_spec(wl), shards=4, backend="columnar"
    )
    result = executor.run(cids)
    stats = single._apps[APP_ID].stats
    assert result.snapshot == stats.snapshot()
    assert result.report == single.stats_report(APP_ID)


# -- the retired tier --------------------------------------------------------


def test_batch_backend_name_is_rejected_everywhere():
    """There are two tiers.  The retired ``"batch"`` name is an error at
    every ``backend=`` entry point, never an alias."""
    from repro.chaos import ChaosHarness
    from repro.testbed.pipeline import StreamingPipeline
    from repro.testbed.supervisor import ShardSupervisor
    from repro.testbed.worker import ShardWorker, WorkerFleet

    wl = DifferentialWorkload(SEEDS[0])
    spec = _agg_spec(wl)
    attempts = (
        lambda: ShardExecutor(spec, backend="batch"),
        lambda: ShardSupervisor(spec, backend="batch"),
        lambda: ShardWorker(spec, 0, backend="batch"),
        lambda: WorkerFleet(spec, backend="batch").worker(0),
        lambda: StreamingPipeline(wl.workload, backend="batch"),
        lambda: ChaosHarness(backend="batch"),
    )
    for attempt in attempts:
        with pytest.raises(ValueError):
            attempt()
