"""Differential proof that the execution backends are bit-identical.

Companion to ``test_scalar_vs_columnar``: every workload shape runs
through the scalar loop and the columnar path, at five seeds, and every
observable — each batch's columns against the scalar results of its
chunk, raw register contents, statistics reports — must match byte for
byte.  The same
streams are then replayed with numpy force-disabled
(:func:`force_numpy`), proving the pure-Python kernel forms are the
semantic reference, and through the sharded :class:`ShardExecutor` —
the one model of a multi-pipe switch — over both transports, proving
the partition/fold algebra reconstructs single-switch state exactly,
wrapping registers included (the ring-worker transport has its own
differential against the in-process one, ``test_persistent_backend.py``).
"""

import itertools
import random

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggBatchResult, AggSwitch
from repro.core.larkswitch import LarkBatchResult
from repro.obs.registry import MetricsRegistry
from repro.switch.columns import force_numpy, numpy_enabled
from repro.testbed.executor import ShardExecutor, ShardSpec
from repro.testbed.shm_ring import shared_memory_available

from tests.differential.workloads import (
    APP_ID,
    SHAPES,
    DifferentialWorkload,
    columnar_batches,
    register_state,
    scalar_columns,
    wide_payloads,
    wide_schema,
    wide_specs,
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
    return columnar_batches(switch.process_quic_columnar, cids, batch_size)


def _run_agg(switch, payloads, backend, batch_size):
    if backend == "scalar":
        return [switch.process_packet(p) for p in payloads]
    return columnar_batches(switch.process_columnar, payloads, batch_size)


def _assert_lark_identical(wl, shape, seed, mode):
    cids = wl.cids(shape, PACKETS)
    scalar = wl.new_lark(mode=mode)
    scalar_results = _run_lark(scalar, cids, "scalar", 0)
    for backend in FAST_BACKENDS:
        fast = wl.new_lark(mode=mode)
        batches = _run_lark(fast, cids, backend, BATCH_SIZES[seed])
        expected = scalar_columns(LarkBatchResult.of, scalar_results, batches)
        for i, (want, got) in enumerate(zip(expected, batches)):
            assert got == want, "batch %d diverged (%s, seed %d, %s)" % (
                i, shape, seed, backend
            )
        assert register_state(fast) == register_state(scalar), backend
        assert fast.stats_report(APP_ID) == scalar.stats_report(APP_ID)


def _assert_agg_identical(wl, shape, seed):
    payloads = wl.payloads(shape, PACKETS)
    assert payloads, "workload produced no aggregation payloads"
    scalar = wl.new_agg()
    scalar_results = _run_agg(scalar, payloads, "scalar", 0)
    for backend in FAST_BACKENDS:
        fast = wl.new_agg()
        batches = _run_agg(fast, payloads, backend, BATCH_SIZES[seed])
        assert batches == scalar_columns(
            AggBatchResult.of, scalar_results, batches
        ), backend
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
    """AggSwitch: scalar == columnar."""
    _assert_agg_identical(DifferentialWorkload(seed), shape, seed)


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


@pytest.fixture(params=("in-process", "persistent"))
def persistent(request):
    """The replica transport: in-process calls or ring-fed workers."""
    if request.param == "persistent" and not shared_memory_available():
        pytest.skip("POSIX shared memory unavailable")
    return request.param == "persistent"


def _wide_spec(wl):
    return ShardSpec(
        kind="agg",
        app_id=APP_ID,
        schema=wide_schema(),
        key=wl.key,
        specs=tuple(wide_specs()),
        seed=wl.seed,
    )


def _agg_streams(wl):
    """Every stream the shard fold must reconstruct one switch from,
    by spec: the uniform and zipfian shapes, the hash-collision
    adversary (most payloads on one shard of four), and a stream whose
    SUM and AVG cells wrap the 48-bit registers many times over."""
    return [
        (_agg_spec(wl), {
            "uniform": wl.payloads("uniform", PACKETS),
            "zipfian": wl.payloads("zipfian", PACKETS),
            "skewed": wl.skewed_payloads(PACKETS, 4),
        }),
        (_wide_spec(wl), {
            "wrapping": wide_payloads(APP_ID, wl.key, PACKETS, wl.seed),
        }),
    ]


def _single_switch(spec, payloads):
    agg = AggSwitch(
        "single", random.Random(spec.seed), registry=MetricsRegistry()
    )
    agg.register_application(
        spec.app_id, spec.schema, spec.key, list(spec.specs)
    )
    for payload in payloads:
        agg.process_packet(payload)
    return agg


@pytest.mark.parametrize("seed,shards", itertools.product(SEEDS, (2, 4, 7)))
@pytest.mark.parametrize("kernels", (True, False), ids=("numpy", "python"))
def test_shard_executor_agg_matches_single_switch(
    seed, shards, kernels, persistent
):
    """K aggregation pipes are the replica runtime: whatever the seed,
    shard count, kernel form and transport, the columnar shards' folded
    snapshot and rendered report equal one scalar AggSwitch fed the
    whole stream — a wrapping SUM included, since the fold adds modulo
    the register width like the register itself.  Forked ring workers
    inherit the parent's kernel form."""
    wl = DifferentialWorkload(seed)
    force_numpy(kernels)
    try:
        for spec, streams in _agg_streams(wl):
            # One executor per spec: a persistent fleet serves every
            # stream.
            with ShardExecutor(
                spec, shards=shards, chunk_size=64, persistent=persistent,
            ) as executor:
                for stream, payloads in streams.items():
                    single = _single_switch(spec, payloads)
                    result = executor.run(payloads)
                    assert result.used_workers == persistent, (
                        stream, result.fallback_cause,
                    )
                    assert result.total_packets == len(payloads), stream
                    assert result.snapshot == single.merge(APP_ID), stream
                    assert result.report == single.report(APP_ID), stream
    finally:
        force_numpy(None)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("kernels", (True, False), ids=("numpy", "python"))
def test_shard_executor_lark_matches_single_switch(seed, kernels, persistent):
    """Lark partition keeps each user's packets on one shard; the
    merged snapshot equals the single scalar switch's register state,
    inline and on ring workers, under either kernel form."""
    wl = DifferentialWorkload(seed)
    cids = [bytes(c) for c in wl.cids("zipfian", PACKETS)]
    single = wl.new_lark()
    for cid in wl.cids("zipfian", PACKETS):
        single.process_quic_packet(cid)
    force_numpy(kernels)
    try:
        with ShardExecutor(
            _lark_spec(wl), shards=4, persistent=persistent
        ) as executor:
            result = executor.run(cids)
    finally:
        force_numpy(None)
    assert result.used_workers == persistent, result.fallback_cause
    stats = single._apps[APP_ID].stats
    assert result.snapshot == stats.snapshot()
    assert result.report == single.stats_report(APP_ID)


# -- the retired tier --------------------------------------------------------


def test_batch_backend_name_is_rejected_everywhere():
    """There are two switch tiers.  The retired ``"batch"`` name is an
    error at every ``backend=`` entry point, never an alias; and shards
    run columnar only, so ``"scalar"`` is an error for the executor."""
    from repro.testbed.pipeline import StreamingPipeline

    wl = DifferentialWorkload(SEEDS[0])
    spec = _agg_spec(wl)
    attempts = (
        lambda: ShardExecutor(spec, backend="batch"),
        lambda: ShardExecutor(spec, backend="scalar"),
        lambda: StreamingPipeline(wl.workload, backend="batch"),
    )
    for attempt in attempts:
        with pytest.raises(ValueError):
            attempt()
