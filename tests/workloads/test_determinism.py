"""Determinism of the workload generators, scalar vs batched.

The end-to-end ingest fast path rests on one contract: for every
workload, ``generate_batch(n)`` consumes the RNG exactly like ``n``
scalar ``generate()`` calls, and the legacy list APIs are thin wrappers
over the same stream.  These tests pin that contract for all four
generators (ysb, adcampaign, crowd, resource):

* same seed -> identical event stream (and diverging seeds diverge);
* ``generate_batch(n)`` == ``n`` scalar ``generate()`` calls,
  including the final RNG state;
* any chunking of the stream produces the same columns;
* the legacy list APIs equal ``stream().drain()``.
"""

import pytest

from repro.workloads.adcampaign import AdCampaignWorkload
from repro.workloads.crowd import CrowdWorkload
from repro.workloads.resource import ResourceDemandWorkload
from repro.workloads.ysb import YsbWorkload

RATE = 2000.0
DURATION_MS = 400.0
WORKLOADS = ("ysb", "adcampaign", "crowd", "resource")


def _make(name, seed):
    if name == "ysb":
        return YsbWorkload(seed=seed)
    if name == "adcampaign":
        return AdCampaignWorkload(num_users=50, seed=seed)
    if name == "crowd":
        return CrowdWorkload(num_members=60, seed=seed)
    return ResourceDemandWorkload(num_tenants=40, seed=seed)


def _legacy_events(name, workload):
    if name == "ysb":
        return workload.generate_events(RATE, DURATION_MS)
    if name == "adcampaign":
        return workload.generate_events(RATE, DURATION_MS)
    if name == "crowd":
        return workload.arrivals(RATE, DURATION_MS)
    return workload.sessions(RATE, DURATION_MS)


def _batch_rows(columns):
    names = tuple(columns.columns)
    cols = [columns.columns[n] for n in names]
    return names, list(zip(*cols)) if cols else []


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_identical_stream(name):
    a = _make(name, 7).stream(RATE, DURATION_MS).drain()
    b = _make(name, 7).stream(RATE, DURATION_MS).drain()
    assert a == b
    assert len(a) > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_different_seeds_diverge(name):
    a = _make(name, 7).stream(RATE, DURATION_MS).drain()
    b = _make(name, 8).stream(RATE, DURATION_MS).drain()
    assert a != b


@pytest.mark.parametrize("name", WORKLOADS)
def test_generate_batch_equals_n_scalar_generates(name):
    wl_scalar = _make(name, 21)
    wl_batch = _make(name, 21)
    stream_s = wl_scalar.stream(RATE, DURATION_MS)
    stream_b = wl_batch.stream(RATE, DURATION_MS)

    scalar_events = stream_s.drain()
    cols = stream_b.generate_batch(10 * len(scalar_events) + 10)
    assert len(cols) == len(scalar_events)

    # Rebuild scalar events from the columns through the stream's own
    # wrap hook: identical rows => identical events.
    rebuilt = [
        stream_b._wrap(
            cols.time_ms[i],
            tuple(cols.columns[c][i] for c in stream_b.column_names),
        )
        for i in range(len(cols))
    ]
    assert rebuilt == scalar_events
    # The batched path consumed the RNG draw-for-draw identically.
    assert wl_batch._rng.getstate() == wl_scalar._rng.getstate()
    assert stream_b.exhausted and stream_s.exhausted
    assert len(stream_b.generate_batch(16)) == 0


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("chunk", (1, 7, 64))
def test_chunked_batches_equal_whole(name, chunk):
    whole = _make(name, 33).stream(RATE, DURATION_MS).generate_batch(10_000)
    stream = _make(name, 33).stream(RATE, DURATION_MS)
    times, columns = [], {c: [] for c in stream.column_names}
    while True:
        batch = stream.generate_batch(chunk)
        if len(batch) == 0:
            break
        assert len(batch) <= chunk
        times.extend(batch.time_ms)
        for c in stream.column_names:
            columns[c].extend(batch.columns[c])
    assert times == whole.time_ms
    assert columns == whole.columns


@pytest.mark.parametrize("name", WORKLOADS)
def test_legacy_list_api_equals_stream_drain(name):
    legacy = _legacy_events(name, _make(name, 5))
    drained = _make(name, 5).stream(RATE, DURATION_MS).drain()
    assert legacy == drained


# -- recorded streams --------------------------------------------------------
#
# sha256 of (timestamps as little-endian doubles, then every column as
# its name and little-endian int64s) over the first 5 000 events of a
# seed-11 stream, and sha256 of repr(rng.getstate()) afterwards —
# recorded from the generators when generate_batch still appended
# column by column and drew through rng.randrange / rng.expovariate.
RECORDED_STREAMS = {
    "ysb": (
        "c9582100db781a5efc53e5da72bccedfe026619f967ac9ec42298b38a89ff4ab",
        "ea68072b129f47e511fd382a469c1410e034ae084cf266b792cf65a3c42d4110",
    ),
    "adcampaign": (
        "a8da7f52485ce35299361b8ad63b595d9363308a112a4a5bf48fc135659f521f",
        "aa642ddaaf30688548838f0fd1ddaa5a15cce1a82ea6e0efc0f16be8c67c7130",
    ),
    "crowd": (
        "728d423ea82758f3cf092896d93769fdd7d87d4e02ed6f8ed4621f428801d701",
        "6539edc6b2aa16ecc390c99238958c168723325dd47721226107674886028d25",
    ),
    "resource": (
        "c06cd77f7f059e11f6c5a1417bf7e4e8bd9ac3659f82e56f7eaa6752c0807ffe",
        "b64735b481bf6e9b556ec901db284ed44fda9fbc6baf5327904987255f30c4bd",
    ),
}


@pytest.mark.parametrize("batch", (1, 7, 1024))
@pytest.mark.parametrize("name", sorted(RECORDED_STREAMS))
def test_stream_and_rng_state_equal_the_recorded_ones(name, batch):
    import hashlib
    import struct

    workload = _make(name, 11)
    stream = workload.stream(5000.0, 10_000.0)
    times, cols = [], {c: [] for c in stream.column_names}
    while len(times) < 5000:
        columns = stream.generate_batch(min(batch, 5000 - len(times)))
        assert len(columns)
        times.extend(columns.time_ms)
        for c in stream.column_names:
            cols[c].extend(columns.columns[c])
    digest = hashlib.sha256(struct.pack("<5000d", *times))
    for c in stream.column_names:
        digest.update(c.encode())
        digest.update(struct.pack("<5000q", *cols[c]))
    state = hashlib.sha256(repr(workload._rng.getstate()).encode())
    assert (digest.hexdigest(), state.hexdigest()) == RECORDED_STREAMS[name]


@pytest.mark.parametrize("name", sorted(RECORDED_STREAMS))
def test_generate_is_generate_batch_of_one(name):
    one, batch = _make(name, 11), _make(name, 11)
    stream_one = one.stream(5000.0, 100.0)
    stream_batch = batch.stream(5000.0, 100.0)
    while True:
        event = stream_one.generate()
        columns = stream_batch.generate_batch(1)
        if event is None:
            assert len(columns) == 0
            break
        row = tuple(columns.columns[c][0] for c in stream_batch.column_names)
        assert stream_batch._wrap(columns.time_ms[0], row) == event
        assert one._rng.getstate() == batch._rng.getstate()
    assert stream_one.generated == stream_batch.generated > 100
