"""Differential proof that the columnar fast path is bit-identical to
the scalar interpreter — under both kernel forms.

The load-bearing invariant of the columnar path
(``LarkSwitch.process_quic_columnar``, ``AggSwitch.process_columnar``)
is that it is *purely* a host-CPU optimization: every observable —
per-packet results, digests, decoded values, raw register contents,
statistics reports, merged shard state — must equal the scalar path's,
byte for byte.  This suite replays the same seeded streams through both
paths across three workload shapes (uniform, zipfian, adversarial) and
five seeds, at several chunk sizes, and runs every case twice in
process: with the numpy gate forced open and forced closed.  The chunk
sizes straddle :data:`repro.switch.columns.VECTOR_MIN_ROWS`, so the
numpy leg also covers the small-batch cut-off to the Python forms.
"""

import itertools
import random

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core.larkswitch import LarkSwitch
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs.registry import MetricsRegistry
from repro.switch import columns
from repro.switch.tables import MatchActionTable, MatchKey, MatchKind
from repro.testbed.config import Scheme, TestbedConfig
from repro.testbed.network_testbed import NetworkTestbed
from repro.workloads.adcampaign import iter_batches

from tests.differential.workloads import (
    APP_ID,
    SHAPES,
    DifferentialWorkload,
    register_state,
)

SEEDS = (11, 23, 37, 41, 59)
# One chunking per seed, covering the degenerate single-packet batch,
# odd sizes that straddle stream boundaries, and an oversized batch.
BATCH_SIZES = {11: 1, 23: 7, 37: 64, 41: 113, 59: 4096}
PACKETS = 240

assert min(BATCH_SIZES.values()) < columns.VECTOR_MIN_ROWS < PACKETS


@pytest.fixture(autouse=True, params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    """Every test runs once per kernel form, whatever the ambient gate
    (default run, or CI's ``REPRO_NO_NUMPY=1`` leg)."""
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield
    finally:
        columns._FORCED = previous


def _run_lark_pair(wl, shape, batch_size, mode):
    cids = wl.cids(shape, PACKETS)
    scalar = wl.new_lark(mode=mode)
    columnar = wl.new_lark(mode=mode)
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids]
    columnar_results = []
    for chunk in iter_batches(cids, batch_size):
        columnar_results.extend(columnar.process_quic_columnar(chunk))
    return scalar, columnar, scalar_results, columnar_results


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_columnar_bit_identical(shape, seed):
    """LarkResults, digests, registers and reports all match."""
    wl = DifferentialWorkload(seed)
    scalar, columnar, scalar_results, columnar_results = _run_lark_pair(
        wl, shape, BATCH_SIZES[seed], ForwardingMode.PERIODICAL
    )
    assert len(columnar_results) == len(scalar_results)
    for i, (s, c) in enumerate(zip(scalar_results, columnar_results)):
        assert c == s, "packet %d diverged (%s, seed %d)" % (i, shape, seed)
        assert c.digests == s.digests
    assert register_state(columnar) == register_state(scalar)
    assert columnar.stats_report(APP_ID) == scalar.stats_report(APP_ID)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_columnar_bit_identical_per_packet_mode(shape, seed):
    """Per-packet forwarding encodes a payload per match (fresh IV from
    the app RNG) — the RNG consumption order must also line up."""
    wl = DifferentialWorkload(seed)
    scalar, columnar, scalar_results, columnar_results = _run_lark_pair(
        wl, shape, BATCH_SIZES[seed], ForwardingMode.PER_PACKET
    )
    assert columnar_results == scalar_results
    assert register_state(columnar) == register_state(scalar)
    assert columnar.stats_report(APP_ID) == scalar.stats_report(APP_ID)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_lark_interleaved_per_packet_apps_share_one_rng(seed):
    """Two per-packet apps and a periodical one on one switch, packets
    interleaved: every codec draws its IVs from the switch's single
    RNG, so the columnar path (which seals payloads per app, after the
    result loop) must still draw them in global packet order."""
    wl = DifferentialWorkload(seed)
    app_ids = (APP_ID, APP_ID + 1, APP_ID + 2)
    modes = (
        ForwardingMode.PER_PACKET,
        ForwardingMode.PERIODICAL,
        ForwardingMode.PER_PACKET,
    )
    rng = random.Random(seed + 9)
    keys = [bytes(rng.getrandbits(8) for _ in range(16)) for _ in app_ids]

    def new_lark():
        lark = LarkSwitch(
            "diff-lark", rng=random.Random(seed + 1),
            registry=MetricsRegistry(),
        )
        for app_id, key, mode in zip(app_ids, keys, modes):
            lark.register_application(
                app_id, wl.schema, key, wl.specs, mode=mode,
                period_ms=1000.0 if mode == ForwardingMode.PERIODICAL else 0.0,
            )
        return lark

    codecs = [
        TransportCookieCodec(app_id, wl.schema, key, random.Random(seed + 3))
        for app_id, key in zip(app_ids, keys)
    ]
    cids = [
        rng.choice(codecs).encode(
            rng.choice(wl.workload.users).semantic_values(
                rng.choice(wl.workload.campaigns), "view"
            )
        )
        for _ in range(PACKETS)
    ]
    scalar, columnar = new_lark(), new_lark()
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids]
    columnar_results = []
    sizes = itertools.cycle((1, 5, 40, 17, 90))
    position = 0
    while position < len(cids):
        size = next(sizes)
        columnar_results.extend(
            columnar.process_quic_columnar(cids[position:position + size])
        )
        position += size
    assert columnar_results == scalar_results
    emitted = [r.aggregation_payload is not None for r in scalar_results]
    assert any(emitted) and not all(emitted)
    assert register_state(columnar) == register_state(scalar)
    for app_id in app_ids:
        assert columnar.stats_report(app_id) == scalar.stats_report(app_id)
    assert columnar._rng.getstate() == scalar._rng.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_values_and_digests_render_from_the_wire_row(shape, seed):
    """A digest-feature app: the columnar path keeps only the wire row
    per cookie and renders ``decoded_values`` when somebody reads them;
    what it renders, and the digests it emits, are the scalar path's."""
    wl = DifferentialWorkload(seed)

    def new_lark():
        lark = LarkSwitch(
            "diff-lark", rng=random.Random(seed + 1),
            registry=MetricsRegistry(),
        )
        lark.register_application(
            APP_ID, wl.schema, wl.key, wl.specs,
            mode=ForwardingMode.PER_PACKET,
            digest_features=["geo", "campaign"],
        )
        return lark

    cids = wl.cids(shape, PACKETS)
    scalar, columnar = new_lark(), new_lark()
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids]
    columnar_results = []
    for chunk in iter_batches(cids, BATCH_SIZES[seed]):
        columnar_results.extend(columnar.process_quic_columnar(chunk))
    folded = [r for r in columnar_results if r.folded]
    assert folded and all(r._pending is not None for r in folded)
    for s, c in zip(scalar_results, columnar_results):
        assert c.folded == s.folded == (s.decoded_values is not None)
        assert c.digests == s.digests
        assert c.decoded_values == s.decoded_values
        # Rendered once, then held.
        assert c.decoded_values is c.decoded_values and c._pending is None
    assert columnar_results == scalar_results
    emitted = sum(len(r.digests) for r in scalar_results)
    assert len(folded) <= emitted <= 2 * len(folded)
    assert register_state(columnar) == register_state(scalar)
    metrics = [
        lark.metrics.counter("lark.diff-lark.digests").value
        for lark in (scalar, columnar)
    ]
    assert metrics[0] == metrics[1] == emitted


@pytest.mark.parametrize("key_feature", ("user", None), ids=("user", "region"))
@pytest.mark.parametrize("mode", ("exact", "sketch"))
def test_lark_user_stats_key_on_the_wire_row(mode, key_feature):
    """A user_stats app: the columnar path derives the engagement key
    from the wire row (or the cookie region) without rendering values;
    tracker state, results and rendered values equal the scalar
    path's.  Some cookies carry no ``user`` feature at all."""
    from repro.core.user_stats import UserQuantileConfig
    from repro.workloads.scale import ScaleWorkload

    workload = ScaleWorkload(num_users=500, seed=SEEDS[2])
    schema, specs = workload.schema(), workload.specs()
    key = bytes(range(16))
    codec = TransportCookieCodec(APP_ID, schema, key, random.Random(4))
    rng = random.Random(5)
    minted = []
    for user in range(160):
        values = workload.semantic_values(user, rng.randrange(8), user % 2)
        if user % 9 == 0:
            del values["user"]
        minted.append(codec.encode(values))
    cids = [
        minted[min(int(rng.paretovariate(1.1)) - 1, len(minted) - 1)]
        for _ in range(PACKETS)
    ]

    def new_lark():
        lark = LarkSwitch(
            "diff-lark", rng=random.Random(6), registry=MetricsRegistry()
        )
        lark.register_application(
            APP_ID, schema, key, specs, mode=ForwardingMode.PERIODICAL,
            period_ms=1000.0,
            user_quantiles=UserQuantileConfig(
                mode=mode, key_feature=key_feature
            ),
        )
        return lark

    scalar, columnar = new_lark(), new_lark()
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids]
    columnar_results = []
    for chunk in iter_batches(cids, 97):
        columnar_results.extend(columnar.process_quic_columnar(chunk))
    assert (
        columnar._apps[APP_ID].users.snapshot()
        == scalar._apps[APP_ID].users.snapshot()
    )
    assert columnar.user_report(APP_ID) == scalar.user_report(APP_ID)
    # Nothing was rendered to get there.
    assert all(r._pending is not None for r in columnar_results)
    assert [r.decoded_values for r in columnar_results] == [
        r.decoded_values for r in scalar_results
    ]
    assert columnar_results == scalar_results
    assert register_state(columnar) == register_state(scalar)


@pytest.mark.parametrize("capacity", (None, 4), ids=("unbounded", "memo-4"))
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_replayed_batch_folds_from_the_memo(shape, capacity):
    """The same batch twice: the second pass is all memo hits (or, with
    a four-entry memo, mostly evictions and re-decrypts), so its rows
    and values come out of the memo rather than the codec — and must
    fold and report exactly like 2x the scalar stream."""
    wl = DifferentialWorkload(SEEDS[1])
    cids = wl.cids(shape, PACKETS)
    scalar = wl.new_lark()
    columnar = LarkSwitch(
        "diff-lark", rng=random.Random(wl.seed + 1),
        registry=MetricsRegistry(), decode_memo_capacity=capacity,
    )
    columnar.register_application(
        APP_ID, wl.schema, wl.key, wl.specs,
        mode=ForwardingMode.PERIODICAL, period_ms=1000.0,
    )
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids * 2]
    columnar_results = columnar.process_quic_columnar(cids)
    memo_after_first = dict(columnar._decode_memo)
    columnar_results += columnar.process_quic_columnar(cids)
    if capacity is None:
        assert columnar._decode_memo == memo_after_first
    else:
        assert len(columnar._decode_memo) <= capacity
    assert columnar_results == scalar_results
    assert register_state(columnar) == register_state(scalar)
    assert columnar.stats_report(APP_ID) == scalar.stats_report(APP_ID)


def test_lark_per_packet_payload_bytes_come_from_the_wire_row():
    """Per-packet items are read off the wire row now, not re-encoded
    from the decoded values: with features absent from some cookies
    the payload bytes must still equal the scalar path's, and carry
    exactly the present features' wire integers."""
    wl = DifferentialWorkload(SEEDS[0])
    features = wl.schema.features
    codec = wl._codec()
    rng = random.Random(99)
    cookies = []
    for user in wl.workload.users[:40]:
        values = user.semantic_values(
            rng.choice(wl.workload.campaigns), "view"
        )
        for name in rng.sample(sorted(values), rng.randrange(0, 3)):
            del values[name]
        cookies.append(values)
    cids = [codec.encode(values) for values in cookies]
    scalar = wl.new_lark(mode=ForwardingMode.PER_PACKET)
    columnar = wl.new_lark(mode=ForwardingMode.PER_PACKET)
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids]
    columnar_results = columnar.process_quic_columnar(cids)
    assert [r.aggregation_payload for r in columnar_results] == [
        r.aggregation_payload for r in scalar_results
    ]
    assert columnar_results == scalar_results
    agg_codec = columnar._apps[APP_ID].agg_codec
    assert any(len(values) < len(features) for values in cookies)
    for values, result in zip(cookies, columnar_results):
        assert result.decoded_values == values
        assert agg_codec.decode(result.aggregation_payload).items == [
            (index, feature.encode_value(values[feature.name]))
            for index, feature in enumerate(features)
            if feature.name in values
        ]


# -- the row sealer: per-packet payloads straight from wire rows -----------


def _ragged_cids(wl, app_ids, keys, n, seed):
    """Cookies carrying anything from every feature to none at all (an
    all-absent row seals as zero items), so one batch holds payloads of
    three lengths; a small pool, so most packets repeat a cookie."""
    rng = random.Random(seed)
    pool = []
    for app_id, key in zip(app_ids, keys):
        codec = TransportCookieCodec(app_id, wl.schema, key, rng)
        for user in wl.workload.users[:10]:
            values = user.semantic_values(
                rng.choice(wl.workload.campaigns), "view"
            )
            keep = rng.sample(sorted(values), rng.randrange(len(values) + 1))
            pool.append(codec.encode({name: values[name] for name in keep}))
        pool.append(codec.encode({}))
    return [rng.choice(pool) for _ in range(n)]


@pytest.mark.parametrize("size", (1, 7, 15, 16, 40, 1024))
@pytest.mark.parametrize("dedup", (False, True), ids=("all", "dedup"))
@pytest.mark.parametrize("apps", (1, 2))
def test_lark_sealed_payloads_are_the_scalar_encode(apps, dedup, size):
    """``batch.payloads`` is, in order, what the scalar switch encodes
    packet by packet from one ``AggregationPacket`` each, and the
    switch RNG ends where the scalar one does — at batch sizes on both
    sides of the kernels' cut-off, payloads of several lengths in one
    batch, with one per-packet application and with two interleaved."""
    wl = DifferentialWorkload(SEEDS[1], num_users=12)
    app_ids = (APP_ID, APP_ID + 1)[:apps]
    keys = [bytes([app_id]) * 16 for app_id in app_ids]

    def new_lark():
        lark = LarkSwitch(
            "diff-lark", rng=random.Random(7), registry=MetricsRegistry()
        )
        for app_id, key in zip(app_ids, keys):
            lark.register_application(
                app_id, wl.schema, key, wl.specs,
                mode=ForwardingMode.PER_PACKET, dedup=dedup,
            )
        return lark

    cids = _ragged_cids(wl, app_ids, keys, max(2 * size, 60), seed=size)
    scalar, columnar = new_lark(), new_lark()
    expected = [scalar.process_quic_packet(cid) for cid in cids]
    payloads = []
    for chunk in iter_batches(cids, size):
        payloads.extend(columnar.process_quic_columnar(chunk).payloads)
    assert payloads == [
        r.aggregation_payload for r in expected
        if r.aggregation_payload is not None
    ]
    assert len({len(p) for p in payloads}) == 3
    assert dedup == (len(payloads) < len(cids))
    assert columnar._rng.getstate() == scalar._rng.getstate()
    assert register_state(columnar) == register_state(scalar)
    assert [
        m for m in columnar.metrics.snapshot() if ".batch" not in m["name"]
    ] == [m for m in scalar.metrics.snapshot() if ".batch" not in m["name"]]


def test_columnar_per_packet_path_builds_no_object_per_payload(monkeypatch):
    """The structure behind the speed: a per-packet lark batch seals
    its payloads without one ``AggregationPacket`` or ``_serialise``
    call, and the AggSwitch folds them without one ``AggResult`` —
    those exist once somebody reads the batch's view."""
    from repro.core import aggregation, aggswitch, larkswitch

    wl = DifferentialWorkload(SEEDS[0])
    cids = wl.cids("uniform", 64)
    scalar = wl.new_lark(mode=ForwardingMode.PER_PACKET)
    expected = [scalar.process_quic_packet(cid) for cid in cids]
    lark, agg = wl.new_lark(mode=ForwardingMode.PER_PACKET), wl.new_agg()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("built an object per payload")

    built = []

    class CountedResult(aggswitch.AggResult):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            built.append(self)
            super().__init__(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(larkswitch, "AggregationPacket", forbidden)
        patch.setattr(aggregation, "AggregationPacket", forbidden)
        patch.setattr(aggregation.AggregationCodec, "_serialise", forbidden)
        patch.setattr(aggswitch, "AggResult", CountedResult)
        payloads = lark.process_quic_columnar(cids).payloads
        batch = agg.process_columnar(payloads)
        assert batch.merged == len(payloads) == 64 and not built
        assert len(list(batch)) == 64 and len(built) == 64
        assert list(batch) == built
    assert payloads == [r.aggregation_payload for r in expected]


# -- the batch result: its view is the scalar path, its counters the
# -- group arithmetic ------------------------------------------------------

_BATCH_APPS = (APP_ID, APP_ID + 1)


def _batch_lark(wl, apps, mode, dedup, digests):
    from repro.core.user_stats import UserQuantileConfig

    lark = LarkSwitch(
        "diff-lark", rng=random.Random(wl.seed + 1),
        registry=MetricsRegistry(),
    )
    for app_id in _BATCH_APPS[:apps]:
        lark.register_application(
            app_id, wl.schema, bytes([app_id]) * 16, wl.specs, mode=mode,
            period_ms=1000.0 if mode == ForwardingMode.PERIODICAL else 0.0,
            dedup=dedup,
            digest_features=["geo", "campaign"] if digests else None,
            user_quantiles=UserQuantileConfig(mode="exact"),
        )
    return lark


def _batch_stream(wl, apps, n):
    """Raw CID rows for ``apps`` interleaved applications: a few
    cookies each (some with features absent), so most packets are
    repeats, mixed with wrong-key cookies, app-table misses (20-byte,
    over-long and one-byte rows) and truncated cookies."""
    rng = random.Random(wl.seed * 31 + apps)
    minted = []
    for app_id in _BATCH_APPS[:apps]:
        codec = TransportCookieCodec(
            app_id, wl.schema, bytes([app_id]) * 16, rng
        )
        stale = TransportCookieCodec(app_id, wl.schema, bytes(16), rng)
        pool = []
        for user in wl.workload.users[:9]:
            values = user.semantic_values(
                rng.choice(wl.workload.campaigns),
                rng.choice(("view", "click")),
            )
            if len(pool) % 4 == 3:
                del values["geo"]
            pool.append(bytes(codec.encode(values)))
        minted.append((pool, bytes(stale.encode(values))))
    rows = []
    for _ in range(n):
        pool, stale = minted[rng.randrange(apps)]
        kind = rng.randrange(12)
        if kind < 7:
            rows.append(pool[rng.randrange(len(pool))])
        elif kind == 7:
            rows.append(stale)
        elif kind == 8:
            rows.append(bytes([7, 0x80 | rng.getrandbits(7)]) + bytes(18))
        elif kind == 9:
            rows.append(bytes([7, 0xEE]) + bytes(rng.randrange(19, 23)))
        elif kind == 10:
            rows.append(pool[0][:rng.randrange(2, 20)])
        else:
            rows.append(b"\x07")
    return rows


def _as_matrix(rows):
    """The chunk as a matrix-built batch: zero-padded, no row bytes."""
    np = columns.get_numpy()
    width = max(map(len, rows))
    data = np.frombuffer(
        b"".join(row.ljust(width, b"\0") for row in rows), dtype=np.uint8
    ).reshape(len(rows), width)
    return columns.PacketColumns.from_matrix(data, [len(r) for r in rows])


def _lark_state(lark):
    """Everything a batch may touch, the per-batch meters apart."""
    return {
        "registers": register_state(lark),
        "rng": lark._rng.getstate(),
        "metrics": [
            m for m in lark.metrics.snapshot() if ".batch" not in m["name"]
        ],
        "bloom": {
            app_id: app.dedup.snapshot()
            for app_id, app in lark._apps.items() if app.dedup is not None
        },
        "users": {
            app_id: app.users.snapshot()
            for app_id, app in lark._apps.items() if app.users is not None
        },
    }


_SCALAR_RUNS = {}


def _scalar_run(seed, apps, mode, dedup, digests, n):
    """The reference: the same stream packet by packet (cached; the
    scalar tier does not depend on the kernel form)."""
    config = (seed, apps, mode, dedup, digests, n)
    if config not in _SCALAR_RUNS:
        wl = DifferentialWorkload(seed, num_users=12)
        rows = _batch_stream(wl, apps, n)
        lark = _batch_lark(wl, apps, mode, dedup, digests)
        results = [lark.process_quic_packet(row) for row in rows]
        _SCALAR_RUNS[config] = (wl, rows, results, _lark_state(lark))
    return _SCALAR_RUNS[config]


def _batch_cases():
    modes = (ForwardingMode.PERIODICAL, ForwardingMode.PER_PACKET)
    flags = (False, True)
    for size in (7, 40):
        for case in itertools.product(modes, flags, flags, (1, 2), flags):
            yield (size, 160) + case
    # The one-packet call and the full-size batch: every feature on.
    for size, n in ((1, 48), (1024, 1100)):
        for mode, matrix in itertools.product(modes, flags):
            yield (size, n, mode, True, True, 2, matrix)


@pytest.mark.parametrize(
    "size,n,mode,dedup,digests,apps,matrix", list(_batch_cases())
)
def test_lark_batch_view_payloads_and_counters_are_the_scalar_path(
    size, n, mode, dedup, digests, apps, matrix
):
    """``list(batch)`` is the scalar results, ``batch.payloads`` the
    scalar payloads in order, ``batch.folded`` and every counter what
    the scalar switch counts packet by packet — whether the chunk comes
    as a row list or as a (ragged) matrix, and whether or not anybody
    looks at the per-packet view."""
    if matrix and not columns.numpy_enabled():
        pytest.skip("matrix-built batches need the numpy gate open")
    wl, rows, scalar_results, scalar_state = _scalar_run(
        SEEDS[0], apps, mode, dedup, digests, n
    )
    assert {r.matched for r in scalar_results} == {True, False}
    assert dedup == any(r.deduplicated for r in scalar_results)
    assert digests == any(r.digests for r in scalar_results)
    rendered = _batch_lark(wl, apps, mode, dedup, digests)
    unread = _batch_lark(wl, apps, mode, dedup, digests)
    chunks = [
        _as_matrix(chunk) if matrix else chunk
        for chunk in iter_batches(rows, size)
    ]
    position = 0
    for chunk in chunks:
        expected = scalar_results[position:position + len(chunk)]
        position += len(chunk)
        batch = rendered.process_quic_columnar(chunk)
        assert list(batch) == expected
        payloads = [
            r.aggregation_payload for r in expected
            if r.aggregation_payload is not None
        ]
        assert batch.payloads == payloads
        assert batch.folded == sum(r.folded for r in expected)
        if mode == ForwardingMode.PERIODICAL:
            assert batch.payloads == []
        blind = unread.process_quic_columnar(chunk)
        assert (blind.payloads, blind.folded) == (payloads, batch.folded)
        assert blind._results is None
    assert _lark_state(rendered) == scalar_state
    assert _lark_state(unread) == scalar_state
    assert unread._decode_memo == rendered._decode_memo
    assert unread.metrics.snapshot() == rendered.metrics.snapshot()
    # The per-batch meters: one observation per call, the packets and
    # the latencies of the per-packet meters.
    meters = {m["name"]: m for m in rendered.metrics.snapshot()}
    base = "pipeline.diff-lark."
    assert meters[base + "batches"]["value"] == len(chunks)
    assert meters[base + "batch.size"]["total"] == len(rows)
    assert (
        meters[base + "batch.latency_us"]["total"]
        == meters[base + "latency_us"]["total"]
    )
    if matrix and not any(len(row) != 20 for row in rows):
        assert all(chunk._raw is None for chunk in chunks)


def test_lark_batch_result_is_a_sequence_rendered_once():
    from repro.core.larkswitch import LarkBatchResult, LarkResult

    wl = DifferentialWorkload(SEEDS[0])
    cids = wl.cids("adversarial", 40)
    scalar = wl.new_lark()
    expected = [scalar.process_quic_packet(cid) for cid in cids]
    batch = wl.new_lark().process_quic_columnar(cids)
    assert isinstance(batch, LarkBatchResult)
    assert batch.payloads == [] and batch._results is None
    assert bool(batch) and len(batch) == 40
    first = list(batch)
    assert first == expected
    # Tests mutate results and read them back: the same objects.
    assert all(a is b for a, b in zip(first, batch))
    first[3].latency_ms = -1.0
    assert batch[3].latency_ms == -1.0 and batch[-37] is first[3]
    first[3].latency_ms = expected[3].latency_ms
    assert batch[5:9] == expected[5:9] and batch[-1] is first[-1]
    with pytest.raises(IndexError):
        batch[40]
    assert batch == expected and expected == batch
    assert batch != expected[:-1] and not batch == "batch"
    assert batch == wl.new_lark().process_quic_columnar(cids)
    assert batch + expected == expected * 2
    grown = list(expected)
    grown += batch
    assert grown == expected * 2
    assert expected[7] in batch and batch.index(expected[7]) <= 7
    assert isinstance(batch[0], LarkResult)


def test_lark_batch_result_empty_input_and_all_misses():
    from repro.switch.pipeline import LINE_RATE_LATENCY_MS

    wl = DifferentialWorkload(SEEDS[0])
    lark = wl.new_lark(mode=ForwardingMode.PER_PACKET)
    before = (_lark_state(lark), dict(lark._decode_memo))
    empty = lark.process_quic_columnar([])
    assert not empty and len(empty) == 0 and list(empty) == []
    assert empty.payloads == [] and empty.folded == 0
    assert empty == [] and empty + [] == []
    # An empty call is still a call (as before): one batch of size 0.
    assert (_lark_state(lark), lark._decode_memo) == before
    meters = {m["name"]: m for m in lark.metrics.snapshot()}
    assert meters["pipeline.diff-lark.batches"]["value"] == 1
    assert meters["pipeline.diff-lark.batch.size"]["total"] == 0
    assert meters["pipeline.diff-lark.batch.latency_us"]["total"] == 0

    misses = [bytes([9, 0xEE]) + bytes(18)] * 20 + [b"", b"\x01"]
    scalar = wl.new_lark(mode=ForwardingMode.PER_PACKET)
    expected = [scalar.process_quic_packet(row) for row in misses]
    batch = lark.process_quic_columnar(misses)
    assert batch.payloads == [] and batch.folded == 0
    assert list(batch) == expected
    assert all(
        not r.matched and r.latency_ms == LINE_RATE_LATENCY_MS for r in batch
    )
    assert _lark_state(lark) == _lark_state(scalar)


@pytest.mark.parametrize("mode", (
    ForwardingMode.PERIODICAL, ForwardingMode.PER_PACKET,
))
def test_lark_batch_result_from_the_branches_that_hold_a_list(mode):
    """A downed switch and a reshaped pipeline produce their results
    packet by packet; they come back as the same type, ``payloads``
    and ``folded`` filled in from the list."""
    from repro.core.larkswitch import LarkBatchResult

    wl = DifferentialWorkload(SEEDS[0])
    cids = wl.cids("uniform", 30)
    down = wl.new_lark(mode=mode)
    down.crash()
    batch = down.process_quic_columnar(cids)
    assert isinstance(batch, LarkBatchResult) and len(batch) == 30
    assert batch.payloads == [] and batch.folded == 0
    assert not any(r.matched for r in batch)
    assert batch == [down.process_quic_packet(cid) for cid in cids]

    scalar, reshaped = wl.new_lark(mode=mode), wl.new_lark(mode=mode)
    reshaped.pipeline.add_table(
        stage=1,
        table=MatchActionTable(
            "extra", keys=[MatchKey("app_id", MatchKind.EXACT, 8)],
            default_action="NoAction",
        ),
    )
    expected = [scalar.process_quic_packet(cid) for cid in cids]
    batch = reshaped.process_quic_columnar(cids)
    assert isinstance(batch, LarkBatchResult)
    assert batch == expected
    assert batch.folded == 30
    assert batch.payloads == [
        r.aggregation_payload for r in expected
        if r.aggregation_payload is not None
    ]
    assert bool(batch.payloads) == (mode == ForwardingMode.PER_PACKET)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_agg_columnar_bit_identical(shape, seed):
    """AggResults (including per-packet forward reports), registers and
    merged report all match between scalar and columnar aggregation."""
    wl = DifferentialWorkload(seed)
    payloads = wl.payloads(shape, PACKETS)
    assert payloads, "workload produced no aggregation payloads"
    scalar = wl.new_agg()
    columnar = wl.new_agg()
    scalar_results = [scalar.process_packet(p) for p in payloads]
    columnar_results = []
    for chunk in iter_batches(payloads, BATCH_SIZES[seed]):
        columnar_results.extend(columnar.process_columnar(chunk))
    assert columnar_results == scalar_results
    assert register_state(columnar) == register_state(scalar)
    assert columnar.merge(APP_ID) == scalar.merge(APP_ID)
    assert columnar.report(APP_ID) == scalar.report(APP_ID)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shards", (2, 4, 7))
def test_sharded_agg_matches_unsharded(seed, shards):
    """Hash-partitioned register banks merge back to exactly the
    single-bank state, scalar and columnar alike."""
    wl = DifferentialWorkload(seed)
    payloads = wl.payloads("uniform", PACKETS)
    flat = wl.new_agg(shards=1)
    sharded = wl.new_agg(shards=shards)
    for p in payloads:
        flat.process_packet(p)
    sharded.process_columnar(payloads)
    assert sharded.merge(APP_ID) == flat.merge(APP_ID)
    assert sharded.report(APP_ID) == flat.report(APP_ID)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_sharded_agg_under_hash_collision_skew(seed):
    """Adversarially skewed payloads (most hashing to one shard) still
    merge to the same report as the unsharded switch."""
    shards = 4
    wl = DifferentialWorkload(seed)
    payloads = wl.skewed_payloads(PACKETS, shards)
    flat = wl.new_agg(shards=1)
    skewed = wl.new_agg(shards=shards)
    scalar_results = [flat.process_packet(p) for p in payloads]
    columnar_results = skewed.process_columnar(payloads)
    assert skewed.report(APP_ID) == flat.report(APP_ID)
    # Per-packet forward reports are shard-independent too: the merge
    # action snapshots the *merged* state after every packet.
    assert [r.forward_report for r in columnar_results] == [
        r.forward_report for r in scalar_results
    ]


@pytest.mark.parametrize("shards", (1, 4))
@pytest.mark.parametrize("order", ("forward", "reverse", "one at random"))
def test_agg_forward_reports_render_on_demand_in_any_order(order, shards):
    """A columnar batch's forward reports are rendered when read, from
    the run's trail; whichever way they are read, each equals the
    scalar switch's report at that packet's own merge point."""
    wl = DifferentialWorkload(SEEDS[shards % len(SEEDS)])
    payloads = wl.payloads("zipfian", PACKETS)
    scalar, columnar = wl.new_agg(shards), wl.new_agg(shards)
    expected = [scalar.process_packet(p).forward_report for p in payloads]
    results = columnar.process_columnar(payloads)
    positions = list(range(len(payloads)))
    if order == "reverse":
        positions.reverse()
    elif order == "one at random":
        positions = [random.Random(shards).choice(positions)]
    for position in positions:
        assert results[position].forward_report == expected[position]
    assert register_state(columnar) == register_state(scalar)
    assert columnar.merge(APP_ID) == scalar.merge(APP_ID)
    assert columnar.report(APP_ID) == scalar.report(APP_ID)


@pytest.mark.parametrize("seed", SEEDS[:3])
@pytest.mark.parametrize("shards", (1, 4))
def test_agg_mixed_modes_and_corruption_bit_identical(seed, shards):
    """Per-packet rows interleaved with periodical snapshots (each
    flushes the pending run) and byte-flipped payloads (anywhere from
    the summary byte to the last cipher block): same results, same
    registers, and a rejected payload mutates nothing on either path."""
    wl = DifferentialWorkload(seed)
    rng = random.Random(seed + 9)
    lark = wl.new_lark(mode=ForwardingMode.PERIODICAL)
    cids = wl.cids("uniform", PACKETS)
    payloads = []
    for cid, payload in zip(cids, wl.payloads("uniform", PACKETS)):
        lark.process_quic_packet(cid)
        draw = rng.random()
        if draw < 0.05:
            payloads.append(lark.end_period(APP_ID))
        elif draw < 0.15:
            mutated = bytearray(payload)
            mutated[rng.randrange(3, len(mutated))] ^= 1 << rng.randrange(8)
            payload = bytes(mutated)
        payloads.append(payload)
    scalar, columnar = wl.new_agg(shards), wl.new_agg(shards)
    scalar_results = []
    for p in payloads:
        before = register_state(scalar)
        scalar_results.append(scalar.process_packet(p))
        if not scalar_results[-1].merged:
            assert register_state(scalar) == before
    assert {r.merged for r in scalar_results} == {True, False}
    columnar_results = []
    for chunk in iter_batches(payloads, BATCH_SIZES[seed]):
        columnar_results.extend(columnar.process_columnar(chunk))
    assert columnar_results == scalar_results
    assert register_state(columnar) == register_state(scalar)
    assert columnar.merge(APP_ID) == scalar.merge(APP_ID)
    assert columnar.report(APP_ID) == scalar.report(APP_ID)
    assert columnar.packets_merged(APP_ID) == scalar.packets_merged(APP_ID)


def _reshape(switch):
    """Install a second stage the columnar path knows nothing about: a
    table whose default action drops every packet."""

    def drop(pipeline, phv, params):
        phv.drop = True

    switch.pipeline.register_action("drop_all", drop)
    switch.pipeline.add_table(
        stage=1,
        table=MatchActionTable(
            "%s.acl" % switch.name,
            keys=[MatchKey("app_id", MatchKind.EXACT, 8)],
            default_action="drop_all",
        ),
    )


@pytest.mark.parametrize("shape", SHAPES)
def test_reshaped_pipeline_runs_through_the_interpreter(shape):
    """The columnar entry points hard-code the program shape the switch
    installed.  Once someone adds a table, only the interpreter knows
    what the program means: the batch must go through it packet by
    packet (here: every packet still folds, then the new stage drops
    it) instead of silently ignoring the new stage."""
    wl = DifferentialWorkload(SEEDS[0])
    cids = wl.cids(shape, PACKETS)
    scalar, columnar = wl.new_lark(), wl.new_lark()
    _reshape(scalar)
    _reshape(columnar)
    assert not columnar._columnar_ready()
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids]
    columnar_results = []
    for chunk in iter_batches(cids, 64):
        columnar_results.extend(columnar.process_quic_columnar(chunk))
    assert columnar_results == scalar_results
    assert not any(r.forwarded_original for r in columnar_results)
    assert register_state(columnar) == register_state(scalar)

    payloads = wl.payloads(shape, PACKETS)
    scalar_agg, columnar_agg = wl.new_agg(), wl.new_agg()
    _reshape(scalar_agg)
    _reshape(columnar_agg)
    assert not columnar_agg._columnar_ready()
    assert columnar_agg.process_columnar(payloads) == [
        scalar_agg.process_packet(p) for p in payloads
    ]
    assert register_state(columnar_agg) == register_state(scalar_agg)
    assert columnar_agg.pipeline.packets_dropped == len(payloads)


def test_testbed_batched_matches_scalar_analytics():
    """End to end: a batched-data-plane testbed run reaches the same
    analytics report as the scalar run (latency differs only by the
    modeled batching window)."""
    config = TestbedConfig(
        scheme=Scheme.TRANS_1RTT,
        insa=True,
        requests_per_second=40.0,
        duration_ms=2000.0,
    )
    scalar = NetworkTestbed(config=config).run()
    batched = NetworkTestbed(
        config=config, batch_window_ms=5.0, batch_max=64, agg_shards=4
    ).run()
    assert scalar.counts_match_reference()
    assert batched.counts_match_reference()
    assert batched.report == scalar.report
    assert len(batched.latencies_ms) == len(scalar.latencies_ms)
    assert batched.aggregation_packets == scalar.aggregation_packets
