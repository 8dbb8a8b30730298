"""Differential proof that the columnar fast path is bit-identical to
the scalar interpreter — under both kernel forms.

The load-bearing invariant of the columnar path
(``LarkSwitch.process_quic_columnar``, ``AggSwitch.process_columnar``)
is that it is *purely* a host-CPU optimization: every observable —
each batch's columns (``LarkBatchResult.of`` / ``AggBatchResult.of``
of the scalar results over the same chunk), raw register contents,
statistics reports, switch counters, RNG state — must equal the scalar
path's, byte for byte.  This suite replays the same seeded streams
through both paths across three workload shapes (uniform, zipfian,
adversarial) and five seeds, at several chunk sizes, and runs every
case twice in process: with
the numpy gate forced open and forced closed.  The chunk
sizes straddle :data:`repro.switch.columns.VECTOR_MIN_ROWS`, so the
numpy leg also covers the small-batch cut-off to the Python forms.
"""

import itertools
import random

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core import larkswitch
from repro.core.aggswitch import AggBatchResult
from repro.core.larkswitch import LarkBatchResult, LarkSwitch
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs.registry import MetricsRegistry
from repro.switch import columns
from repro.switch.tables import MatchActionTable, MatchKey, MatchKind
from repro.testbed.pipeline import StreamingPipeline
from repro.workloads.adcampaign import AdCampaignWorkload

from tests.differential.workloads import (
    APP_ID,
    SHAPES,
    DifferentialWorkload,
    columnar_batches,
    register_state,
    scalar_columns,
    table_meters,
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


def _lark_state(lark):
    """Everything a batch may touch, the per-batch meters apart."""
    return {
        "registers": register_state(lark),
        "rng": lark._rng.getstate(),
        "metrics": [
            m for m in lark.metrics.snapshot() if ".batch" not in m["name"]
        ],
        "bloom": {
            app_id: (app.dedup._bits.snapshot(), app.dedup.items_added)
            for app_id, app in lark._apps.items() if app.dedup is not None
        },
    }


def _run_lark_pair(wl, shape, batch_size, mode):
    """The stream packet by packet and in ``batch_size`` chunks: the
    two switches, the columnar batches and the scalar results as the
    same chunks' columns."""
    cids = wl.cids(shape, PACKETS)
    scalar = wl.new_lark(mode=mode)
    columnar = wl.new_lark(mode=mode)
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids]
    batches = columnar_batches(
        columnar.process_quic_columnar, cids, batch_size
    )
    expected = scalar_columns(LarkBatchResult.of, scalar_results, batches)
    return scalar, columnar, expected, batches


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_columnar_bit_identical(shape, seed):
    """Columns, registers, counters, RNG and reports all match."""
    wl = DifferentialWorkload(seed)
    scalar, columnar, expected, batches = _run_lark_pair(
        wl, shape, BATCH_SIZES[seed], ForwardingMode.PERIODICAL
    )
    for i, (want, got) in enumerate(zip(expected, batches)):
        assert got == want, "batch %d diverged (%s, seed %d)" % (
            i, shape, seed
        )
    assert _lark_state(columnar) == _lark_state(scalar)
    assert columnar.stats_report(APP_ID) == scalar.stats_report(APP_ID)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_columnar_bit_identical_per_packet_mode(shape, seed):
    """Per-packet forwarding encodes a payload per match (fresh IV from
    the app RNG) — the RNG consumption order must also line up."""
    wl = DifferentialWorkload(seed)
    scalar, columnar, expected, batches = _run_lark_pair(
        wl, shape, BATCH_SIZES[seed], ForwardingMode.PER_PACKET
    )
    assert batches == expected
    assert any(batch.payloads for batch in batches)
    assert _lark_state(columnar) == _lark_state(scalar)
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
    batches = columnar_batches(
        columnar.process_quic_columnar, cids, (1, 5, 40, 17, 90)
    )
    assert batches == scalar_columns(
        LarkBatchResult.of, scalar_results, batches
    )
    emitted = [r.aggregation_payload is not None for r in scalar_results]
    assert any(emitted) and not all(emitted)
    assert _lark_state(columnar) == _lark_state(scalar)
    for app_id in app_ids:
        assert columnar.stats_report(app_id) == scalar.stats_report(app_id)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_digests_count_off_the_wire_row(shape, seed):
    """A digest-feature app: the columnar path counts the digests off
    each folded group's wire row (one per present digest feature,
    times the group's multiplicity) exactly as the scalar path emits
    them packet by packet."""
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
    batches = columnar_batches(
        columnar.process_quic_columnar, cids, BATCH_SIZES[seed]
    )
    assert batches == scalar_columns(
        LarkBatchResult.of, scalar_results, batches
    )
    folded = sum(batch.folded for batch in batches)
    emitted = sum(len(r.digests) for r in scalar_results)
    assert 0 < folded <= emitted <= 2 * folded
    assert _lark_state(columnar) == _lark_state(scalar)
    metrics = [
        lark.metrics.counter("lark.diff-lark.digests").value
        for lark in (scalar, columnar)
    ]
    assert metrics[0] == metrics[1] == emitted


@pytest.mark.parametrize("bound", (None, 4), ids=("default", "memo-4"))
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_replayed_batch_folds_from_the_memo(shape, bound, monkeypatch):
    """The same batch twice: the second pass is all memo hits (or, with
    a four-entry memo, mostly evictions and re-decrypts), so its rows
    and values come out of the memo rather than the codec — and must
    fold and report exactly like 2x the scalar stream."""
    if bound is not None:
        monkeypatch.setattr(larkswitch, "DECODE_MEMO_BOUND", bound)
    wl = DifferentialWorkload(SEEDS[1])
    cids = wl.cids(shape, PACKETS)
    scalar = wl.new_lark()
    columnar = LarkSwitch(
        "diff-lark", rng=random.Random(wl.seed + 1),
        registry=MetricsRegistry(),
    )
    columnar.register_application(
        APP_ID, wl.schema, wl.key, wl.specs,
        mode=ForwardingMode.PERIODICAL, period_ms=1000.0,
    )
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids * 2]
    batches = [columnar.process_quic_columnar(cids)]
    memo_after_first = dict(columnar._decode_memo)
    batches.append(columnar.process_quic_columnar(cids))
    if bound is None:
        assert columnar._decode_memo == memo_after_first
    else:
        assert len(columnar._decode_memo) <= bound
    assert batches == scalar_columns(
        LarkBatchResult.of, scalar_results, batches
    )
    assert _lark_state(columnar) == _lark_state(scalar)
    assert columnar.stats_report(APP_ID) == scalar.stats_report(APP_ID)


def test_lark_memo_holds_its_bound_on_a_longer_stream(monkeypatch):
    """Every encode miss mints a new cookie, so the memo grows with
    the misses; a stream with many times more of them than the bound
    keeps the memo within it after every batch, and the evictions cost
    only re-decrypts: the report still equals the reference fold."""
    monkeypatch.setattr(larkswitch, "DECODE_MEMO_BOUND", 64)
    sizes = []
    pipe = StreamingPipeline(
        AdCampaignWorkload(num_users=200, seed=SEEDS[0]), seed=SEEDS[0],
        batch_size=128, cache_capacity=32,
        on_batch=lambda p, _: sizes.append(len(p.lark._decode_memo)),
    )
    result = pipe.run(20_000.0, 200.0)
    sizes.append(len(pipe.lark._decode_memo))
    assert result.cache_stats["misses"] > 8 * 64
    assert max(sizes) <= 64
    assert result.counts_match_reference()


@pytest.mark.parametrize("bound", (4, 64), ids=("memo-4", "memo-64"))
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_columnar_bit_identical_while_the_memo_evicts(
    shape, seed, bound, monkeypatch
):
    """Eviction only costs re-decrypts: with a memo far smaller than
    the stream's distinct cookies, columns, counters, registers and
    reports still equal the scalar path's at every chunking."""
    monkeypatch.setattr(larkswitch, "DECODE_MEMO_BOUND", bound)
    wl = DifferentialWorkload(seed)
    scalar, columnar, expected, batches = _run_lark_pair(
        wl, shape, BATCH_SIZES[seed], ForwardingMode.PERIODICAL
    )
    assert len(columnar._decode_memo) <= bound
    assert batches == expected
    assert _lark_state(columnar) == _lark_state(scalar)
    assert columnar.stats_report(APP_ID) == scalar.stats_report(APP_ID)


@pytest.mark.parametrize("seed", SEEDS[:2])
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_per_packet_mode_bit_identical_while_the_memo_evicts(
    shape, seed, monkeypatch
):
    """The per-packet payloads draw their IVs in packet order whether
    a row came from the memo or from a re-decrypt after an eviction."""
    monkeypatch.setattr(larkswitch, "DECODE_MEMO_BOUND", 4)
    wl = DifferentialWorkload(seed)
    scalar, columnar, expected, batches = _run_lark_pair(
        wl, shape, BATCH_SIZES[seed], ForwardingMode.PER_PACKET
    )
    assert len(columnar._decode_memo) <= 4
    assert batches == expected
    assert _lark_state(columnar) == _lark_state(scalar)
    assert columnar.stats_report(APP_ID) == scalar.stats_report(APP_ID)


@pytest.mark.parametrize("bound", (2, 4, 8, 16))
@pytest.mark.parametrize("shape", SHAPES)
def test_lark_memo_drops_its_older_half(shape, bound, monkeypatch):
    """After every batch the memo holds at most the bound; an eviction
    drops the oldest entries in one pass down to half the bound, so
    the entries that survive from before the batch are the newest of
    them, in their old order, followed by the batch's new entries."""
    monkeypatch.setattr(larkswitch, "DECODE_MEMO_BOUND", bound)
    wl = DifferentialWorkload(SEEDS[2])
    cids = wl.cids(shape, PACKETS)
    lark = wl.new_lark()
    evictions = 0
    for at in range(0, len(cids), 16):
        before = list(lark._decode_memo)
        lark.process_quic_columnar(cids[at:at + 16])
        after = list(lark._decode_memo)
        old = set(before)
        kept = [key for key in after if key in old]
        assert len(after) <= bound
        assert kept == before[len(before) - len(kept):]
        assert after[:len(kept)] == kept
        if len(kept) < len(before):
            evictions += 1
            assert len(after) == bound // 2
    assert evictions > 0


@pytest.mark.parametrize("change", ("register", "rekey", "revoke"))
def test_lark_control_plane_change_empties_the_memo(change):
    """A memo entry is a decode under one app's key and schema, so any
    control-plane change to the app table empties it, and the columnar
    path keeps matching the scalar path across the change."""
    wl = DifferentialWorkload(SEEDS[3])
    cids = wl.cids("uniform", PACKETS)
    scalar, columnar = wl.new_lark(), wl.new_lark()
    scalar_results = [scalar.process_quic_packet(cid) for cid in cids]
    batches = [columnar.process_quic_columnar(cids)]
    assert columnar._decode_memo
    for lark in (scalar, columnar):
        if change == "register":
            lark.register_application(
                APP_ID + 1, wl.schema, wl.wrong_key, wl.specs,
                mode=ForwardingMode.PERIODICAL, period_ms=1000.0,
            )
        elif change == "rekey":
            lark.rekey_application(APP_ID, wl.wrong_key)
        else:
            assert lark.revoke_application(APP_ID)
    assert columnar._decode_memo == {}
    scalar_results += [scalar.process_quic_packet(cid) for cid in cids]
    batches.append(columnar.process_quic_columnar(cids))
    assert batches == scalar_columns(
        LarkBatchResult.of, scalar_results, batches
    )
    assert _lark_state(columnar) == _lark_state(scalar)


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
    batch = columnar.process_quic_columnar(cids)
    assert batch.payloads == [r.aggregation_payload for r in scalar_results]
    assert batch == LarkBatchResult.of(scalar_results)
    assert len(batch.payloads) == len(cids)
    agg_codec = columnar._apps[APP_ID].agg_codec
    assert any(len(values) < len(features) for values in cookies)
    for values, result, payload in zip(
        cookies, scalar_results, batch.payloads
    ):
        assert result.decoded_values == values
        assert agg_codec.decode(payload).items == [
            (index, feature.encode_value(values[feature.name]))
            for index, feature in enumerate(features)
            if feature.name in values
        ]


# -- the row sealer: per-packet payloads straight from wire rows -----------


def _ragged_cids(wl, app_ids, keys, n, seed):
    """Cookies carrying anything from every feature to none at all (an
    all-absent row is a decode failure: it folds and seals nothing), so
    one batch holds payloads of several lengths and packets that emit
    none; a small pool, so most packets repeat a cookie."""
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
        # One feature seals the shortest payload; none seals nothing.
        name = sorted(values)[0]
        pool.append(codec.encode({name: values[name]}))
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
    for batch in columnar_batches(columnar.process_quic_columnar, cids, size):
        payloads.extend(batch.payloads)
    assert payloads == [
        r.aggregation_payload for r in expected
        if r.aggregation_payload is not None
    ]
    assert len({len(p) for p in payloads}) == 3
    carrying = sum(
        r.decoded_values is not None or r.deduplicated for r in expected
    )
    assert 0 < carrying < len(cids)
    assert dedup == (len(payloads) < carrying)
    assert columnar._rng.getstate() == scalar._rng.getstate()
    assert register_state(columnar) == register_state(scalar)
    assert [
        m for m in columnar.metrics.snapshot() if ".batch" not in m["name"]
    ] == [m for m in scalar.metrics.snapshot() if ".batch" not in m["name"]]


def test_columnar_per_packet_path_builds_no_object_per_payload(monkeypatch):
    """The structure behind the speed: a per-packet lark batch seals
    its payloads without one ``AggregationPacket`` or ``_serialise``
    call, and the AggSwitch folds them without one ``AggResult``."""
    from repro.core import aggregation, aggswitch, larkswitch

    wl = DifferentialWorkload(SEEDS[0])
    cids = wl.cids("uniform", 64)
    scalar = wl.new_lark(mode=ForwardingMode.PER_PACKET)
    expected = [scalar.process_quic_packet(cid) for cid in cids]
    lark, agg = wl.new_lark(mode=ForwardingMode.PER_PACKET), wl.new_agg()

    def forbidden(*_args, **_kwargs):
        raise AssertionError("built an object per payload")

    with monkeypatch.context() as patch:
        patch.setattr(larkswitch, "AggregationPacket", forbidden)
        patch.setattr(aggregation, "AggregationPacket", forbidden)
        patch.setattr(aggregation.AggregationCodec, "_serialise", forbidden)
        patch.setattr(aggswitch, "AggResult", forbidden)
        payloads = lark.process_quic_columnar(cids).payloads
        batch = agg.process_columnar(payloads)
    assert batch == AggBatchResult(64, 64)
    assert table_meters(agg) == (64, 0)
    assert payloads == [r.aggregation_payload for r in expected]


# -- the batch columns are the scalar path's, its counters the group
# -- arithmetic -------------------------------------------------------------

_BATCH_APPS = (APP_ID, APP_ID + 1)


def _batch_lark(wl, apps, mode, dedup, digests):
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
def test_lark_batch_columns_and_counters_are_the_scalar_path(
    size, n, mode, dedup, digests, apps, matrix
):
    """Each batch is ``LarkBatchResult.of`` the scalar results of its
    chunk — payloads, ``folded``, packets — and every counter (the app
    table's hits and misses, the latencies among them) is what the
    scalar switch counts packet by packet, whether the chunk comes as a
    row list or as a (ragged) matrix."""
    if matrix and not columns.numpy_enabled():
        pytest.skip("matrix-built batches need the numpy gate open")
    wl, rows, scalar_results, scalar_state = _scalar_run(
        SEEDS[0], apps, mode, dedup, digests, n
    )
    assert {r.matched for r in scalar_results} == {True, False}
    assert dedup == any(r.deduplicated for r in scalar_results)
    assert digests == any(r.digests for r in scalar_results)
    lark = _batch_lark(wl, apps, mode, dedup, digests)
    chunks = [
        _as_matrix(chunk) if matrix else chunk
        for chunk in (rows[at:at + size] for at in range(0, len(rows), size))
    ]
    position = 0
    for chunk in chunks:
        expected = scalar_results[position:position + len(chunk)]
        position += len(chunk)
        batch = lark.process_quic_columnar(chunk)
        assert batch == LarkBatchResult.of(expected)
        if mode == ForwardingMode.PERIODICAL:
            assert batch.payloads == []
    assert _lark_state(lark) == scalar_state
    # The per-batch meters: one observation per call, the packets and
    # the latencies of the per-packet meters.
    meters = {m["name"]: m for m in lark.metrics.snapshot()}
    base = "pipeline.diff-lark."
    assert meters[base + "batches"]["value"] == len(chunks)
    assert meters[base + "batch.size"]["total"] == len(rows)
    assert (
        meters[base + "batch.latency_us"]["total"]
        == meters[base + "latency_us"]["total"]
    )
    if matrix and not any(len(row) != 20 for row in rows):
        assert all(chunk._raw is None for chunk in chunks)


def test_lark_batch_result_empty_input_and_all_misses():
    from repro.switch.pipeline import LINE_RATE_LATENCY_MS

    wl = DifferentialWorkload(SEEDS[0])
    lark = wl.new_lark(mode=ForwardingMode.PER_PACKET)
    before = (_lark_state(lark), dict(lark._decode_memo))
    empty = lark.process_quic_columnar([])
    assert len(empty) == 0 and empty == LarkBatchResult.of([])
    assert empty == LarkBatchResult([], 0, 0)
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
    assert batch == LarkBatchResult.of(expected)
    assert batch == LarkBatchResult([], 0, len(misses))
    assert table_meters(lark) == (0, len(misses))
    meters = {m["name"]: m for m in lark.metrics.snapshot()}
    assert meters["pipeline.diff-lark.batch.latency_us"]["total"] == round(
        len(misses) * LINE_RATE_LATENCY_MS * 1000.0
    )
    assert _lark_state(lark) == _lark_state(scalar)


@pytest.mark.parametrize("mode", (
    ForwardingMode.PERIODICAL, ForwardingMode.PER_PACKET,
))
def test_lark_batch_result_from_the_branches_that_hold_a_list(mode):
    """A downed switch and a reshaped pipeline produce their results
    packet by packet; they come back as the same batch result."""
    wl = DifferentialWorkload(SEEDS[0])
    cids = wl.cids("uniform", 30)
    down = wl.new_lark(mode=mode)
    down.crash()
    before = down.metrics.snapshot()
    batch = down.process_quic_columnar(cids)
    assert batch == LarkBatchResult([], 0, 30)
    # A downed switch is routed around: no meter moves.
    assert down.metrics.snapshot() == before
    assert batch == LarkBatchResult.of(
        [down.process_quic_packet(cid) for cid in cids]
    )

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
    assert batch == LarkBatchResult.of(expected)
    assert batch.folded == 30
    assert table_meters(reshaped) == table_meters(scalar) == (30, 0)
    assert batch.payloads == [
        r.aggregation_payload for r in expected
        if r.aggregation_payload is not None
    ]
    assert bool(batch.payloads) == (mode == ForwardingMode.PER_PACKET)


def _agg_state(agg):
    """Registers, merged aggregate, report and counters of the diff
    workload's AggSwitch, the per-batch meters apart."""
    return {
        "registers": register_state(agg),
        "merge": agg.merge(APP_ID),
        "report": agg.report(APP_ID),
        "packets_merged": agg.packets_merged(APP_ID),
        "metrics": [
            m for m in agg.metrics.snapshot() if ".batch" not in m["name"]
        ],
    }


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shape", SHAPES)
def test_agg_columnar_bit_identical(shape, seed):
    """Columns, registers, counters and the merged report all match
    between scalar and columnar aggregation."""
    wl = DifferentialWorkload(seed)
    payloads = wl.payloads(shape, PACKETS)
    assert payloads, "workload produced no aggregation payloads"
    scalar = wl.new_agg()
    columnar = wl.new_agg()
    scalar_results = [scalar.process_packet(p) for p in payloads]
    batches = columnar_batches(
        columnar.process_columnar, payloads, BATCH_SIZES[seed]
    )
    assert batches == scalar_columns(
        AggBatchResult.of, scalar_results, batches
    )
    assert _agg_state(columnar) == _agg_state(scalar)


@pytest.mark.parametrize("seed", (SEEDS[1], SEEDS[4]))
@pytest.mark.parametrize("size", (1, 7, 64))
def test_agg_report_after_each_call_is_the_scalar_forward_report(size, seed):
    """A columnar call builds no forward report; what a forwarding
    switch would send after it, the application's report, is the
    scalar switch's forward report at the call's last payload,
    wherever the stream is cut."""
    wl = DifferentialWorkload(seed)
    payloads = wl.payloads("zipfian", PACKETS)
    scalar, columnar = wl.new_agg(), wl.new_agg()
    scalar_results = [scalar.process_packet(p) for p in payloads]
    assert all(r.merged for r in scalar_results)
    for at in range(0, len(payloads), size):
        chunk = scalar_results[at:at + size]
        batch = columnar.process_columnar(payloads[at:at + size])
        assert batch == AggBatchResult.of(chunk)
        assert columnar.report(APP_ID) == chunk[-1].forward_report, (
            "report after the call at %d diverged" % at
        )
    assert _agg_state(columnar) == _agg_state(scalar)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_agg_mixed_modes_and_corruption_bit_identical(seed):
    """Per-packet rows interleaved with periodical snapshots (each
    flushes the pending run) and byte-flipped payloads (anywhere from
    the summary byte to the last cipher block): same columns, same
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
            payloads.extend(lark.end_period(APP_ID))
        elif draw < 0.15:
            mutated = bytearray(payload)
            mutated[rng.randrange(3, len(mutated))] ^= 1 << rng.randrange(8)
            payload = bytes(mutated)
        payloads.append(payload)
    scalar, columnar = wl.new_agg(), wl.new_agg()
    scalar_results = []
    for p in payloads:
        before = register_state(scalar)
        scalar_results.append(scalar.process_packet(p))
        if not scalar_results[-1].merged:
            assert register_state(scalar) == before
    assert {r.merged for r in scalar_results} == {True, False}
    batches = columnar_batches(
        columnar.process_columnar, payloads, BATCH_SIZES[seed]
    )
    assert batches == scalar_columns(
        AggBatchResult.of, scalar_results, batches
    )
    assert _agg_state(columnar) == _agg_state(scalar)


def _meter(switch, name):
    return {m["name"]: m for m in switch.metrics.snapshot()}[name]["value"]


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
    batches = columnar_batches(columnar.process_quic_columnar, cids, 64)
    assert batches == scalar_columns(
        LarkBatchResult.of, scalar_results, batches
    )
    # The new stage dropped every original, as on the scalar switch.
    drops = "pipeline.diff-lark.drops"
    assert _meter(columnar, drops) == _meter(scalar, drops) == len(cids)
    assert columnar.pipeline.packets_dropped == len(cids)
    assert scalar.pipeline.packets_dropped == len(cids)
    assert register_state(columnar) == register_state(scalar)

    payloads = wl.payloads(shape, PACKETS)
    scalar_agg, columnar_agg = wl.new_agg(), wl.new_agg()
    _reshape(scalar_agg)
    _reshape(columnar_agg)
    assert not columnar_agg._columnar_ready()
    batch = columnar_agg.process_columnar(payloads)
    assert batch == AggBatchResult.of(
        [scalar_agg.process_packet(p) for p in payloads]
    )
    assert batch.merged == len(payloads)
    assert register_state(columnar_agg) == register_state(scalar_agg)
    assert columnar_agg.pipeline.packets_dropped == len(payloads)


def test_pipeline_analytics_are_independent_of_the_kernel_form():
    """End to end: a streaming run under the fixture's kernel form
    reaches the same analytics, register state, payload count and
    cache behaviour as a pure-Python run."""

    def run():
        return StreamingPipeline(
            AdCampaignWorkload(num_users=200, seed=SEEDS[3]),
            seed=SEEDS[3], batch_size=BATCH_SIZES[SEEDS[3]],
        ).run(2000.0, 200.0)

    result = run()
    previous = columns._FORCED
    columns.force_numpy(False)
    try:
        python = run()
    finally:
        columns._FORCED = previous
    assert result.counts_match_reference()
    assert result == python
