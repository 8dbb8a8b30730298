"""Properties of the client-side cookie encode cache.

The cache is only admissible because the Snatch CID policy preserves
bytes [1, 18) across connections — so a cached encrypted block must be
indistinguishable (to every decoder) from a freshly encoded one, and a
controller rekey or version push must atomically drop every block
minted under the superseded parameters.
"""

import hashlib
import random
from collections import OrderedDict
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cookie_cache import SLOT_KERNEL_MIN_ROWS, CookieEncodeCache
from repro.core.schema import Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.quic.connection_id import ConnectionID
from repro.switch.columns import HAVE_NUMPY, force_numpy, get_numpy
from repro.workloads.adcampaign import AdCampaignWorkload
from repro.workloads.columns import EventColumns

from tests.control import new_controller, settled

APP_ID = 0x5C
KEY = bytes(range(16))

REGIONS = ("north", "south", "east", "west")
INTERESTS = ("music", "sport", "food")


def _schema():
    from repro.core.schema import CookieSchema

    return CookieSchema(
        "crowd",
        (
            Feature.categorical("region", REGIONS),
            Feature.categorical("interest", INTERESTS),
            Feature.number("dwell", 0, 240),
        ),
    )


def _values(i):
    return {
        "region": REGIONS[i % len(REGIONS)],
        "interest": INTERESTS[i % len(INTERESTS)],
        "dwell": (i * 37) % 241,
    }


def _encode(cache, key, values):
    """One cookie through the batch entry point."""
    return ConnectionID(
        cache.encode_columns([key], values_fn=lambda _: values).raw[0]
    )


def _cache(capacity=4096, seed=3):
    codec = TransportCookieCodec(APP_ID, _schema(), KEY, random.Random(seed))
    return CookieEncodeCache(codec, capacity=capacity)


class TestDecodeIdentity:
    def test_cached_and_fresh_cookies_decode_identically(self):
        cache = _cache()
        decoder = TransportCookieCodec(
            APP_ID, _schema(), KEY, random.Random(99)
        )
        miss = _encode(cache, 7, _values(7))
        hit = _encode(cache, 7, _values(7))
        fresh = decoder.encode(_values(7))
        assert cache.hits == 1 and cache.misses == 1
        # The semantic region is byte-identical between hit and miss...
        assert bytes(miss)[1:18] == bytes(hit)[1:18]
        # ...and all three decode to the same feature vector.
        for cid in (miss, hit, fresh):
            assert decoder.decode(cid).values == _values(7)

    def test_batch_decodes_to_expected_values(self):
        cache = _cache()
        decoder = TransportCookieCodec(
            APP_ID, _schema(), KEY, random.Random(98)
        )
        keys = [i % 9 for i in range(120)]
        cids = cache.encode_columns(keys, lambda i: _values(keys[i])).raw
        for key, cid in zip(keys, cids):
            assert decoder.decode(ConnectionID(cid)).values == _values(key)
        assert cache.misses == 9
        # All 111 repeats land in the same batch as their first
        # occurrence: they ride the queued AES pass, and are counted
        # apart from true warm-cache hits.
        assert cache.hits == 0
        assert cache.queued_hits == 120 - 9


class TestEntryPointEquivalence:
    def test_columns_bytes_identical_with_and_without_numpy(self):
        """Matrix assembly (gate open) and row assembly (gate closed)
        draw the framing bytes in the same order."""
        keys = [i % 17 for i in range(150)]
        cache_a = _cache(seed=7)
        cache_b = _cache(seed=7)
        force_numpy(True)
        try:
            matrix = cache_a.encode_columns(keys, lambda i: _values(keys[i]))
            force_numpy(False)
            rows = cache_b.encode_columns(keys, lambda i: _values(keys[i]))
        finally:
            force_numpy(None)
        assert matrix.raw == rows.raw
        assert cache_a.stats() == cache_b.stats()

    def test_warm_batch_equals_sequential_encode(self):
        cache = _cache(seed=11)
        keys = [i % 6 for i in range(6)]
        cache.encode_columns(keys, lambda i: _values(keys[i]))  # warm
        state = cache.codec.rng.getstate()
        batched = cache.encode_columns(keys, lambda i: _values(keys[i]))
        cache.codec.rng.setstate(state)
        sequential = [
            _encode(cache, k, _values(k)) for k in keys
        ]
        assert batched.raw == [bytes(b) for b in sequential]


class TestBoundsAndInvalidation:
    def test_lru_bound_and_evictions(self):
        cache = _cache(capacity=8)
        keys = list(range(50))
        cache.encode_columns(keys, lambda i: _values(keys[i]))
        assert len(cache) <= 8
        assert cache.evictions == 50 - 8
        # The most recently stored keys survived.
        _encode(cache, 49, _values(49))
        assert cache.hits == 1

    def test_rekey_drops_every_block_and_reencodes(self):
        cache = _cache()
        cache.encode_columns(list(range(10)), lambda i: _values(i))
        assert len(cache) == 10 and cache.misses == 10
        new_key = bytes(reversed(range(16)))
        cache.rekey(new_key)
        assert len(cache) == 0
        assert cache.epoch == 1 and cache.invalidations == 1
        # Same user key after the rekey: a miss (no stale serve), and
        # the fresh cookie decodes under the *new* key.
        cid = _encode(cache, 3, _values(3))
        assert cache.misses == 11
        decoder = TransportCookieCodec(
            APP_ID, _schema(), new_key, random.Random(1)
        )
        assert decoder.decode(cid).values == _values(3)

    def test_rekey_preserves_rng_stream(self):
        cache = _cache(seed=13)
        before = cache.codec.rng
        cache.rekey(bytes(16))
        assert cache.codec.rng is before


class TestControllerClientHooks:
    def _controller_and_cache(self):
        controller = new_controller(seed=5)
        handle = settled(
            controller.add_application,
            "crowd",
            list(_schema().features),
            [StatSpec("interest_by_region", StatKind.COUNT_BY_CLASS,
                      "interest", group_by="region")],
        )
        codec = TransportCookieCodec(
            handle.app_id, handle.transport_schema, handle.key,
            random.Random(3),
        )
        cache = CookieEncodeCache(codec)
        controller.attach_client(cache)
        return controller, cache, handle

    def test_version_push_invalidates_and_adopts_parameters(self):
        controller, cache, handle = self._controller_and_cache()
        cache.encode_columns(list(range(12)), lambda i: _values(i))
        assert len(cache) == 12
        new_handle = settled(controller.update_application, "crowd")
        assert cache.epoch == 1 and len(cache) == 0
        assert cache.app_id == new_handle.app_id
        # Cookies minted after the push decode under the new version.
        cid = _encode(cache, 0, _values(0))
        decoder = TransportCookieCodec(
            new_handle.app_id, new_handle.transport_schema,
            new_handle.key, random.Random(1),
        )
        assert decoder.decode(cid).values == _values(0)

    def test_revoke_invalidates(self):
        controller, cache, handle = self._controller_and_cache()
        _encode(cache, 0, _values(0))
        settled(controller.remove_application, "crowd")
        assert cache.epoch == 1 and len(cache) == 0

    def test_unrelated_push_is_ignored(self):
        controller, cache, handle = self._controller_and_cache()
        _encode(cache, 0, _values(0))
        settled(
            controller.add_application,
            "other",
            [Feature.categorical("tier", ("a", "b"))],
            [StatSpec("sessions", StatKind.COUNT_BY_CLASS, "tier")],
        )
        assert cache.epoch == 0 and len(cache) == 1


# Recorded at the parent of the wire-row change (commit 68435f6, the
# value-dict encode path) by replaying the stream of
# ``_replay`` below: per batch size, (sha256 of every wire cookie in
# order, sha256 of repr(rng.getstate()), sha256 of repr(LRU items),
# hits, queued hits, misses, evictions).  3051 events over 960
# identities against 256 entries; the 1024 batches carry ~480 misses
# (numpy row kernels), the others stay under the kernel cut.
PARENT_PINS = {
    1: (
        "f14ead04c2583c93bfe8369b1d25596e62d375d2b14e5a5a1de49875bc21dfc2",
        "9cf3d381d53a274d4877d1f2729c9811efa3ed248df64cbba75491e4c961e2d7",
        "bdacfd4c244cee62c96dcb8381887737c7fe512e7c9d7318a9262f180447424e",
        916, 0, 2135, 1879,
    ),
    7: (
        "df0f4b51f3f578bac93155f1c89e55da727c1b1e407e686bf627b3700757ab66",
        "02c34a1e069af17977a636f9945d88a55c4b9346507e1abb0f77479405cf4fec",
        "a9c7fef4cb705ccde448dad03072e22b15205ae906b4a496cb42eca4c6b83dd1",
        910, 9, 2132, 1876,
    ),
    40: (
        "bfcbb7da1684b75741148f6ff3593a2e60d076d4e01bd816eea4420d1ef1303a",
        "3de78a3c969d9c8f2e3bab8902ccbe2156fb4783712082004fe483023054bb23",
        "24c0e8094c647237b5d2e197e41278e6c442d451d05ac6317e4aa92dc946b75e",
        905, 57, 2089, 1833,
    ),
    1024: (
        "bbb7d99e60d7304df9a47997235118735c5377060b295ab18a1003ac62db445b",
        "1a98b135cd8ef1e74f3230b8b99db26bba0d3375a096d68cd2b1c17d58e3f956",
        "60c78cbb869e7ce1625a74c2d567bcb63fdcf8c382e1192ffb3279beb8781bcb",
        555, 1041, 1455, 1199,
    ),
}


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _triple(workload, code):
    """An ad workload identity code back to (user, campaign, click),
    the key the pins were recorded under."""
    rest, click = divmod(code, 2)
    return divmod(rest, len(workload.campaigns)) + (click,)


def _ad_items(workload, cache):
    """The cache's LRU view under the pins' (user, campaign, click)
    keys."""
    return [(_triple(workload, key), block) for key, block in cache.items()]


def _replay(batch, hook):
    workload = AdCampaignWorkload(num_users=60, seed=42)
    codec = TransportCookieCodec(
        APP_ID, workload.schema(), KEY, random.Random(3)
    )
    cache = CookieEncodeCache(codec, capacity=256)
    stream = workload.stream(20000.0, 150.0)
    wire = hashlib.sha256()
    while True:
        cols = stream.generate_batch(batch)
        if not len(cols):
            break
        keys = workload.cookie_keys(cols)
        if hook == "rows":
            out = cache.encode_columns(
                keys, rows_fn=partial(workload.cookie_rows, cols)
            )
        else:
            out = cache.encode_columns(
                keys, lambda i: workload.cookie_values_at(cols, i)
            )
        for row in out.raw:
            wire.update(row)
    stats = cache.stats()
    return (
        wire.hexdigest(),
        _sha(codec.rng.getstate()),
        _sha(_ad_items(workload, cache)),
        stats["hits"], stats["queued_hits"], stats["misses"],
        stats["evictions"],
    )


class TestBitIdentityWithTheValueDictPath:
    """Packing from wire rows changed no byte: wire cookies, RNG state,
    LRU contents and statistics equal the parent commit's at every
    batch size, for either callback, under both kernel forms."""

    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    @pytest.mark.parametrize("hook", ("rows", "values"))
    @pytest.mark.parametrize("batch", sorted(PARENT_PINS))
    def test_replay_equals_the_parent_pins(self, batch, hook, numpy_on):
        force_numpy(numpy_on)
        try:
            assert _replay(batch, hook) == PARENT_PINS[batch]
        finally:
            force_numpy(None)


class TestEncodeColumnsCallbacks:
    def test_exactly_one_callback(self):
        cache = _cache()
        with pytest.raises(TypeError):
            cache.encode_columns([1])
        with pytest.raises(TypeError):
            cache.encode_columns(
                [1], lambda i: _values(1), rows_fn=lambda idx: [(0, 0, 0)]
            )

    def test_rows_are_asked_for_the_misses_only(self):
        cache = _cache()
        keys = [5, 6, 5, 7]
        cache.encode_columns(keys[:1], lambda i: _values(5))
        asked = []

        def rows_fn(positions):
            asked.append(list(positions))
            return cache.codec.rows_from_values(
                [_values(keys[i]) for i in positions]
            )

        cache.encode_columns(keys, rows_fn=rows_fn)
        # 5 is cached; 6 and 7 miss, each asked for once, in one call.
        assert asked == [[1, 3]]
        cache.encode_columns(keys, rows_fn=rows_fn)
        assert asked == [[1, 3]]

    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    def test_a_rejected_row_leaves_cache_and_rng_alone(self, numpy_on):
        """Key 1 is a hit of the rejected batch: it keeps its LRU place
        and nothing is counted."""
        cache = _cache()
        cache.encode_columns([1, 2, 3], lambda i: _values(i + 1))
        blocks = cache.items()
        stats = cache.stats()
        state = cache.codec.rng.getstate()
        force_numpy(numpy_on)
        try:
            with pytest.raises(ValueError):
                cache.encode_columns(
                    [1] + list(range(10, 109)),
                    rows_fn=lambda idx: [(0, 0, 241)] * len(idx),
                )
        finally:
            force_numpy(None)
        assert cache.items() == blocks
        assert cache.stats() == stats
        assert cache.codec.rng.getstate() == state

    def test_a_rejected_value_dict_counts_nothing(self):
        cache = _cache()
        _encode(cache, 1, _values(1))
        blocks = cache.items()
        stats = cache.stats()
        with pytest.raises(ValueError):
            _encode(cache, 2, {"region": "nowhere"})
        assert cache.items() == blocks
        assert cache.stats() == stats

    def test_framing_bytes_are_one_buffer_of_the_same_draws(self):
        """Three getrandbits(8) per packet, in packet order (DCID,
        then the two DCID-R2 bytes), whichever way the rows are
        assembled; the blocks in between are the cached ones."""
        n = 50
        keys = list(range(n))
        outputs = []
        for numpy_on in (True, False):
            cache = _cache(seed=21)
            cache.encode_columns(keys, lambda i: _values(i))  # warm
            state = cache.codec.rng.getstate()
            force_numpy(numpy_on)
            try:
                out = cache.encode_columns(keys, lambda i: _values(i)).raw
            finally:
                force_numpy(None)
            replay = random.Random()
            replay.setstate(state)
            for key, row in zip(keys, out):
                drawn = [replay.getrandbits(8) for _ in range(3)]
                assert [row[0], row[18], row[19]] == drawn
                assert row[1] == APP_ID
                assert row[2:18] == dict(cache.items())[key]
            assert cache.codec.rng.getstate() == replay.getstate()
            outputs.append(out)
        assert outputs[0] == outputs[1]


# Recorded before the encode cache's probe order and framing draws
# were rewritten (get first, the pending-miss table only on a miss;
# framing bytes drawn through map): per batch size, sha256 of every
# wire cookie in order, sha256 of repr(codec rng.getstate()), sha256
# of repr(LRU key order), then stats().  6106 events of a seed-42
# 120-user stream (1920 identities) against 512 entries, so every
# batch size sees hits, misses, queued hits and evictions; numpy on
# and off give the same pins.
PROBE_PINS = {
    1: (
        "9b0d045be6fe960d4689d282137c7a6424b87f780dd1a548bceb06f001b37c92",
        "4edc059f03fce8070ec4cd6680d9fca8e6b315712fabafffcb5c0e14c1f7a3f1",
        "e908d870799fdffeb5afa2ce1e5cadf3d3ef040ec1a05293eed93f6298ab790b",
        {"size": 512, "capacity": 512, "epoch": 0, "hits": 1898,
         "queued_hits": 0, "misses": 4208, "evictions": 3696,
         "invalidations": 0},
    ),
    7: (
        "f9c348cfac056579a4d3cd239b1c133de15904a2c47c354641e01850da2870db",
        "1f33be5c2ed7fcfe921b18a163cf4ba331871ab58efb393194d9c89aa870b0af",
        "48d774214d2592d8efc01703f2f9aeac50488df6715e69bd892c846a1f87ff7e",
        {"size": 512, "capacity": 512, "epoch": 0, "hits": 1896,
         "queued_hits": 7, "misses": 4203, "evictions": 3691,
         "invalidations": 0},
    ),
    1024: (
        "e1a207a939769c12adae08dd5ceeb08517b9af7bb4595b6daab3a35ffda7a6ff",
        "0738d0d737a46a017f66aa455b4a21a1310efacf070f17f6f635fbcb251b5d80",
        "27021c01864c0148d28755c4600c0be4ad236e94fa6c6035dd837243a599f1f7",
        {"size": 512, "capacity": 512, "epoch": 0, "hits": 1602,
         "queued_hits": 1137, "misses": 3367, "evictions": 2855,
         "invalidations": 0},
    ),
}

# One batch of each probe outcome, then a rekey: the wire and RNG
# digests as above, the LRU key order and stats() spelled out.
MIXED_PIN = (
    "a23a45cc219370da3694e5712a807f395f6842cccfa54c0026fa8132f4f8c30d",
    "b7c4a2dd51fd3f8de57f9bc144bed3ec9da20d6ba0476549699279b098da3fb2",
    [3, 5, 1],
    {"size": 3, "capacity": 3, "epoch": 1, "hits": 3, "queued_hits": 2,
     "misses": 7, "evictions": 1, "invalidations": 1},
)


def _ad_cache(workload, capacity):
    codec = TransportCookieCodec(
        APP_ID, workload.schema(), KEY, random.Random(3)
    )
    return CookieEncodeCache(codec, capacity=capacity)


class TestProbeOrderPins:
    """The hit path probes the LRU before the batch's pending misses
    and counts once per batch; the framing bytes are one buffer of the
    same 3n draws.  Neither may move a wire byte, an RNG draw, the LRU
    order or a counter."""

    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    @pytest.mark.parametrize("batch", sorted(PROBE_PINS))
    def test_ad_stream_equals_the_recorded_pins(self, batch, numpy_on):
        workload = AdCampaignWorkload(num_users=120, seed=42)
        cache = _ad_cache(workload, 512)
        stream = workload.stream(20000.0, 300.0)
        wire = hashlib.sha256()
        force_numpy(numpy_on)
        try:
            while True:
                cols = stream.generate_batch(batch)
                if not len(cols):
                    break
                out = cache.encode_columns(
                    workload.cookie_keys(cols),
                    rows_fn=partial(workload.cookie_rows, cols),
                )
                for row in out.raw:
                    wire.update(row)
        finally:
            force_numpy(None)
        assert (
            wire.hexdigest(),
            _sha(cache.codec.rng.getstate()),
            _sha([key for key, _ in _ad_items(workload, cache)]),
            cache.stats(),
        ) == PROBE_PINS[batch]

    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    def test_hit_miss_repeated_miss_and_rekey(self, numpy_on):
        workload = AdCampaignWorkload(num_users=8, seed=42)
        cache = _ad_cache(workload, 3)
        # Key k stands for event k of one generated batch.
        cols = workload.stream(20000.0, 10.0).generate_batch(64)
        wire = hashlib.sha256()
        force_numpy(numpy_on)
        try:
            for keys in (
                [1, 2],
                # hit, miss, repeated miss, hit, miss, hit
                [1, 3, 3, 2, 4, 1],
                None,
                # after the rekey: miss, miss, repeated miss, miss
                [3, 5, 3, 1],
            ):
                if keys is None:
                    cache.rekey(bytes(reversed(KEY)))
                    continue
                out = cache.encode_columns(
                    keys,
                    rows_fn=lambda positions, keys=keys: workload.cookie_rows(
                        cols, [keys[i] for i in positions]
                    ),
                )
                for row in out.raw:
                    wire.update(row)
        finally:
            force_numpy(None)
        assert (
            wire.hexdigest(),
            _sha(cache.codec.rng.getstate()),
            [key for key, _ in cache.items()],
            cache.stats(),
        ) == MIXED_PIN


# -- the batch against a sequential model --------------------------------------


def _sequential_batch(model, stats, codec, keys, capacity):
    """One batch the slow way, one key at a time: hits move to the LRU
    end in probe order; each key missing on arrival is packed alone
    (one padding draw) and encrypted alone, in first-occurrence order,
    and inserted with an eviction after every insert; repeats of a
    pending miss are queued hits.  Then one ``assemble`` per packet
    (the three framing draws).  Returns the wire cookies."""
    served = {}
    fresh = []
    for key in keys:
        if key in model:
            served[key] = model[key]
            model.move_to_end(key)
            stats["hits"] += 1
        elif key in fresh:
            stats["queued_hits"] += 1
        else:
            fresh.append(key)
            stats["misses"] += 1
    for key in fresh:
        row = codec.rows_from_values([_values(key)])
        served[key] = codec.aes.encrypt_block(codec.pack_rows(row)[0])
        model[key] = served[key]
        if len(model) > capacity:
            model.popitem(last=False)
            stats["evictions"] += 1
    stats["size"] = len(model)
    return [bytes(codec.assemble(served[key])) for key in keys]


class TestBatchAgainstASequentialModel:
    """Bulk insertion and bulk eviction are the per-insert LRU, also
    when one batch's fresh keys outnumber the capacity and evict each
    other: wire bytes, RNG state, LRU order, blocks and stats equal a
    model fed key by key."""

    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    @pytest.mark.parametrize("batch", (1, 63, 64, 65, 300))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_batches_equal_the_model(self, batch, numpy_on, data):
        universe = data.draw(st.integers(1, 3 * batch + 2), label="universe")
        # Up to half a batch: once the universe is as large as a batch,
        # one batch's fresh keys mostly outnumber the entries.
        capacity = data.draw(
            st.integers(1, max(1, min(universe, batch) // 2)), label="capacity"
        )
        batches = data.draw(
            st.lists(
                st.lists(
                    st.integers(0, universe - 1),
                    min_size=batch, max_size=batch,
                ),
                min_size=1, max_size=3,
            ),
            label="batches",
        )
        as_matrix = data.draw(st.booleans(), label="matrix")
        cache = _cache(capacity=capacity, seed=17)
        codec = TransportCookieCodec(
            APP_ID, _schema(), KEY, random.Random(17)
        )
        model = OrderedDict()
        stats = dict(cache.stats())
        force_numpy(numpy_on)
        try:
            for keys in batches:
                def rows_fn(positions, keys=keys):
                    rows = cache.codec.rows_from_values(
                        [_values(keys[i]) for i in positions]
                    )
                    np = get_numpy()
                    if as_matrix and np is not None:
                        return np.array(rows, dtype=np.int64).reshape(
                            len(rows), 3
                        )
                    return rows

                wire = cache.encode_columns(keys, rows_fn=rows_fn).raw
                expected = _sequential_batch(
                    model, stats, codec, keys, capacity
                )
                assert wire == expected
                assert cache.codec.rng.getstate() == codec.rng.getstate()
                assert cache.items() == list(model.items())
                assert cache.stats() == stats
        finally:
            force_numpy(None)

    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    def test_stale_touches_ahead_of_the_oldest_entry(self, numpy_on):
        """Every entry rehit three times leaves three stale touches
        per entry ahead of the oldest live one, more than eviction's
        first window; long runs of such batches compact the log."""
        cut = SLOT_KERNEL_MIN_ROWS
        capacity = 2 * cut
        cache = _cache(capacity=capacity, seed=29)
        codec = TransportCookieCodec(
            APP_ID, _schema(), KEY, random.Random(29)
        )
        model = OrderedDict()
        stats = dict(cache.stats())
        full = list(range(capacity))
        batches = [full] * 4 + [list(range(500, 500 + cut))]
        batches += [full[::-1], list(range(cut))] * 3 * capacity
        force_numpy(numpy_on)
        try:
            for keys in batches:
                wire = cache.encode_columns(
                    keys, lambda i, keys=keys: _values(keys[i])
                ).raw
                assert wire == _sequential_batch(
                    model, stats, codec, keys, capacity
                )
                assert cache.items() == list(model.items())
                assert cache.stats() == stats
        finally:
            force_numpy(None)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_cache_across_the_cut_the_gate_and_key_forms(self, data):
        """One cache, one call after another: batch sizes on both sides
        of the cut, the numpy gate flipped between calls, keys as a list
        or an int64 array, each call's keys reaching past the slot map
        the earlier calls grew, capacities down to 1 (so one batch's
        fresh keys often outnumber the entries)."""
        cut = SLOT_KERNEL_MIN_ROWS
        capacity = data.draw(st.integers(1, 2 * cut), label="capacity")
        cache = _cache(capacity=capacity, seed=19)
        codec = TransportCookieCodec(
            APP_ID, _schema(), KEY, random.Random(19)
        )
        model = OrderedDict()
        stats = dict(cache.stats())
        top = 0
        for _ in range(data.draw(st.integers(1, 6), label="calls")):
            n = data.draw(
                st.sampled_from((1, cut - 1, cut, cut + 1, 3 * cut + 5)),
                label="n",
            )
            top = data.draw(st.integers(top, top + 2 * n), label="top")
            keys = data.draw(
                st.lists(st.integers(0, top), min_size=n, max_size=n),
                label="keys",
            )
            numpy_on = HAVE_NUMPY and data.draw(st.booleans(), label="gate")
            as_array = HAVE_NUMPY and data.draw(st.booleans(), label="array")
            if as_array:
                import numpy

                given_keys = numpy.array(keys, dtype=numpy.int64)
            else:
                given_keys = keys
            force_numpy(numpy_on)
            try:
                wire = cache.encode_columns(
                    given_keys,
                    rows_fn=lambda positions, keys=keys: (
                        cache.codec.rows_from_values(
                            [_values(keys[i]) for i in positions]
                        )
                    ),
                ).raw
            finally:
                force_numpy(None)
            assert wire == _sequential_batch(
                model, stats, codec, keys, capacity
            )
            assert cache.codec.rng.getstate() == codec.rng.getstate()
            assert cache.items() == list(model.items())
            assert cache.stats() == stats

    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    @pytest.mark.parametrize(
        "n", (SLOT_KERNEL_MIN_ROWS - 1, 3 * SLOT_KERNEL_MIN_ROWS)
    )
    def test_capacity_one_and_a_key_far_above_the_index(self, n, numpy_on):
        """Every fresh key evicts the one before it; a key 10,000 past
        the slot map grows it in the same call."""
        cache = _cache(capacity=1, seed=23)
        codec = TransportCookieCodec(
            APP_ID, _schema(), KEY, random.Random(23)
        )
        model = OrderedDict()
        stats = dict(cache.stats())
        batches = (
            [i % 5 for i in range(n)],
            [4] * n,
            [10_000 + i % 3 for i in range(n)],
        )
        force_numpy(numpy_on)
        try:
            for keys in batches:
                wire = cache.encode_columns(
                    keys, lambda i, keys=keys: _values(keys[i])
                ).raw
                assert wire == _sequential_batch(
                    model, stats, codec, keys, 1
                )
                assert cache.items() == list(model.items())
                assert cache.stats() == stats
        finally:
            force_numpy(None)
        # Misses enter in first-occurrence order; a repeat of a queued
        # miss touches nothing.
        assert [key for key, _ in cache.items()] == [10_002]


def _bad_batches():
    """Batches with one refused key among good ones, under and over
    the cut: (label, keys)."""
    cut = SLOT_KERNEL_MIN_ROWS
    out = []
    for n in (3, 2 * cut):
        good = list(range(n - 1))
        for label, bad in (
            ("negative", -1), ("float", 2.0), ("tuple", (1, 2, 0)),
            ("bool", True),
        ):
            out.append(("%s-%d" % (label, n), good + [bad]))
    if HAVE_NUMPY:
        import numpy

        for n in (3, 2 * cut):
            keys = numpy.arange(n, dtype=numpy.int64)
            keys[-1] = -7
            out.append(("array-negative-%d" % n, keys))
            out.append((
                "array-float-%d" % n, numpy.arange(n, dtype=numpy.float64)
            ))
            out.append((
                "array-2d-%d" % n,
                numpy.arange(n, dtype=numpy.int64).reshape(n, 1),
            ))
    return out


class TestRefusedKeys:
    """A key that is not a non-negative int raises ``ValueError``
    before anything moves: no slot, no counter, no RNG draw, no row
    asked for."""

    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    @pytest.mark.parametrize(
        "keys",
        [case[1] for case in _bad_batches()],
        ids=[case[0] for case in _bad_batches()],
    )
    def test_a_refused_key_changes_nothing(self, keys, numpy_on):
        cache = _cache(capacity=4)
        cache.encode_columns([0, 1, 2, 3, 1], lambda i: _values(i))
        items = cache.items()
        stats = cache.stats()
        state = cache.codec.rng.getstate()
        asked = []
        force_numpy(numpy_on)
        try:
            with pytest.raises(ValueError, match="non-negative ints"):
                cache.encode_columns(
                    keys, rows_fn=lambda positions: asked.append(positions)
                )
        finally:
            force_numpy(None)
        assert asked == []
        assert cache.items() == items
        assert cache.stats() == stats
        assert cache.codec.rng.getstate() == state


class TestAdIdentityCodes:
    @pytest.mark.parametrize("numpy_on", (True, False), ids=("numpy", "python"))
    def test_codes_are_one_per_identity_and_decode_back(self, numpy_on):
        """Every (user, campaign, click) of the population gets its own
        code, the codes are exactly 0 .. 2 * users * campaigns - 1, and
        two divmods give the triple back — in a batch under the cut
        (a list of ints) and over it (an int64 array with numpy)."""
        workload = AdCampaignWorkload(num_users=37, num_campaigns=5, seed=4)
        triples = [
            (user, campaign, click)
            for user in range(37)
            for campaign in range(5)
            for click in (0, 1)
        ]
        force_numpy(numpy_on)
        try:
            for lo, hi in ((0, SLOT_KERNEL_MIN_ROWS - 1), (0, len(triples))):
                batch = triples[lo:hi]
                user, campaign, click = (list(c) for c in zip(*batch))
                codes = workload.cookie_keys(EventColumns(
                    [0.0] * len(batch),
                    {"user": user, "campaign": campaign, "click": click},
                ))
                if hasattr(codes, "dtype"):
                    assert numpy_on and codes.dtype == "int64"
                    codes = codes.tolist()
                assert set(map(type, codes)) == {int}
                assert [_triple(workload, code) for code in codes] == batch
        finally:
            force_numpy(None)
        assert sorted(codes) == list(range(2 * 37 * 5))
