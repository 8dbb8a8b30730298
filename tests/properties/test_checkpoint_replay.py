"""Checkpoint -> restore -> replay-tail == uninterrupted, for every
register kind.

The checkpointed shard runtime's recovery path rests on this identity:
a crash reruns only the failed epoch on a fresh switch replica, and the
shard's checkpoint folded with that epoch equals the uninterrupted
registers.  Here it is proven at every layer that
holds fold state:

* the switch statistics registers — additive counters
  (count-by-class, sum, avg) and the non-additive min/max folds —
  via ``LarkSwitch.checkpoint``/``restore`` on the scalar and the
  columnar path (both kernel forms) and the ``AggSwitch`` equivalents.

Each case runs the same seeded stream uninterrupted and interrupted at
several cut points, across three seeds, and requires bit-identical end
state — not approximately equal, identical.
"""

import random

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core.aggswitch import AggSwitch
from repro.core.larkswitch import LarkSwitch
from repro.core.schema import CookieSchema, Feature
from repro.core.stats import StatKind, StatSpec
from repro.core.transport_cookie import TransportCookieCodec
from repro.obs.registry import MetricsRegistry
from repro.switch import columns

SEEDS = (2, 29, 83)
APP_ID = 0x44

SCHEMA = CookieSchema(
    "checkpoint-props",
    (
        Feature.categorical("bucket", ("a", "b", "c", "d")),
        Feature.number("value", 0, 200),
    ),
)

# One spec per register fold kind the stats layer implements.
SPECS = (
    StatSpec("count_by_bucket", StatKind.COUNT_BY_CLASS, "bucket"),
    StatSpec("sum_value", StatKind.SUM, "value"),
    StatSpec("min_value", StatKind.MIN, "value"),
    StatSpec("max_value", StatKind.MAX, "value"),
    StatSpec("avg_value", StatKind.AVG, "value", group_by="bucket"),
)


def _key(seed):
    rng = random.Random(seed * 7919 + 5)
    return bytes(rng.getrandbits(8) for _ in range(16))


def _cids(seed, n=240):
    codec = TransportCookieCodec(
        APP_ID, SCHEMA, _key(seed), random.Random(seed + 3)
    )
    rng = random.Random(seed + 4)
    return [
        codec.encode(
            {"bucket": rng.choice("abcd"), "value": rng.randrange(201)}
        )
        for _ in range(n)
    ]


def _lark(seed, mode=ForwardingMode.PERIODICAL):
    lark = LarkSwitch(
        "chk-lark",
        rng=random.Random(seed + 1),
        registry=MetricsRegistry(),
    )
    lark.register_application(
        APP_ID, SCHEMA, _key(seed), list(SPECS), mode=mode,
        period_ms=1000.0 if mode == ForwardingMode.PERIODICAL else 0.0,
    )
    return lark


def _agg(seed):
    agg = AggSwitch(
        "chk-agg",
        rng=random.Random(seed + 2),
        registry=MetricsRegistry(),
    )
    agg.register_application(APP_ID, SCHEMA, _key(seed), list(SPECS))
    return agg


def _payloads(seed, n=240):
    """The per-packet aggregation payloads a lark emits for the
    stream: the AggSwitch's natural feed."""
    lark = _lark(seed, mode=ForwardingMode.PER_PACKET)
    return [
        lark.process_quic_packet(cid).aggregation_payload
        for cid in _cids(seed, n)
    ]


@pytest.fixture(params=(True, False), ids=("numpy", "python"))
def kernel_form(request):
    previous = columns._FORCED
    columns.force_numpy(request.param)
    try:
        yield
    finally:
        columns._FORCED = previous


class TestStatsRegisterReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cut", [1, 97, 239])
    def test_restore_and_replay_tail_is_bit_identical(self, seed, cut):
        cids = _cids(seed)

        uninterrupted = _lark(seed)
        for cid in cids:
            uninterrupted.process_quic_packet(cid)

        # prefix on one replica, checkpoint at the cut...
        first = _lark(seed)
        for cid in cids[:cut]:
            first.process_quic_packet(cid)
        checkpoint = first.checkpoint(APP_ID)

        # ...restore into a *fresh* replica, replay only the tail
        recovered = _lark(seed)
        recovered.restore(APP_ID, checkpoint)
        for cid in cids[cut:]:
            recovered.process_quic_packet(cid)

        assert (
            recovered.checkpoint(APP_ID)
            == uninterrupted.checkpoint(APP_ID)
        )
        assert (
            recovered.stats_report(APP_ID)
            == uninterrupted.stats_report(APP_ID)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoint_roundtrip_without_replay(self, seed):
        lark = _lark(seed)
        for cid in _cids(seed, n=100):
            lark.process_quic_packet(cid)
        checkpoint = lark.checkpoint(APP_ID)
        clone = _lark(seed)
        clone.restore(APP_ID, checkpoint)
        assert clone.checkpoint(APP_ID) == checkpoint
        assert clone.stats_report(APP_ID) == lark.stats_report(APP_ID)

    def test_checkpoint_of_unknown_app_raises(self):
        with pytest.raises(KeyError):
            _lark(0).checkpoint(0x99)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoint_holds_only_the_register_arrays(self, seed):
        """A checkpoint is the app's register arrays and nothing else:
        no reserved side-state key rides along with them."""
        lark = _lark(seed)
        for cid in _cids(seed, n=50):
            lark.process_quic_packet(cid)
        prefix = "chk-lark.app%02x." % APP_ID
        arrays = {
            name[len(prefix):]
            for name in lark.pipeline.registers.names()
            if name.startswith(prefix)
        }
        assert set(lark.checkpoint(APP_ID)) == arrays

    def test_restore_refuses_a_key_outside_the_program(self):
        lark = _lark(0)
        checkpoint = lark.checkpoint(APP_ID)
        checkpoint["user_quantiles"] = [0]
        with pytest.raises(KeyError):
            lark.restore(APP_ID, checkpoint)


@pytest.mark.usefixtures("kernel_form")
class TestColumnarRegisterReplay:
    """The same identity when prefix and tail run in batches through
    the columnar path: the restored replica starts with an empty decode
    memo, which costs re-decrypts but no register cell."""

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cut", [1, 97, 239])
    def test_restore_and_replay_tail_is_bit_identical(self, seed, cut):
        cids = _cids(seed)

        uninterrupted = _lark(seed)
        for cid in cids:
            uninterrupted.process_quic_packet(cid)

        first = _lark(seed)
        first.process_quic_columnar(cids[:cut])
        checkpoint = first.checkpoint(APP_ID)

        recovered = _lark(seed)
        recovered.restore(APP_ID, checkpoint)
        for start in range(cut, len(cids), 64):
            recovered.process_quic_columnar(cids[start:start + 64])

        assert (
            recovered.checkpoint(APP_ID)
            == uninterrupted.checkpoint(APP_ID)
        )
        assert (
            recovered.stats_report(APP_ID)
            == uninterrupted.stats_report(APP_ID)
        )


class TestAggRegisterReplay:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("cut", [1, 97, 239])
    def test_restore_and_replay_tail_is_bit_identical(self, seed, cut):
        payloads = _payloads(seed)

        uninterrupted = _agg(seed)
        for payload in payloads:
            uninterrupted.process_packet(payload)

        first = _agg(seed)
        for payload in payloads[:cut]:
            first.process_packet(payload)
        checkpoint = first.checkpoint(APP_ID)

        recovered = _agg(seed)
        recovered.restore(APP_ID, checkpoint)
        for payload in payloads[cut:]:
            recovered.process_packet(payload)

        assert (
            recovered.checkpoint(APP_ID)
            == uninterrupted.checkpoint(APP_ID)
        )
        assert recovered.report(APP_ID) == uninterrupted.report(APP_ID)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_checkpoint_roundtrip_without_replay(self, seed):
        agg = _agg(seed)
        for payload in _payloads(seed, n=100):
            agg.process_packet(payload)
        checkpoint = agg.checkpoint(APP_ID)
        assert set(checkpoint) == set(agg.merge(APP_ID))
        clone = _agg(seed)
        clone.restore(APP_ID, checkpoint)
        assert clone.checkpoint(APP_ID) == checkpoint
        assert clone.report(APP_ID) == agg.report(APP_ID)

    def test_restore_of_unknown_app_raises(self):
        agg = _agg(0)
        with pytest.raises(KeyError):
            agg.restore(0x99, agg.checkpoint(APP_ID))

    def test_restore_refuses_a_key_outside_the_program(self):
        agg = _agg(0)
        checkpoint = agg.checkpoint(APP_ID)
        checkpoint["user_quantiles"] = [0]
        with pytest.raises(KeyError):
            agg.restore(APP_ID, checkpoint)
