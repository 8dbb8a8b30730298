"""Key-rotation edge cases, from subkey derivation up to the batch
data plane.

The rotation story has sharp corners: subkey derivation must separate
both master and label, and — since the batch fast path memoizes cookie
decodes — a rekey or revoke must invalidate that memo everywhere, or a
switch would keep decoding under a dead key.
"""

import random

from repro.core.aggregation import ForwardingMode
from repro.core.larkswitch import LarkBatchResult
from repro.core.transport_cookie import TransportCookieCodec
from repro.crypto.keys import AES128_KEY_LEN, derive_subkey

from tests.differential.workloads import (
    APP_ID,
    DifferentialWorkload,
    register_state,
    table_meters,
)


class TestDeriveSubkeyEdges:
    def test_empty_master_and_label_still_distinct(self):
        assert derive_subkey(b"", "x") != derive_subkey(b"", "y")
        assert derive_subkey(b"", "") != derive_subkey(b"\x00" * 16, "")
        assert len(derive_subkey(b"", "")) == AES128_KEY_LEN

    def test_label_not_confusable_with_master_suffix(self):
        # (master + "|a", label "b") vs (master, label "a|b") must differ:
        # the separator byte cannot be forged from the label side alone.
        master = b"M" * 16
        assert derive_subkey(master + b"|a", "b") != derive_subkey(
            master, "a|b"
        )

    def test_unicode_label(self):
        assert len(derive_subkey(b"k" * 16, "région-ü")) == 16


class TestRotationOnTheDataPlane:
    """Rekeying a LarkSwitch must flush the columnar decode memo: scalar
    and columnar paths must agree before, across, and after the rekey."""

    def test_old_key_cookies_rejected_after_rekey_scalar_and_columnar(self):
        wl = DifferentialWorkload(seed=77, num_users=40)
        old_cids = wl.cids("uniform", 60)
        scalar = wl.new_lark(mode=ForwardingMode.PER_PACKET)
        batch = wl.new_lark(mode=ForwardingMode.PER_PACKET)

        # Warm both switches (and the columnar decode memo) on the old key.
        warm_scalar = [scalar.process_quic_packet(c) for c in old_cids]
        warm_batch = batch.process_quic_columnar(old_cids)
        assert warm_batch == LarkBatchResult.of(warm_scalar)
        assert warm_batch.folded > 0

        new_key = derive_subkey(wl.key, "rotation-1")
        scalar.rekey_application(APP_ID, new_key)
        batch.rekey_application(APP_ID, new_key)

        after_scalar = [scalar.process_quic_packet(c) for c in old_cids]
        after_batch = batch.process_quic_columnar(old_cids)
        # Bit-identical even across the rekey — a stale memo would make
        # the columnar switch keep decoding old-key cookies here.  (The
        # transport cookie has no MAC, so a wrong-key decrypt may yield
        # plausible garbage — but never the original values.)
        assert after_batch == LarkBatchResult.of(after_scalar)
        assert register_state(batch) == register_state(scalar)
        for warm, after in zip(warm_scalar, after_scalar):
            if warm.decoded_values:
                assert after.decoded_values != warm.decoded_values

        # New-key cookies decode on both paths.
        codec = TransportCookieCodec(
            APP_ID, wl.schema, new_key, random.Random(80)
        )
        user = wl.workload.users[0]
        fresh = [
            codec.encode(user.semantic_values("camp-0", "click"))
            for _ in range(10)
        ]
        fresh_scalar = [scalar.process_quic_packet(c) for c in fresh]
        fresh_batch = batch.process_quic_columnar(fresh)
        assert fresh_batch == LarkBatchResult.of(fresh_scalar)
        assert fresh_batch.folded == len(fresh)
        assert register_state(batch) == register_state(scalar)

    def test_revoke_after_batches_stops_matching(self):
        wl = DifferentialWorkload(seed=77, num_users=40)
        cids = wl.cids("uniform", 30)
        lark = wl.new_lark()
        lark.process_quic_columnar(cids)
        assert lark.revoke_application(APP_ID)
        hits, misses = table_meters(lark)
        results = lark.process_quic_columnar(cids)
        assert results == LarkBatchResult([], 0, len(cids))
        assert table_meters(lark) == (hits, misses + len(cids))
        # No stats registers survive the revoke.
        names = lark.pipeline.registers.names()
        assert not any("app%02x" % APP_ID in n for n in names)
