"""Key-rotation edge cases, from the KeyRing up to the batch data plane.

The rotation story has sharp corners: only one previous key is kept,
versions must move monotonically, subkey derivation must separate both
master and label, and — since the batch fast path memoizes cookie
decodes — a rekey or revoke must invalidate that memo everywhere, or a
switch would keep decoding under a dead key.
"""

import random

import pytest

from repro.core.aggregation import ForwardingMode
from repro.core.transport_cookie import TransportCookieCodec
from repro.crypto.keys import AES128_KEY_LEN, KeyRing, RegionKey, derive_subkey

from tests.differential.workloads import APP_ID, DifferentialWorkload


class TestRotationEdges:
    def test_versions_monotonic_over_many_rotations(self):
        ring = KeyRing(seed=11)
        entry = ring.create_region("r")
        seen = {entry.key}
        for expected_version in range(1, 20):
            ring.rotate("r")
            assert entry.version == expected_version
            assert len(entry.candidates()) == 2
            assert entry.candidates()[0] == entry.key
            seen.add(entry.key)
        # Seeded RNG must not cycle keys within a short horizon.
        assert len(seen) == 20

    def test_only_immediate_previous_survives(self):
        entry = RegionKey("r", b"A" * 16)
        entry.rotate(b"B" * 16)
        entry.rotate(b"C" * 16)
        assert entry.candidates() == [b"C" * 16, b"B" * 16]
        assert b"A" * 16 not in entry.candidates()

    def test_rotate_to_identical_key_still_bumps_version(self):
        # Degenerate but legal: the controller may re-push the same
        # material; version (not key bytes) is the source of truth.
        entry = RegionKey("r", b"K" * 16)
        entry.rotate(b"K" * 16)
        assert entry.version == 1
        assert entry.candidates() == [b"K" * 16, b"K" * 16]

    def test_export_tracks_rotation(self):
        ring = KeyRing(seed=12)
        ring.create_region("r")
        before = ring.export("r")
        ring.rotate("r")
        after = ring.export("r")
        assert after[1] == before[1] + 1
        assert after[0] != before[0]

    def test_rotate_unknown_region_raises(self):
        with pytest.raises(KeyError):
            KeyRing(seed=13).rotate("nowhere")


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

    def _setup(self):
        wl = DifferentialWorkload(seed=77, num_users=40)
        ring = KeyRing(seed=78)
        return wl, ring

    def test_old_key_cookies_rejected_after_rekey_scalar_and_columnar(self):
        wl, _ = self._setup()
        old_cids = wl.cids("uniform", 60)
        scalar = wl.new_lark(mode=ForwardingMode.PER_PACKET)
        batch = wl.new_lark(mode=ForwardingMode.PER_PACKET)

        # Warm both switches (and the columnar decode memo) on the old key.
        warm_scalar = [scalar.process_quic_packet(c) for c in old_cids]
        warm_batch = batch.process_quic_columnar(old_cids)
        assert warm_batch == warm_scalar
        assert any(r.decoded_values for r in warm_batch)

        new_key = bytes(random.Random(79).getrandbits(8) for _ in range(16))
        scalar.rekey_application(APP_ID, new_key)
        batch.rekey_application(APP_ID, new_key)

        after_scalar = [scalar.process_quic_packet(c) for c in old_cids]
        after_batch = batch.process_quic_columnar(old_cids)
        # Bit-identical even across the rekey — a stale memo would make
        # the columnar switch keep decoding old-key cookies here.  (The
        # transport cookie has no MAC, so a wrong-key decrypt may yield
        # plausible garbage — but never the original values.)
        assert after_batch == after_scalar
        for warm, after in zip(warm_batch, after_batch):
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
        assert fresh_batch == fresh_scalar
        assert all(r.decoded_values for r in fresh_batch)

    def test_revoke_after_batches_stops_matching(self):
        wl, _ = self._setup()
        cids = wl.cids("uniform", 30)
        lark = wl.new_lark()
        lark.process_quic_columnar(cids)
        assert lark.revoke_application(APP_ID)
        results = lark.process_quic_columnar(cids)
        assert not any(r.matched for r in results)
        # No stats registers survive the revoke.
        names = lark.pipeline.registers.names()
        assert not any("app%02x" % APP_ID in n for n in names)

    def test_keyring_rotation_round_trip_through_codec(self):
        """decode-with-candidates: in-flight cookies under the previous
        key stay readable for exactly one rotation."""
        wl, ring = self._setup()
        entry = ring.create_region("edge")
        user = wl.workload.users[0]
        values = user.semantic_values("camp-1", "view")

        def encode_under(key, seed):
            return TransportCookieCodec(
                APP_ID, wl.schema, key, random.Random(seed)
            ).encode(values)

        cid_v0 = encode_under(entry.key, 81)
        ring.rotate("edge")
        cid_v1 = encode_under(entry.key, 82)

        def recoverable(cid):
            # The cookie carries no MAC, so trial decryption under a
            # wrong key can emit plausible garbage; a candidate key
            # "works" only if it reproduces the original values.
            for key in entry.candidates():
                decoded = TransportCookieCodec(
                    APP_ID, wl.schema, key, random.Random(0)
                ).try_decode(cid)
                if decoded is not None and decoded.values == values:
                    return True
            return False

        assert recoverable(cid_v0)
        assert recoverable(cid_v1)
        ring.rotate("edge")
        # Two rotations later the v0 key is gone.
        assert recoverable(cid_v1)
        assert not recoverable(cid_v0)
