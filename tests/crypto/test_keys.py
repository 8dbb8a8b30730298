"""Key management: subkey derivation."""

from repro.crypto.keys import AES128_KEY_LEN, derive_subkey


class TestDeriveSubkey:
    def test_length(self):
        assert len(derive_subkey(bytes(16), "cookie")) == AES128_KEY_LEN

    def test_label_separation(self):
        master = bytes(range(16))
        assert derive_subkey(master, "cookie") != derive_subkey(
            master, "aggregation"
        )

    def test_master_separation(self):
        assert derive_subkey(bytes(16), "x") != derive_subkey(
            bytes(range(16)), "x"
        )

    def test_deterministic(self):
        assert derive_subkey(b"k" * 16, "a") == derive_subkey(b"k" * 16, "a")
