"""Key derivation for Snatch.

The paper (section 3.6) requires AES-128 keys that are (a) scoped per
region, so a compromise in one region does not expose others, and
(b) rotated regularly.  Both are derived here from one registered
master key: :class:`repro.core.regional.RegionalDeployment` labels a
subkey per (region, key epoch) and rotates a region by moving its
epoch.
"""

from __future__ import annotations

import hashlib

__all__ = ["derive_subkey"]

AES128_KEY_LEN = 16


def derive_subkey(master: bytes, label: str) -> bytes:
    """Derive a 16-byte subkey from a master key and a textual label.

    Uses SHA-256 as a KDF; the label namespaces per-purpose keys
    (e.g. "cookie" vs "aggregation") from one registered master key.
    The master is length-prefixed so no (master, label) pair can alias
    another by moving bytes across the boundary.
    """
    digest = hashlib.sha256(
        len(master).to_bytes(4, "big") + master + label.encode("utf-8")
    ).digest()
    return digest[:AES128_KEY_LEN]
