"""Cryptographic substrate: from-scratch AES-128 and key derivation.

Snatch encrypts transport-layer semantic cookies and aggregation-packet
payloads with AES-128 (paper sections 3.6, 4.1, appendix B.3).  This
package is the self-contained implementation used across the repo.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "aes": (
        "AES", "BLOCK_SIZE", "decrypt_cbc", "encrypt_cbc", "pkcs7_pad",
        "pkcs7_unpad",
    ),
    "keys": ("AES128_KEY_LEN", "derive_subkey"),
})
