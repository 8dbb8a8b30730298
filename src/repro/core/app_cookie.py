"""Application-layer semantic cookies (HTTPS cookies).

Unlike the 160-bit transport-layer budget, application-layer semantic
cookies support "as many sub-cookies as needed" (section 3.3).  The
feature values are serialized, AES-128-CBC encrypted under the
application key, and carried as one ``Set-Cookie``/``Cookie`` pair
named ``__sc_<app-id>``.  Edge servers holding the key decrypt, filter
by event type, and pre-aggregate (Figure 1(b) L1-L3).

Standard HTTP cookie-header parsing/formatting lives here too, since
the substrate has no third-party HTTP library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.crypto.aes import AES, decrypt_cbc, encrypt_cbc
from repro.core.schema import CookieSchema, FeatureValueError

__all__ = [
    "ApplicationCookieCodec",
    "cookie_name_for_app",
    "format_cookie_header",
    "parse_cookie_header",
]


def cookie_name_for_app(app_id: int) -> str:
    """Deliberately non-semantic cookie name (section 3.6: developers
    'avoid using semantic names')."""
    return "__sc_%02x" % app_id


def format_cookie_header(cookies: Dict[str, str]) -> str:
    """Serialize cookies into a ``Cookie:`` header value."""
    return "; ".join(
        "%s=%s" % (name, value) for name, value in sorted(cookies.items())
    )


def parse_cookie_header(header: str) -> Dict[str, str]:
    """Parse a ``Cookie:`` header value into a dict."""
    cookies: Dict[str, str] = {}
    for part in header.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError("malformed cookie pair %r" % part)
        name, _, value = part.partition("=")
        cookies[name.strip()] = value.strip()
    return cookies


def _serialize_values(schema: CookieSchema, values: Dict[str, Any]) -> bytes:
    """Compact wire form: index:wire_value pairs for present features."""
    parts = []
    for index, feature in enumerate(schema.features):
        if feature.name in values:
            wire = feature.encode_value(values[feature.name])
            parts.append("%d:%d" % (index, wire))
    return ",".join(parts).encode("ascii")


def _deserialize_values(schema: CookieSchema, blob: bytes) -> Dict[str, Any]:
    text = blob.decode("ascii")
    values: Dict[str, Any] = {}
    if not text:
        return values
    for part in text.split(","):
        index_str, _, wire_str = part.partition(":")
        index, wire = int(index_str), int(wire_str)
        if not 0 <= index < len(schema.features):
            raise FeatureValueError("feature index %d out of range" % index)
        feature = schema.features[index]
        values[feature.name] = feature.decode_value(wire)
    return values


@dataclass
class DecodedApplicationCookie:
    app_id: int
    values: Dict[str, Any]


class ApplicationCookieCodec:
    """Encrypt/decrypt semantic values to/from an HTTP cookie value."""

    def __init__(
        self,
        app_id: int,
        schema: CookieSchema,
        key: bytes,
        rng: Optional[random.Random] = None,
    ):
        if not 0 <= app_id <= 0xFF:
            raise ValueError("application-ID must fit one byte")
        self.app_id = app_id
        self.schema = schema
        self._key = key
        # Schedule the key once; encode/decode run per request.
        self._aes = AES(key)
        self._rng = rng or random.Random()

    @property
    def cookie_name(self) -> str:
        return cookie_name_for_app(self.app_id)

    def encode(self, values: Dict[str, Any]) -> Tuple[str, str]:
        """Values -> (cookie_name, cookie_value).

        The value is hex(IV || AES-CBC(serialized values)); a fresh IV
        per encoding keeps equal value-sets unlinkable on the wire.
        """
        unknown = set(values) - set(self.schema.feature_names())
        if unknown:
            raise FeatureValueError(
                "values for features outside the schema: %s" % sorted(unknown)
            )
        plaintext = _serialize_values(self.schema, values)
        iv = bytes(self._rng.getrandbits(8) for _ in range(16))
        ciphertext = encrypt_cbc(self._aes, iv, plaintext)
        return self.cookie_name, (iv + ciphertext).hex()

    def decode(self, cookie_value: str) -> DecodedApplicationCookie:
        try:
            raw = bytes.fromhex(cookie_value)
        except ValueError as exc:
            raise ValueError("cookie value is not hex") from exc
        if len(raw) < 32:
            raise ValueError("cookie value too short")
        iv, ciphertext = raw[:16], raw[16:]
        plaintext = decrypt_cbc(self._aes, iv, ciphertext)
        return DecodedApplicationCookie(
            app_id=self.app_id,
            values=_deserialize_values(self.schema, plaintext),
        )

    def try_decode_header(
        self, cookie_header: str
    ) -> Optional[DecodedApplicationCookie]:
        """Find and decode this app's semantic cookie in a ``Cookie:``
        header; None when absent or undecryptable."""
        cookies = parse_cookie_header(cookie_header)
        value = cookies.get(self.cookie_name)
        if value is None:
            return None
        try:
            return self.decode(value)
        except (ValueError, FeatureValueError):
            return None
