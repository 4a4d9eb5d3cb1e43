"""HKDF-style key derivation (RFC 5869 extract-and-expand over HMAC-SHA256).

Splits a Diffie-Hellman shared secret into independent channel keys: the
blinded channel needs one key for the stream cipher and one for the MAC,
and deriving both from a single exchange with distinct ``info`` labels is
the standard way to get them without a second round trip.
"""

from __future__ import annotations

from repro.crypto.hashing import DIGEST_SIZE
from repro.crypto.mac import Hmac, mac_auth


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract: PRK = HMAC(salt, IKM)."""
    if not salt:
        salt = bytes(DIGEST_SIZE)
    return mac_auth(salt, input_key_material)


def hkdf_expand(prk: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: grow PRK into ``length`` output bytes labeled ``info``."""
    if length > 255 * DIGEST_SIZE:
        raise ValueError("HKDF output length too large")
    mac = Hmac(prk)
    output = b""
    block = b""
    counter = 1
    while len(output) < length:
        block = mac.auth(block, info, bytes([counter]))
        output += block
        counter += 1
    return output[:length]


def hkdf(
    input_key_material: bytes,
    info: bytes,
    length: int,
    salt: bytes = b"",
) -> bytes:
    """One-shot extract-then-expand."""
    return hkdf_expand(hkdf_extract(salt, input_key_material), info, length)
