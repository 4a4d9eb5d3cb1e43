"""CPA-secure symmetric encryption, ``SKE = (Gen, Enc, Dec)``.

SHA-256 in counter mode: the keystream block ``i`` for nonce ``v`` is
``SHA256(key || v || i)``, XORed against the plaintext.  A fresh random
nonce per encryption gives CPA security under the standard PRF modeling of
the compression function.  Integrity is *not* provided here — the channel
composes this cipher with the MAC in encrypt-then-MAC order
(:mod:`repro.crypto.aead`), exactly as in Fig. 4 of the paper.

The XOR runs on the whole body at once, as two big integers: what is left
per KiB is 33 two-block SHA-256 calls (``key || v || i`` is 56 bytes, one
byte too many for a single padded block).
"""

from __future__ import annotations

import hashlib

from repro.common.errors import CryptoError
from repro.common.rng import DeterministicRNG

KEY_SIZE = 32
NONCE_SIZE = 16
_BLOCK = 32


def ske_gen(rng: DeterministicRNG) -> bytes:
    """Sample a fresh encryption key."""
    return rng.randbytes(KEY_SIZE)


def _check_key(key: bytes) -> None:
    if len(key) != KEY_SIZE:
        raise CryptoError(f"SKE key must be {KEY_SIZE} bytes, got {len(key)}")


def _xor_keystream(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """``data`` XOR the first ``len(data)`` keystream bytes of ``(key, nonce)``."""
    length = len(data)
    prefix = hashlib.sha256(key + nonce)
    blocks = []
    for i in range((length + _BLOCK - 1) // _BLOCK):
        block = prefix.copy()
        block.update(i.to_bytes(8, "big"))
        blocks.append(block.digest())
    # Big-endian integers line up at the last byte: shift the surplus of
    # the final keystream block away instead of slicing a copy.
    stream = int.from_bytes(b"".join(blocks), "big") >> 8 * (-length % _BLOCK)
    return (int.from_bytes(data, "big") ^ stream).to_bytes(length, "big")


def ske_encrypt(key: bytes, plaintext: bytes, rng: DeterministicRNG) -> bytes:
    """Encrypt ``plaintext``; the random nonce is prepended to the body."""
    _check_key(key)
    nonce = rng.randbytes(NONCE_SIZE)
    return nonce + _xor_keystream(key, nonce, plaintext)


def ske_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """Decrypt a ciphertext produced by :func:`ske_encrypt`."""
    _check_key(key)
    if len(ciphertext) < NONCE_SIZE:
        raise CryptoError("ciphertext shorter than nonce")
    return _xor_keystream(
        key, ciphertext[:NONCE_SIZE], ciphertext[NONCE_SIZE:]
    )
