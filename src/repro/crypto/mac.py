"""HMAC-SHA256 message authentication code, ``MAC = (Gen, Auth, Vrfy)``.

Implemented directly from the hash function (RFC 2104) rather than via
:mod:`hmac`, in keeping with the build-the-substrate rule; the test-suite
cross-checks it against the standard library implementation.  Only the
constant-time tag comparison is borrowed (:func:`hmac.compare_digest`).

:class:`Hmac` absorbs the two padded-key blocks once, so a channel that
authenticates many messages under one key pays for them once.
"""

from __future__ import annotations

import hashlib
from hmac import compare_digest

from repro.common.rng import DeterministicRNG
from repro.crypto.hashing import DIGEST_SIZE

_BLOCK_SIZE = 64  # SHA-256 block size in bytes
_XOR_IPAD = bytes(b ^ 0x36 for b in range(256))  # bytes.translate tables
_XOR_OPAD = bytes(b ^ 0x5C for b in range(256))

KEY_SIZE = 32
TAG_SIZE = DIGEST_SIZE


def mac_gen(rng: DeterministicRNG) -> bytes:
    """Sample a fresh MAC key."""
    return rng.randbytes(KEY_SIZE)


class Hmac:
    """HMAC-SHA256 under one key: the inner and outer hash states after
    their padded-key block, copied per message."""

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _BLOCK_SIZE:
            key = hashlib.sha256(key).digest()
        padded = bytes(key).ljust(_BLOCK_SIZE, b"\x00")
        self._inner = hashlib.sha256(padded.translate(_XOR_IPAD))
        self._outer = hashlib.sha256(padded.translate(_XOR_OPAD))

    def auth(self, *parts: bytes) -> bytes:
        """The tag of the concatenation of ``parts``."""
        inner = self._inner.copy()
        for part in parts:
            inner.update(part)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()

    def verify(self, tag: bytes, *parts: bytes) -> bool:
        """Whether ``tag`` authenticates ``parts``; constant-time comparison."""
        return compare_digest(self.auth(*parts), tag)


def mac_auth(key: bytes, message: bytes) -> bytes:
    """Compute the HMAC-SHA256 tag of ``message`` under ``key``."""
    return Hmac(key).auth(message)


def mac_verify(key: bytes, message: bytes, tag: bytes) -> bool:
    """Verify ``tag`` over ``message``; constant-time comparison."""
    return Hmac(key).verify(tag, message)
