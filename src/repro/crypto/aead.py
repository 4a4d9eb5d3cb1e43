"""Encrypt-then-MAC authenticated encryption.

This is the composition the blinded-channel proof (Theorem A.1) relies on:
``ct1 = SKE.Enc(key1, m)``, ``ct2 = MAC.Auth(key2, ct1 || ad)`` where ``ad``
is optional associated data (the channel binds the program hash and the
sender/receiver pair through it).  Decryption verifies the tag *first* and
refuses to touch the ciphertext otherwise — a forged message is therefore
indistinguishable from an omitted one, which is the crux of the
byzantine-to-ROD reduction (Theorem A.2).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import IntegrityError
from repro.common.rng import DeterministicRNG
from repro.crypto import mac, stream_cipher


@dataclass(frozen=True)
class AeadKey:
    """A channel key pair: ``enc_key`` for SKE, ``mac_key`` for the MAC."""

    enc_key: bytes
    mac_key: bytes

    @staticmethod
    def generate(rng: DeterministicRNG) -> "AeadKey":
        return AeadKey(
            enc_key=stream_cipher.ske_gen(rng),
            mac_key=mac.mac_gen(rng),
        )


class AEAD:
    """Stateless encrypt-then-MAC box over an :class:`AeadKey`."""

    #: bytes added on top of the plaintext: nonce + MAC tag
    OVERHEAD = stream_cipher.NONCE_SIZE + mac.TAG_SIZE

    def __init__(self, key: AeadKey) -> None:
        self._key = key
        self._mac = mac.Hmac(key.mac_key)

    def seal(
        self, plaintext: bytes, rng: DeterministicRNG, associated_data: bytes = b""
    ) -> bytes:
        """Encrypt and authenticate ``plaintext`` (binding ``associated_data``)."""
        ct = stream_cipher.ske_encrypt(self._key.enc_key, plaintext, rng)
        return ct + self._mac.auth(ct, associated_data)

    def open(self, sealed: bytes, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt; raises :class:`IntegrityError` on any tampering."""
        # What arrives here came off an untrusted wire: anything that is
        # not a byte string is a forgery like any other, not a TypeError.
        if not isinstance(sealed, (bytes, bytearray, memoryview)):
            raise IntegrityError("sealed message is not a byte string")
        if len(sealed) < self.OVERHEAD:
            raise IntegrityError("sealed message too short")
        ct, tag = sealed[: -mac.TAG_SIZE], sealed[-mac.TAG_SIZE :]
        if not self._mac.verify(tag, ct, associated_data):
            raise IntegrityError("MAC verification failed")
        return stream_cipher.ske_decrypt(self._key.enc_key, ct)
