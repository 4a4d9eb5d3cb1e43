"""Collision-resistant hashing (the ``H`` of Fig. 4).

A thin, domain-separated wrapper around SHA-256.  Domain separation matters
because the same hash is used for program measurements (MRENCLAVE), message
digests inside ACKs (``H(val)``), and key derivation: without distinct
prefixes a value hashed in one role could be replayed in another.
"""

from __future__ import annotations

import hashlib

DIGEST_SIZE = 32


def hash_bytes(data: bytes, domain: str = "") -> bytes:
    """SHA-256 of ``data`` under the given domain-separation label."""
    h = hashlib.sha256()
    if domain:
        h.update(b"repro-hash:" + domain.encode("utf-8") + b"\x00")
    h.update(data)
    return h.digest()


def hash_hex(data: bytes, domain: str = "") -> str:
    """Hex form of :func:`hash_bytes` (handy for logging and ids)."""
    return hash_bytes(data, domain).hex()


def hash_to_int(data: bytes, modulus: int, domain: str = "") -> int:
    """Hash ``data`` to an integer in ``[0, modulus)``.

    Used by the Schnorr scheme to derive challenges.  Expands the digest
    until it has at least 128 bits of slack over the modulus so the
    reduction bias is negligible.
    """
    if modulus <= 0:
        raise ValueError("modulus must be positive")
    target_bits = modulus.bit_length() + 128
    # hash_bytes(counter || data, domain) per block, with the domain prefix
    # absorbed once.
    label = (domain or "hash-to-int").encode("utf-8")
    prefix = hashlib.sha256(b"repro-hash:" + label + b"\x00")
    blocks = []
    for counter in range(-(-target_bits // (8 * DIGEST_SIZE))):
        block = prefix.copy()
        block.update(counter.to_bytes(4, "big"))
        block.update(data)
        blocks.append(block.digest())
    return int.from_bytes(b"".join(blocks), "big") % modulus
