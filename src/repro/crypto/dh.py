"""Finite-field Diffie-Hellman key exchange (the ``KeyEx`` of Fig. 4).

Uses the RFC 3526 2048-bit MODP group (a safe prime, generator 2).  Each
pair of enclaves runs one exchange during the setup phase; the shared
secret is split into the channel's (encryption, MAC) keys through HKDF.

The smaller RFC 2409 768-bit Oakley group is also exported for tests that
need many exchanges or signatures to stay fast; production-fidelity code
paths default to the 2048-bit group.

Every handshake raises the same generator to a fresh exponent, so each
:class:`DhGroup` owns a :class:`FixedBaseTable` for ``g`` — built on the
first :meth:`DhGroup.power`, never at import — and key generation costs a
quarter of a ``pow()``.  The shared secret has a fresh base each time and
keeps ``pow()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import CryptoError
from repro.common.rng import DeterministicRNG

# RFC 3526, group 14 (2048-bit MODP, safe prime, generator 2).
MODP_2048_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A637ED6B0BFF5CB6F406B7EDEE386BFB5A899FA5AE9F24117C4B1FE6"
    "49286651ECE45B3DC2007CB8A163BF0598DA48361C55D39A69163FA8"
    "FD24CF5F83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3BE39E772C"
    "180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFF"
    "FFFFFFFF",
    16,
)

# RFC 2409, Oakley group 1 (768-bit MODP, safe prime, generator 2).
MODP_768_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E08"
    "8A67CC74020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B"
    "302B0A6DF25F14374FE1356D6D51C245E485B576625E7EC6F44C42E9"
    "A63A3620FFFFFFFFFFFFFFFF",
    16,
)


class FixedBaseTable:
    """``base ** x mod p`` for one base and many exponents (BGMW).

    Holds ``base ** (2 ** (w * i))`` for each ``w``-bit window ``i`` of the
    widest exponent (410 entries, 105 KB, for a 2047-bit exponent at
    ``w = 5``).  An exponentiation multiplies the entry of every window
    whose digit is ``d`` into bucket ``d`` and folds the buckets as
    ``prod(bucket[d] ** d)`` with a running product: ``windows + 2 ** (w + 1)``
    modular multiplications and no squarings, where ``pow()`` squares once
    per exponent bit.  Building it costs one ``pow()``'s worth of squarings.
    """

    WINDOW = 5

    def __init__(self, base: int, modulus: int, exponent_bits: int) -> None:
        self.modulus = modulus
        entries = []
        for _ in range(-(-exponent_bits // self.WINDOW)):
            entries.append(base)
            base = pow(base, 1 << self.WINDOW, modulus)
        self._entries = tuple(entries)
        #: exponents in ``[0, limit)`` are covered
        self.limit = 1 << (self.WINDOW * len(entries))

    def pow(self, exponent: int) -> int:
        if not 0 <= exponent < self.limit:
            raise CryptoError("exponent outside the fixed-base table")
        modulus = self.modulus
        mask = (1 << self.WINDOW) - 1
        buckets = [1] * (mask + 1)
        for entry in self._entries:
            digit = exponent & mask
            if digit:
                buckets[digit] = buckets[digit] * entry % modulus
            exponent >>= self.WINDOW
        result = running = 1
        for digit in range(mask, 0, -1):
            running = running * buckets[digit] % modulus
            result = result * running % modulus
        return result


@dataclass(frozen=True)
class DhGroup:
    """A safe-prime group description ``(p, g)`` with subgroup order (p-1)/2."""

    prime: int
    generator: int

    def fixed_base(self, base: int) -> FixedBaseTable:
        """A table for ``base`` covering every exponent up to the subgroup
        order; whoever raises ``base`` repeatedly builds and keeps one."""
        return FixedBaseTable(
            base % self.prime, self.prime, self.subgroup_order.bit_length()
        )

    # cached_property stores into __dict__, which a frozen dataclass allows;
    # equality and hash still see only (prime, generator).
    @cached_property
    def _generator_table(self) -> FixedBaseTable:
        return self.fixed_base(self.generator)

    def power(self, exponent: int) -> int:
        """``g ** exponent mod p`` through the group's own table."""
        return self._generator_table.pow(exponent)

    @property
    def subgroup_order(self) -> int:
        return (self.prime - 1) // 2

    @property
    def byte_width(self) -> int:
        return (self.prime.bit_length() + 7) // 8

    def validate_public(self, value: int) -> None:
        """Reject trivially malformed public values (small-subgroup guard)."""
        if not 2 <= value <= self.prime - 2:
            raise CryptoError("DH public value out of range")


MODP_2048 = DhGroup(prime=MODP_2048_PRIME, generator=2)
MODP_768 = DhGroup(prime=MODP_768_PRIME, generator=2)


@dataclass(frozen=True)
class DhKeyPair:
    """A private exponent and the matching public value ``g^x mod p``."""

    group: DhGroup
    private: int
    public: int


class DiffieHellman:
    """One party's side of a Diffie-Hellman exchange."""

    def __init__(self, rng: DeterministicRNG, group: DhGroup = MODP_2048) -> None:
        self._group = group
        self._rng = rng

    @property
    def group(self) -> DhGroup:
        return self._group

    def generate_keypair(self) -> DhKeyPair:
        x = self._rng.randint(2, self._group.subgroup_order - 1)
        return DhKeyPair(
            group=self._group,
            private=x,
            public=self._group.power(x),
        )

    def shared_secret(self, keypair: DhKeyPair, peer_public: int) -> bytes:
        """Compute ``peer_public ** private mod p`` as fixed-width bytes."""
        self._group.validate_public(peer_public)
        secret = pow(peer_public, keypair.private, self._group.prime)
        return secret.to_bytes(self._group.byte_width, "big")
