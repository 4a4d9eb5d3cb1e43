"""Schnorr signatures over a safe-prime group.

The RBsig baseline (Algorithm 4, adapted from Lamport et al.) authenticates
relayed broadcast messages with digital signatures.  The paper's point
(Appendix B.1) is that ERB *avoids* signatures entirely — the blinded
channel's symmetric MAC plus appended identities achieves the same effect
at a fraction of the cost — so this module exists to make that comparison
measurable: the benchmark harness counts both signature bytes on the wire
and verification work.

Construction (Fiat-Shamir transformed identification scheme) in the
subgroup of order ``q = (p-1)/2`` of a safe-prime group:

* keygen:  ``x <- [1, q)``, ``y = g^x mod p``
* sign:    ``k <- [1, q)``, ``r = g^k``, ``e = H(r || y || m) mod q``,
           ``s = k + x*e mod q``; signature is ``(e, s)``
* verify:  ``r' = g^s * y^(-e) mod p``; accept iff ``H(r' || y || m) = e``

``g^x`` and ``g^k`` go through the group's own fixed-base table
(:meth:`repro.crypto.dh.DhGroup.power`).  A one-off verification keeps
``pow()``; a verifier that checks many signatures under one key — the
attestation authority — owns a table for ``y`` and passes it in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.rng import DeterministicRNG
from repro.crypto.dh import MODP_768, DhGroup, FixedBaseTable
from repro.crypto.hashing import hash_to_int

#: Modeled wire size of one signature (e, s) in bytes, used by MODELED-mode
#: traffic accounting for the RBsig baseline (two group-order integers).
SIGNATURE_BYTES = 2 * 96


@dataclass(frozen=True)
class SchnorrSignature:
    """A Schnorr signature ``(e, s)``."""

    e: int
    s: int

    def to_tuple(self) -> tuple:
        return (self.e, self.s)

    @staticmethod
    def from_tuple(raw: tuple) -> "SchnorrSignature":
        e, s = raw
        return SchnorrSignature(e=e, s=s)


@dataclass(frozen=True)
class SchnorrKeyPair:
    """A signing key ``x`` and verification key ``y = g^x``."""

    group: DhGroup
    private: int
    public: int

    def sign(self, message: bytes, rng: DeterministicRNG) -> SchnorrSignature:
        group = self.group
        q = group.subgroup_order
        k = rng.randint(1, q - 1)
        r = group.power(k)
        e = _challenge(group, r, self.public, message)
        s = (k + self.private * e) % q
        return SchnorrSignature(e=e, s=s)


def schnorr_keygen(
    rng: DeterministicRNG, group: DhGroup = MODP_768
) -> SchnorrKeyPair:
    """Sample a fresh signing key pair."""
    x = rng.randint(1, group.subgroup_order - 1)
    return SchnorrKeyPair(group=group, private=x, public=group.power(x))


def _challenge(group: DhGroup, r: int, public: int, message: bytes) -> int:
    width = group.byte_width
    material = (
        r.to_bytes(width, "big") + public.to_bytes(width, "big") + message
    )
    return hash_to_int(material, group.subgroup_order, domain="schnorr")


def schnorr_verify(
    group: DhGroup,
    public: int,
    message: bytes,
    signature: SchnorrSignature,
    public_table: Optional[FixedBaseTable] = None,
) -> bool:
    """Verify a signature against the public key ``y``.

    ``public_table`` is the caller's fixed-base table for ``y`` (from
    ``group.fixed_base(public)``); with it both exponentiations are table
    look-ups, without it both are ``pow()``.
    """
    q = group.subgroup_order
    if not (0 <= signature.e < q and 0 <= signature.s < q):
        return False
    if not 2 <= public <= group.prime - 2:
        return False
    # r' = g^s * y^(-e) mod p
    minus_e = q - (signature.e % q)
    if public_table is None:
        g_s = pow(group.generator, signature.s, group.prime)
        y_inv_e = pow(public, minus_e, group.prime)
    else:
        g_s = group.power(signature.s)
        y_inv_e = public_table.pow(minus_e)
    r_prime = g_s * y_inv_e % group.prime
    return _challenge(group, r_prime, public, message) == signature.e
