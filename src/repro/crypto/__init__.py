"""From-scratch cryptographic primitives for the blinded peer channel.

The paper's Fig. 4 construction (``PeerCh_sgx``) needs exactly four
ingredients, all provided here with the interfaces used in the proofs:

* ``SKE = (Gen, Enc, Dec)`` — a CPA-secure symmetric cipher
  (:mod:`repro.crypto.stream_cipher`, SHA-256 in counter mode with a
  random nonce);
* ``MAC = (Gen, Auth, Vrfy)`` — a message authentication code
  (:mod:`repro.crypto.mac`, HMAC-SHA256 built from the hash directly);
* ``KeyEx`` — a key-exchange protocol (:mod:`repro.crypto.dh`,
  finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP group);
* ``H`` — a collision-resistant hash (:mod:`repro.crypto.hashing`).

:mod:`repro.crypto.schnorr` additionally provides Schnorr signatures over
the same group for the RBsig baseline (Algorithm 4), and
:mod:`repro.crypto.kdf` an HKDF used to split a DH shared secret into the
(encryption, MAC) key pair of the channel.

Nothing here depends on third-party packages; only :mod:`hashlib` and the
constant-time :func:`hmac.compare_digest` from the standard library are
used, in keeping with the "build every substrate" reproduction rule.
"""

from repro.crypto.aead import AEAD, AeadKey
from repro.crypto.dh import DiffieHellman, DhKeyPair
from repro.crypto.hashing import hash_bytes, hash_hex, hash_to_int
from repro.crypto.kdf import hkdf
from repro.crypto.mac import mac_auth, mac_gen, mac_verify
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrSignature,
    schnorr_keygen,
    schnorr_verify,
)
from repro.crypto.stream_cipher import ske_decrypt, ske_encrypt, ske_gen

__all__ = [
    "AEAD",
    "AeadKey",
    "DhKeyPair",
    "DiffieHellman",
    "SchnorrKeyPair",
    "SchnorrSignature",
    "hash_bytes",
    "hash_hex",
    "hash_to_int",
    "hkdf",
    "mac_auth",
    "mac_gen",
    "mac_verify",
    "schnorr_keygen",
    "schnorr_verify",
    "ske_decrypt",
    "ske_encrypt",
    "ske_gen",
]
