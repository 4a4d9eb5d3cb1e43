"""Exception hierarchy for the repro library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class.  Channel-level rejections (integrity, replay, staleness)
deliberately do *not* abort a simulation: per the paper's reduction
(Theorem A.2) a rejected message is equivalent to an omitted one, so the
transport layer catches them and records an omission instead.
"""


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A simulation or protocol was configured with inconsistent parameters."""


class SerializationError(ReproError):
    """A byte-string could not be decoded back into a message value."""


class ProtocolError(ReproError):
    """A protocol state machine was driven in an unsupported way."""


class CryptoError(ReproError):
    """A cryptographic operation failed (bad key sizes, malformed input)."""


class IntegrityError(CryptoError):
    """MAC verification or signature verification failed.

    At the channel layer this is the concrete signal behind attack A2
    (message forgery): a forged ciphertext fails verification and the
    receiving enclave treats the message as omitted.
    """


class ReplayError(CryptoError):
    """A message carried a stale sequence number (attack A5)."""


class StaleRoundError(CryptoError):
    """A message carried a round number other than the current one (attack A4)."""


class AttestationError(CryptoError):
    """A remote-attestation quote failed verification (wrong program or key)."""


class EnclaveHaltedError(ProtocolError):
    """An operation was attempted on an enclave whose state is ``HALTED``.

    Raised when the untrusted OS layer tries to keep driving an enclave that
    executed :func:`Halt` (halt-on-divergence, property P4).
    """


class OpaqueWireError(ReproError):
    """Untrusted OS code read the body of an opaque wire.

    Over a blinded channel the OS sees ciphertext (P3): what it may act
    on is a wire's routing metadata, counter, size and flags.  The
    MODELED transport carries the plaintext object in place of the
    ciphertext, so reading it is a breach of the leakage model every
    reduction (Thm A.2) assumes, not a power the OS has.
    """
