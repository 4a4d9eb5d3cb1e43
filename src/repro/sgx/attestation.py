"""F3 — remote attestation with a simulated attestation service.

The paper's evaluation itself ran against a *simulated* Intel Attestation
Service (Section 6), and so do we: :class:`AttestationAuthority` holds a
Schnorr signing key (standing in for Intel's EPID group key), issues
quotes binding ``(measurement, report_data)``, and verifiers check both the
authority signature and that the measurement equals the program they
expect.  ``report_data`` carries the enclave's DH public value so the
channel-setup key exchange is authenticated end-to-end: a byzantine OS
cannot man-in-the-middle the exchange because it cannot produce a quote
over its own key with a valid measurement (enforcing P1 and P2).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.common.errors import AttestationError
from repro.common.rng import DeterministicRNG
from repro.crypto.dh import MODP_768, DhGroup, FixedBaseTable
from repro.crypto.schnorr import (
    SchnorrKeyPair,
    SchnorrSignature,
    schnorr_keygen,
    schnorr_verify,
)


@dataclass(frozen=True)
class Quote:
    """An attestation quote: measurement + report data + authority signature."""

    measurement: bytes
    report_data: bytes
    signature: SchnorrSignature

    def signed_material(self) -> bytes:
        return b"quote|" + self.measurement + b"|" + self.report_data


class AttestationAuthority:
    """Simulated IAS: issues and verifies quotes for the whole simulation."""

    def __init__(self, rng: DeterministicRNG, group: DhGroup = MODP_768) -> None:
        self._group = group
        self._keypair: SchnorrKeyPair = schnorr_keygen(
            rng.fork("attestation-authority"), group
        )

    @property
    def public_key(self) -> int:
        return self._keypair.public

    @cached_property
    def _public_table(self) -> FixedBaseTable:
        """Every quote in the simulation is verified under this one key, so
        the authority keeps a fixed-base table for it (built by the first
        verification)."""
        return self._group.fixed_base(self._keypair.public)

    def issue_quote(
        self, measurement: bytes, report_data: bytes, rng: DeterministicRNG
    ) -> Quote:
        """Sign a quote over (measurement, report_data).

        In real SGX the quote is produced by the quoting enclave from an
        EREPORT; here issuing is modeled as a call to the authority, which
        only genuine enclaves can make (the OS layer has no handle to it).
        """
        draft = Quote(
            measurement=measurement,
            report_data=report_data,
            signature=SchnorrSignature(0, 0),
        )
        signature = self._keypair.sign(draft.signed_material(), rng)
        return Quote(
            measurement=measurement, report_data=report_data, signature=signature
        )

    def verify_quote(self, quote: Quote, expected_measurement: bytes) -> None:
        """Raise :class:`AttestationError` unless the quote is genuine and
        attests the expected program."""
        if quote.measurement != expected_measurement:
            raise AttestationError(
                "quote attests a different program "
                f"({quote.measurement.hex()[:16]} != "
                f"{expected_measurement.hex()[:16]})"
            )
        if not schnorr_verify(
            self._group,
            self._keypair.public,
            quote.signed_material(),
            quote.signature,
            public_table=self._public_table,
        ):
            raise AttestationError("quote signature verification failed")
