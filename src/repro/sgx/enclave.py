"""F1 — the enclave container.

An :class:`Enclave` is the trusted half of a peer (Fig. 1 of the paper):
it owns the protocol program, the RDRAND stream, the trusted clock, and —
once channels are established — the per-peer channel keys.  The untrusted
OS half never reads this state; it only moves opaque wire bytes around.

Halt-on-divergence (P4) is enforced here: once :meth:`halt` runs, the
enclave's state is ``HALTED`` and every further invocation raises
:class:`EnclaveHaltedError`.  Because channel keys, sequence numbers and
round position live only inside enclave memory, a relaunched enclave
cannot rejoin an ongoing execution (Section 3.1, P6): it would need the
session state that was destroyed with the halt.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.common.errors import EnclaveHaltedError
from repro.common.rng import DeterministicRNG
from repro.sgx.attestation import AttestationAuthority, Quote
from repro.sgx.measurement import measure_program
from repro.sgx.program import EnclaveProgram
from repro.sgx.rdrand import RdRand
from repro.sgx.trusted_time import SimulationClock, TrustedClock


class EnclaveState(enum.Enum):
    RUNNING = "running"
    HALTED = "halted"


class Enclave:
    """The trusted entity of one peer."""

    def __init__(
        self,
        node_id: int,
        program: EnclaveProgram,
        master_rng: DeterministicRNG,
        clock_source: SimulationClock,
        authority: Optional[AttestationAuthority] = None,
    ) -> None:
        self.node_id = node_id
        self.program = program
        self.state = EnclaveState.RUNNING
        self.rdrand = RdRand(master_rng, node_id)
        self.clock = TrustedClock(clock_source)
        self.measurement = measure_program(program)
        self._authority = authority
        self.halted_round: Optional[int] = None

    # ---- lifecycle -----------------------------------------------------
    @property
    def halted(self) -> bool:
        return self.state is EnclaveState.HALTED

    def guard(self) -> None:
        """Refuse any operation once the enclave halted (sticky ⊥ state)."""
        if self.halted:
            raise EnclaveHaltedError(
                f"enclave {self.node_id} halted in round {self.halted_round}"
            )

    def halt(self, rnd: Optional[int] = None) -> None:
        """Execute Halt(st): set the state to ⊥ permanently (P4)."""
        if not self.halted:
            self.state = EnclaveState.HALTED
            self.halted_round = rnd

    def relaunch(
        self, program: EnclaveProgram, master_rng: DeterministicRNG
    ) -> None:
        """Start a fresh execution in this enclave container.

        P6 forbids a halted enclave *rejoining an ongoing execution* —
        the session state died with the halt.  A relaunch is the other,
        legitimate lifecycle: the container boots a new program for a
        **new** protocol instance, with a fresh RDRAND fork, a fresh
        measurement and a reset clock reference, exactly as a relaunched
        enclave joining the next instance of a long-lived service would.
        Kept channels keep their link streams (forked off the RDRAND of
        the launch that established them): forking them again at the
        same seed would restart them, and a rerun would reuse their
        randomness as nonces under the kept keys.
        Used by :meth:`repro.net.simulator.RoundHost.begin_session_run`.
        """
        self.program = program
        self.state = EnclaveState.RUNNING
        self.halted_round = None
        self.rdrand = RdRand(master_rng, self.node_id)
        self.clock.reset_reference()
        self.measurement = measure_program(program)

    # ---- attestation (F3) ----------------------------------------------
    def quote(self, report_data: bytes, rng: DeterministicRNG) -> Quote:
        """Produce an attestation quote binding ``report_data`` to this
        enclave's measurement, signed with a nonce drawn from ``rng``."""
        self.guard()
        if self._authority is None:
            raise EnclaveHaltedError(
                "no attestation authority configured for this enclave"
            )
        return self._authority.issue_quote(
            self.measurement, report_data, rng
        )

    def verify_peer_quote(self, quote: Quote, expected_measurement: bytes) -> None:
        """Check a peer's quote before trusting its channel key (P1)."""
        self.guard()
        if self._authority is None:
            raise EnclaveHaltedError(
                "no attestation authority configured for this enclave"
            )
        self._authority.verify_quote(quote, expected_measurement)
