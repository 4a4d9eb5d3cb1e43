"""Tests for the simulated SGX substrate (F1-F4, Appendix A program model)."""

from __future__ import annotations

import pytest

from repro.common.errors import AttestationError, EnclaveHaltedError, IntegrityError
from repro.common.rng import DeterministicRNG
from repro.sgx.attestation import AttestationAuthority
from repro.sgx.enclave import Enclave, EnclaveState
from repro.sgx.measurement import measure_program
from repro.sgx.program import (
    BOTTOM,
    EnclaveProgram,
    Program,
    is_valid_transcript,
    run_program,
)
from repro.sgx.rdrand import RdRand
from repro.sgx.sealing import seal_data, unseal_data
from repro.sgx.trusted_time import SimulationClock, TrustedClock


# ---------------------------------------------------------------------------
# Formal program model (Definitions A.1-A.3, A.7)
# ---------------------------------------------------------------------------
class TestProgramModel:
    def _adder(self):
        return Program.from_steps(
            "adder",
            [
                ("add", lambda st, m: (st + m, st + m)),
                ("double", lambda st, m: (st * 2, st * 2)),
            ],
        )

    def test_run_produces_transcript(self):
        transcript = run_program(self._adder(), 1, [2, 0])
        assert transcript == [(3, 3), (6, 6)]

    def test_valid_transcript(self):
        transcript = run_program(self._adder(), 1, [2, 0])
        assert is_valid_transcript(transcript)

    def test_bottom_state_is_sticky(self):
        # Definition A.1: an instruction fed ⊥ outputs ⊥ forever.
        halting = Program.from_steps(
            "halting",
            [
                ("halt", lambda st, m: (BOTTOM, BOTTOM)),
                ("never", lambda st, m: ("alive", "alive")),
            ],
        )
        transcript = run_program(halting, "start", ["a", "b"])
        assert transcript == [(BOTTOM, BOTTOM), (BOTTOM, BOTTOM)]
        assert not is_valid_transcript(transcript)

    def test_halt_on_divergence_definition(self):
        # Definition A.7: the channel halts iff the transcript is invalid.
        conditional = Program.from_steps(
            "conditional",
            [("check", lambda st, m: (BOTTOM, BOTTOM) if m == "bad" else (st, m))],
        )
        good = run_program(conditional, "s", ["ok"])
        bad = run_program(conditional, "s", ["bad"])
        assert is_valid_transcript(good)
        assert not is_valid_transcript(bad)

    def test_message_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_program(self._adder(), 0, [1])

    def test_program_length(self):
        assert len(self._adder()) == 2


# ---------------------------------------------------------------------------
# RDRAND (F2)
# ---------------------------------------------------------------------------
class TestRdRand:
    def test_streams_differ_per_enclave(self):
        master = DeterministicRNG(0)
        a = RdRand(master, 1)
        b = RdRand(master, 2)
        assert a.read_rand(16) != b.read_rand(16)

    def test_reproducible_per_seed(self):
        a = RdRand(DeterministicRNG(0), 1)
        b = RdRand(DeterministicRNG(0), 1)
        assert a.read_rand(16) == b.read_rand(16)

    def test_random_bits_range(self):
        rd = RdRand(DeterministicRNG(0), 0)
        assert all(0 <= rd.random_bits(10) < 1024 for _ in range(100))

    def test_random_range(self):
        rd = RdRand(DeterministicRNG(0), 0)
        assert all(0 <= rd.random_range(7) < 7 for _ in range(100))


# ---------------------------------------------------------------------------
# Trusted time (F4)
# ---------------------------------------------------------------------------
class TestTrustedTime:
    def test_elapsed_tracks_clock(self):
        source = SimulationClock()
        clock = TrustedClock(source)
        source.advance(5.0)
        assert clock.elapsed() == 5.0

    def test_reference_reset(self):
        source = SimulationClock()
        clock = TrustedClock(source)
        source.advance(5.0)
        clock.reset_reference()
        source.advance(2.0)
        assert clock.elapsed() == 2.0

    def test_current_round_lockstep(self):
        source = SimulationClock()
        clock = TrustedClock(source)
        assert clock.current_round(2.0) == 1
        source.advance(1.9)
        assert clock.current_round(2.0) == 1
        source.advance(0.2)
        assert clock.current_round(2.0) == 2
        source.advance(4.0)
        assert clock.current_round(2.0) == 4

    def test_clock_cannot_go_backwards(self):
        from repro.common.errors import ProtocolError

        with pytest.raises(ProtocolError):
            SimulationClock().advance(-1.0)

    def test_bad_round_duration(self):
        from repro.common.errors import ProtocolError

        clock = TrustedClock(SimulationClock())
        with pytest.raises(ProtocolError):
            clock.current_round(0)


# ---------------------------------------------------------------------------
# Measurement + attestation (F3)
# ---------------------------------------------------------------------------
class _ProgramA(EnclaveProgram):
    PROGRAM_NAME = "prog-a"


class _ProgramB(EnclaveProgram):
    PROGRAM_NAME = "prog-b"


class TestMeasurement:
    def test_same_program_same_measurement(self):
        assert measure_program(_ProgramA()) == measure_program(_ProgramA())

    def test_different_programs_differ(self):
        assert measure_program(_ProgramA()) != measure_program(_ProgramB())

    def test_version_changes_measurement(self):
        class _ProgramA2(_ProgramA):
            PROGRAM_VERSION = "2"

        assert measure_program(_ProgramA()) != measure_program(_ProgramA2())


class TestAttestation:
    def _setup(self):
        rng = DeterministicRNG("attest")
        authority = AttestationAuthority(rng)
        return rng, authority

    def test_quote_verifies(self):
        rng, authority = self._setup()
        measurement = measure_program(_ProgramA())
        quote = authority.issue_quote(measurement, b"report", rng)
        authority.verify_quote(quote, measurement)  # should not raise

    def test_wrong_measurement_rejected(self):
        rng, authority = self._setup()
        quote = authority.issue_quote(
            measure_program(_ProgramA()), b"report", rng
        )
        with pytest.raises(AttestationError, match="different program"):
            authority.verify_quote(quote, measure_program(_ProgramB()))

    def test_forged_signature_rejected(self):
        rng, authority = self._setup()
        measurement = measure_program(_ProgramA())
        quote = authority.issue_quote(measurement, b"report", rng)
        from dataclasses import replace

        forged = replace(quote, report_data=b"tampered")
        with pytest.raises(AttestationError, match="signature"):
            authority.verify_quote(forged, measurement)

    def test_different_authorities_do_not_cross_verify(self):
        rng = DeterministicRNG("a1")
        auth1 = AttestationAuthority(rng.fork(1))
        auth2 = AttestationAuthority(rng.fork(2))
        measurement = measure_program(_ProgramA())
        quote = auth1.issue_quote(measurement, b"r", rng)
        with pytest.raises(AttestationError):
            auth2.verify_quote(quote, measurement)


# ---------------------------------------------------------------------------
# Enclave container (F1, P4)
# ---------------------------------------------------------------------------
class TestEnclave:
    def _enclave(self, with_authority=True):
        rng = DeterministicRNG("enclave")
        clock = SimulationClock()
        authority = AttestationAuthority(rng) if with_authority else None
        return Enclave(0, _ProgramA(), rng, clock, authority)

    def test_initial_state_running(self):
        enclave = self._enclave()
        assert enclave.state is EnclaveState.RUNNING
        assert not enclave.halted

    def test_halt_is_sticky(self):
        enclave = self._enclave()
        enclave.halt(rnd=3)
        assert enclave.halted
        assert enclave.halted_round == 3
        with pytest.raises(EnclaveHaltedError):
            enclave.guard()

    def test_halt_idempotent_keeps_first_round(self):
        enclave = self._enclave()
        enclave.halt(rnd=3)
        enclave.halt(rnd=9)
        assert enclave.halted_round == 3

    def test_halted_enclave_refuses_quotes(self):
        enclave = self._enclave()
        enclave.halt()
        with pytest.raises(EnclaveHaltedError):
            enclave.quote(b"report", enclave.rdrand.rng())

    def test_quote_roundtrip_between_enclaves(self):
        rng = DeterministicRNG("pair")
        clock = SimulationClock()
        authority = AttestationAuthority(rng)
        a = Enclave(0, _ProgramA(), rng, clock, authority)
        b = Enclave(1, _ProgramA(), rng, clock, authority)
        quote = a.quote(b"dh-public", a.rdrand.rng())
        b.verify_peer_quote(quote, b.measurement)  # same program: accepts

    def test_cross_program_quote_rejected(self):
        rng = DeterministicRNG("pair2")
        clock = SimulationClock()
        authority = AttestationAuthority(rng)
        a = Enclave(0, _ProgramA(), rng, clock, authority)
        b = Enclave(1, _ProgramB(), rng, clock, authority)
        with pytest.raises(AttestationError):
            b.verify_peer_quote(a.quote(b"x", a.rdrand.rng()), b.measurement)


# ---------------------------------------------------------------------------
# Sealing
# ---------------------------------------------------------------------------
class TestSealing:
    def test_roundtrip(self):
        rng = DeterministicRNG("seal")
        sealed = seal_data(b"platform", b"measurement", b"secret", rng)
        assert unseal_data(b"platform", b"measurement", sealed) == b"secret"

    def test_wrong_program_rejected(self):
        rng = DeterministicRNG("seal")
        sealed = seal_data(b"platform", b"m1", b"secret", rng)
        with pytest.raises(IntegrityError):
            unseal_data(b"platform", b"m2", sealed)

    def test_wrong_platform_rejected(self):
        rng = DeterministicRNG("seal")
        sealed = seal_data(b"p1", b"m", b"secret", rng)
        with pytest.raises(IntegrityError):
            unseal_data(b"p2", b"m", sealed)

    def test_tampered_blob_rejected(self):
        rng = DeterministicRNG("seal")
        sealed = bytearray(seal_data(b"p", b"m", b"secret", rng))
        sealed[5] ^= 0xFF
        with pytest.raises(IntegrityError):
            unseal_data(b"p", b"m", bytes(sealed))
