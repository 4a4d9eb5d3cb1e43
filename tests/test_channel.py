"""Tests for the blinded peer channel (Fig. 4) and replay guard."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, run_erb, run_erng
from repro.channel.peer_channel import SecureChannel, modeled_wire_size
from repro.channel.replay import ReplayGuard
from repro.common.config import CHANNEL_OVERHEAD_BYTES, ChannelSecurity
from repro.common.errors import (
    AttestationError,
    ConfigurationError,
    IntegrityError,
    ProtocolError,
    ReplayError,
)
from repro.common.rng import DeterministicRNG
from repro.common.types import MessageType, ProtocolMessage
from repro.core.erng_optimized import run_optimized_erng
from repro.core.pb_erb import run_pb_erb
from repro.crypto.dh import MODP_768
from repro.sgx.attestation import AttestationAuthority
from repro.sgx.enclave import Enclave
from repro.sgx.program import EnclaveProgram
from repro.sgx.trusted_time import SimulationClock


class _Proto(EnclaveProgram):
    PROGRAM_NAME = "channel-test-proto"


class _OtherProto(EnclaveProgram):
    PROGRAM_NAME = "channel-test-other"


def _enclaves(program_b_cls=_Proto, label="chan"):
    rng = DeterministicRNG(label)
    clock = SimulationClock()
    authority = AttestationAuthority(rng)
    a = Enclave(0, _Proto(), rng, clock, authority)
    b = Enclave(1, program_b_cls(), rng, clock, authority)
    return a, b


def _message(payload=b"m", rnd=1):
    return ProtocolMessage(
        type=MessageType.INIT,
        initiator=0,
        seq=1,
        payload=payload,
        rnd=rnd,
        instance="test",
    )


class TestReplayGuard:
    def test_accepts_increasing(self):
        guard = ReplayGuard(10)
        guard.check_and_update(11)
        guard.check_and_update(15)
        assert guard.highest == 15

    def test_rejects_equal(self):
        guard = ReplayGuard(10)
        guard.check_and_update(11)
        with pytest.raises(ReplayError):
            guard.check_and_update(11)

    def test_rejects_stale(self):
        guard = ReplayGuard(10)
        with pytest.raises(ReplayError):
            guard.check_and_update(10)
        with pytest.raises(ReplayError):
            guard.check_and_update(3)

    @given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=20))
    @settings(max_examples=100)
    def test_only_strictly_increasing_sequences_pass(self, counters):
        guard = ReplayGuard(0)
        accepted = []
        for counter in counters:
            try:
                guard.check_and_update(counter)
                accepted.append(counter)
            except ReplayError:
                pass
        assert accepted == sorted(set(accepted))


class TestFullChannel:
    def _channel(self, program_b_cls=_Proto, label="chan"):
        a, b = _enclaves(program_b_cls, label)
        channel = SecureChannel.establish(
            a, b, ChannelSecurity.FULL, group=MODP_768
        )
        return a, b, channel

    def test_write_read_roundtrip(self):
        a, b, channel = self._channel()
        wire = channel.write(0, _message(), a.rdrand.rng(), a.measurement)
        assert channel.read(1, wire) == _message()

    def test_wire_is_ciphertext(self):
        a, b, channel = self._channel()
        wire = channel.write(0, _message(b"secret"), a.rdrand.rng(), a.measurement)
        assert wire.plain is None
        assert b"secret" not in wire.sealed  # P3: content hidden from the OS

    def test_tamper_rejected(self):
        a, b, channel = self._channel()
        wire = channel.write(0, _message(), a.rdrand.rng(), a.measurement)
        with pytest.raises(IntegrityError):
            channel.read(1, wire.tampered_copy())

    def test_replay_rejected(self):
        a, b, channel = self._channel()
        wire = channel.write(0, _message(), a.rdrand.rng(), a.measurement)
        channel.read(1, wire)
        with pytest.raises(ReplayError):
            channel.read(1, wire)

    def test_cross_direction_replay_rejected(self):
        # A message b wrote cannot be read back by b.
        a, b, channel = self._channel()
        wire = channel.write(0, _message(), a.rdrand.rng(), a.measurement)
        with pytest.raises(IntegrityError):
            channel.read(0, wire)

    def test_wrong_program_measurement_rejected(self):
        # The H(pi) binding inside the ciphertext (Fig. 4's Read check).
        a, b, channel = self._channel()
        other_measurement = bytes(32)
        wire = channel.write(0, _message(), a.rdrand.rng(), other_measurement)
        with pytest.raises(IntegrityError, match="H\\(pi\\)"):
            channel.read(1, wire)

    def test_establish_rejects_program_mismatch(self):
        a, b = _enclaves(_OtherProto)
        with pytest.raises(AttestationError):
            SecureChannel.establish(a, b, ChannelSecurity.FULL, group=MODP_768)

    def test_bidirectional(self):
        a, b, channel = self._channel()
        wire_ab = channel.write(0, _message(b"a->b"), a.rdrand.rng(), a.measurement)
        wire_ba = channel.write(1, _message(b"b->a"), b.rdrand.rng(), b.measurement)
        assert channel.read(1, wire_ab).payload == b"a->b"
        assert channel.read(0, wire_ba).payload == b"b->a"

    def test_counters_independent_per_direction(self):
        a, b, channel = self._channel()
        for _ in range(3):
            wire = channel.write(0, _message(), a.rdrand.rng(), a.measurement)
            channel.read(1, wire)
        wire = channel.write(1, _message(), b.rdrand.rng(), b.measurement)
        channel.read(0, wire)  # should not be confused by a->b counters

    def test_non_endpoint_rejected(self):
        a, b, channel = self._channel()
        with pytest.raises(ProtocolError):
            channel.write(99, _message(), a.rdrand.rng(), a.measurement)

    def test_establish_draws_nothing_from_the_protocol_stream(self):
        a, b, _ = self._channel()
        fresh_a, fresh_b = _enclaves()
        assert a.rdrand.read_rand(32) == fresh_a.rdrand.read_rand(32)
        assert b.rdrand.read_rand(32) == fresh_b.rdrand.read_rand(32)

    def test_initial_counters_have_one_encoded_width(self):
        for label in range(8):
            a, b = _enclaves(label=("width", label))
            channel = SecureChannel.establish(
                a, b, ChannelSecurity.FULL, group=MODP_768
            )
            for sender in (0, 1):
                assert 2**24 < channel.next_counter(sender) <= 2**31 + 1

    def test_halted_enclave_cannot_establish(self):
        a, b = _enclaves()
        a.halt()
        from repro.common.errors import EnclaveHaltedError

        with pytest.raises(EnclaveHaltedError):
            SecureChannel.establish(a, b, ChannelSecurity.FULL, group=MODP_768)


    @pytest.mark.parametrize(
        "security", [ChannelSecurity.MODELED, ChannelSecurity.NONE]
    )
    def test_only_full_security_establishes(self, security):
        # The lower levels are transport models (repro.net.transport).
        a, b = _enclaves()
        with pytest.raises(ConfigurationError):
            SecureChannel.establish(a, b, security)


class TestModeledChannel:
    """The MODELED level's wire-size model; its accept/reject rule is
    ``ModeledTransport``'s (tests/test_transport_stats.py)."""

    def test_size_calibration_near_paper_values(self):
        # Section 6.1: INIT ~100 B, ACK ~80 B.
        init = ProtocolMessage(MessageType.INIT, 0, 1, 12345678, 1, "erb")
        ack = ProtocolMessage(
            MessageType.ACK, 0, 1, ("INIT", 1), 1, "erb"
        )
        assert 90 <= modeled_wire_size(init) <= 140
        assert 70 <= modeled_wire_size(ack) <= 130
        assert modeled_wire_size(ack) < modeled_wire_size(init) + 20

    def test_overhead_constant_applied(self):
        msg = _message(b"")
        from repro.common.serialization import encode

        assert modeled_wire_size(msg) == len(encode(msg.to_tuple())) + CHANNEL_OVERHEAD_BYTES


class TestFullDecidesWhatModeledDecides:
    """Channel draws come from link streams, so a FULL run's protocol
    draws are a MODELED run's: the same decisions at the same seed."""

    @staticmethod
    def _decisions(run, security, seed, **kwargs):
        extra = {"dh_group": "small"} if security is ChannelSecurity.FULL else {}
        result = run(SimulationConfig(
            seed=seed, channel_security=security, extra=extra, **kwargs
        ))
        return (
            result.outputs, result.halted, result.decided_rounds,
            result.rounds_executed,
        )

    @pytest.mark.parametrize("protocol, kwargs", [
        ("erb", {"n": 5}),
        ("erng", {"n": 5}),
        ("erng-opt", {"n": 9, "t": 2}),
        ("pb-erb", {"n": 5}),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_decisions_at_the_same_seed(self, protocol, kwargs, seed):
        run = {
            "erb": lambda c: run_erb(c, initiator=1, message=b"m"),
            "erng": run_erng,
            "erng-opt": run_optimized_erng,
            "pb-erb": lambda c: run_pb_erb(c, initiator=1, message=b"m"),
        }[protocol]
        full = self._decisions(run, ChannelSecurity.FULL, seed, **kwargs)
        assert full == self._decisions(
            run, ChannelSecurity.MODELED, seed, **kwargs
        )
        assert full[0]
