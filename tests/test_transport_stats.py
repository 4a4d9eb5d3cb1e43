"""Direct unit tests for the transport layer and traffic statistics."""

from __future__ import annotations

import sys

import pytest

from repro.channel.peer_channel import modeled_wire_size
from repro.common.errors import (
    EnclaveHaltedError,
    IntegrityError,
    ProtocolError,
    ReplayError,
)
from repro.common.rng import DeterministicRNG
from repro.common.types import MessageType, ProtocolMessage
from repro.net.stats import RoundRecord, RunStats, TrafficStats
from repro.net.transport import FullTransport, ModeledTransport, PlainTransport
from repro.crypto.dh import MODP_768
from repro.sgx.attestation import AttestationAuthority
from repro.sgx.enclave import Enclave
from repro.sgx.program import EnclaveProgram
from repro.sgx.trusted_time import SimulationClock


class _Proto(EnclaveProgram):
    PROGRAM_NAME = "transport-test"


class _Other(EnclaveProgram):
    PROGRAM_NAME = "transport-other"


def _enclaves(count=3, label="tp", authority_needed=False, odd_program=None):
    rng = DeterministicRNG(label)
    clock = SimulationClock()
    authority = AttestationAuthority(rng) if authority_needed else None
    enclaves = {}
    for node in range(count):
        cls = odd_program if (odd_program and node == count - 1) else _Proto
        enclaves[node] = Enclave(node, cls(), rng, clock, authority)
    return enclaves


def _msg(payload=b"p", rnd=1, initiator=0):
    return ProtocolMessage(
        MessageType.ECHO, initiator, 1, payload, rnd, "tp"
    )


class TestModeledTransport:
    def test_roundtrip(self):
        transport = ModeledTransport(_enclaves())
        wire = transport.write(0, (1,), _msg())[0]
        assert transport.read(1, wire) == _msg()

    def test_counter_monotone_per_pair(self):
        transport = ModeledTransport(_enclaves())
        w1 = transport.write(0, (1,), _msg())[0]
        w2 = transport.write(0, (1,), _msg())[0]
        w3 = transport.write(0, (2,), _msg())[0]
        assert w2.counter == w1.counter + 1
        assert w3.counter == 1  # independent pair

    def test_replay_rejected(self):
        transport = ModeledTransport(_enclaves())
        wire = transport.write(0, (1,), _msg())[0]
        transport.read(1, wire)
        with pytest.raises(ReplayError):
            transport.read(1, wire)

    def test_out_of_order_old_counter_rejected(self):
        transport = ModeledTransport(_enclaves())
        old = transport.write(0, (1,), _msg(b"old"))[0]
        new = transport.write(0, (1,), _msg(b"new"))[0]
        transport.read(1, new)
        with pytest.raises(ReplayError):
            transport.read(1, old)

    def test_tampered_rejected(self):
        transport = ModeledTransport(_enclaves())
        wire = transport.write(0, (1,), _msg())[0]
        with pytest.raises(IntegrityError):
            transport.read(1, wire.tampered_copy())

    def test_misrouted_rejected(self):
        transport = ModeledTransport(_enclaves())
        wire = transport.write(0, (1,), _msg())[0]
        with pytest.raises(IntegrityError):
            transport.read(2, wire)

    def test_wrong_program_rejected(self):
        transport = ModeledTransport(
            _enclaves(count=3, odd_program=_Other)
        )
        wire = transport.write(2, (1,), _msg())[0]  # node 2 runs _Other
        with pytest.raises(IntegrityError, match="H\\(pi\\)"):
            transport.read(1, wire)

    def test_halted_sender_refused(self):
        enclaves = _enclaves()
        transport = ModeledTransport(enclaves)
        enclaves[0].halt()
        with pytest.raises(EnclaveHaltedError):
            transport.write(0, (1,), _msg())[0]

    def test_halted_receiver_refused(self):
        enclaves = _enclaves()
        transport = ModeledTransport(enclaves)
        wire = transport.write(0, (1,), _msg())[0]
        enclaves[1].halt()
        with pytest.raises(EnclaveHaltedError):
            transport.read(1, wire)

    def test_size_hint_respected(self):
        transport = ModeledTransport(_enclaves())
        wire = transport.write(0, (1,), _msg(), size_hint=1234)[0]
        assert wire.size == 1234

    def test_modeled_size_formula(self):
        transport = ModeledTransport(_enclaves())
        wire = transport.write(0, (1,), _msg())[0]
        assert wire.size == modeled_wire_size(_msg())

    def test_wires_are_opaque(self):
        transport = ModeledTransport(_enclaves())
        assert transport.write(0, (1,), _msg())[0].opaque


class TestPlainTransport:
    def test_no_replay_protection(self):
        transport = PlainTransport(_enclaves())
        wire = transport.write(0, (1,), _msg())[0]
        assert transport.read(1, wire) == _msg()
        assert transport.read(1, wire) == _msg()  # replays sail through

    def test_forgeries_accepted(self):
        from dataclasses import replace

        transport = PlainTransport(_enclaves())
        wire = transport.write(0, (1,), _msg(b"real"))[0]
        forged = replace(wire, plain=replace(wire.plain, payload=b"fake"))
        assert transport.read(1, forged).payload == b"fake"

    def test_wires_are_transparent(self):
        transport = PlainTransport(_enclaves())
        assert not transport.write(0, (1,), _msg())[0].opaque


class TestFullTransport:
    def test_establishes_all_pairs(self):
        enclaves = _enclaves(count=4, authority_needed=True)
        transport = FullTransport(enclaves, MODP_768)
        for a in range(4):
            for b in range(4):
                if a == b:
                    continue
                wire = transport.write(a, (b,), _msg(initiator=a))[0]
                assert transport.read(b, wire) == _msg(initiator=a)

    def test_wire_carries_ciphertext(self):
        enclaves = _enclaves(count=2, authority_needed=True, label="ct")
        transport = FullTransport(enclaves, MODP_768)
        wire = transport.write(0, (1,), _msg(b"secret-payload"))[0]
        assert wire.sealed is not None
        assert b"secret-payload" not in wire.sealed


class TestTrafficStats:
    def test_record_and_summary(self):
        stats = TrafficStats()
        stats.record_send(MessageType.INIT, 100, rnd=1)
        stats.record_send(MessageType.ACK, 80, rnd=1)
        stats.record_send(MessageType.ECHO, 100, rnd=2)
        assert stats.messages_sent == 3
        assert stats.bytes_sent == 280
        assert stats.round_bytes(1) == 180
        assert stats.round_bytes(3) == 0
        assert "INIT=1" in stats.summary()

    def test_megabytes(self):
        stats = TrafficStats()
        stats.record_send(MessageType.INIT, 1024 * 1024, rnd=1)
        assert stats.megabytes_sent == pytest.approx(1.0)

    def test_message_type_hash_runs_no_python_frame(self):
        """The per-type Counters hash a MessageType on every charge:
        that hash is C code, not ``Enum.__hash__``'s Python frame."""
        calls = []

        def profile(frame, event, arg):
            if event == "call":
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            hash(MessageType.ECHO)
        finally:
            sys.setprofile(None)
        assert calls == []
        assert {MessageType.ECHO: 1}[MessageType.ECHO] == 1

    def test_omissions_and_rejections(self):
        stats = TrafficStats()
        stats.record_omission()
        stats.record_rejection()
        stats.record_rejection()
        assert stats.omissions == 1
        assert stats.rejections == 2

    def test_run_stats_termination(self):
        run = RunStats()
        run.rounds.append(RoundRecord(rnd=1, bytes=10, seconds=2.0))
        run.rounds.append(RoundRecord(rnd=2, bytes=20, seconds=3.5))
        assert run.rounds_executed == 2
        assert run.termination_seconds == pytest.approx(5.5)

    def test_record_send_bulk_equals_repeated_sends(self):
        bulk, repeated = TrafficStats(), TrafficStats()
        bulk.record_send_bulk(MessageType.ECHO, total_bytes=700, rnd=2, count=7)
        for _ in range(7):
            repeated.record_send(MessageType.ECHO, 100, rnd=2)
        assert bulk == repeated

    def test_record_send_bulk_zero_count_leaves_no_trace(self):
        stats = TrafficStats()
        stats.record_send_bulk(MessageType.ECHO, total_bytes=0, rnd=1, count=0)
        assert stats == TrafficStats()

    def test_record_send_bulk_rejects_negative(self):
        stats = TrafficStats()
        with pytest.raises(ValueError):
            stats.record_send_bulk(MessageType.ECHO, total_bytes=-1, rnd=1, count=1)
        with pytest.raises(ValueError):
            stats.record_send_bulk(MessageType.ECHO, total_bytes=1, rnd=1, count=-1)

    def test_record_omissions_bulk(self):
        stats = TrafficStats()
        stats.record_omissions(5)
        stats.record_omission()
        assert stats.omissions == 6
        with pytest.raises(ValueError):
            stats.record_omissions(-1)
