"""The v2 parallel data plane must be invisible in every observable.

The v2 engine replaced the per-round pickle round-trips with
shared-memory ring buffers, batched the per-wave crypto, and streamed
staged intents through the barrier.  None of that may show: these tests
pin the ring's framing discipline, the byte-identity of the shm data
plane against serial (results, dual ledgers, traced event streams, timed
vs untimed), a many-link envelope seal against one seal per link,
the one-line fallback warnings (an ineligible run; a host without
shared memory), and the coordinator's barrier attribution (< 0.3 of
wall at workers = 2 — the number that was 0.96 under the v1 protocol).
"""

from __future__ import annotations

import logging
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChannelSecurity, SimulationConfig, run_erb, run_erng
from repro.adversary.omission import SelectiveOmission
from repro.common.rng import DeterministicRNG
from repro.common.types import MessageType, ProtocolMessage
from repro.core.erb import ErbProgram
from repro.net.parallel import planned_data_plane
from repro.net.shm import DATA_PLANE_SHM, ShmRing, shared_memory_available
from repro.net.simulator import SynchronousNetwork
from repro.net.transport import ModeledTransport, PlainTransport
from repro.obs.timing import TimingCollector
from repro.obs.tracer import Tracer
from repro.sgx.attestation import AttestationAuthority
from repro.sgx.enclave import Enclave
from repro.sgx.program import EnclaveProgram
from repro.sgx.trusted_time import SimulationClock

from tests.test_parallel_engine import _snapshot, _workers_config

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="POSIX shared memory unavailable"
)


# ---------------------------------------------------------------------------
# ShmRing: framing, wrap, continuation, flow control
# ---------------------------------------------------------------------------

def test_ring_roundtrips_frames_in_order():
    ring = ShmRing(capacity=4096, create=True)
    try:
        frames = [b"", b"x", b"abc" * 7, bytes(range(256))]
        for frame in frames:
            ring.put(frame)
        for expected in frames:
            got = ring.try_get()
            assert got is not None
            assert bytes(got) == expected
            del got  # release the zero-copy view before closing the ring
            ring.consume()
        assert ring.try_get() is None
    finally:
        ring.close()


def test_ring_wraps_without_corrupting_frames():
    """Frames whose sizes do not divide the capacity force wrap markers
    and burnt tails; every frame must still come back intact."""
    ring = ShmRing(capacity=256, create=True)
    try:
        for i in range(200):
            payload = bytes([i % 251]) * (7 + i % 29)
            ring.put(payload)
            got = ring.try_get()
            assert got is not None and bytes(got) == payload
            del got
            ring.consume()
    finally:
        ring.close()


def test_ring_chunks_oversized_frames():
    """A frame bigger than half the capacity travels as continuation
    chunks and reassembles into one bytes object.  The writer blocks on
    ring space until the reader drains, so it runs on its own thread —
    exactly the cross-process flow-control discipline the engine uses."""
    ring = ShmRing(capacity=512, create=True)
    payload = bytes(range(256)) * 13  # 3328 B >> 512 B ring
    writer = threading.Thread(target=ring.put, args=(payload,))
    try:
        writer.start()
        got = ring.try_get()
        while got is None:
            got = ring.try_get()
        assert isinstance(got, bytes)
        assert got == payload
        ring.consume()
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert ring.try_get() is None
    finally:
        writer.join(timeout=1)
        ring.close()


def test_ring_interleaves_small_and_oversized_frames():
    ring = ShmRing(capacity=1024, create=True)
    frames = [b"small", bytes(range(256)) * 9, b"tail"]

    def write_all():
        for frame in frames:
            ring.put(frame)

    writer = threading.Thread(target=write_all)
    try:
        writer.start()
        for expected in frames:
            got = ring.try_get()
            while got is None:
                got = ring.try_get()
            assert bytes(got) == expected
            del got
            ring.consume()
        writer.join(timeout=10)
        assert not writer.is_alive()
    finally:
        writer.join(timeout=1)
        ring.close()


def test_ring_consume_frees_space_for_the_writer():
    """The writer's free-space check must see consumed frames: fill the
    ring, drain it, and fill it again (regression guard for the cursor
    arithmetic — a stale read cursor deadlocks the second fill)."""
    ring = ShmRing(capacity=256, create=True)
    try:
        payload = b"z" * 64
        for _ in range(3):
            for _ in range(2):
                ring.put(payload)
            for _ in range(2):
                got = ring.try_get()
                assert got is not None and bytes(got) == payload
                del got
                ring.consume()
    finally:
        ring.close()


# ---------------------------------------------------------------------------
# data-plane resolution
# ---------------------------------------------------------------------------

def test_planned_data_plane_is_none_for_serial_shapes():
    assert planned_data_plane(None) is None
    assert planned_data_plane(1) is None
    assert planned_data_plane(2) == DATA_PLANE_SHM


def test_run_records_the_data_plane_on_the_network():
    config = SimulationConfig(n=8, seed=3, workers=2)
    network = SynchronousNetwork(config, _erb_factory(config))
    assert network.parallel_data_plane is None
    network.run(config.t + 2)
    assert network.parallel_data_plane == DATA_PLANE_SHM


def _erb_factory(config):
    def factory(node_id):
        return ErbProgram(
            node_id=node_id, initiator=0, n=config.n, t=config.t, seq=1,
            message=b"v2" if node_id == 0 else None,
        )
    return factory


# ---------------------------------------------------------------------------
# equivalence: shm plane == serial, at 1/2/4 workers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2, 4])
def test_erb_planes_byte_identical(workers):
    config = SimulationConfig(n=16, seed=5)
    serial = run_erb(config, initiator=0, message=b"plane")
    shm = run_erb(
        _workers_config(config, workers), initiator=0, message=b"plane"
    )
    assert _snapshot(shm) == _snapshot(serial)


@pytest.mark.parametrize("workers", [2, 4])
def test_erng_planes_byte_identical(workers):
    config = SimulationConfig(n=12, seed=8)
    serial = run_erng(config)
    shm = run_erng(_workers_config(config, workers))
    assert _snapshot(shm) == _snapshot(serial)


def test_traced_run_replays_serial_events():
    """The data plane must stream staged intents back in an order the
    keyed merge restores exactly: the traced event stream is the serial
    stream byte for byte."""
    t_par, t_ser = Tracer.memory(), Tracer.memory()
    serial = run_erng(SimulationConfig(n=8, seed=3, tracer=t_ser))
    parallel = run_erng(_workers_config(
        SimulationConfig(n=8, seed=3, tracer=t_par), 3
    ))
    assert parallel.outputs == serial.outputs
    assert t_par.events == t_ser.events


@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.integers(min_value=2, max_value=5),
)
def test_planes_worker_invariant_property(n, seed, workers):
    config = SimulationConfig(n=n, seed=seed)
    serial = run_erng(config)
    parallel = run_erng(_workers_config(config, workers))
    assert _snapshot(parallel) == _snapshot(serial)


# ---------------------------------------------------------------------------
# fallback: the one-line serial warning
# ---------------------------------------------------------------------------

def test_serial_fallback_warns_once_with_reason(caplog):
    """workers > 1 on an ineligible run (adversarial wires) must say so:
    one warning on the stdlib ``repro.engine`` logger naming the reason,
    not a silent serial run the user mistakes for a parallel one."""
    config = SimulationConfig(n=12, seed=9, workers=4)
    behaviors = {2: SelectiveOmission(victims=range(3, 9))}
    network = SynchronousNetwork(config, _erb_factory(config),
                                 behaviors=behaviors)
    with caplog.at_level(logging.WARNING, logger="repro.engine"):
        network.run(config.t + 2)
    warnings = [
        rec for rec in caplog.records
        if "parallel engine disabled for this run" in rec.message
    ]
    assert len(warnings) == 1
    assert "per-wire" in warnings[0].message
    assert "workers=4" in warnings[0].message


def test_serial_fallback_warning_is_per_network_not_per_round(caplog):
    """The warning must not repeat every round of the same run."""
    config = SimulationConfig(
        n=8, seed=1, workers=2,
        channel_security=ChannelSecurity.FULL,
        extra={"dh_group": "small"},
    )
    network = SynchronousNetwork(config, _erb_factory(config))
    with caplog.at_level(logging.WARNING, logger="repro.engine"):
        network.run(config.t + 2)
    warnings = [
        rec for rec in caplog.records
        if "parallel engine disabled" in rec.message
    ]
    assert len(warnings) == 1
    assert "FULL" in warnings[0].message


# ---------------------------------------------------------------------------
# one seal call for many links == one call per link
# ---------------------------------------------------------------------------

class _WaveProgram(EnclaveProgram):
    PROGRAM_NAME = "wave-equivalence"


def _enclaves(n: int):
    rng = DeterministicRNG("wave")
    clock = SimulationClock()
    authority = AttestationAuthority(rng)
    return {
        i: Enclave(i, _WaveProgram(), rng, clock, authority) for i in range(n)
    }


def _members(sender: int, count: int):
    return tuple(
        ProtocolMessage(MessageType.ECHO, sender, -1, b"wave%d" % k, 1, "w")
        for k in range(count)
    )


@pytest.mark.parametrize("transport_cls", [ModeledTransport, PlainTransport])
def test_seal_wave_equals_per_receiver_loop(transport_cls):
    """Sealing for many receivers in one call and one receiver per call
    must leave identical counter state and produce identical envelopes."""
    batched = transport_cls(_enclaves(6))
    looped = transport_cls(_enclaves(6))
    members = _members(0, 3)
    receivers = [1, 2, 4, 5]

    def one_by_one():
        return [
            env for r in receivers
            for env in looped.seal_envelope(0, (r,), members, size=96)
        ]

    assert batched.seal_envelope(0, receivers, members, size=96) == one_by_one()
    # A second wave on the same links continues the same counter runs,
    # per link: each advanced by the member count twice.
    wave2 = batched.seal_envelope(0, receivers, members, size=96)
    assert wave2 == one_by_one()
    assert all(env.counter == 2 * len(members) for env in wave2)


def test_seal_wave_with_count_only_matches_loop():
    """The modeled ACK wave seals members=None with an explicit count."""
    batched = ModeledTransport(_enclaves(4))
    looped = ModeledTransport(_enclaves(4))
    wave = batched.seal_envelope(0, [1, 2, 3], None, count=5, size=40)
    singles = [
        env for r in (1, 2, 3)
        for env in looped.seal_envelope(0, (r,), None, count=5, size=40)
    ]
    assert wave == singles
    assert [env.counter for env in wave] == [5, 5, 5]


# ---------------------------------------------------------------------------
# timing: timed == untimed, and the barrier share bar
# ---------------------------------------------------------------------------

def test_timed_parallel_run_is_byte_identical_to_untimed():
    config = SimulationConfig(n=12, seed=8)
    untimed = run_erng(_workers_config(config, 2))
    timed_cfg = _workers_config(config, 2)
    timed_cfg.timing = TimingCollector()
    timed = run_erng(timed_cfg)
    assert _snapshot(timed) == _snapshot(untimed)
    assert timed_cfg.timing.engine == "parallel"
    assert timed_cfg.timing.totals  # something was attributed


def test_barrier_share_below_bar_at_two_workers():
    """The v2 acceptance bar: with the streaming protocol the barrier
    bucket (coordinator blocked *beyond* any shard's concurrent busy
    time) must be a minority cost — under 0.30 of attributed wall at
    workers = 2, where the v1 protocol measured ~0.96.  Best-of-three to
    keep loaded CI hosts from flaking the bound.
    """
    shares = []
    for attempt in range(3):
        tm = TimingCollector()
        config = SimulationConfig(n=24, seed=7, workers=2, timing=tm)
        run_erng(config)
        assert tm.engine == "parallel"
        total = sum(tm.totals.values())
        assert total > 0
        shares.append(tm.totals.get("barrier", 0.0) / total)
    assert min(shares) < 0.30, f"barrier shares {shares}"


def test_shm_plane_attributes_shm_not_serialize():
    """The data plane charges its traffic to the ``shm`` bucket."""
    tm_shm = TimingCollector()
    run_erng(SimulationConfig(n=12, seed=8, workers=2, timing=tm_shm))
    assert tm_shm.totals.get("shm", 0.0) > 0
