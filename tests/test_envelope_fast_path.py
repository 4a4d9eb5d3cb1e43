"""The round-envelope layer must be invisible in every logical observable.

The engine coalesces all messages sharing a ``(sender, receiver, round)``
triple into one :class:`~repro.channel.peer_channel.Envelope` per clean
link crossing.  These tests pin the mandatory equivalence with the
per-wire reference (:mod:`tests.per_wire`): byte-identical logical
``TrafficStats`` (including per-round bytes), outputs, halted sets and
decided rounds, on seeded honest and adversarial ERB *and* ERNG runs over
all three channel fidelities — plus traced-run event identity, the dual
physical ledger invariants, the transport seal/open semantics, and the
satellite fixes that rode along (neighbour-tuple caching, skipping
``modeled_wire_size`` for empty fan-outs and the per-network ACK-digest
LRU).
"""

from __future__ import annotations

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChannelSecurity, SimulationConfig, run_erb, run_erng
from repro.adversary.omission import RandomOmission, SelectiveOmission
from repro.channel.peer_channel import modeled_wire_size
from repro.common.errors import IntegrityError, ReplayError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import encode
from repro.common.types import MessageType, ProtocolMessage
from repro.core.erb import ErbProgram
from repro.net import simulator
from repro.net.simulator import _DIGEST_CACHE_LIMIT, SynchronousNetwork
from repro.net.transport import ModeledTransport, PlainTransport
from repro.obs.events import EnvelopeEvent
from repro.obs.tracer import Tracer
from repro.sgx.enclave import Enclave
from repro.sgx.program import EnclaveProgram
from repro.sgx.trusted_time import SimulationClock

import tests.per_wire
from tests.per_wire import PerWireRounds, per_wire


def _snapshot(result):
    """Every logical observable of a run the equivalence claim covers."""
    traffic = result.traffic
    return {
        "messages_sent": traffic.messages_sent,
        "bytes_sent": traffic.bytes_sent,
        "messages_by_type": dict(traffic.messages_by_type),
        "bytes_by_type": dict(traffic.bytes_by_type),
        "bytes_by_round": dict(traffic.bytes_by_round),
        "omissions": traffic.omissions,
        "rejections": traffic.rejections,
        "outputs": result.outputs,
        "halted": result.halted,
        "decided_rounds": result.decided_rounds,
        "rounds_executed": result.rounds_executed,
        "termination_seconds": result.stats.termination_seconds,
    }


def _legacy(run, *args, **kwargs):
    """``run(*args, **kwargs)`` on the per-wire reference back-end."""
    with per_wire():
        return run(*args, **kwargs)


_FIDELITIES = [
    (ChannelSecurity.MODELED, 24),
    (ChannelSecurity.NONE, 16),
    (ChannelSecurity.FULL, 6),
]


@pytest.mark.parametrize("security, n", _FIDELITIES)
def test_honest_erb_envelope_equals_legacy(security, n):
    extra = {"dh_group": "small"} if security is ChannelSecurity.FULL else {}
    config = SimulationConfig(n=n, seed=5, channel_security=security, extra=extra)
    env = run_erb(config, initiator=0, message=b"equiv")
    legacy = _legacy(run_erb, config, initiator=0, message=b"equiv")
    assert _snapshot(env) == _snapshot(legacy)
    assert env.outputs and all(v == b"equiv" for v in env.outputs.values())
    # The physical ledger diverges from the logical one: crossings never
    # exceed messages.  ERB sends one message per link per wave, so there
    # is nothing to coalesce; a FULL singleton envelope even pays a few
    # bytes of tuple framing on top of the per-message seal.
    assert 0 < env.traffic.envelopes_sent <= env.traffic.messages_sent
    if security is ChannelSecurity.FULL:
        assert env.traffic.envelope_bytes_sent <= (
            env.traffic.bytes_sent + 5 * env.traffic.envelopes_sent
        )
    else:
        assert env.traffic.envelope_bytes_sent <= env.traffic.bytes_sent
    # The reference crosses each link once per wave, message by message.
    assert legacy.traffic.envelopes_sent == env.traffic.envelopes_sent
    assert legacy.traffic.envelope_bytes_sent == legacy.traffic.bytes_sent


@pytest.mark.parametrize(
    "security, n",
    [
        (ChannelSecurity.MODELED, 12),
        (ChannelSecurity.NONE, 12),
        (ChannelSecurity.FULL, 5),
    ],
)
def test_honest_erng_envelope_equals_legacy(security, n):
    """ERNG runs N concurrent ERB instances — the coalescing showcase."""
    extra = {"dh_group": "small"} if security is ChannelSecurity.FULL else {}
    config = SimulationConfig(n=n, seed=8, channel_security=security, extra=extra)
    env = run_erng(config)
    legacy = _legacy(run_erng, config)
    assert _snapshot(env) == _snapshot(legacy)
    assert len(set(env.outputs.values())) == 1
    # N concurrent instances per link must actually coalesce.
    assert env.traffic.coalescing_ratio > 1.5
    assert env.traffic.envelope_bytes_sent < env.traffic.bytes_sent


def _omission_behaviors():
    # Stateful behaviours must be rebuilt per run so both paths consume
    # identical adversary coin flips.
    return {
        1: RandomOmission(DeterministicRNG(("adv", 1)), send_drop_p=0.5),
        2: SelectiveOmission(victims=range(3, 12)),
    }


def test_adversarial_erb_falls_back_and_matches():
    config = SimulationConfig(n=16, seed=9)

    def factory(node_id):
        return ErbProgram(
            node_id=node_id, initiator=0, n=config.n, t=config.t, seq=1,
            message=b"adv" if node_id == 0 else None,
        )

    network = SynchronousNetwork(config, factory, behaviors=_omission_behaviors())
    # Untraced MODELED: the behaviours run as per-link masks (Thm A.2);
    # only the faulty nodes' links are per-wire.
    assert network._wired[0] == {1, 2}
    adv = network.run(config.t + 2)

    legacy = _legacy(
        run_erb,
        config,
        initiator=0,
        message=b"adv",
        behaviors=_omission_behaviors(),
    )
    assert _snapshot(adv) == _snapshot(legacy)
    assert adv.traffic.omissions > 0
    # A run with a per-wire link: messages keep their own sealing
    # (physical bytes == logical bytes) but crossings coalesce.
    assert adv.traffic.envelope_bytes_sent == adv.traffic.bytes_sent
    assert 0 < adv.traffic.envelopes_sent <= adv.traffic.messages_sent


def test_adversarial_erng_falls_back_and_matches():
    config = SimulationConfig(n=12, seed=13)
    adv = run_erng(config, behaviors=_omission_behaviors())
    legacy = _legacy(run_erng, config, behaviors=_omission_behaviors())
    assert _snapshot(adv) == _snapshot(legacy)
    assert adv.traffic.envelope_bytes_sent == adv.traffic.bytes_sent


@pytest.mark.parametrize(
    "security", [ChannelSecurity.MODELED, ChannelSecurity.NONE]
)
def test_traced_envelope_run_replays_per_wire_events(security):
    """A traced MODELED/NONE run takes the envelope path and must emit the
    per-wire event stream of the legacy path exactly, plus the envelope
    events that expose the coalescing."""
    t_env, t_leg = Tracer.memory(), Tracer.memory()
    env = run_erng(
        SimulationConfig(n=8, seed=3, channel_security=security, tracer=t_env)
    )
    _legacy(run_erng, SimulationConfig(
        n=8, seed=3, channel_security=security, tracer=t_leg
    ))
    shared = [e for e in t_env.events if not isinstance(e, EnvelopeEvent)]
    envelopes = [e for e in t_env.events if isinstance(e, EnvelopeEvent)]
    assert shared == [
        e for e in t_leg.events if not isinstance(e, EnvelopeEvent)
    ]
    assert envelopes
    assert sum(e.count for e in envelopes) == env.traffic.messages_sent
    assert sum(e.size for e in envelopes) == env.traffic.envelope_bytes_sent
    assert {e.wave for e in envelopes} == {"transmit", "ack"}


def test_traced_full_run_falls_back_to_per_wire():
    """Traced FULL events carry real per-message sealed sizes, which only
    per-message sealing can produce — every link goes per wire."""
    config = SimulationConfig(
        n=4,
        seed=2,
        channel_security=ChannelSecurity.FULL,
        tracer=Tracer.memory(),
        extra={"dh_group": "small"},
    )

    def factory(node_id):
        return ErbProgram(
            node_id=node_id, initiator=0, n=config.n, t=config.t, seq=1,
            message=b"full" if node_id == 0 else None,
        )

    network = SynchronousNetwork(config, factory)
    assert network._wired == [set(range(4))] * 4


def test_envelope_path_is_active_by_default():
    config = SimulationConfig(n=8, seed=1)

    def factory(node_id):
        return ErbProgram(
            node_id=node_id, initiator=0, n=config.n, t=config.t, seq=1,
            message=b"on" if node_id == 0 else None,
        )

    network = SynchronousNetwork(config, factory)
    assert network._wired is None
    # A tracer keeps every link coalesced for non-FULL fidelities.
    traced = SimulationConfig(n=8, seed=1, tracer=Tracer.memory())
    assert SynchronousNetwork(traced, factory)._wired is None


# ---------------------------------------------------------------------------
# property test: the logical ledger is envelope-invariant
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=14),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_logical_stats_envelope_invariant(n, seed):
    config = SimulationConfig(n=n, seed=seed)
    env = run_erng(config)
    legacy = _legacy(run_erng, config)
    assert _snapshot(env) == _snapshot(legacy)
    # Physical invariants: crossings never exceed logical messages, and
    # coalescing only ever removes per-message channel overhead.
    assert env.traffic.envelopes_sent <= env.traffic.messages_sent
    assert env.traffic.envelope_bytes_sent <= env.traffic.bytes_sent


# ---------------------------------------------------------------------------
# transport seal/open semantics
# ---------------------------------------------------------------------------

class _EnvelopeProgram(ErbProgram):
    PROGRAM_NAME = "envelope-unit"


class _SilentProgram(EnclaveProgram):
    PROGRAM_NAME = "silent-unit"


def _enclaves(count, seed):
    master = DeterministicRNG(("envelope-unit", seed))
    clock = SimulationClock()
    return {
        node: Enclave(
            node,
            _EnvelopeProgram(node_id=node, initiator=0, n=count, t=0, seq=1),
            master,
            clock,
            None,
        )
        for node in range(count)
    }


def _message(seq):
    return ProtocolMessage(MessageType.ECHO, 0, seq, b"payload", 1, "unit")


@pytest.mark.parametrize("transport_cls", [ModeledTransport, PlainTransport])
def test_write_fanout_matches_sequential_writes(transport_cls):
    """The per-wire path's multicast write is exactly one single-target
    ``write`` per target, in order, on one continuing counter sequence."""
    message = _message(1)
    sequential = transport_cls(_enclaves(5, 7))
    batched = transport_cls(_enclaves(5, 7))
    targets = [1, 2, 3, 4]
    size = modeled_wire_size(message)
    for _ in range(2):
        expected = [
            wire for r in targets
            for wire in sequential.write(0, (r,), message, size)
        ]
        assert batched.write(0, targets, message, size) == expected


@pytest.mark.parametrize("transport_cls", [ModeledTransport, PlainTransport])
def test_seal_envelope_advances_counters_like_writes(transport_cls):
    sequential = transport_cls(_enclaves(4, 7))
    coalesced = transport_cls(_enclaves(4, 7))
    members = [_message(seq) for seq in range(1, 4)]
    size = sum(modeled_wire_size(m) for m in members)
    for member in members:
        sequential.write(0, (1,), member, modeled_wire_size(member))
    (env,) = coalesced.seal_envelope(0, (1,), members, size=size)
    assert env.count == len(members)
    assert env.size == size
    # One more write on each side lands on the same counter.
    (follow_a,) = sequential.write(0, (1,), _message(9), 10)
    (follow_b,) = coalesced.write(0, (1,), _message(9), 10)
    assert follow_a.counter == follow_b.counter


def test_modeled_open_envelope_rejects_replay():
    transport = ModeledTransport(_enclaves(3, 11))
    members = [_message(1)]
    (env,) = transport.seal_envelope(0, (1,), members, size=100)
    assert transport.open_envelope(1, env) == members
    with pytest.raises(ReplayError):
        transport.open_envelope(1, env)


def test_modeled_copy_re_addressed_to_another_link_is_rejected():
    """A modeled wire or envelope is bound to the link it was sealed
    for, as FULL's per-link MAC key binds it: a copy whose routing
    fields an OS rewrote fails, counter fresh or not."""
    transport = ModeledTransport(_enclaves(4, 11))
    (wire,) = transport.write(2, (3,), _message(1), 100)
    (env,) = transport.seal_envelope(2, (3,), [_message(2)], size=100)
    for sealed, read in ((wire, transport.read),
                         (env, transport.open_envelope)):
        spoofed = copy.copy(sealed)
        spoofed.sender, spoofed.receiver = 0, 1
        with pytest.raises(IntegrityError):
            read(1, spoofed)
    assert transport.read(3, wire).seq == 1


def test_full_envelope_member_sizes_match_per_wire_writes():
    """FULL-mode logical accounting: each envelope member's reported size
    must equal what a per-message seal would have produced — the member
    keeps its own channel counter, only the AEAD call is amortized."""
    from repro.crypto.dh import MODP_768
    from repro.net.transport import FullTransport
    from repro.sgx.attestation import AttestationAuthority

    def full_transport(seed):
        master = DeterministicRNG(("envelope-full", seed))
        clock = SimulationClock()
        authority = AttestationAuthority(master, MODP_768)
        enclaves = {
            node: Enclave(
                node,
                _EnvelopeProgram(node_id=node, initiator=0, n=3, t=0, seq=1),
                master,
                clock,
                authority,
            )
            for node in range(3)
        }
        return FullTransport(enclaves, MODP_768)

    members = [_message(seq) for seq in range(1, 5)]
    sequential = full_transport(5)
    per_wire_sizes = [sequential.write(0, (1,), m)[0].size for m in members]

    coalesced = full_transport(5)
    (env,) = coalesced.seal_envelope(
        0, (1,), [encode(m.to_tuple()) for m in members]
    )
    assert env.member_sizes == per_wire_sizes
    # One seal for the whole link: physically smaller than the sum.
    assert env.size < sum(per_wire_sizes)
    # Opening verifies and returns the members in order.
    assert list(coalesced.open_envelope(1, env)) == members
    with pytest.raises(ReplayError):
        coalesced.open_envelope(1, env)


# ---------------------------------------------------------------------------
# satellites: neighbour-tuple cache, empty-fanout sizing
# ---------------------------------------------------------------------------

def _build_network(config):
    def factory(node_id):
        return ErbProgram(
            node_id=node_id, initiator=0, n=config.n, t=config.t, seq=1,
            message=b"cache" if node_id == 0 else None,
        )

    return SynchronousNetwork(config, factory)


def test_neighbour_tuple_is_cached_per_node():
    network = _build_network(SimulationConfig(n=8, seed=4))
    calls = []
    original = network.topology.neighbours

    def counting(node):
        calls.append(node)
        return original(node)

    network.topology.neighbours = counting
    first = network.neighbour_tuple(3)
    second = network.neighbour_tuple(3)
    assert first is second  # same tuple object: recomputation skipped
    assert calls == [3]
    network.invalidate_neighbour_cache(3)
    assert network.neighbour_tuple(3) == first
    assert calls == [3, 3]


def test_neighbour_cache_survives_a_run_and_clears_on_replace():
    config = SimulationConfig(n=6, seed=4)
    network = _build_network(config)
    network.run(config.t + 2)
    assert network._neighbour_cache  # populated by the run's multicasts

    def factory(node_id):
        return ErbProgram(
            node_id=node_id, initiator=1, n=config.n, t=config.t, seq=2,
            message=b"next" if node_id == 1 else None,
        )

    network.replace_programs(factory)
    assert network._neighbour_cache == {}


def test_context_halt_invalidates_neighbour_cache():
    network = _build_network(SimulationConfig(n=6, seed=4))
    context = network.nodes[2].context
    network.neighbour_tuple(2)
    assert 2 in network._neighbour_cache
    context.halt()
    assert 2 not in network._neighbour_cache
    assert network.nodes[2].alive is False


def test_empty_fanout_skips_message_size(monkeypatch):
    """A multicast with no targets (n == 1, or an explicit empty list)
    must not compute a wire size on either engine path."""
    calls = []

    def counting(message):
        calls.append(message)
        return modeled_wire_size(message)

    monkeypatch.setattr(simulator, "modeled_wire_size", counting)
    monkeypatch.setattr(tests.per_wire, "modeled_wire_size", counting)
    for backend in (simulator._EnvelopeRounds, PerWireRounds):
        config = SimulationConfig(n=2, seed=6)
        # A no-op program: nothing is staged except the empty-target
        # multicast injected below.
        network = SynchronousNetwork(config, lambda node_id: _SilentProgram())
        # Staged outside on_round_begin: transmits at the start of round 1.
        network.nodes[0].context.multicast(_message(1), targets=())
        with per_wire(backend):
            network.run(1)
        assert calls == []


# ---------------------------------------------------------------------------
# satellites: per-network digest LRU
# ---------------------------------------------------------------------------

def test_digest_cache_is_per_network():
    net_a = _build_network(SimulationConfig(n=6, seed=11))
    net_b = _build_network(SimulationConfig(n=6, seed=11))
    assert net_a._digest_cache is not net_b._digest_cache
    net_a.run(3)
    assert net_a._digest_cache  # populated by the run
    assert net_b._digest_cache == {}  # untouched by the other network


def test_digest_cache_evicts_least_recently_used():
    network = _build_network(SimulationConfig(n=4, seed=12))
    cache = network._digest_cache
    for index in range(_DIGEST_CACHE_LIMIT):
        network._ack_digest(("filler", index))
    assert len(cache) == _DIGEST_CACHE_LIMIT
    # A hit refreshes recency: touch the oldest entry, then overflow.
    refreshed = network._ack_digest(("filler", 0))
    digest = network._ack_digest(("fresh", 0))
    assert len(digest) == 8
    # Exactly one entry is evicted — the least recently used, which is
    # ("filler", 1) now that ("filler", 0) was touched.
    assert len(cache) == _DIGEST_CACHE_LIMIT
    assert ("filler", 1) not in cache
    assert ("filler", 0) in cache
    assert ("fresh", 0) in cache
    # Cached digests are stable across hits.
    assert network._ack_digest(("filler", 0)) == refreshed
    assert network._ack_digest(("fresh", 0)) == digest
    # Eviction order is exactly insertion-refreshed LRU order: the next
    # overflow removes ("filler", 2), the current least recently used.
    network._ack_digest(("fresh", 1))
    assert ("filler", 2) not in cache
    assert ("filler", 3) in cache
