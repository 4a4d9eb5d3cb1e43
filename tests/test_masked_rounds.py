"""OS behaviours as per-link omission masks on the one round back-end.

Theorem A.2's reduction, executed: over a blinded channel an untrusted
OS only chooses which of its enclave's messages arrive, so the
simulator's back-end coalesces every clean link and runs the others per
wire, the behaviours as masks.  The oracle is the per-wire reference
(:mod:`tests.per_wire`), reached by patching the back-end class: over
the whole campaign grid, NONE and FULL cells, traced cells and
heterogeneous-measurement cells both must agree on every observable —
outputs, halts, decided rounds, round count and simulated seconds, the
full traffic ledger (logical by type and round, physical crossings and
bytes, omissions, rejections), the campaign's invariant verdicts and
liveness trail, how often each behaviour method was called, and on a
traced run every event and the Definition A.5 classification.
"""

from __future__ import annotations

import copy
import functools
from collections import Counter
from dataclasses import replace

import pytest

from repro.adversary.behaviors import OSBehavior
from repro.adversary.classification import classify_all
from repro.campaign import (
    CHURN_PATTERNS,
    ERB_PAYLOAD,
    PROTOCOLS,
    STRATEGIES,
    CaseSpec,
    Fault,
    Schedule,
    build_grid,
    build_schedule,
    run_case,
)
from repro.channel.peer_channel import WireMessage
from repro.common.config import ChannelSecurity, SimulationConfig
from repro.common.errors import OpaqueWireError
from repro.core.erb import ErbProgram, run_erb
from repro.core.erng import ErngProgram
from repro.crypto.dh import MODP_768
from repro.net import simulator
from repro.net.simulator import SynchronousNetwork
from repro.obs.timing import TimingCollector
from repro.obs.tracer import Tracer

from tests.per_wire import PerWireRounds, per_wire

_BEHAVIOUR_METHODS = (
    "filter_send", "filter_receive", "drain_injections", "on_round_end",
)

_MODELED_GRID = build_grid(
    PROTOCOLS, [7], list(STRATEGIES), list(CHURN_PATTERNS), [0, 1],
    master_seed=11,
) + build_grid(
    ["erng"], [16], list(STRATEGIES), ["none"], [0], master_seed=11,
)
# FULL runs split their links as MODELED runs do; a few strategies
# cover them over real AEAD: the copies (rod), the forgeries (byzantine).
_GRID = _MODELED_GRID + build_grid(
    PROTOCOLS, [7], list(STRATEGIES), ["none"], [0], master_seed=12,
    channel="none",
) + build_grid(
    PROTOCOLS, [5], ["honest", "rod", "byzantine"], ["none"], [0],
    master_seed=13, channel="full",
)


@pytest.fixture(autouse=True)
def _small_dh_group(monkeypatch):
    """FULL cells use the small DH group: their handshakes are not what
    the oracle compares, and ``run_case`` has no group option."""
    monkeypatch.setattr(simulator, "MODP_2048", MODP_768)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _counted(calls: Counter, key: str, method):
    @functools.wraps(method)
    def counted(*args, **kwargs):
        calls[key] += 1
        return method(*args, **kwargs)

    return counted


def _count_behaviour_calls(monkeypatch) -> Counter:
    """Count every call of every behaviour method, by defining class."""
    calls: Counter = Counter()
    for cls in {OSBehavior, *_subclasses(OSBehavior)}:
        for name in _BEHAVIOUR_METHODS:
            method = vars(cls).get(name)
            if method is not None:
                monkeypatch.setattr(cls, name, _counted(
                    calls, f"{cls.__qualname__}.{name}", method
                ))
    return calls


def _observe(run, monkeypatch, backend=None):
    """Run ``run()`` — a case outcome, or a network to run — on
    ``backend`` (the simulator's own when None); return everything the
    equivalence claim covers and the back-ends that served it."""
    backend = backend or simulator._EnvelopeRounds
    served = []

    class Recording(backend):
        def __init__(self, net):
            served.append(backend.__name__)
            super().__init__(net)

    with monkeypatch.context() as patch:
        calls = _count_behaviour_calls(patch)
        with per_wire(Recording):
            outcome = run()
            if isinstance(outcome, SynchronousNetwork):
                result = outcome.run(outcome.config.t + 2)
    observed = {"behaviour_calls": dict(calls)}
    if isinstance(outcome, SynchronousNetwork):
        if outcome.tracer.enabled:
            observed["events"] = outcome.tracer.events
            observed["classes"] = classify_all(
                outcome.action_trace, outcome.config.n
            )
    else:
        result = outcome.result
        observed["verdicts"] = [
            (v.invariant, v.detail) for v in outcome.violations
        ]
        observed["round_log"] = outcome.round_log
    observed.update(
        outputs=result.outputs,
        halted=result.halted,
        decided_rounds=result.decided_rounds,
        rounds_executed=result.rounds_executed,
        termination_seconds=result.termination_seconds,
        traffic=result.traffic,
    )
    return observed, served


@pytest.mark.parametrize("spec", _GRID, ids=lambda spec: spec.label())
def test_masked_rounds_equal_per_wire(spec, monkeypatch):
    masked, served = _observe(lambda: run_case(spec), monkeypatch)
    reference, oracle = _observe(
        lambda: run_case(spec), monkeypatch, PerWireRounds
    )
    assert set(served) == {"_EnvelopeRounds"}
    assert set(oracle) == {"PerWireRounds"}
    if spec.adversarial:
        assert masked["behaviour_calls"]
    else:
        # No per-wire link: a crossing weighs its envelope, its members'
        # bodies under one seal, which one wire per message cannot.
        reference["traffic"] = replace(
            reference["traffic"],
            envelope_bytes_sent=masked["traffic"].envelope_bytes_sent,
        )
    assert masked == reference


class _OtherErb(ErbProgram):
    """ERB under another measurement."""


class _OtherErng(ErngProgram):
    """ERNG under another measurement."""


def _network(protocol, strategy, *, traced=False, others=(), seed=5):
    """An n = 7 MODELED network: ``strategy``'s faults, the programs of
    ``others`` under another measurement, the tracer a memory one."""
    n, t = 7, 3
    config = SimulationConfig(
        n=n, t=t, seed=seed, tracer=Tracer.memory() if traced else None
    )

    def factory(node_id):
        if protocol == "erb":
            cls = _OtherErb if node_id in others else ErbProgram
            return cls(
                node_id=node_id, initiator=0, n=n, t=t, seq=1,
                message=ERB_PAYLOAD if node_id == 0 else None,
            )
        cls = _OtherErng if node_id in others else ErngProgram
        return cls(node_id=node_id, n=n, t=t, random_bits=config.random_bits)

    behaviors = build_schedule(strategy, n, t, seed).compile(seed)
    return SynchronousNetwork(config, factory, behaviors=behaviors or None)


_CELLS = [
    pytest.param(protocol, strategy, knobs, id=f"{protocol}-{strategy}-{name}")
    for protocol in ("erb", "erng")
    for strategy in STRATEGIES
    for name, knobs in (
        ("traced", {"traced": True}),
        ("heterogeneous", {"others": (2, 5)}),
    )
    # A traced honest run has no per-wire link: its events are those of
    # one wire per message plus the envelopes' (test_envelope_fast_path).
    if strategy != "honest" or name != "traced"
] + [
    pytest.param(
        "erng", "byzantine", {"traced": True, "others": (4,)},
        id="erng-byzantine-traced-heterogeneous",
    ),
]


@pytest.mark.parametrize("protocol, strategy, knobs", _CELLS)
def test_traced_and_heterogeneous_runs_equal_per_wire(
    protocol, strategy, knobs, monkeypatch
):
    """On a traced run the oracle also covers every event — wire, ACK
    and envelope events in order — and the Definition A.5 class of
    every node; a run whose programs' measurements differ rejects per
    member on the links between them."""

    def run():
        return _network(protocol, strategy, **knobs)

    observed, _ = _observe(run, monkeypatch)
    reference, _ = _observe(run, monkeypatch, PerWireRounds)
    assert observed == reference
    if knobs.get("traced"):
        assert observed["events"]
    if knobs.get("others"):
        assert observed["traffic"].rejections


def test_grid_exercises_every_fault_outcome():
    """The grid is only an oracle if the faults bite: somewhere a member
    is dropped, a copy rejected, and a node halted."""
    traffic = [
        run_case(spec).result for spec in _MODELED_GRID if spec.adversarial
    ]
    assert any(r.traffic.omissions for r in traffic)
    assert any(r.traffic.rejections for r in traffic)
    assert any(r.halted for r in traffic)


def test_cross_check_compares_masks_with_per_wire(monkeypatch):
    """The oracle is a real differential on a faulty cell: masks that
    lose the replayed copies no longer pass it."""
    spec = CaseSpec(
        protocol="erb", n=5, t=2, seed=11,
        schedule=Schedule(faults=(Fault(node=1, kind="replay"),)),
    )

    class LosingReplays(simulator._EnvelopeRounds):
        def transmit(self, rnd, intents):
            count = super().transmit(rnd, intents)
            self._extras = []
            return count

    def observe(backend):
        return _observe(lambda: run_case(spec), monkeypatch, backend)[0]

    reference = observe(PerWireRounds)
    assert observe(None) == reference
    broken = observe(LosingReplays)
    assert broken["traffic"] != reference["traffic"]


class _Spoofer(OSBehavior):
    """Re-addresses a copy of each wire it sends to a link between two
    other nodes — what only the per-link MAC it lacks would expose."""

    def filter_send(self, wire, rnd):
        spoofed = copy.copy(wire)
        spoofed.sender, spoofed.receiver = 0, 1
        return ((0, wire), (0, spoofed))


def test_a_copy_on_a_link_no_behaviour_ends_is_rejected():
    """The copy fails the MAC of the link it claims — modeled or real —
    and counts as a rejection, as on the per-wire reference."""
    observed = []
    for security in (ChannelSecurity.MODELED, ChannelSecurity.FULL):
        extra = {"dh_group": "small"} if security is ChannelSecurity.FULL else {}
        result = run_erb(
            SimulationConfig(
                n=5, seed=3, channel_security=security, extra=extra
            ),
            initiator=0, message=b"m", behaviors={3: _Spoofer()},
        )
        observed.append(
            (result.outputs, result.halted, result.traffic.rejections)
        )
    with per_wire():
        result = run_erb(
            SimulationConfig(n=5, seed=3), initiator=0, message=b"m",
            behaviors={3: _Spoofer()},
        )
    observed.append((result.outputs, result.halted, result.traffic.rejections))
    assert observed[0][2] > 0
    assert observed == [observed[0]] * 3


# ----------------------------------------------------------------------
# engine choice
# ----------------------------------------------------------------------

class _DropToOne(OSBehavior):
    def filter_send(self, wire, rnd):
        return ((0, wire),) if wire.receiver == 1 else ()


def _run(security=ChannelSecurity.MODELED, **knobs):
    """Run ERB with an OS behaviour on node 2; return the engine that
    served it and each node's per-wire peers."""
    timing = TimingCollector()
    extra = {"dh_group": "small"} if security is ChannelSecurity.FULL else {}
    config = SimulationConfig(
        n=5, seed=3, channel_security=security, timing=timing, extra=extra,
        **knobs,
    )
    network = SynchronousNetwork(
        config,
        lambda node_id: ErbProgram(
            node_id=node_id, initiator=0, n=5, t=config.t, seq=1,
            message=b"m" if node_id == 0 else None,
        ),
        behaviors={2: _DropToOne()},
    )
    network.run(config.t + 2)
    return timing.engine, network._wired


def test_untraced_modeled_adversarial_run_is_envelope():
    engine, wired = _run()
    assert engine == "envelope"
    assert wired[2] == set(range(5))
    assert all(wired[node] == {2} for node in (0, 1, 3, 4))


@pytest.mark.parametrize("case", ["none", "full", "traced"])
def test_other_adversarial_runs_stay_per_wire(case):
    """They run on the one back-end too.  NONE and FULL hand the
    behaviour its faulty node's wires only, as MODELED does (each FULL
    link seals from its own stream); on a traced run every link is
    per-wire."""
    if case == "traced":
        engine, wired = _run(tracer=Tracer.memory())
    else:
        engine, wired = _run(
            ChannelSecurity.NONE if case == "none" else ChannelSecurity.FULL
        )
    assert engine == "envelope"
    if case != "traced":
        assert wired == [{2}, {2}, set(range(5)), {2}, {2}]
    else:
        assert wired == [set(range(5))] * 5


# ----------------------------------------------------------------------
# the leakage the reduction assumes
# ----------------------------------------------------------------------

class _PlainReader(OSBehavior):
    """An OS that tries to read what its enclave sends."""

    def filter_send(self, wire, rnd):
        wire.plain
        return ((0, wire),)


def test_reading_plain_on_an_opaque_wire_raises():
    with pytest.raises(OpaqueWireError):
        run_erb(
            SimulationConfig(n=4, seed=1), initiator=0, message=b"m",
            behaviors={0: _PlainReader()},
        )


def test_plain_stays_readable_where_the_channel_is_transparent():
    result = run_erb(
        SimulationConfig(n=4, seed=1, channel_security=ChannelSecurity.NONE),
        initiator=0, message=b"m", behaviors={0: _PlainReader()},
    )
    assert set(result.outputs.values()) == {b"m"}


def test_an_opaque_wire_copies_without_reading_its_body():
    wire = WireMessage(0, 1, 1, 10, plain="secret", opaque=True)
    tampered = wire.tampered_copy()
    assert tampered.tampered and not wire.tampered
    assert tampered._plain == "secret"
    with pytest.raises(OpaqueWireError):
        tampered.plain
    assert WireMessage(0, 1, 1, 10).plain is None
