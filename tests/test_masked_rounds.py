"""OS behaviours as per-link omission masks on the envelope back-end.

Theorem A.2's reduction, executed: over a blinded (MODELED) channel an
untrusted OS only chooses which of its enclave's messages arrive, so an
untraced adversarial run coalesces every link without a faulty end and
runs the behaviours as masks on the rest (``_MaskedEnvelopeRounds``).
The oracle is the per-wire back-end under envelope accounting, reached
by swapping the private back-end choice: over the whole campaign grid
both must agree on every observable — outputs, halts, decided rounds,
round count and simulated seconds, the full traffic ledger (logical by
type and round, physical crossings and bytes, omissions, rejections),
the campaign's invariant verdicts and liveness trail, and how often
each behaviour method was called.
"""

from __future__ import annotations

import copy
import functools
from collections import Counter

import pytest

from repro.adversary.behaviors import OSBehavior
from repro.campaign import (
    CHURN_PATTERNS,
    PROTOCOLS,
    STRATEGIES,
    CaseSpec,
    Fault,
    Schedule,
    build_grid,
    cross_check_engines,
    run_case,
)
from repro.channel.peer_channel import WireMessage
from repro.common.config import ChannelSecurity, SimulationConfig
from repro.common.errors import ConfigurationError, OpaqueWireError
from repro.core.erb import run_erb
from repro.net import simulator
from repro.obs.timing import TimingCollector
from repro.obs.tracer import Tracer

_BEHAVIOUR_METHODS = (
    "filter_send", "filter_receive", "drain_injections", "on_round_end",
)

_GRID = build_grid(
    PROTOCOLS, [7], list(STRATEGIES), list(CHURN_PATTERNS), [0, 1],
    master_seed=11,
) + build_grid(
    ["erng"], [16], list(STRATEGIES), ["none"], [0], master_seed=11,
)


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


def _observe(spec, monkeypatch, per_wire: bool):
    """Run one case; return everything the equivalence claim covers and
    the back-ends that served it."""
    backends = []
    reference = (
        simulator._PerWireRounds if per_wire
        else simulator._MaskedEnvelopeRounds
    )

    class Recording(reference):
        def __init__(self, net):
            backends.append(reference.__name__)
            super().__init__(net)

    with monkeypatch.context() as patch:
        calls = _count_behaviour_calls(patch)
        patch.setattr(simulator, "_MaskedEnvelopeRounds", Recording)
        outcome = run_case(spec)
    result = outcome.result
    return {
        "outputs": result.outputs,
        "halted": result.halted,
        "decided_rounds": result.decided_rounds,
        "rounds_executed": result.rounds_executed,
        "termination_seconds": result.termination_seconds,
        "traffic": result.traffic,
        "verdicts": [(v.invariant, v.detail) for v in outcome.violations],
        "round_log": outcome.round_log,
        "behaviour_calls": dict(calls),
    }, backends


@pytest.mark.parametrize("spec", _GRID, ids=lambda spec: spec.label())
def test_masked_rounds_equal_per_wire(spec, monkeypatch):
    masked, served = _observe(spec, monkeypatch, per_wire=False)
    reference, oracle = _observe(spec, monkeypatch, per_wire=True)
    assert masked == reference
    if spec.adversarial:
        # The masks really ran, against the per-wire path.
        assert served and set(served) == {"_MaskedEnvelopeRounds"}
        assert oracle and set(oracle) == {"_PerWireRounds"}
        assert masked["behaviour_calls"]
    else:
        assert not served and not oracle


def test_grid_exercises_every_fault_outcome():
    """The grid is only an oracle if the faults bite: somewhere a member
    is dropped, a copy rejected, and a node halted."""
    traffic = [run_case(spec).result for spec in _GRID if spec.adversarial]
    assert any(r.traffic.omissions for r in traffic)
    assert any(r.traffic.rejections for r in traffic)
    assert any(r.halted for r in traffic)


def test_cross_check_compares_masks_with_per_wire(monkeypatch):
    """``cross_check_engines`` is a real differential on a faulty cell:
    masks that lose the replayed copies no longer pass it."""
    spec = CaseSpec(
        protocol="erb", n=5, t=2, seed=11,
        schedule=Schedule(faults=(Fault(node=1, kind="replay"),)),
    )
    assert cross_check_engines(spec) == []

    class LosingReplays(simulator._MaskedEnvelopeRounds):
        def transmit(self, rnd, intents):
            count = super().transmit(rnd, intents)
            self._extras = []
            return count

    monkeypatch.setattr(simulator, "_MaskedEnvelopeRounds", LosingReplays)
    (violation,) = cross_check_engines(spec)
    assert violation.detail == (
        "the per-wire back-end diverged from serial on: traffic"
    )


class _Spoofer(OSBehavior):
    """Re-addresses a copy of each wire it sends to a link between two
    other nodes — what only the per-link MAC it lacks would expose."""

    def filter_send(self, wire, rnd):
        spoofed = copy.copy(wire)
        spoofed.sender, spoofed.receiver = 0, 1
        return ((0, wire), (0, spoofed))


def test_a_copy_on_a_link_no_behaviour_ends_is_refused():
    with pytest.raises(ConfigurationError, match="neither end"):
        run_erb(
            SimulationConfig(n=5, seed=3), initiator=0, message=b"m",
            behaviors={3: _Spoofer()},
        )


# ----------------------------------------------------------------------
# engine choice
# ----------------------------------------------------------------------

class _DropToOne(OSBehavior):
    def filter_send(self, wire, rnd):
        return ((0, wire),) if wire.receiver == 1 else ()


def _engine(security=ChannelSecurity.MODELED, **knobs) -> str:
    timing = TimingCollector()
    extra = {"dh_group": "small"} if security is ChannelSecurity.FULL else {}
    run_erb(
        SimulationConfig(
            n=5, seed=3, channel_security=security, timing=timing,
            extra=extra, **knobs,
        ),
        initiator=0, message=b"m", behaviors={2: _DropToOne()},
    )
    return timing.engine


def test_untraced_modeled_adversarial_run_is_envelope():
    assert _engine() == "envelope"


@pytest.mark.parametrize("case", ["none", "full", "traced"])
def test_other_adversarial_runs_stay_per_wire(case):
    if case == "traced":
        engine = _engine(tracer=Tracer.memory())
    else:
        engine = _engine(
            ChannelSecurity.NONE if case == "none" else ChannelSecurity.FULL
        )
    assert engine == "serial"


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
