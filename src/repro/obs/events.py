"""Typed trace events — the vocabulary of the observability layer.

Every record the tracer emits is one of the dataclasses below.  They are
deliberately flat and JSON-primitive (ints, floats, strings, bools,
lists) so a trace round-trips losslessly through the JSONL exporter in
:mod:`repro.obs.export`.

The event kinds mirror the paper's evaluation vocabulary:

* :class:`PhaseEvent` — the engine entering one of the six documented
  round phases (:data:`ROUND_PHASES`);
* :class:`WireEvent` — one OS-level action on one wire message
  (transmit, drop, delay, replay, modify, reject, ...), generalizing the
  Definition A.5 ``ActionTrace``;
* :class:`EnvelopeEvent` — one *physical* link crossing of the round
  envelope layer: how many logical messages it coalesced and the bytes
  that actually crossed (the compression ``repro inspect`` reports);
* :class:`RoundSpan` — the closing summary of one round (bytes, wall
  time, omissions, halts) — the unit Fig. 2/3 aggregate over;
* :class:`HaltEvent` — halt-on-divergence firing (P4): ACK count vs
  threshold;
* :class:`DecisionEvent` — a program accepting its output;
* :class:`ProtocolEvent` — protocol-specific milestones (ERB quorum,
  cluster election in the optimized ERNG, FINAL sets, ...);
* :class:`ChurnEvent` — one instance of the Appendix D churn process
  (ejections, live byzantine count, agreement);
* :class:`CampaignEvent` — one finished fault-injection campaign case
  (:mod:`repro.campaign`): the grid cell, its verdict, and the path of
  the shrunk reproducer artifact if it failed;
* :class:`TimingEvent` — one round's phase-attributed wall-clock
  breakdown (emitted when a run is both traced and timed, see
  :mod:`repro.obs.timing`);
* :class:`MetaEvent` — run provenance (the machine stamp of
  :mod:`repro.obs.machine`), emitted once at the head of a trace so
  timing comparisons across trace files stay stamp-aware.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import ClassVar, Dict, List, Optional

#: The six phases of one engine round, in execution order (the round
#: anatomy documented at the top of :mod:`repro.net.simulator`).
ROUND_PHASES = ("begin", "transmit", "deliver", "ack_wave", "halt_check", "end")

#: Wire actions that are *charged* to the traffic statistics when they
#: occur (the message crossed the network).  The remaining actions
#: (drops, delays-in-flight, rejections) are omissions or bookkeeping.
WIRE_SEND_ACTIONS = ("send", "deliver", "replay", "modify", "flush")


@dataclass
class PhaseEvent:
    """The engine entered phase ``phase`` of round ``rnd``.

    ``count`` is the number of items the phase starts with: staged
    multicasts (begin/transmit), wires to deliver (deliver), queued ACKs
    (ack_wave), pending multicast handles (halt_check), live nodes (end).
    """

    kind: ClassVar[str] = "phase"
    rnd: int
    phase: str
    count: int = 0


@dataclass
class WireEvent:
    """One observed action on one wire message.

    ``action`` is one of ``send`` (honest transmission), ``deliver`` /
    ``drop_send`` / ``drop_recv`` / ``delay`` / ``replay`` / ``modify``
    (the Definition A.5 OS actions, with the acting node in ``actor``),
    ``flush`` (a previously delayed wire entering the network), ``reject``
    (failed channel verification) or ``omit_dead`` (receiver halted).

    ``charged`` marks the events whose ``size`` was billed to the traffic
    statistics — summing charged sizes per round reproduces
    ``TrafficStats.bytes_by_round`` exactly.
    """

    kind: ClassVar[str] = "wire"
    rnd: int
    sender: int
    receiver: int
    size: int
    action: str
    mtype: Optional[str] = None
    actor: Optional[int] = None
    charged: bool = False


@dataclass
class EnvelopeEvent:
    """One physical link crossing of the round-envelope layer.

    All messages node ``sender`` transmitted to node ``receiver`` in round
    ``rnd`` during one wave (``transmit`` or ``ack``) crossed as a single
    envelope of ``size`` physical bytes carrying ``count`` logical
    messages.  Wire events keep reporting the *logical* view, so traces of
    envelope runs stay comparable to per-wire traces; envelope events are
    the extra layer that makes the coalescing visible.
    """

    kind: ClassVar[str] = "envelope"
    rnd: int
    sender: int
    receiver: int
    count: int
    size: int
    wave: str = "transmit"


@dataclass
class RoundSpan:
    """Closing summary of one executed round."""

    kind: ClassVar[str] = "round"
    rnd: int
    bytes: int
    seconds: float
    omissions: int = 0
    rejections: int = 0
    live: int = 0
    decided: int = 0
    halted: List[int] = field(default_factory=list)


@dataclass
class HaltEvent:
    """Halt-on-divergence (P4): a multicast missed its ACK threshold."""

    kind: ClassVar[str] = "halt"
    rnd: int
    node: int
    acks: int
    threshold: int
    reason: str = "divergence"


@dataclass
class DecisionEvent:
    """A program accepted its output ('accept' in the pseudocode)."""

    kind: ClassVar[str] = "decision"
    rnd: int
    node: int
    program: str
    value: str = ""
    instance: str = ""


@dataclass
class ProtocolEvent:
    """A protocol-specific milestone (quorum reached, cluster election,
    FINAL multicast, ...).  ``data`` holds small JSON-primitive details."""

    kind: ClassVar[str] = "protocol"
    rnd: int
    node: int
    name: str
    instance: str = ""
    data: Dict[str, object] = field(default_factory=dict)


@dataclass
class ChurnEvent:
    """One instance of the Appendix D sanitization process."""

    kind: ClassVar[str] = "churn"
    instance: int
    live_byzantine: int
    rounds: int
    agreement_held: bool
    ejected: List[int] = field(default_factory=list)
    rnd: int = 0


@dataclass
class CampaignEvent:
    """One finished case of a fault-injection campaign sweep.

    ``violations`` lists the names of the broken invariants (empty means
    the case passed); ``artifact`` is the path of the minimal-reproducer
    JSON when the failure was shrunk and persisted.  A campaign run with
    a :class:`~repro.obs.export.JsonlSink` attached therefore doubles as
    the machine-readable sweep summary.
    """

    kind: ClassVar[str] = "campaign"
    index: int
    protocol: str
    n: int
    t: int
    strategy: str
    seed: int
    rounds: int
    halted: List[int] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    artifact: str = ""
    rnd: int = 0


@dataclass
class TimingEvent:
    """One round's phase-attributed wall-clock breakdown.

    ``buckets`` maps the :data:`repro.obs.timing.PHASE_BUCKETS` names to
    seconds; their sum is the round's measured ``wall``.  ``shards``
    carries the sharded engine's per-shard busy/idle split when present;
    ``engine`` names the back-end that ran the round ("" in traces
    written before it was recorded).
    """

    kind: ClassVar[str] = "timing"
    rnd: int
    wall: float
    buckets: Dict[str, float] = field(default_factory=dict)
    shards: List[dict] = field(default_factory=list)
    engine: str = ""


@dataclass
class MetaEvent:
    """Run provenance: the machine stamp (git rev, cpu_count, workers)."""

    kind: ClassVar[str] = "meta"
    machine: Dict[str, object] = field(default_factory=dict)
    rnd: int = 0


#: All event classes, keyed by their ``kind`` tag (used by the exporter).
EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        PhaseEvent,
        WireEvent,
        EnvelopeEvent,
        RoundSpan,
        HaltEvent,
        DecisionEvent,
        ProtocolEvent,
        ChurnEvent,
        CampaignEvent,
        TimingEvent,
        MetaEvent,
    )
}


def event_to_dict(event) -> Dict[str, object]:
    """Flatten an event to a JSON-ready dict tagged with its ``kind``."""
    payload = {"kind": event.kind}
    payload.update(asdict(event))
    return payload


def event_from_dict(payload: Dict[str, object]):
    """Rebuild a typed event from :func:`event_to_dict` output."""
    data = dict(payload)
    kind = data.pop("kind", None)
    cls = EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(f"unknown trace event kind {kind!r}")
    return cls(**data)
