"""Executable Definition A.5: classify a peer's observed failure mode.

The paper defines four progressively stronger modes of the peer channel —
honest ⊂ general-omission ⊂ ROD ⊂ byzantine — by *what the OS did to the
data the enclave wrote*.  When a simulation runs with
``config.tracer = Tracer.memory()`` (or any tracer with a memory sink,
see :mod:`repro.obs.tracer`) the engine records every OS action on
every wire message; :func:`classify_node` then maps each node's action
multiset to the *minimal* mode of Definition A.5 that explains it:

* only faithful forwarding                        → ``HONEST``
* plus send/receive drops                         → ``GENERAL_OMISSION``
* plus delays and re-injections (replays)         → ``ROD``
* plus modifications (bit-flips, forged copies)   → ``BYZANTINE``

This is the observable counterpart of the reduction theorems: the tests
verify that under blinded channels the *effect* of a BYZANTINE-classified
node on honest outputs is indistinguishable from some ROD node's — which
is Theorem A.2 stated operationally.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.common.config import AdversaryModel
from repro.common.types import NodeId, Round


class WireAction(enum.Enum):
    """One observed OS action on one wire message."""

    DELIVER = "deliver"        # forwarded unchanged, on time
    DROP_SEND = "drop_send"    # enclave wrote it, OS never transmitted it
    DROP_RECV = "drop_recv"    # arrived, OS hid it from the enclave
    DELAY = "delay"            # transmitted k >= 1 rounds late
    REPLAY = "replay"          # an old wire re-injected
    MODIFY = "modify"          # transmitted a modified copy


#: Which failure mode first permits each action (Definition A.5).
_ACTION_MODE: Dict[WireAction, AdversaryModel] = {
    WireAction.DELIVER: AdversaryModel.HONEST,
    WireAction.DROP_SEND: AdversaryModel.GENERAL_OMISSION,
    WireAction.DROP_RECV: AdversaryModel.GENERAL_OMISSION,
    WireAction.DELAY: AdversaryModel.ROD,
    WireAction.REPLAY: AdversaryModel.ROD,
    WireAction.MODIFY: AdversaryModel.BYZANTINE,
}

_MODE_ORDER = [
    AdversaryModel.HONEST,
    AdversaryModel.GENERAL_OMISSION,
    AdversaryModel.ROD,
    AdversaryModel.BYZANTINE,
]


@dataclass(frozen=True)
class ActionRecord:
    """One traced event: node ``actor`` performed ``action`` in ``rnd``."""

    actor: NodeId
    rnd: Round
    action: WireAction


@dataclass
class ActionTrace:
    """All traced OS actions of one simulation run."""

    records: List[ActionRecord] = field(default_factory=list)

    def record(self, actor: NodeId, rnd: Round, action: WireAction) -> None:
        self.records.append(ActionRecord(actor=actor, rnd=rnd, action=action))

    def actions_of(self, node: NodeId) -> List[ActionRecord]:
        return [r for r in self.records if r.actor == node]

    def counts_of(self, node: NodeId) -> Dict[WireAction, int]:
        counts: Dict[WireAction, int] = {}
        for record in self.records:
            if record.actor == node:
                counts[record.action] = counts.get(record.action, 0) + 1
        return counts


def classify_actions(actions: Iterable[WireAction]) -> AdversaryModel:
    """Minimal Definition A.5 mode permitting every observed action."""
    worst = AdversaryModel.HONEST
    for action in actions:
        mode = _ACTION_MODE[action]
        if _MODE_ORDER.index(mode) > _MODE_ORDER.index(worst):
            worst = mode
    return worst


#: Wire-event action strings that correspond to Definition A.5 actions.
#: The tracer additionally emits ``send`` / ``flush`` / ``reject`` /
#: ``omit_dead`` events that have no counterpart in the definition (they
#: describe honest transmissions and channel bookkeeping, not OS
#: misbehaviour) — those are excluded so the view reproduces the legacy
#: ``ActionTrace`` records exactly.
_WIRE_ACTION_BY_VALUE: Dict[str, WireAction] = {
    action.value: action for action in WireAction
}


def trace_from_wire_events(events: Iterable) -> ActionTrace:
    """Rebuild an :class:`ActionTrace` from tracer wire events.

    ``events`` is any iterable of :class:`repro.obs.events.WireEvent`-like
    objects (duck-typed: ``actor`` / ``rnd`` / ``action`` attributes).
    Events whose ``actor`` is None or whose action is not one of the
    Definition A.5 actions are skipped, making the result record-for-record
    identical to what the pre-tracer engine produced.
    """
    trace = ActionTrace()
    records = trace.records
    for event in events:
        actor = event.actor
        if actor is None:
            continue
        action = _WIRE_ACTION_BY_VALUE.get(event.action)
        if action is not None:
            records.append(ActionRecord(actor=actor, rnd=event.rnd, action=action))
    return trace


def classify_node(trace: ActionTrace, node: NodeId) -> AdversaryModel:
    """Classify one node from a run's trace."""
    return classify_actions(
        record.action for record in trace.actions_of(node)
    )


def classify_all(trace: ActionTrace, n: int) -> Dict[NodeId, AdversaryModel]:
    """Per-node classification for a whole network."""
    return {node: classify_node(trace, node) for node in range(n)}
