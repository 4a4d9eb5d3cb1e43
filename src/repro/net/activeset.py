"""The round scheduler: which nodes get their round hooks called.

There is one round loop.  Every round it visits an *always-due* list —
the nodes whose programs made no promise about idle rounds — plus the
nodes that are due: woken for this round by their own hint
(:meth:`~repro.sgx.program.EnclaveProgram.sparse_wake_round`), or, for
the round-end hook, delivered to during the round.  A population of
plain programs is therefore visited in full every round; a population of
``SPARSE_AWARE`` programs is visited only where it can act.  Either way
the visit lists are ascending, so hooks run in node-id order.

One :class:`ActiveSet` covers the nodes a process *owns*: all of them in
the serial engine, one shard's slice in a worker of the sharded engine.
Wake hints are pure functions of enclave state, which is sharded
wholesale, so a shard's set evolves exactly like the matching slice of
the serial one.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Set

from repro.common.types import NodeId, Round
from repro.sgx.program import sparse_aware


class ActiveSet:
    """Wake hints, round buckets and doneness for the owned nodes.

    ``nodes`` maps node id to anything with ``alive`` and ``program``
    (the engine's ``Node``).  Build it after ``on_setup`` has run: every
    aware node starts woken for round 1 (programs act spontaneously in
    their first round at the latest via setup-staged sends or round-1
    draws); from round 2 on only hinted wake rounds and deliveries put
    an aware node back on a visit list.
    """

    def __init__(self, nodes: Mapping[NodeId, object], owned: Iterable[NodeId]):
        self._nodes = nodes
        self.owned: List[NodeId] = sorted(owned)
        self._aware: Set[NodeId] = {
            i for i in self.owned if sparse_aware(nodes[i].program)
        }
        self._always: List[NodeId] = [
            i for i in self.owned if i not in self._aware
        ]
        self._wake: Dict[NodeId, Round] = {i: 1 for i in self._aware}
        self._buckets: Dict[Round, List[NodeId]] = (
            {1: sorted(self._aware)} if self._aware else {}
        )
        #: Receivers dispatched to this round; the engine adds to it.
        self.delivered: Set[NodeId] = set()
        self._visit: List[NodeId] = []
        #: Owned nodes whose program has produced an output.
        self.decided = 0
        # Live and undecided: retired as nodes decide or halt, so the
        # doneness check is O(1) instead of a scan over the owned nodes.
        self._undone: Set[NodeId] = set()
        for i in self.owned:
            node = nodes[i]
            if node.program.has_output:
                self.decided += 1
            elif node.alive:
                self._undone.add(i)

    @property
    def all_done(self) -> bool:
        """Every owned node has decided or halted."""
        return not self._undone

    def begin(self, rnd: Round) -> List[NodeId]:
        """Phase-1 visit list: the always-due nodes merged with this
        round's woken ones."""
        woken = self._buckets.pop(rnd, None)
        if woken:
            wake = self._wake
            # Stale bucket entries (hint later retracted or moved) and
            # re-hint duplicates are filtered here, at pop time.
            sched = sorted({i for i in woken if wake.get(i) == rnd})
        else:
            sched = []
        always = self._always
        if not always:
            visit = sched
        elif not sched:
            visit = always
        else:
            visit = sorted(always + sched)
        self._visit = visit
        return visit

    def end(self) -> List[NodeId]:
        """Phase-6 visit list: phase 1's visits plus every node that had
        a message dispatched to it this round (a delivery always re-wakes
        for the round-end hook, whatever the hints say)."""
        delivered = self.delivered
        if not delivered:
            return self._visit
        delivered.update(self._visit)
        return sorted(delivered)

    def after_end(
        self, rnd: Round, end_visit: List[NodeId], halted_now: Iterable[NodeId]
    ) -> None:
        """Post-hook bookkeeping: retire decided and departed nodes,
        re-query the wake hint of every visited aware node, and drop the
        nodes halted on divergence this round (owned or not)."""
        nodes = self._nodes
        aware = self._aware
        wake = self._wake
        buckets = self._buckets
        undone = self._undone
        for node_id in end_visit:
            node = nodes[node_id]
            if node_id in undone:
                self._retire(node_id, node)
            if not node.alive:
                wake.pop(node_id, None)
            elif node_id in aware:
                hint = node.program.sparse_wake_round(rnd)
                if hint is None:
                    wake.pop(node_id, None)
                else:
                    if hint <= rnd:
                        hint = rnd + 1
                    if wake.get(node_id) != hint:
                        wake[node_id] = hint
                        buckets.setdefault(hint, []).append(node_id)
        for node_id in halted_now:
            wake.pop(node_id, None)
            if node_id in undone:
                self._retire(node_id, nodes[node_id])
        self.delivered.clear()

    def _retire(self, node_id: NodeId, node) -> None:
        """Drop a not-yet-done node once it has decided or departed."""
        decided = node.program.has_output
        if decided or not node.alive:
            self._undone.discard(node_id)
            self.decided += decided
