"""Full-byzantine behaviours (A1/A2/A4-lookahead).

:class:`TamperAdversary` attacks any channel mode and demonstrates the
reduction: under FULL/MODELED channels every tampered message fails MAC
verification and is treated as omitted (Theorem A.2).

:class:`EquivocationForger` and :class:`LookaheadBiasAdversary` only bite
under ``ChannelSecurity.NONE`` — i.e. against the strawman protocol
(Algorithm 1), whose lack of enclave protections is exactly what Section
2.3 uses to motivate P1-P6.  They read and rewrite plaintext, which the
blinded channel makes impossible.

Campaign schedules reach :class:`TamperAdversary` through the fault kind
``tamper`` (:mod:`repro.campaign.schedule`) — the top of the Definition
A.5 hierarchy, and the class the sanitization invariant expects P4 to
eject (every tampered multicast is treated as omitted, so the tamperer
starves its own ACK quorum).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.adversary.behaviors import OSBehavior, Transmission
from repro.channel.peer_channel import WireMessage
from repro.common.types import MessageType, NodeId


class TamperAdversary(OSBehavior):
    """Flip ciphertext bits on every outgoing message (attack A2).

    Against a blinded channel the receiver's MAC check fails and the
    message counts as omitted; the tamperer also forfeits its ACKs and is
    churned out by halt-on-divergence.
    """

    def __init__(self, tamper_types: Optional[Set[MessageType]] = None) -> None:
        self._tamper_types = tamper_types
        self.tampered_count = 0

    def filter_send(self, wire: WireMessage, rnd: int) -> Iterable[Transmission]:
        if self._tamper_types is not None:
            if wire.mtype not in self._tamper_types:
                return ((0, wire),)
        self.tampered_count += 1
        return ((0, wire.tampered_copy()),)


class EquivocationForger(OSBehavior):
    """Send value ``m`` to some peers and ``m'`` to the rest (attack A2).

    Only expressible against plaintext channels: the forged copy carries a
    rewritten payload.  Against the strawman broadcast this splits honest
    nodes' decisions; against ERB the rewrite is detected (MAC) and
    dropped.
    """

    def __init__(self, fooled: Set[NodeId], forged_payload: object) -> None:
        self._fooled = frozenset(fooled)
        self._forged_payload = forged_payload

    def filter_send(self, wire: WireMessage, rnd: int) -> Iterable[Transmission]:
        if wire.receiver not in self._fooled:
            return ((0, wire),)
        if wire.opaque or wire.plain is None:
            # Cannot rewrite ciphertext without the channel key: forgery
            # degenerates into tampering, which the receiver rejects.
            return ((0, wire.tampered_copy()),)
        forged_plain = replace(wire.plain, payload=self._forged_payload)
        forged = replace(wire, plain=forged_plain)
        return ((0, forged),)


class LookaheadBiasAdversary(OSBehavior):
    """The look-ahead attack on distributed XOR randomness (attack A4).

    The byzantine OS withholds its own contribution, watches everyone
    else's plaintext contributions arrive, computes both candidate outputs
    (with and without its value), and releases its contribution only when
    that flips the result into the favourable set.  Against the strawman
    this yields bias approaching 2x on a predicate of probability 1/2;
    against ERNG it is impossible twice over — contributions are encrypted
    (P3) and a late release misses the round window (P5).
    """

    def __init__(
        self,
        self_id: NodeId,
        favourable: Callable[[int], bool],
        release_round: int = 2,
    ) -> None:
        self._self_id = self_id
        self._favourable = favourable
        self._release_round = release_round
        self._withheld: List[WireMessage] = []
        self._own_value: Optional[int] = None
        self._seen_contributions: Dict[NodeId, int] = {}
        self.released = False

    def filter_send(self, wire: WireMessage, rnd: int) -> Iterable[Transmission]:
        if wire.mtype is MessageType.INIT:
            # Withhold our own contribution (possible in any mode)...
            self._withheld.append(wire)
            # ...but *reading* it requires a plaintext channel (P3
            # denies this against the blinded channel).
            plain = None if wire.opaque else wire.plain
            if plain is not None and isinstance(plain.payload, int):
                self._own_value = plain.payload
            return ()
        return ((0, wire),)

    def filter_receive(self, wire: WireMessage, rnd: int) -> bool:
        plain = None if wire.opaque else wire.plain
        if (
            plain is not None
            and plain.type is MessageType.INIT
            and isinstance(plain.payload, int)
            and not wire.tampered
        ):
            self._seen_contributions[plain.initiator] = plain.payload
        return True

    def drain_injections(self, rnd: int) -> Iterable[Transmission]:
        if rnd < self._release_round or self.released or self._own_value is None:
            return ()
        without_me = 0
        for value in self._seen_contributions.values():
            without_me ^= value
        with_me = without_me ^ self._own_value
        if self._favourable(with_me) and not self._favourable(without_me):
            self.released = True
            return tuple((0, wire) for wire in self._withheld)
        # Otherwise stay silent: the honest-only XOR is already favourable,
        # or releasing would not help.
        return ()
