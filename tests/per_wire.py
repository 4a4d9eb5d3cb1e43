"""The per-wire reference back-end: one wire per message, on every link.

The simulator's one round back-end (``simulator._EnvelopeRounds``)
coalesces clean links and runs the rest per wire.  This is the loop it is
checked against: every multicast is written per target and handed to the
sender's OS behaviour, every wire is received through the receiver's
behaviour and the channel read, and every ACK is a wire of its own.
Tests run it by patching the simulator's back-end class::

    with per_wire():
        result = run_erb(config, initiator=0, message=b"m")

Its physical ledger charges one crossing per link that carried anything,
with the wave's bytes — the rule of a run with a per-wire link.
:class:`PerMessageCrossings` charges one crossing per message instead,
the ledger of a network without envelopes, for honest runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Tuple
from unittest import mock

from repro.channel.peer_channel import WireMessage, modeled_wire_size
from repro.net import simulator


class PerWireRounds:
    """A :class:`~repro.net.simulator.RoundBackend` with no envelopes."""

    engine = "per-wire"
    #: Charge each message as its own crossing instead of each link.
    per_message_crossings = False

    def __init__(self, net) -> None:
        self.net = net
        self.run_hooks = net.run_hooks
        self._wires: List[WireMessage] = []

    def _charge(self, wire: WireMessage, rnd: int, out: List[WireMessage]):
        self.net.stats.traffic.record_send(
            wire.mtype, wire.size, rnd, physical=self.per_message_crossings
        )
        out.append(wire)

    def _record_links(self, wires: List[WireMessage], rnd: int, wave: str):
        if self.per_message_crossings or not wires:
            return
        links: Dict[Tuple[int, int], List[int]] = {}
        for wire in wires:
            entry = links.setdefault((wire.sender, wire.receiver), [0, 0])
            entry[0] += 1
            entry[1] += wire.size
        net = self.net
        for (sender, receiver), (count, size) in links.items():
            net.stats.traffic.record_envelope(count, size)
            net.tracer.envelope(rnd, sender, receiver, count, size, wave=wave)

    def transmit(self, rnd: int, intents) -> int:
        net = self.net
        wires: List[WireMessage] = []
        for intent in intents:
            message = intent.message
            sent = net.transport.write(
                intent.sender, intent.targets, message,
                modeled_wire_size(message),
            )
            behavior = net.nodes[intent.sender].behavior
            if behavior is None:
                for wire in sent:
                    self._charge(wire, rnd, wires)
                net.tracer.wire_fanout(rnd, sent, "send", charged=True)
                continue
            for wire in sent:
                net._apply_send_filter(behavior, intent.sender, wire, rnd, wires)
        net._drain_os_wires(rnd, wires)
        self._record_links(wires, rnd, "transmit")
        self._wires = wires
        return len(wires)

    def deliver(self, rnd: int) -> int:
        net = self.net
        for wire in self._wires:
            net._receive(wire, rnd)
        return len(net._ack_queue)

    def ack_wave(self, rnd: int) -> None:
        net = self.net
        ack_queue, net._ack_queue = net._ack_queue, []
        wires: List[WireMessage] = []
        for acker, dest, digest in ack_queue:
            node = net.nodes[acker]
            if not node.alive:
                continue
            ack = simulator._ack_message(digest, rnd)
            (wire,) = net.transport.write(
                acker, (dest,), ack, modeled_wire_size(ack)
            )
            if node.behavior is None:
                self._charge(wire, rnd, wires)
                net.tracer.wire(rnd, wire, "send", charged=True)
            else:
                net._apply_send_filter(node.behavior, acker, wire, rnd, wires)
        self._record_links(wires, rnd, "ack")
        for wire in wires:
            net._receive(wire, rnd)
        net._end_os_round(rnd)


class PerMessageCrossings(PerWireRounds):
    per_message_crossings = True


@contextmanager
def per_wire(backend=PerWireRounds):
    """Run every simulation inside the block on ``backend``."""
    with mock.patch.object(simulator, "_EnvelopeRounds", backend):
        yield
