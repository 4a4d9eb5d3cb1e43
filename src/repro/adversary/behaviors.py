"""The OS-behaviour interface the simulator consults on every message.

A behaviour's powers mirror what a malicious OS can do with SGX traffic:

* :meth:`filter_send` — for each wire message the enclave wants sent, the
  OS decides what actually hits the network: nothing (omission), the
  message now (``delay=0``), the message ``k`` rounds late, any number of
  *stored or modified copies* (replay / forgery attempts — the blinded
  channel rejects them, but the OS is free to try);
* :meth:`filter_receive` — drop an arriving message before the enclave
  sees it (receive omission);
* :meth:`drain_injections` — emit messages out of thin air at the start
  of a round (replays captured earlier, forgeries under ``NONE`` channels).

Behaviours never see decrypted payloads unless the simulation runs with
``ChannelSecurity.NONE`` (the strawman demos): under FULL the payload is
ciphertext, and under MODELED reading ``wire.plain`` raises
:class:`~repro.common.errors.OpaqueWireError` — behaviours read routing
metadata, counters, sizes and flags, exactly what a real OS observes.

Each method is called on the same wires, in the same order, as if every
message were its own wire, so adversarial semantics never depend on
how the round batches its links.  The simulator runs a node's
behaviour as a mask on the links it ends, each one per wire (Thm A.2: a
drop bit per member plus the extra copies, which the channel checks);
links without a behaviour at either end coalesce, and the sharded
engine is honest only (see ``docs/ARCHITECTURE.md``).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.channel.peer_channel import WireMessage

#: A transmission decision: (delay_in_rounds, wire_message_to_send).
Transmission = Tuple[int, WireMessage]


class OSBehavior:
    """Base class: the honest OS (forwards everything unchanged)."""

    def filter_send(self, wire: WireMessage, rnd: int) -> Iterable[Transmission]:
        """Decide what to transmit for one enclave-written message."""
        return ((0, wire),)

    def filter_receive(self, wire: WireMessage, rnd: int) -> bool:
        """Return False to drop an arriving message before the enclave."""
        return True

    def drain_injections(self, rnd: int) -> Iterable[Transmission]:
        """Messages the OS fabricates/replays at the start of round ``rnd``."""
        return ()

    def on_round_end(self, rnd: int) -> None:
        """Bookkeeping hook (e.g. rotating a target list each round)."""


class PassthroughBehavior(OSBehavior):
    """Explicit honest behaviour (identical to attaching no behaviour)."""


class CompositeBehavior(OSBehavior):
    """Chain several behaviours; each stage filters the previous stage's
    output.  Lets tests combine e.g. omission + replay into one ROD node."""

    def __init__(self, stages: List[OSBehavior]) -> None:
        if not stages:
            raise ValueError("CompositeBehavior needs at least one stage")
        self._stages = list(stages)

    def filter_send(self, wire: WireMessage, rnd: int) -> Iterable[Transmission]:
        current: List[Transmission] = [(0, wire)]
        for stage in self._stages:
            next_batch: List[Transmission] = []
            for delay, item in current:
                for extra_delay, out in stage.filter_send(item, rnd):
                    next_batch.append((delay + extra_delay, out))
            current = next_batch
        return current

    def filter_receive(self, wire: WireMessage, rnd: int) -> bool:
        return all(stage.filter_receive(wire, rnd) for stage in self._stages)

    def drain_injections(self, rnd: int) -> Iterable[Transmission]:
        out: List[Transmission] = []
        for stage in self._stages:
            out.extend(stage.drain_injections(rnd))
        return out

    def on_round_end(self, rnd: int) -> None:
        for stage in self._stages:
            stage.on_round_end(rnd)
