"""Delivery layer: three interchangeable channel fidelities.

Each transport implements the same two verbs used by the simulator:

* ``write(sender, receiver, message, size_hint)`` — executed conceptually
  inside the *sending* enclave: seal the value for the receiver, return
  the :class:`WireMessage` the OS layer gets to handle;
* ``read(receiver, wire)`` — executed inside the *receiving* enclave:
  verify integrity (P2), program binding (P1), freshness (P6); raise on
  any failure so the engine records an omission instead.

``FullTransport`` runs the real Fig. 4 channels.  ``ModeledTransport``
keeps the identical accept/reject semantics with O(1) integer bookkeeping
per message (flat per-node counter arrays), which is what lets the scaling
benchmarks reach N = 2^10.  ``PlainTransport`` is the no-security mode for
strawman attack demonstrations: it verifies nothing.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.channel.peer_channel import (
    ChannelTable,
    Envelope,
    SecureChannel,
    WireMessage,
    modeled_wire_size,
)
from repro.common.config import ChannelSecurity
from repro.common.errors import IntegrityError, ProtocolError, ReplayError
from repro.common.serialization import encode
from repro.common.types import NodeId, ProtocolMessage
from repro.crypto.dh import DhGroup, MODP_2048
from repro.sgx.enclave import Enclave


class Transport:
    """Interface shared by the three fidelities."""

    security: ChannelSecurity

    def write(
        self,
        sender: NodeId,
        receiver: NodeId,
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> WireMessage:
        raise NotImplementedError

    def write_fanout(
        self,
        sender: NodeId,
        targets: Iterable[NodeId],
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> List[WireMessage]:
        """Write one multicast: encode/size once, one wire per target.

        Equivalent to calling :meth:`write` for each target in order
        (identical wires, counters and RNG consumption) — subclasses
        override it to share the per-multicast work across receivers.
        """
        return [
            self.write(sender, receiver, message, size_hint)
            for receiver in targets
        ]

    def read(self, receiver: NodeId, wire: WireMessage) -> ProtocolMessage:
        raise NotImplementedError

    def seal_envelope(
        self,
        sender: NodeId,
        receiver: NodeId,
        members: Optional[Sequence[ProtocolMessage]],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
        encoded_bodies: Optional[Sequence[bytes]] = None,
    ) -> Envelope:
        """Seal one link's whole round of traffic as a single crossing.

        Non-FULL transports take the engine-computed physical ``size``
        (member bodies + one channel overhead) and an optional explicit
        ``count`` (the modeled ACK wave passes ``members=None``); FULL
        takes ``encoded_bodies`` and seals them with one AEAD call,
        reporting the per-wire-equivalent logical sizes in
        ``Envelope.member_sizes``.  Channel counters advance exactly as
        ``count`` per-message writes would, so counter state stays
        interchangeable with the per-wire path.
        """
        raise NotImplementedError

    def open_envelope(
        self, receiver: NodeId, envelope: Envelope
    ) -> Optional[Tuple[ProtocolMessage, ...]]:
        """Verify one envelope (routing, integrity, freshness) and return
        its members (None when the envelope carries no plaintext objects,
        e.g. the modeled ACK wave).  Raises like :meth:`read`."""
        raise NotImplementedError

    def seal_envelope_wave(
        self,
        sender: NodeId,
        receivers: Sequence[NodeId],
        members: Optional[Sequence[ProtocolMessage]],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
    ) -> List[Envelope]:
        """Seal the *same* member set for many receivers in one pass.

        Equivalent to calling :meth:`seal_envelope` once per receiver in
        order (identical envelopes, counter advances and RNG draws) —
        subclasses override it to hoist the per-wave work (guard,
        measurement/row lookups, body encoding) out of the per-link
        loop.  This is the engine's common case: a round's coalesced
        traffic from one sender goes to its whole neighbour set.
        """
        return [
            self.seal_envelope(sender, receiver, members,
                               count=count, size=size)
            for receiver in receivers
        ]

    def open_envelope_wave(
        self, receiver: NodeId, envelopes: Sequence[Envelope]
    ) -> List[Optional[Tuple[ProtocolMessage, ...]]]:
        """Open one receiver's batch of envelopes in one pass.

        Equivalent to calling :meth:`open_envelope` per envelope in
        order, including raising on the first bad one."""
        return [self.open_envelope(receiver, env) for env in envelopes]

    def message_size(self, message: ProtocolMessage) -> int:
        """Wire size of ``message`` (computed once per multicast)."""
        return modeled_wire_size(message)

    def refresh_measurements(self) -> None:
        """Re-read enclave measurements after a session recycle.

        :meth:`SynchronousNetwork.begin_session_run` may install programs
        with a *different* measurement (a new execution re-attests from
        scratch); transports that cache measurements at construction
        override this to pick the new values up.  FULL and NONE read the
        live enclave state, so the default is a no-op.
        """


class FullTransport(Transport):
    """Real blinded channels between every pair of enclaves."""

    security = ChannelSecurity.FULL

    def __init__(
        self, enclaves: Dict[NodeId, Enclave], group: DhGroup = MODP_2048
    ) -> None:
        self._enclaves = enclaves
        self._table = ChannelTable()
        ids = sorted(enclaves)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                self._table.add(
                    SecureChannel.establish(
                        enclaves[a], enclaves[b], ChannelSecurity.FULL, group
                    )
                )

    def write(
        self,
        sender: NodeId,
        receiver: NodeId,
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> WireMessage:
        enclave = self._enclaves[sender]
        enclave.guard()
        channel = self._table.get(sender, receiver)
        wire = channel.write(
            sender, message, enclave.rdrand.rng(), enclave.measurement
        )
        wire.mtype = message.type
        return wire

    def write_fanout(
        self,
        sender: NodeId,
        targets: Iterable[NodeId],
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> List[WireMessage]:
        # Seal per receiver (each channel has its own key and counter) but
        # serialize the message body exactly once for the whole fan-out.
        enclave = self._enclaves[sender]
        enclave.guard()
        rng = enclave.rdrand.rng()
        measurement = enclave.measurement
        encoded = encode(message.to_tuple())
        table = self._table
        mtype = message.type
        wires: List[WireMessage] = []
        for receiver in targets:
            wire = table.get(sender, receiver).write(
                sender, message, rng, measurement, encoded_message=encoded
            )
            wire.mtype = mtype
            wires.append(wire)
        return wires

    def read(self, receiver: NodeId, wire: WireMessage) -> ProtocolMessage:
        enclave = self._enclaves[receiver]
        enclave.guard()
        channel = self._table.get(wire.sender, receiver)
        return channel.read(receiver, wire)

    def seal_envelope(
        self,
        sender: NodeId,
        receiver: NodeId,
        members: Optional[Sequence[ProtocolMessage]],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
        encoded_bodies: Optional[Sequence[bytes]] = None,
    ) -> Envelope:
        if encoded_bodies is None:
            assert members is not None
            encoded_bodies = [encode(m.to_tuple()) for m in members]
        enclave = self._enclaves[sender]
        enclave.guard()
        channel = self._table.get(sender, receiver)
        return channel.write_envelope(
            sender, encoded_bodies, enclave.rdrand.rng(), enclave.measurement
        )

    def open_envelope(
        self, receiver: NodeId, envelope: Envelope
    ) -> Tuple[ProtocolMessage, ...]:
        enclave = self._enclaves[receiver]
        enclave.guard()
        channel = self._table.get(envelope.sender, receiver)
        return channel.read_envelope(receiver, envelope)

    def seal_envelope_wave(
        self,
        sender: NodeId,
        receivers: Sequence[NodeId],
        members: Optional[Sequence[ProtocolMessage]],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
    ) -> List[Envelope]:
        # Encode every member body once for the whole wave (per-link
        # seal_envelope re-encodes per receiver); guard / RNG handle /
        # measurement hoist out too.  ``rdrand.rng()`` returns the stream
        # object without drawing, so one lookup is byte-identical to one
        # per receiver.
        assert members is not None
        encoded_bodies = [encode(m.to_tuple()) for m in members]
        enclave = self._enclaves[sender]
        enclave.guard()
        rng = enclave.rdrand.rng()
        measurement = enclave.measurement
        table = self._table
        return [
            table.get(sender, receiver).write_envelope(
                sender, encoded_bodies, rng, measurement
            )
            for receiver in receivers
        ]

    def open_envelope_wave(
        self, receiver: NodeId, envelopes: Sequence[Envelope]
    ) -> List[Optional[Tuple[ProtocolMessage, ...]]]:
        enclave = self._enclaves[receiver]
        enclave.guard()
        table = self._table
        return [
            table.get(envelope.sender, receiver).read_envelope(
                receiver, envelope
            )
            for envelope in envelopes
        ]


class ModeledTransport(Transport):
    """Size-accurate, semantics-accurate channel model.

    Per ordered pair ``(s, r)`` it tracks a send counter and the highest
    counter accepted by the reader; tampered flags and measurement
    mismatches reject exactly as the real channel does.
    """

    security = ChannelSecurity.MODELED

    def __init__(self, enclaves: Dict[NodeId, Enclave]) -> None:
        self._enclaves = enclaves
        n = max(enclaves) + 1 if enclaves else 0
        self._n = n
        self._measurements: List[Optional[bytes]] = [None] * n
        for node, enclave in enclaves.items():
            self._measurements[node] = enclave.measurement
        # _send[s][r]: messages written by s for r so far.
        # _accepted[r][s]: highest counter r accepted from s.
        self._send = [array("q", [0]) * n for _ in range(n)]
        self._accepted = [array("q", [0]) * n for _ in range(n)]

    def refresh_measurements(self) -> None:
        for node, enclave in self._enclaves.items():
            self._measurements[node] = enclave.measurement

    def write(
        self,
        sender: NodeId,
        receiver: NodeId,
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> WireMessage:
        self._enclaves[sender].guard()
        row = self._send[sender]
        row[receiver] += 1
        size = size_hint if size_hint is not None else modeled_wire_size(message)
        return WireMessage(
            sender=sender,
            receiver=receiver,
            counter=row[receiver],
            size=size,
            plain=message,
            plain_measurement=self._measurements[sender],
            mtype=message.type,
        )

    def write_fanout(
        self,
        sender: NodeId,
        targets: Iterable[NodeId],
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> List[WireMessage]:
        # One guard, one size, one measurement lookup, one counter-row
        # pass for the whole multicast; the frozen plaintext is shared.
        self._enclaves[sender].guard()
        row = self._send[sender]
        size = size_hint if size_hint is not None else modeled_wire_size(message)
        measurement = self._measurements[sender]
        mtype = message.type
        wires: List[WireMessage] = []
        append = wires.append
        for receiver in targets:
            counter = row[receiver] + 1
            row[receiver] = counter
            append(
                WireMessage(
                    sender, receiver, counter, size,
                    None, message, measurement, False, mtype,
                )
            )
        return wires

    def read(self, receiver: NodeId, wire: WireMessage) -> ProtocolMessage:
        self._enclaves[receiver].guard()
        if wire.receiver != receiver:
            raise IntegrityError("wire message routed to the wrong node")
        if wire.tampered:
            raise IntegrityError("MAC verification failed (modeled tampering)")
        sender = wire.sender
        expected = self._measurements[receiver]
        if wire.plain_measurement != expected:
            raise IntegrityError(
                "message bound to a different program (H(pi) mismatch)"
            )
        accepted = self._accepted[receiver]
        if wire.counter <= accepted[sender]:
            raise ReplayError(
                f"stale counter {wire.counter} from {sender} "
                f"(highest accepted {accepted[sender]})"
            )
        accepted[sender] = wire.counter
        if wire.plain is None:
            raise ProtocolError("modeled wire message without plaintext")
        return wire.plain

    def seal_envelope(
        self,
        sender: NodeId,
        receiver: NodeId,
        members: Optional[Sequence[ProtocolMessage]],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
        encoded_bodies: Optional[Sequence[bytes]] = None,
    ) -> Envelope:
        # One guard and one counter-row update per link per wave; the
        # counter advances by the member count, so the per-pair counter
        # state stays identical to `count` sequential writes.
        self._enclaves[sender].guard()
        k = count if count is not None else len(members)
        row = self._send[sender]
        counter = row[receiver] + k
        row[receiver] = counter
        return Envelope(
            sender=sender,
            receiver=receiver,
            counter=counter,
            size=size if size is not None else 0,
            count=k,
            members=members,
            member_measurement=self._measurements[sender],
        )

    def open_envelope(
        self, receiver: NodeId, envelope: Envelope
    ) -> Optional[Tuple[ProtocolMessage, ...]]:
        self._enclaves[receiver].guard()
        if envelope.receiver != receiver:
            raise IntegrityError("envelope routed to the wrong node")
        expected = self._measurements[receiver]
        if envelope.member_measurement != expected:
            raise IntegrityError(
                "message bound to a different program (H(pi) mismatch)"
            )
        accepted = self._accepted[receiver]
        sender = envelope.sender
        if envelope.counter <= accepted[sender]:
            raise ReplayError(
                f"stale envelope counter {envelope.counter} from {sender} "
                f"(highest accepted {accepted[sender]})"
            )
        accepted[sender] = envelope.counter
        return envelope.members

    def seal_envelope_wave(
        self,
        sender: NodeId,
        receivers: Sequence[NodeId],
        members: Optional[Sequence[ProtocolMessage]],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
    ) -> List[Envelope]:
        # One guard, one measurement lookup and one counter-row borrow
        # for the whole wave; counters advance per link exactly as the
        # per-receiver calls would.
        self._enclaves[sender].guard()
        k = count if count is not None else len(members)
        env_size = size if size is not None else 0
        row = self._send[sender]
        measurement = self._measurements[sender]
        envelopes: List[Envelope] = []
        append = envelopes.append
        for receiver in receivers:
            counter = row[receiver] + k
            row[receiver] = counter
            append(Envelope(
                sender=sender,
                receiver=receiver,
                counter=counter,
                size=env_size,
                count=k,
                members=members,
                member_measurement=measurement,
            ))
        return envelopes

    def open_envelope_wave(
        self, receiver: NodeId, envelopes: Sequence[Envelope]
    ) -> List[Optional[Tuple[ProtocolMessage, ...]]]:
        # Hoist the receiver-side guard, measurement and accepted-row
        # lookups; per-envelope checks (routing, binding, freshness) run
        # in order and raise exactly where the serial loop would.
        self._enclaves[receiver].guard()
        expected = self._measurements[receiver]
        accepted = self._accepted[receiver]
        out: List[Optional[Tuple[ProtocolMessage, ...]]] = []
        append = out.append
        for envelope in envelopes:
            if envelope.receiver != receiver:
                raise IntegrityError("envelope routed to the wrong node")
            if envelope.member_measurement != expected:
                raise IntegrityError(
                    "message bound to a different program (H(pi) mismatch)"
                )
            sender = envelope.sender
            if envelope.counter <= accepted[sender]:
                raise ReplayError(
                    f"stale envelope counter {envelope.counter} from "
                    f"{sender} (highest accepted {accepted[sender]})"
                )
            accepted[sender] = envelope.counter
            append(envelope.members)
        return out


class PlainTransport(Transport):
    """No security at all — Algorithm 1's world, for attack demos only."""

    security = ChannelSecurity.NONE

    def __init__(self, enclaves: Dict[NodeId, Enclave]) -> None:
        self._enclaves = enclaves
        self._counter = 0

    def write(
        self,
        sender: NodeId,
        receiver: NodeId,
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> WireMessage:
        self._enclaves[sender].guard()
        self._counter += 1
        size = size_hint if size_hint is not None else modeled_wire_size(message)
        return WireMessage(
            sender=sender,
            receiver=receiver,
            counter=self._counter,
            size=size,
            plain=message,
            mtype=message.type,
            opaque=False,  # no encryption: the OS reads everything
        )

    def write_fanout(
        self,
        sender: NodeId,
        targets: Iterable[NodeId],
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> List[WireMessage]:
        self._enclaves[sender].guard()
        size = size_hint if size_hint is not None else modeled_wire_size(message)
        mtype = message.type
        counter = self._counter
        wires: List[WireMessage] = []
        for receiver in targets:
            counter += 1
            wires.append(
                WireMessage(
                    sender=sender,
                    receiver=receiver,
                    counter=counter,
                    size=size,
                    plain=message,
                    mtype=mtype,
                    opaque=False,
                )
            )
        self._counter = counter
        return wires

    def read(self, receiver: NodeId, wire: WireMessage) -> ProtocolMessage:
        self._enclaves[receiver].guard()
        if wire.plain is None:
            raise ProtocolError("plain wire message without plaintext")
        # Forged and replayed messages sail through: this is the point.
        if wire.receiver != receiver:
            # Even the strawman's TCP layer delivers to the addressee.
            return replace(wire, receiver=receiver).plain
        return wire.plain

    def seal_envelope(
        self,
        sender: NodeId,
        receiver: NodeId,
        members: Optional[Sequence[ProtocolMessage]],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
        encoded_bodies: Optional[Sequence[bytes]] = None,
    ) -> Envelope:
        self._enclaves[sender].guard()
        k = count if count is not None else len(members)
        self._counter += k
        return Envelope(
            sender=sender,
            receiver=receiver,
            counter=self._counter,
            size=size if size is not None else 0,
            count=k,
            members=members,
            opaque=False,
        )

    def open_envelope(
        self, receiver: NodeId, envelope: Envelope
    ) -> Optional[Tuple[ProtocolMessage, ...]]:
        self._enclaves[receiver].guard()
        # No verification of any kind: Algorithm 1's world.
        return envelope.members

    def seal_envelope_wave(
        self,
        sender: NodeId,
        receivers: Sequence[NodeId],
        members: Optional[Sequence[ProtocolMessage]],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
    ) -> List[Envelope]:
        self._enclaves[sender].guard()
        k = count if count is not None else len(members)
        env_size = size if size is not None else 0
        counter = self._counter
        envelopes: List[Envelope] = []
        for receiver in receivers:
            counter += k
            envelopes.append(Envelope(
                sender=sender,
                receiver=receiver,
                counter=counter,
                size=env_size,
                count=k,
                members=members,
                opaque=False,
            ))
        self._counter = counter
        return envelopes

    def open_envelope_wave(
        self, receiver: NodeId, envelopes: Sequence[Envelope]
    ) -> List[Optional[Tuple[ProtocolMessage, ...]]]:
        self._enclaves[receiver].guard()
        return [envelope.members for envelope in envelopes]
