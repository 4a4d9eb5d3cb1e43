"""Delivery layer: the peer channel of Fig. 4 at three fidelities.

Every transport implements the same four verbs, and every back-end that
moves protocol messages — the simulator's per-wire and round-envelope
paths and the TCP wire — seals and opens through them:

* ``write(sender, targets, message, size_hint)`` — executed conceptually
  inside the *sending* enclave: seal one multicast for each target and
  return one :class:`WireMessage` per target for the OS layer to handle;
* ``read(receiver, wire)`` — executed inside the *receiving* enclave:
  verify integrity (P2), program binding (P1), freshness (P6); raise on
  any failure so the caller records an omission instead (Thm. A.2);
* ``seal_envelope(sender, receivers, members, count, size)`` — one
  :class:`Envelope` per receiver carrying the same members: a link's
  whole round of traffic as a single crossing;
* ``open_envelope(receiver, envelope)`` — :meth:`read`'s checks for one
  envelope.

A per-wire message is not an envelope of one: the FULL per-wire
plaintext is a single ``(counter, measurement, value)`` triple, the
envelope plaintext a tuple of them, and both byte layouts are pinned.

``FullTransport`` runs the real Fig. 4 channels.  ``ModeledTransport``
keeps the identical accept/reject semantics with O(1) integer bookkeeping
per message (flat per-node counter arrays), which is what lets the scaling
benchmarks reach N = 2^10.  ``PlainTransport`` is the no-security mode for
strawman attack demonstrations: it verifies nothing.
:func:`build_transport` picks the class for a security level.
"""

from __future__ import annotations

from array import array
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
        targets: Iterable[NodeId],
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> List[WireMessage]:
        """Seal one multicast: one wire per target, in order, each on its
        link's next counter.  The per-multicast work (guard, encoding,
        sizing) is done once; ``size_hint`` is the modeled wire size when
        the caller already has it."""
        raise NotImplementedError

    def read(self, receiver: NodeId, wire: WireMessage) -> ProtocolMessage:
        raise NotImplementedError

    def seal_envelope(
        self,
        sender: NodeId,
        receivers: Iterable[NodeId],
        members: Optional[Sequence],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
    ) -> List[Envelope]:
        """Seal the same member set for each of ``receivers``, one
        envelope per link, in order.

        FULL takes the members pre-encoded (``encode(m.to_tuple())``),
        seals them with one AEAD call per link and reports the
        per-wire-equivalent logical sizes in ``Envelope.member_sizes``.
        The other fidelities carry the members as they are, with the
        engine-computed physical ``size`` (member bodies + one channel
        overhead) and an optional explicit ``count`` (the modeled ACK wave
        passes ``members=None``).  Link counters advance exactly as
        ``count`` per-message writes would, so counter state stays
        interchangeable with the per-wire path.
        """
        raise NotImplementedError

    def open_envelope(
        self, receiver: NodeId, envelope: Envelope
    ) -> Optional[Tuple]:
        """Verify one envelope (routing, integrity, freshness) and return
        its members (None when the envelope carries no plaintext objects,
        e.g. the modeled ACK wave).  Raises like :meth:`read`."""
        raise NotImplementedError

    def refresh_measurements(self) -> None:
        """Re-read enclave measurements after a session recycle.

        :meth:`RoundHost.begin_session_run` may install programs
        with a *different* measurement (a new execution re-attests from
        scratch); transports that cache measurements at construction
        override this to pick the new values up.  FULL reads the live
        enclave state, so the default is a no-op.
        """


def build_transport(
    security: ChannelSecurity,
    enclaves: Dict[NodeId, Enclave],
    group: DhGroup = MODP_2048,
) -> Transport:
    """The transport of ``security`` over ``enclaves`` — the one choice
    the simulator and the wire both make.  FULL runs every pairwise
    handshake here (``group`` is its DH group)."""
    if security is ChannelSecurity.FULL:
        return FullTransport(enclaves, group)
    if security is ChannelSecurity.MODELED:
        return ModeledTransport(enclaves)
    return PlainTransport(enclaves)


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
        targets: Iterable[NodeId],
        message: ProtocolMessage,
        size_hint: Optional[int] = None,
    ) -> List[WireMessage]:
        # Seal per receiver (each channel has its own key, counter and
        # link stream) but serialize the message body exactly once for
        # the whole fan-out.
        enclave = self._enclaves[sender]
        enclave.guard()
        measurement = enclave.measurement
        encoded = encode(message.to_tuple())
        table = self._table
        mtype = message.type
        wires: List[WireMessage] = []
        for receiver in targets:
            channel = table.get(sender, receiver)
            wire = channel.write(
                sender, message, channel.streams[sender], measurement,
                encoded_message=encoded,
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
        receivers: Iterable[NodeId],
        members: Optional[Sequence],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
    ) -> List[Envelope]:
        enclave = self._enclaves[sender]
        enclave.guard()
        measurement = enclave.measurement
        envelopes: List[Envelope] = []
        for receiver in receivers:
            channel = self._table.get(sender, receiver)
            envelopes.append(channel.write_envelope(
                sender, members, channel.streams[sender], measurement
            ))
        return envelopes

    def open_envelope(
        self, receiver: NodeId, envelope: Envelope
    ) -> Tuple[ProtocolMessage, ...]:
        enclave = self._enclaves[receiver]
        enclave.guard()
        channel = self._table.get(envelope.sender, receiver)
        return channel.read_envelope(receiver, envelope)


class ModeledTransport(Transport):
    """Size-accurate, semantics-accurate channel model.

    Per ordered pair ``(s, r)`` it tracks a send counter and the highest
    counter accepted by the reader; tampered flags, copies re-addressed
    off the link they were sealed for and measurement mismatches reject
    exactly as the real channel's MAC and binding checks do.
    """

    security = ChannelSecurity.MODELED
    #: Modeled ciphertext: the OS layer must not read what it carries.
    _opaque = True

    def __init__(self, enclaves: Dict[NodeId, Enclave]) -> None:
        self._enclaves = enclaves
        n = max(enclaves) + 1 if enclaves else 0
        self._measurements: List[Optional[bytes]] = [None] * n
        self.refresh_measurements()
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
        opaque = self._opaque
        wires: List[WireMessage] = []
        append = wires.append
        for receiver in targets:
            counter = row[receiver] + 1
            row[receiver] = counter
            append(
                WireMessage(
                    sender, receiver, counter, size, None, message,
                    measurement, False, mtype, opaque, sender, receiver,
                )
            )
        return wires

    def read(self, receiver: NodeId, wire: WireMessage) -> ProtocolMessage:
        self._enclaves[receiver].guard()
        if wire.receiver != receiver:
            raise IntegrityError("wire message routed to the wrong node")
        sender = wire.sender
        if (wire.tampered or wire.sealed_by != sender
                or wire.sealed_for != receiver):
            raise IntegrityError("MAC verification failed (modeled forgery)")
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
        # The enclave's own copy: the OS-facing ``plain`` is sealed.
        plain = wire._plain
        if plain is None:
            raise ProtocolError("modeled wire message without plaintext")
        return plain

    def seal_envelope(
        self,
        sender: NodeId,
        receivers: Iterable[NodeId],
        members: Optional[Sequence],
        *,
        count: Optional[int] = None,
        size: Optional[int] = None,
    ) -> List[Envelope]:
        # One guard, one measurement lookup and one counter-row borrow for
        # the whole set of links; each link's counter advances by the
        # member count, as that many sequential writes would.
        self._enclaves[sender].guard()
        k = count if count is not None else len(members)
        env_size = size if size is not None else 0
        row = self._send[sender]
        measurement = self._measurements[sender]
        opaque = self._opaque
        envelopes: List[Envelope] = []
        append = envelopes.append
        for receiver in receivers:
            counter = row[receiver] + k
            row[receiver] = counter
            append(Envelope(
                sender, receiver, counter, env_size, k,
                None, members, measurement, None, opaque, sender, receiver,
            ))
        return envelopes

    def open_envelope(
        self, receiver: NodeId, envelope: Envelope
    ) -> Optional[Tuple]:
        self._enclaves[receiver].guard()
        if envelope.receiver != receiver:
            raise IntegrityError("envelope routed to the wrong node")
        if (envelope.sealed_by != envelope.sender
                or envelope.sealed_for != receiver):
            raise IntegrityError("MAC verification failed (modeled forgery)")
        if envelope.member_measurement != self._measurements[receiver]:
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


class PlainTransport(ModeledTransport):
    """No security at all — Algorithm 1's world, for attack demos only.

    It writes and seals as the modeled channel does, but in the clear
    (the OS reads everything), and its reads verify nothing.
    """

    security = ChannelSecurity.NONE
    _opaque = False

    def read(self, receiver: NodeId, wire: WireMessage) -> ProtocolMessage:
        self._enclaves[receiver].guard()
        plain = wire._plain
        if plain is None:
            raise ProtocolError("plain wire message without plaintext")
        # Forged, replayed and misrouted messages sail through: this is
        # the point (even the strawman's TCP layer delivers to the
        # addressee).
        return plain

    def open_envelope(
        self, receiver: NodeId, envelope: Envelope
    ) -> Optional[Tuple]:
        self._enclaves[receiver].guard()
        return envelope.members
