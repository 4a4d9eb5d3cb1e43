"""``PeerCh_sgx`` — the blinded channel between two enclaves (Fig. 4).

:class:`SecureChannel` executes the construction byte-for-byte: attested
DH key exchange at Init, SHA-256-CTR + HMAC encrypt-then-MAC at Write,
MAC / measurement / counter verification at Read.  This is the FULL
security level.  The MODELED level keeps the *semantics* — identical
acceptance and rejection behaviour, identical wire sizes
(:func:`modeled_wire_size`: serialized plaintext + constant channel
overhead) — without paying per-message hashing; it lives in
:class:`repro.net.transport.ModeledTransport`, where forgery attempts are
flags on the wire object (an adversary without the keys can only ever
produce a wire message that fails verification, so a flag is a faithful
model).

The invariant both levels enforce: *the receiving enclave only ever sees a
message that the sending enclave's program actually wrote, in order, at
most once* — everything else is surfaced as an omission.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import CHANNEL_OVERHEAD_BYTES, ChannelSecurity
from repro.common.errors import (
    ConfigurationError,
    IntegrityError,
    OpaqueWireError,
    ProtocolError,
)
from repro.common.rng import DeterministicRNG
from repro.common.serialization import compose_tuple, decode, encode
from repro.common.types import NodeId, ProtocolMessage
from repro.channel.replay import ReplayGuard
from repro.crypto.aead import AEAD, AeadKey
from repro.crypto.dh import DhGroup, DiffieHellman, MODP_2048
from repro.crypto.kdf import hkdf
from repro.crypto.mac import KEY_SIZE
from repro.obs.metrics import PROFILER
from repro.sgx.enclave import Enclave

#: Length framing added by the transport on top of the sealed body.
_FRAMING_BYTES = 8


class _SealedBody:
    """:attr:`WireMessage.plain`: the modeled plaintext, which only a
    transparent wire lets the OS read.

    On an opaque wire that carries a body (MODELED) reading ``plain``
    raises :class:`OpaqueWireError`; the receiving enclave's transport
    reads its own copy, ``_plain``.  A FULL wire has no plaintext to
    hide (``plain`` is None).  ``dataclasses.replace`` reads every field,
    so OS code copies an opaque wire with :func:`copy.copy` or
    :meth:`WireMessage.tampered_copy` instead.
    """

    def __get__(self, wire, owner=None):
        if wire is None:
            return self     # the dataclass default: see __set__
        body = wire._plain
        if body is not None and wire.opaque:
            raise OpaqueWireError(
                f"wire {wire.sender}->{wire.receiver} #{wire.counter} is "
                "opaque: the OS sees ciphertext, not the message"
            )
        return body

    def __set__(self, wire, body) -> None:
        wire._plain = None if body is self else body


@dataclass
class WireMessage:
    """The unit the untrusted OS layer moves around.

    In FULL mode ``sealed`` holds real ciphertext bytes; in MODELED mode
    ``plain`` holds the plaintext object, sealed from the OS: only the
    routing metadata, counter, size and flags are readable on an opaque
    wire, mirroring what a real OS can do with ciphertext.
    """

    sender: NodeId
    receiver: NodeId
    counter: int
    size: int
    sealed: Optional[bytes] = None
    plain: Optional[ProtocolMessage] = field(
        default=_SealedBody(), repr=False, compare=False
    )
    plain_measurement: Optional[bytes] = None
    tampered: bool = False
    # Message type exposed for *accounting only* (the traffic statistics
    # classify bytes by type); adversary code must not branch on it except
    # where the paper grants identity/metadata visibility.
    mtype: Optional[object] = None
    # True when the body is ciphertext (or modeled as such): adversaries
    # must treat `plain` as unreadable.  Only the NONE-security transport
    # produces transparent wires.
    opaque: bool = True
    # The link a modeled channel sealed the message on, sender and
    # receiver: the identity of the MAC key, which FULL's real MAC binds.
    # The OS-facing routing fields above can be rewritten; these cannot.
    sealed_by: Optional[NodeId] = None
    sealed_for: Optional[NodeId] = None

    def tampered_copy(self) -> "WireMessage":
        """What an adversary flipping ciphertext bits produces (attack A2)."""
        tampered = copy(self)
        tampered.tampered = True
        if self.sealed is not None:
            body = bytearray(self.sealed)
            body[0] ^= 0xFF
            tampered.sealed = bytes(body)
        return tampered


@dataclass
class Envelope:
    """One physical link crossing: all traffic sharing a
    ``(sender, receiver, round)`` triple, coalesced.

    In a lockstep round everything node *i* sends node *j* is logically one
    transmission, so the engine's envelope path seals it as one unit.  In
    FULL mode ``sealed`` holds a single AEAD ciphertext over every member
    message (each member keeps its own channel counter inside, so replay
    protection and the *logical* per-member wire sizes match the per-wire
    path exactly); in MODELED/NONE mode ``members`` carries the plaintext
    objects, trusted-opaque exactly like :attr:`WireMessage.plain`
    (``None`` for the modeled ACK wave, where the engine aggregates digests
    without materializing per-ACK objects).

    ``size`` is the *physical* byte count of the crossing — member bodies
    plus one channel overhead, instead of one overhead per message.
    ``member_sizes`` (FULL only) are the logical per-member sizes, equal to
    what per-message :meth:`SecureChannel.write` calls would have produced.
    """

    sender: NodeId
    receiver: NodeId
    counter: int
    size: int
    count: int
    sealed: Optional[bytes] = None
    members: Optional[Sequence[ProtocolMessage]] = None
    member_measurement: Optional[bytes] = None
    member_sizes: Optional[List[int]] = None
    opaque: bool = True
    #: The link a modeled channel sealed it on (see WireMessage).
    sealed_by: Optional[NodeId] = None
    sealed_for: Optional[NodeId] = None


class SecureChannel:
    """A bidirectional blinded channel between enclaves ``a`` and ``b``
    (FULL security; built by :meth:`establish`)."""

    def __init__(
        self,
        a: NodeId,
        b: NodeId,
        *,
        key: AeadKey,
        measurement_a: bytes,
        measurement_b: bytes,
        initial_counters: Tuple[int, int],
        streams: Tuple[DeterministicRNG, DeterministicRNG],
    ) -> None:
        self.a = a
        self.b = b
        self._aead = AEAD(key)
        self._measurements = {a: measurement_a, b: measurement_b}
        #: Each sender's link stream: the randomness of every seal it
        #: makes on this channel, for the channel's whole life.
        self.streams = dict(zip((a, b), streams))
        # Per-direction send counters and replay guards (P6).
        init_ab, init_ba = initial_counters
        self._send_counter = {a: init_ab, b: init_ba}
        self._guards = {a: ReplayGuard(init_ab), b: ReplayGuard(init_ba)}
        # Per-sender constants of the FULL framing: the direction label the
        # AEAD binds, and the last measurement seen with its encoding (an
        # enclave's measurement changes only when a session relaunches it).
        self._direction = {a: f"{a}->{b}".encode(), b: f"{b}->{a}".encode()}
        self._measurement_enc: Dict[NodeId, Tuple[bytes, bytes]] = {}

    # ------------------------------------------------------------------
    # Init — attested key exchange (Fig. 4's Init + setup phase of Sec. 4.1)
    # ------------------------------------------------------------------
    @staticmethod
    def establish(
        enclave_a: Enclave,
        enclave_b: Enclave,
        security: ChannelSecurity,
        group: DhGroup = MODP_2048,
    ) -> "SecureChannel":
        """Run the setup-phase handshake between two enclaves.

        Both sides verify the other's attestation quote over its DH public
        value before deriving keys; a wrong program measurement aborts with
        :class:`AttestationError` (enforcing P1).  Each side draws from its
        own link stream, forked off its RDRAND by the peer's id (a fork
        draws nothing): its DH key pair, its quote's signature nonce, its
        initial sequence number (P6) and, later, every AEAD nonce it seals
        on the link.  The protocol's stream never sees a channel draw.
        Initial sequence numbers lie in ``[2**24, 2**31]``, so their
        encoded width does not depend on the draw.  Only
        ``ChannelSecurity.FULL`` has a channel to establish; the other
        levels are :mod:`repro.net.transport` models.
        """
        if security is not ChannelSecurity.FULL:
            raise ConfigurationError(
                f"a SecureChannel is FULL security, not {security.name}"
            )
        enclave_a.guard()
        enclave_b.guard()
        rng_a = enclave_a.rdrand.rng().fork(("channel", enclave_b.node_id))
        rng_b = enclave_b.rdrand.rng().fork(("channel", enclave_a.node_id))

        dh_a = DiffieHellman(rng_a, group)
        dh_b = DiffieHellman(rng_b, group)
        pair_a = dh_a.generate_keypair()
        pair_b = dh_b.generate_keypair()
        width = group.byte_width
        quote_a = enclave_a.quote(pair_a.public.to_bytes(width, "big"), rng_a)
        quote_b = enclave_b.quote(pair_b.public.to_bytes(width, "big"), rng_b)
        # Each side checks the peer runs the same program (P1/F3).
        enclave_a.verify_peer_quote(quote_b, enclave_a.measurement)
        enclave_b.verify_peer_quote(quote_a, enclave_b.measurement)
        secret = dh_a.shared_secret(pair_a, pair_b.public)
        secret_check = dh_b.shared_secret(pair_b, pair_a.public)
        if secret != secret_check:
            raise ProtocolError("DH exchange produced mismatched secrets")
        label = f"channel|{min(enclave_a.node_id, enclave_b.node_id)}|" \
            f"{max(enclave_a.node_id, enclave_b.node_id)}"
        material = hkdf(secret, info=label.encode(), length=2 * KEY_SIZE)
        key = AeadKey(enc_key=material[:KEY_SIZE], mac_key=material[KEY_SIZE:])

        init_ab = rng_a.randint(2**24, 2**31)
        init_ba = rng_b.randint(2**24, 2**31)
        return SecureChannel(
            enclave_a.node_id,
            enclave_b.node_id,
            key=key,
            measurement_a=enclave_a.measurement,
            measurement_b=enclave_b.measurement,
            initial_counters=(init_ab, init_ba),
            streams=(rng_a, rng_b),
        )

    # ------------------------------------------------------------------
    def _peer_of(self, node: NodeId) -> NodeId:
        if node == self.a:
            return self.b
        if node == self.b:
            return self.a
        raise ProtocolError(f"node {node} is not an endpoint of this channel")

    def next_counter(self, sender: NodeId) -> int:
        self._send_counter[sender] += 1
        return self._send_counter[sender]

    def _encoded_measurement(self, sender: NodeId, measurement: bytes) -> bytes:
        cached = self._measurement_enc.get(sender)
        if cached is None or cached[0] != measurement:
            cached = self._measurement_enc[sender] = (
                measurement, encode(measurement)
            )
        return cached[1]

    # ------------------------------------------------------------------
    # Write — executed inside the sending enclave
    # ------------------------------------------------------------------
    def write(
        self,
        sender: NodeId,
        message: ProtocolMessage,
        rng: DeterministicRNG,
        measurement: bytes,
        encoded_message: Optional[bytes] = None,
    ) -> WireMessage:
        """Seal a protocol value for the peer (Fig. 4's Write).

        ``encoded_message`` may carry ``encode(message.to_tuple())``
        computed once per multicast; the plaintext is then composed from
        it instead of re-serializing the message for every receiver (the
        counter and measurement still differ per channel).
        """
        receiver = self._peer_of(sender)
        counter = self.next_counter(sender)
        t0 = perf_counter() if PROFILER.enabled else None
        if encoded_message is None:
            plaintext = encode((counter, measurement, message.to_tuple()))
        else:
            plaintext = compose_tuple((
                encode(counter),
                self._encoded_measurement(sender, measurement),
                encoded_message,
            ))
        sealed = self._aead.seal(
            plaintext, rng, associated_data=self._direction[sender]
        )
        if t0 is not None:
            PROFILER.observe("channel.write_s", perf_counter() - t0)
        return WireMessage(
            sender=sender,
            receiver=receiver,
            counter=counter,
            size=len(sealed) + _FRAMING_BYTES,
            sealed=sealed,
        )

    # ------------------------------------------------------------------
    # Read — executed inside the receiving enclave
    # ------------------------------------------------------------------
    def read(self, receiver: NodeId, wire: WireMessage) -> ProtocolMessage:
        """Verify and open a wire message (Fig. 4's Read).

        Raises :class:`IntegrityError` for tampering / wrong program and
        :class:`ReplayError` for stale counters; the transport treats both
        as omissions (Theorem A.2).
        """
        sender = self._peer_of(receiver)
        if wire.receiver != receiver or wire.sender != sender:
            raise IntegrityError("wire message routed to the wrong channel")
        t0 = perf_counter() if PROFILER.enabled else None
        plaintext = self._aead.open(
            wire.sealed, associated_data=self._direction[sender]
        )
        counter, measurement, raw = decode(plaintext)
        if t0 is not None:
            PROFILER.observe("channel.read_s", perf_counter() - t0)
        if measurement != self._measurements[sender]:
            raise IntegrityError("message bound to a different program (H(pi) mismatch)")
        self._guards[sender].check_and_update(counter)
        return ProtocolMessage.from_tuple(raw)

    # ------------------------------------------------------------------
    # Envelope write/read — one AEAD call per link per round
    # ------------------------------------------------------------------
    def write_envelope(
        self,
        sender: NodeId,
        bodies: Sequence[bytes],
        rng: DeterministicRNG,
        measurement: bytes,
    ) -> Envelope:
        """Seal every queued message for the peer as one envelope.

        ``bodies`` are the pre-encoded message tuples
        (``encode(message.to_tuple())``), in queue order.  Each member is
        framed exactly as a per-message :meth:`write` would frame it —
        ``(counter, measurement, value)`` with this channel's next send
        counter — so the per-member *logical* sizes reported in
        ``member_sizes`` equal the per-wire path's sizes byte for byte;
        only the AEAD seal (and hence the enclave's nonce draws) is
        amortized over the whole link.
        """
        receiver = self._peer_of(sender)
        t0 = perf_counter() if PROFILER.enabled else None
        measurement_enc = self._encoded_measurement(sender, measurement)
        pieces: List[bytes] = []
        member_sizes: List[int] = []
        for body in bodies:
            counter = self.next_counter(sender)
            piece = compose_tuple((encode(counter), measurement_enc, body))
            pieces.append(piece)
            member_sizes.append(len(piece) + AEAD.OVERHEAD + _FRAMING_BYTES)
        plaintext = compose_tuple(pieces)
        sealed = self._aead.seal(
            plaintext, rng, associated_data=self._direction[sender]
        )
        if t0 is not None:
            PROFILER.observe("channel.write_s", perf_counter() - t0)
        return Envelope(
            sender=sender,
            receiver=receiver,
            counter=self._send_counter[sender],
            size=len(sealed) + _FRAMING_BYTES,
            count=len(pieces),
            sealed=sealed,
            member_sizes=member_sizes,
        )

    def read_envelope(self, receiver: NodeId, envelope: Envelope) -> Tuple[ProtocolMessage, ...]:
        """Verify and open an envelope: one AEAD open, then the per-member
        measurement and freshness checks of :meth:`read` in member order."""
        sender = self._peer_of(receiver)
        if envelope.receiver != receiver or envelope.sender != sender:
            raise IntegrityError("envelope routed to the wrong channel")
        t0 = perf_counter() if PROFILER.enabled else None
        plaintext = self._aead.open(
            envelope.sealed, associated_data=self._direction[sender]
        )
        triples = decode(plaintext)
        if t0 is not None:
            PROFILER.observe("channel.read_s", perf_counter() - t0)
        expected_measurement = self._measurements[sender]
        guard = self._guards[sender]
        messages = []
        for counter, measurement, raw in triples:
            if measurement != expected_measurement:
                raise IntegrityError(
                    "message bound to a different program (H(pi) mismatch)"
                )
            guard.check_and_update(counter)
            messages.append(ProtocolMessage.from_tuple(raw))
        return tuple(messages)


def modeled_wire_size(message: ProtocolMessage) -> int:
    """Wire size of ``message`` in MODELED mode.

    Serialized plaintext plus the constant channel overhead (nonce, MAC
    tag, measurement binding, framing) — calibrated so an ERB INIT lands
    near the ~100 B and an ACK near the ~80 B reported in Section 6.1.
    """
    if PROFILER.enabled:
        t0 = perf_counter()
        body = len(encode(message.to_tuple()))
        PROFILER.observe("serialize.encode_s", perf_counter() - t0)
        return body + CHANNEL_OVERHEAD_BYTES
    return len(encode(message.to_tuple())) + CHANNEL_OVERHEAD_BYTES


class ChannelTable:
    """All pairwise channels of one simulated network."""

    def __init__(self) -> None:
        self._channels: Dict[Tuple[NodeId, NodeId], SecureChannel] = {}

    @staticmethod
    def _key(a: NodeId, b: NodeId) -> Tuple[NodeId, NodeId]:
        return (a, b) if a <= b else (b, a)

    def add(self, channel: SecureChannel) -> None:
        self._channels[self._key(channel.a, channel.b)] = channel

    def get(self, a: NodeId, b: NodeId) -> SecureChannel:
        try:
            return self._channels[self._key(a, b)]
        except KeyError:
            raise ProtocolError(f"no channel between {a} and {b}") from None

    def __len__(self) -> int:
        return len(self._channels)

    def __contains__(self, pair: Tuple[NodeId, NodeId]) -> bool:
        return self._key(*pair) in self._channels
