"""Core value types shared by every protocol.

The on-the-wire value format follows Section 4 of the paper::

    val := <type, id, seq, m, rnd>

where ``type`` is one of ``INIT | ECHO | ACK`` (the ERNG protocols add
``CHOSEN`` and ``FINAL``, the baselines add ``SIGNED`` and ``VALUE``), ``id``
is the initiator's identifier, ``seq`` the initiator's sequence number for
this protocol instance, ``m`` the payload and ``rnd`` the sender's current
round number.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple

# A peer identifier.  The paper gives every peer ``p_i`` an identifier
# ``id_i``; we use small integers ``0..N-1`` which double as indices into
# the simulator's node table.
NodeId = int

# A 1-based synchronous round number (``rnd`` in the paper).
Round = int


class MessageType(enum.Enum):
    """Wire-level message types used across all protocols in the paper."""

    INIT = "INIT"          # initiator starts a broadcast        (Alg. 2)
    ECHO = "ECHO"          # relay of a received broadcast value (Alg. 2)
    ACK = "ACK"            # per-message acknowledgement         (Alg. 2, P4)
    CHOSEN = "CHOSEN"      # cluster-membership announcement     (Alg. 6)
    FINAL = "FINAL"        # cluster's final random-number set   (Alg. 6)
    SIGNED = "SIGNED"      # signature-chain message             (Alg. 4, RBsig)
    VALUE = "VALUE"        # liveness/value broadcast            (Alg. 5, RBearly)

    # Members are singletons compared by identity, so the identity hash
    # is a valid one, and it runs in C: ``Enum.__hash__`` is Python code,
    # paid on every per-type Counter update of the traffic ledger.
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MessageType.{self.name}"


@dataclass(frozen=True)
class ProtocolMessage:
    """The plaintext protocol value ``val = <type, id, seq, m, rnd>``.

    ``instance`` identifies which protocol instance the value belongs to;
    the ERNG protocols multiplex up to N concurrent ERB instances over the
    same peer channels, and the instance tag is what keeps their sequence
    spaces apart.  ``extra`` carries protocol-specific auxiliary data (e.g.
    the signature chain of RBsig) and is included in the serialized form.
    """

    type: MessageType
    initiator: NodeId
    seq: int
    payload: object
    rnd: Round
    instance: str = ""
    extra: Tuple = field(default=())

    def to_tuple(self) -> tuple:
        """Deterministic tuple form used for serialization and hashing."""
        return (
            self.type.value,
            self.initiator,
            self.seq,
            self.payload,
            self.rnd,
            self.instance,
            self.extra,
        )

    @staticmethod
    def from_tuple(raw: tuple) -> "ProtocolMessage":
        if not isinstance(raw, tuple) or len(raw) != 7:
            raise ValueError(f"malformed ProtocolMessage tuple: {raw!r}")
        type_value, initiator, seq, payload, rnd, instance, extra = raw
        return ProtocolMessage(
            type=MessageType(type_value),
            initiator=initiator,
            seq=seq,
            payload=payload,
            rnd=rnd,
            instance=instance,
            extra=tuple(extra),
        )

    def with_round(self, rnd: Round) -> "ProtocolMessage":
        """Copy of this value re-stamped with round ``rnd``."""
        return ProtocolMessage(
            type=self.type,
            initiator=self.initiator,
            seq=self.seq,
            payload=self.payload,
            rnd=rnd,
            instance=self.instance,
            extra=self.extra,
        )
