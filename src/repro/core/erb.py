"""ERB — Enclaved Reliable Broadcast (Algorithm 2).

The protocol, for an initiator ``id_init`` broadcasting ``m`` with sequence
number ``seq_init``:

* **Initialization** — round 1: the initiator multicasts
  ``<INIT, id_init, seq_init, m, 1>`` and adds itself to ``S_echo``.
* **Echo** — a node receiving a *valid* INIT or ECHO for the first time
  acknowledges it, stores ``m``, and multicasts
  ``<ECHO, id_init, seq_init, m, rnd+1>`` at the start of the next round
  (the ``Wait(rnd)`` in the pseudocode).  Valid means: the embedded round
  equals the receiver's current round (lockstep, P5) and the sequence
  number equals the expected one (freshness, P6).  Invalid messages are
  silently treated as omitted — no ACK.
* **Decision** — once ``|S_echo| >= N - t`` distinct senders are known the
  node accepts ``m``; if that never happens by the end of round ``t+2`` it
  accepts ``⊥``.
* **Halt-on-divergence** — every ``Multicast`` must collect at least ``t``
  ACKs, otherwise the sender's enclave executes ``Halt`` and the node
  churns out of the network (P4).  The simulator engine enforces this for
  every multicast automatically.

Complexities (Theorem C.1): round ``min{f+2, t+2}``, communication
``O(N²)`` — the properties P1-P6 remove the need for signatures or
per-round liveness broadcasts that push classic protocols to ``O(N³)``.

:class:`ErbCore` carries the per-instance state so the ERNG protocols can
multiplex many concurrent broadcasts; :class:`ErbProgram` wraps a single
core as a runnable enclave program.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.common.config import SimulationConfig
from repro.common.types import MessageType, NodeId, ProtocolMessage
from repro.net.simulator import RunResult, SynchronousNetwork
from repro.sgx.program import EnclaveProgram


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unset>"


_UNSET = _Unset()

#: The distinguished "no message" output (the paper's ⊥).
BOTTOM = None


class ErbCore:
    """State machine for one ERB instance at one node.

    Parameters:
        instance: tag multiplexing this broadcast over the shared channels.
        initiator: the broadcasting node's id.
        expected_seq: the sequence number all peers expect for this
            instance (exchanged during the setup phase; P6).
        group_size: number of participants (N, or the cluster size when
            run inside the optimized ERNG).
        fault_bound: tolerated byzantine count t within the group.
        participants: explicit participant set for cluster runs; ``None``
            means the whole network (topology neighbours).
        ack_threshold: minimum ACKs per multicast before halting; defaults
            to ``fault_bound`` per Algorithm 2.
    """

    def __init__(
        self,
        instance: str,
        initiator: NodeId,
        expected_seq: int,
        group_size: int,
        fault_bound: int,
        participants: Optional[Sequence[NodeId]] = None,
        ack_threshold: Optional[int] = None,
    ) -> None:
        self.instance = instance
        self.initiator = initiator
        self.expected_seq = expected_seq
        self.group_size = group_size
        self.fault_bound = fault_bound
        self.participants: Optional[Tuple[NodeId, ...]] = (
            tuple(participants) if participants is not None else None
        )
        # None defers to the simulation-wide config.ack_threshold (which
        # defaults to t, Algorithm 2's rule); cluster runs pass their own.
        self.ack_threshold = ack_threshold
        self.m_hat: object = _UNSET       # the paper's m̂ (⊥ until first value)
        self.s_echo: set = set()          # S_echo: distinct known senders
        self.output: object = _UNSET
        self.decided_round: Optional[int] = None

    # ------------------------------------------------------------------
    @property
    def accept_quorum(self) -> int:
        """``N - t`` distinct senders needed to accept."""
        return self.group_size - self.fault_bound

    @property
    def decided(self) -> bool:
        return self.output is not _UNSET

    # ------------------------------------------------------------------
    def begin(self, ctx, payload: object) -> None:
        """Initiator's first step: multicast INIT (call in round begin)."""
        if ctx.node_id != self.initiator:
            raise ValueError("only the initiator may begin a broadcast")
        self.m_hat = payload
        self.s_echo.add(self.initiator)
        init = ProtocolMessage(
            type=MessageType.INIT,
            initiator=self.initiator,
            seq=self.expected_seq,
            payload=payload,
            rnd=ctx.round,
            instance=self.instance,
        )
        ctx.multicast(
            init, targets=self.participants, threshold=self.ack_threshold
        )
        self._check_accept(ctx)

    def handle_message(self, ctx, sender: NodeId, message: ProtocolMessage) -> bool:
        """Process one delivered INIT/ECHO; returns False if not ours."""
        if message.instance != self.instance:
            return False
        if message.type is MessageType.INIT:
            self._on_init(ctx, sender, message)
            return True
        if message.type is MessageType.ECHO:
            self._on_echo(ctx, sender, message)
            return True
        return False

    def handle_batch(
        self, ctx, members: Sequence[Tuple[NodeId, ProtocolMessage]]
    ) -> int:
        """Process ``(sender, message)`` members in order as
        :meth:`handle_message` would one by one — the same validity,
        payload and INIT/ECHO rules, the same ACKs (through one
        ``ctx.acknowledge_all``) and the same ``m_hat`` and ``S_echo`` —
        and check the quorum once, at the end.  Members of another
        instance or type are not ours and are skipped.

        One thing is left to the caller: the ECHO of a value adopted here
        is not staged.  Returns the index of the member whose value was
        adopted, or -1; the caller calls :meth:`stage_echo`, in batch
        order when it interleaves several cores' members.
        """
        rnd = ctx.round
        instance, seq, initiator = (
            self.instance, self.expected_seq, self.initiator
        )
        echo_type, init_type = MessageType.ECHO, MessageType.INIT
        m_hat = self.m_hat
        senders = self.s_echo
        acks = []
        adopted = None
        for member in members:
            sender, message = member
            if (
                message.rnd != rnd
                or message.seq != seq
                or message.initiator != initiator
                or message.instance != instance
            ):
                continue
            mtype = message.type
            if mtype is echo_type:
                if m_hat is _UNSET:
                    m_hat, adopted = message.payload, member
                elif message.payload != m_hat:
                    continue
                senders.add(sender)
            elif mtype is not init_type or sender != initiator:
                continue
            elif m_hat is _UNSET:
                m_hat, adopted = message.payload, member
                senders.add(initiator)
            acks.append(member)
        if not acks:
            return -1
        ctx.acknowledge_all(acks)
        if adopted is not None:
            self.m_hat = m_hat
            senders.add(ctx.node_id)
        self._check_accept(ctx)
        return -1 if adopted is None else members.index(adopted)

    def finish(self, ctx) -> None:
        """Deadline (end of round t+2): accept ⊥ if the quorum never came."""
        if not self.decided:
            self.output = BOTTOM
            self.decided_round = ctx.round

    # ------------------------------------------------------------------
    def _valid(self, ctx, message: ProtocolMessage) -> bool:
        # Lockstep round check (P5) + sequence freshness (P6) + binding to
        # this instance's initiator.  A failed check means no ACK: the
        # message is treated exactly as if it had been omitted.
        return (
            message.rnd == ctx.round
            and message.seq == self.expected_seq
            and message.initiator == self.initiator
        )

    def _on_init(self, ctx, sender: NodeId, message: ProtocolMessage) -> None:
        if sender != self.initiator or not self._valid(ctx, message):
            return
        ctx.acknowledge(sender, message)
        if self.m_hat is _UNSET:
            self.m_hat = message.payload
            self.s_echo.add(self.initiator)
            self.s_echo.add(ctx.node_id)
            self.stage_echo(ctx)
        self._check_accept(ctx)

    def _on_echo(self, ctx, sender: NodeId, message: ProtocolMessage) -> None:
        if not self._valid(ctx, message):
            return
        if self.m_hat is not _UNSET and message.payload != self.m_hat:
            # Impossible under blinded channels (forgery is rejected at the
            # channel); defensive for NONE-mode misuse.
            return
        ctx.acknowledge(sender, message)
        if self.m_hat is _UNSET:
            self.m_hat = message.payload
            self.s_echo.add(ctx.node_id)
            self.stage_echo(ctx)
        self.s_echo.add(sender)
        self._check_accept(ctx)

    def stage_echo(self, ctx) -> None:
        """Stage the ECHO of ``m_hat`` for the next round (``Wait``)."""
        echo = ProtocolMessage(
            type=MessageType.ECHO,
            initiator=self.initiator,
            seq=self.expected_seq,
            payload=self.m_hat,
            rnd=0,  # stamped by the engine at transmission (next round)
            instance=self.instance,
        )
        ctx.multicast(
            echo, targets=self.participants, threshold=self.ack_threshold
        )

    def _check_accept(self, ctx) -> None:
        if not self.decided and len(self.s_echo) >= self.accept_quorum:
            self.output = self.m_hat
            self.decided_round = ctx.round
            tracer = getattr(ctx, "tracer", None)
            if tracer is not None and tracer.enabled:
                tracer.protocol(
                    "erb_accept",
                    node=ctx.node_id,
                    rnd=ctx.round,
                    instance=self.instance,
                    senders=len(self.s_echo),
                    quorum=self.accept_quorum,
                )


class ErbProgram(EnclaveProgram):
    """A single reliable broadcast as a runnable enclave program."""

    PROGRAM_NAME = "erb"
    PROGRAM_VERSION = "1"

    #: Spontaneous activity is round 1 (initiator's INIT) and the round
    #: bound's ⊥ deadline; everything in between is delivery-driven
    #: (echoes and decisions happen in ``on_message``, and the engine
    #: re-wakes delivered nodes for the round-end publish).
    SPARSE_AWARE = True

    def __init__(
        self,
        node_id: NodeId,
        initiator: NodeId,
        n: int,
        t: int,
        seq: int = 1,
        message: object = None,
        instance: str = "erb",
    ) -> None:
        super().__init__()
        self.node_id = node_id
        self.initiator = initiator
        self.n = n
        self.t = t
        self.broadcast_message = message
        self.core = ErbCore(
            instance=instance,
            initiator=initiator,
            expected_seq=seq,
            group_size=n,
            fault_bound=t,
        )

    @property
    def round_bound(self) -> int:
        """Worst-case rounds: t + 2."""
        return self.t + 2

    def on_round_begin(self, ctx) -> None:
        if ctx.round == 1 and ctx.node_id == self.initiator:
            self.core.begin(ctx, self.broadcast_message)
            self._maybe_publish(ctx)

    def on_message(self, ctx, sender: NodeId, message: ProtocolMessage) -> None:
        if self.core.handle_message(ctx, sender, message):
            self._maybe_publish(ctx)

    def on_round_end(self, ctx) -> None:
        if ctx.round >= self.round_bound:
            self.core.finish(ctx)
        self._maybe_publish(ctx)

    def on_protocol_end(self, ctx) -> None:
        self.core.finish(ctx)
        self._maybe_publish(ctx)

    def sparse_wake_round(self, rnd: int):
        if self.has_output:
            return None
        return max(rnd + 1, self.round_bound)

    def _maybe_publish(self, ctx) -> None:
        if self.core.decided and not self.has_output:
            self._accept(ctx, self.core.output)


def run_erb(
    config: SimulationConfig,
    initiator: NodeId,
    message: object,
    behaviors: Optional[Dict[NodeId, object]] = None,
    seq: int = 1,
    topology=None,
) -> RunResult:
    """Build a network and execute one ERB broadcast to completion."""
    config.require_erb_bound()

    def factory(node_id: NodeId) -> ErbProgram:
        return ErbProgram(
            node_id=node_id,
            initiator=initiator,
            n=config.n,
            t=config.t,
            seq=seq,
            message=message if node_id == initiator else None,
        )

    network = SynchronousNetwork(
        config, factory, behaviors=behaviors, topology=topology
    )
    return network.run(max_rounds=config.t + 2)
