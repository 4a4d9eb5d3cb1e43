"""The synchronous round-based simulation engine.

One :class:`SynchronousNetwork` drives N peers through lockstep rounds of
length ``2*delta`` (assumptions S2/S3).  Each peer is a :class:`Node`:
an :class:`Enclave` running an :class:`EnclaveProgram` (trusted) plus an
optional adversarial :class:`OSBehavior` (untrusted).

The round itself — Algorithm 2's begin, transmit, deliver, ack wave,
halt check (P4) and end, then the early stop once every live node has an
output, or ``on_protocol_end`` (⊥ for the undecided) at the round bound —
is written once, in :meth:`RoundHost._rounds`.  An execution environment
is a :class:`RoundBackend`: where hooks run and how messages move.  Two
live here: :class:`_PerWireRounds` (one wire per message; OS behaviours
filter each) and :class:`_EnvelopeRounds` (honest untraced-or-non-FULL
runs: all messages sharing a ``(sender, receiver, round)`` triple cross
as one :class:`~repro.channel.peer_channel.Envelope`, with logical
traffic statistics, outputs, halted sets and decided rounds byte-identical
to per-wire).  The sharded coordinator (:mod:`repro.net.parallel`) and
the TCP daemon (:mod:`repro.net.wire`) are the other two.
"""

from __future__ import annotations

import logging
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

from repro.adversary.behaviors import OSBehavior
from repro.adversary.classification import ActionTrace, trace_from_wire_events
from repro.channel.peer_channel import Envelope, WireMessage, modeled_wire_size
from repro.common.config import (
    CHANNEL_OVERHEAD_BYTES,
    ChannelSecurity,
    SimulationConfig,
)
from repro.common.errors import (
    ConfigurationError,
    IntegrityError,
    ProtocolError,
    ReplayError,
    StaleRoundError,
)
from repro.common.rng import DeterministicRNG
from repro.common.types import MessageType, NodeId, ProtocolMessage, Round
from repro.common.serialization import encode
from repro.crypto.dh import MODP_768, MODP_2048
from repro.crypto.hashing import hash_bytes
from repro.net.activeset import ActiveSet
from repro.net.stats import RoundRecord, RunStats, TrafficStats
from repro.net.topology import Topology
from repro.obs.events import RoundSpan, TimingEvent, WireEvent
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.net.transport import Transport, build_transport
from repro.sgx.attestation import AttestationAuthority
from repro.sgx.enclave import Enclave, EnclaveState
from repro.sgx.program import EnclaveProgram
from repro.sgx.trusted_time import SimulationClock

#: Value accepted when a protocol times out without deciding (the paper's ⊥).
BOTTOM = None

#: Engine-level diagnostics (per-round summaries) — DEBUG.
_LOG = logging.getLogger("repro.engine")
#: Protocol-visible events (halt-on-divergence ejections) — INFO.
_PROTOCOL_LOG = logging.getLogger("repro.protocol")


@dataclass
class MulticastHandle:
    """Tracks one Multicast(...) call's acknowledgements (P4)."""

    sender: NodeId
    rnd: Round
    key: bytes  # H(val) digest the receivers' ACKs will carry
    expect_acks: bool
    threshold: int
    targets: int
    acks: int = 0

    @property
    def diverged(self) -> bool:
        return self.expect_acks and self.acks < self.threshold

    @property
    def halts_sender(self) -> bool:
        """Halt-on-divergence (P4): too few ACKs came back for a multicast
        that had enough targets to reach the threshold at all."""
        return self.diverged and self.targets >= self.threshold


@dataclass
class _SendIntent:
    """One staged ``Multicast(...)``, stamped for the round it transmits
    in: ``message`` carries that round, ``digest`` is the ``H(val)`` its
    ACKs will carry."""

    sender: NodeId
    targets: Tuple[NodeId, ...]
    message: ProtocolMessage
    digest: bytes
    expect_acks: bool
    threshold: int
    #: Wire bytes per target when whoever staged the intent already sized
    #: it (the sharded engine's workers do); 0 otherwise.
    size: int = 0


def _multicast_key(message: ProtocolMessage) -> tuple:
    """Identity of a multicast for ACK matching: instance + header fields."""
    return (
        message.instance,
        message.type.value,
        message.initiator,
        message.seq,
        message.rnd,
    )


def _ack_message(digest: bytes, rnd: Round) -> ProtocolMessage:
    """The wire form of one ACK: it carries only ``H(val)``, matching the
    ~80 B ACKs of Section 6.1.  Every ACK of a round has the same header
    and an 8-byte payload, so any digest sizes the whole wave."""
    return ProtocolMessage(
        type=MessageType.ACK,
        initiator=0,
        seq=0,
        payload=digest,
        rnd=rnd,
        instance="",
    )


#: Cap on each network's ACK-digest cache.  The cache is a true LRU
#: (:class:`collections.OrderedDict`): every hit refreshes its entry, and
#: at the cap the least-recently-used entry is evicted — so the multicast
#: identities hot in the current round can never be displaced by a long
#: tail of stale ones.
_DIGEST_CACHE_LIMIT = 4096


class RoundBackend(Protocol):
    """What an execution environment implements, and nothing else: where
    program hooks run and how messages move.  :meth:`RoundHost._rounds`
    sequences the calls; between them it yields wherever a back-end whose
    messages take time has to wait for its peers."""

    #: The name a timed run reports (``TimingCollector.engine``).
    engine: str

    def run_hooks(
        self,
        hook: str,
        rnd: Round,
        halted_now: Sequence[NodeId] = (),
        seconds: float = 0.0,
    ) -> None:
        """Run ``on_round_begin`` / ``on_round_end`` for the nodes due in
        round ``rnd`` — or ``on_protocol_end`` for all — wherever the
        programs live, leaving what they stage in the host's outboxes and
        their doneness in its ``_active``.  The round's divergence halts
        and simulated duration come with ``on_round_end`` for replicas
        that must mirror them."""

    def transmit(self, rnd: Round, intents: List[_SendIntent]) -> int:
        """Put the round's multicasts on their links; returns how many
        messages that put in flight."""

    def deliver(self, rnd: Round) -> int:
        """Hand what arrived to ``on_message``; ACKs answer within the
        same round trip.  Returns how many were queued."""

    def ack_wave(self, rnd: Round) -> None:
        """Settle the ACK wave through :meth:`RoundHost._credit_ack`."""


class RoundHost:
    """One lockstep round, written once (:meth:`_rounds`), plus what
    :class:`EnclaveContext` stands on: the staging queues and the
    ACK-digest cache of whatever hosts the programs — the simulator below,
    or one :class:`repro.net.wire.WireNode` over TCP.

    A host also provides ``config``, ``tracer``, ``clock``, ``nodes``
    (node id -> :class:`Node`), ``stats`` (a :class:`RunStats`),
    ``neighbour_tuple(node)``, ``_queue_ack(acker, dest, original)`` and
    ``evict_departed_node(node)``; those depend on how it delivers.
    """

    config: SimulationConfig
    #: Observers a host may install, kept across runs: the
    #: phase-attributed wall-clock collector (:mod:`repro.obs.timing`)
    #: and the per-round observation hook.
    _timing = None
    _round_hook = None

    def _init_round_state(self) -> None:
        self.current_round: Round = 0
        # Emission queues: _outbox_now transmits in the current round,
        # _outbox_next at the start of the next one (Wait semantics).
        self._outbox_now: List[_SendIntent] = []
        self._outbox_next: List[_SendIntent] = []
        self._in_round_begin = False
        # This round's ACK-expecting multicasts, by (sender, H(val)).
        self._pending_handles: Dict[Tuple[NodeId, bytes], MulticastHandle] = {}
        # H(val) per multicast identity, for this host only.
        self._digest_cache: Dict[tuple, bytes] = {}
        # The round scheduler over the hosted nodes, rebuilt by _setup.
        self._active: Optional[ActiveSet] = None
        #: Cumulative hook-visit accounting: node-rounds whose begin / end
        #: hook the scheduler visited or skipped (see
        #: :mod:`repro.net.activeset`).  Lives outside RunStats so the
        #: equivalence suites can byte-compare results.
        self.sched_counters: Dict[str, int] = {
            "begin_visited": 0,
            "begin_skipped": 0,
            "end_visited": 0,
            "end_skipped": 0,
        }

    # ------------------------------------------------------------------
    # queueing API used by EnclaveContext
    # ------------------------------------------------------------------
    def _queue_multicast(
        self,
        sender: NodeId,
        message: ProtocolMessage,
        targets: Optional[Iterable[NodeId]],
        expect_acks: bool,
        threshold: Optional[int],
    ) -> None:
        if targets is None:
            target_tuple = self.neighbour_tuple(sender)
        else:
            target_tuple = tuple(t for t in targets if t != sender)
        # Wait semantics: a call made during on_round_begin transmits this
        # round, any other at the start of the next.  The round is known
        # here, so this is the one place a multicast is stamped with it.
        if self._in_round_begin:
            outbox, rnd = self._outbox_now, self.current_round
        else:
            outbox, rnd = self._outbox_next, self.current_round + 1
        message = message.with_round(rnd)
        outbox.append(_SendIntent(
            sender=sender,
            targets=target_tuple,
            message=message,
            digest=self._ack_digest(_multicast_key(message)),
            expect_acks=expect_acks,
            threshold=(
                threshold if threshold is not None else self.config.ack_threshold
            ),
        ))

    def _halt_node(self, node_id: NodeId, rnd: Optional[Round]) -> None:
        """Halt(st) for one hosted node — the enclave leaves the network
        (P4) — plus the cache hygiene a departure needs.  Idempotent."""
        enclave = self.nodes[node_id].enclave
        if not enclave.halted:
            enclave.halt(rnd)
            self.evict_departed_node(node_id)

    def _ack_digest(self, key: tuple) -> bytes:
        """The paper's ``H(val)`` carried inside an ACK, truncated to 8
        bytes (``key`` is the acknowledged multicast's
        :func:`_multicast_key`) — memoised: within one round every
        receiver ACKs the same few multicast values."""
        digest = self._digest_cache.get(key)
        if digest is None:
            digest = hash_bytes(encode(key), domain="ack")[:8]
            self._digest_cache[key] = digest
        return digest

    # ------------------------------------------------------------------
    # the round kernel
    # ------------------------------------------------------------------
    def _setup(self, owned: Optional[Iterable[NodeId]] = None) -> None:
        """Open a run: ``on_setup`` for every live hosted node, then the
        round scheduler over the nodes this process schedules — all of
        them, unless it is a shard worker holding a replica."""
        self.current_round = 0
        if self._timing is not None:
            self._timing.start_run()
        for node in self.nodes.values():
            if node.alive:
                node.program.on_setup(node.context)
        self._active = ActiveSet(
            self.nodes, self.nodes if owned is None else owned
        )

    def _rounds(self, max_rounds: int, backend: RoundBackend):
        """The lockstep round of Algorithms 2 and 3 (P5) — begin, transmit,
        deliver, ack wave, halt on divergence (P4), end — for at most
        ``max_rounds`` rounds or until everyone is done, then
        ``on_protocol_end``.  Call :meth:`_setup` first.

        A generator: it yields the name of a wave — ``"eod"`` (the data is
        out), ``"eoa"`` (the ACKs are out), ``"fin"`` (the round is
        closed) — wherever a back-end whose messages take time must wait
        for its peers before the next step.  A back-end that moves
        messages inside its calls has nothing to wait for: its driver
        exhausts the generator with a ``for`` loop.

        The clock of a timed run (:mod:`repro.obs.timing`) is read here
        and nowhere else in a back-end but the sharded coordinator's
        waves: once at each phase boundary, and once when the generator
        resumes after a wave (``wait``).  The run clock opened in
        :meth:`_setup`; everything before round 1 is ``setup``.
        """
        nodes = self.nodes
        tracer = self.tracer
        traced = tracer.enabled
        tm = self._timing
        traffic = self.stats.traffic
        handles = self._pending_handles
        if tm is not None:
            tm.engine = backend.engine
            tm.lap("setup")
        for rnd in range(1, max_rounds + 1):
            self.current_round = rnd
            if tm is not None:
                tm.start_round(rnd)
            before = (traffic.omissions, traffic.rejections)
            handles.clear()
            # Staged multicasts from last round move to the live queue
            # first so their relative order is stable.
            self._outbox_now, self._outbox_next = self._outbox_next, []
            if traced:
                tracer.phase(rnd, "begin", count=len(self._outbox_now))
            self._in_round_begin = True
            backend.run_hooks("on_round_begin", rnd)
            self._in_round_begin = False
            if tm is not None:
                tm.lap("begin")

            outbox, self._outbox_now = self._outbox_now, []
            if traced:
                tracer.phase(rnd, "transmit", count=len(outbox))
            due: List[_SendIntent] = []
            for intent in outbox:
                if not nodes[intent.sender].alive:
                    continue
                if intent.expect_acks:
                    # The handle this round's ACKs credit and the halt
                    # check reads; it tracks the call even when there is
                    # nothing to send (n == 1, or an empty target list).
                    handles[(intent.sender, intent.digest)] = MulticastHandle(
                        sender=intent.sender,
                        rnd=rnd,
                        key=intent.digest,
                        expect_acks=True,
                        threshold=intent.threshold,
                        targets=len(intent.targets),
                    )
                if intent.targets:
                    due.append(intent)
            count = backend.transmit(rnd, due)
            yield from self._await(tm, "transmit", "eod")

            if traced:
                tracer.phase(rnd, "deliver", count=count)
            count = backend.deliver(rnd)
            yield from self._await(tm, "deliver", "eoa")

            # The ACK wave closes the same round trip.
            if traced:
                tracer.phase(rnd, "ack_wave", count=count)
            backend.ack_wave(rnd)
            if tm is not None:
                tm.lap("ack_wave")

            halted_now = self._phase_halt_check(rnd)
            if tm is not None:
                tm.lap("halt_check")
            live, seconds = self._open_phase_end(rnd)
            backend.run_hooks("on_round_end", rnd, halted_now, seconds)
            self._close_round(
                rnd, seconds, halted_now, live, self._active.decided, before
            )
            yield from self._await(tm, "end", "fin")
            if tm is not None:
                self._finish_round_timing(tm, rnd)
            if self._everyone_done():
                break
        backend.run_hooks("on_protocol_end", self.current_round)
        if tm is not None:
            tm.end_run()

    @staticmethod
    def _await(tm, phase: str, wave: str):
        """Close ``phase`` on the clock, yield ``wave``, and charge the
        time until the generator resumes to ``wait``."""
        if tm is not None:
            tm.lap(phase)
        yield wave
        if tm is not None:
            tm.lap("wait")

    def run_hooks(
        self,
        hook: str,
        rnd: Round,
        halted_now: Sequence[NodeId] = (),
        seconds: float = 0.0,
    ) -> None:
        """:meth:`RoundBackend.run_hooks` for programs hosted in this
        process: visit the nodes the scheduler says are due, in node-id
        order."""
        nodes = self.nodes
        active = self._active
        counters = self.sched_counters
        if hook == "on_round_begin":
            visit = active.begin(rnd)
            counters["begin_visited"] += len(visit)
            counters["begin_skipped"] += len(active.owned) - len(visit)
        elif hook == "on_round_end":
            visit = active.end()
            counters["end_visited"] += len(visit)
            counters["end_skipped"] += len(active.owned) - len(visit)
        else:
            visit = active.owned
        for node_id in visit:
            node = nodes[node_id]
            if not node.alive:
                continue
            if hook == "on_round_begin":
                node.program.on_round_begin(node.context)
            elif hook == "on_round_end":
                node.program.on_round_end(node.context)
            else:
                node.program.on_protocol_end(node.context)
        if hook == "on_round_end":
            active.after_end(rnd, visit, halted_now)

    def _everyone_done(self) -> bool:
        """Whether the run can stop early: every hosted node has decided
        or halted (a host that is one of several also asks its peers)."""
        return self._active.all_done

    def _credit_ack(self, dest: NodeId, digest: bytes, count: int = 1) -> None:
        """``count`` ACKs carrying ``digest`` reached ``dest``: credit the
        multicast they acknowledge.  ACKs to a halted destination are
        omissions; ACKs for unknown multicasts (replays, cross-round
        strays) are ignored — exactly the 'treat as omitted' rule."""
        if not self.nodes[dest].alive:
            self.stats.traffic.record_omissions(count)
            return
        handle = self._pending_handles.get((dest, digest))
        if handle is not None:
            handle.acks += count

    def _phase_halt_check(self, rnd: Round) -> List[NodeId]:
        """Halt-on-divergence (P4): any multicast that collected fewer
        ACKs than its threshold halts its sender's enclave."""
        tracer = self.tracer
        traced = tracer.enabled
        if traced:
            tracer.phase(rnd, "halt_check", count=len(self._pending_handles))
        halted_now: List[NodeId] = []
        for (sender, _key), handle in self._pending_handles.items():
            if handle.halts_sender:
                self._halt_node(sender, rnd)
                if sender not in halted_now:
                    halted_now.append(sender)
                if traced:
                    tracer.halt(rnd, sender, handle.acks, handle.threshold)
                _PROTOCOL_LOG.info(
                    "round %d: node %d halted on divergence (%d/%d acks)",
                    rnd, sender, handle.acks, handle.threshold,
                )
        return halted_now

    def _open_phase_end(self, rnd: Round) -> Tuple[int, float]:
        """Open the round's end; returns what its close needs and the
        hooks cannot change: the live-node count the round summary reports
        (an O(N) scan, so only when someone looks: traced or DEBUG-logged
        runs — 0 otherwise) and the round's simulated duration under the
        shared-link bandwidth model, ``max(2*delta, bytes / bandwidth)``."""
        tracer = self.tracer
        live = 0
        if tracer.enabled or _LOG.isEnabledFor(logging.DEBUG):
            live = sum(1 for node in self.nodes.values() if node.alive)
        if tracer.enabled:
            tracer.phase(rnd, "end", count=live)
        seconds = self.config.round_seconds
        bandwidth = self.config.bandwidth_bytes_per_s
        if bandwidth:
            seconds = max(
                seconds, self.stats.traffic.round_bytes(rnd) / bandwidth
            )
        return live, seconds

    def _close_round(
        self,
        rnd: Round,
        seconds: float,
        halted_now: List[NodeId],
        live: int,
        decided: int,
        before: Tuple[int, int],
    ) -> None:
        """Close the round once every end hook has run: advance the
        trusted clock, record the round, summarise it (trace span, DEBUG
        line) and call the observation hook."""
        traffic = self.stats.traffic
        tracer = self.tracer
        round_bytes = traffic.round_bytes(rnd)
        self.clock.advance(seconds)
        self.stats.rounds.append(
            RoundRecord(rnd=rnd, bytes=round_bytes, seconds=seconds)
        )
        debug = _LOG.isEnabledFor(logging.DEBUG)
        if tracer.enabled or debug:
            omissions = traffic.omissions - before[0]
            rejections = traffic.rejections - before[1]
            if tracer.enabled:
                tracer.emit(
                    RoundSpan(
                        rnd=rnd,
                        bytes=round_bytes,
                        seconds=seconds,
                        omissions=omissions,
                        rejections=rejections,
                        live=live,
                        decided=decided,
                        halted=halted_now,
                    )
                )
            _LOG.debug(
                "round %d: bytes=%d seconds=%.3f omissions=%d rejections=%d "
                "live=%d decided=%d halted=%s",
                rnd, round_bytes, seconds, omissions, rejections,
                live, decided, halted_now,
            )
        if self._round_hook is not None:
            self._round_hook(self, rnd, halted_now)

    def _finish_round_timing(self, tm, rnd: Round) -> None:
        """Close the round's timing record; when also traced, emit it as
        a :class:`TimingEvent` so traces carry the breakdown inline."""
        record = tm.end_round()
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(TimingEvent(
                rnd=rnd,
                wall=record["wall"],
                buckets=dict(record["buckets"]),
                shards=list(record["shards"]),
                engine=tm.engine,
            ))


class EnclaveContext:
    """The enclave-visible API handed to every program hook.

    Multicast/send timing follows the paper's ``Wait`` semantics: calls
    made during ``on_round_begin`` transmit this round; calls made during
    message handling or ``on_round_end`` are staged for the start of the
    next round.  ``acknowledge`` is always immediate (same round trip).
    """

    def __init__(self, network: RoundHost, node_id: NodeId) -> None:
        self._network = network
        self.node_id = node_id

    # ---- environment ---------------------------------------------------
    @property
    def n(self) -> int:
        return self._network.config.n

    @property
    def t(self) -> int:
        return self._network.config.t

    @property
    def config(self) -> SimulationConfig:
        return self._network.config

    @property
    def round(self) -> Round:
        return self._network.current_round

    @property
    def rdrand(self):
        return self._network.nodes[self.node_id].enclave.rdrand

    @property
    def tracer(self) -> Tracer:
        """The run's tracer (the disabled NULL_TRACER when untraced)."""
        return self._network.tracer

    @property
    def clock(self):
        return self._network.nodes[self.node_id].enclave.clock

    def neighbours(self) -> Tuple[NodeId, ...]:
        """This node's neighbour set, as the network's cached tuple.

        The topology is static between churn/halt events, so the network
        memoizes one tuple per node instead of recomputing the adjacency
        view on every multicast.
        """
        return self._network.neighbour_tuple(self.node_id)

    # ---- actions ---------------------------------------------------------
    def multicast(
        self,
        message: ProtocolMessage,
        targets: Optional[Iterable[NodeId]] = None,
        expect_acks: bool = True,
        threshold: Optional[int] = None,
    ) -> None:
        """Queue ``Multicast(id_i, val)`` to ``targets`` (default: all peers)."""
        self._network._queue_multicast(
            self.node_id, message, targets, expect_acks, threshold
        )

    def send(
        self, dest: NodeId, message: ProtocolMessage, expect_acks: bool = False
    ) -> None:
        """Queue a unicast message."""
        self._network._queue_multicast(
            self.node_id, message, (dest,), expect_acks, None
        )

    def acknowledge(self, dest: NodeId, original: ProtocolMessage) -> None:
        """Send an ACK for ``original`` back to ``dest`` this round."""
        self._network._queue_ack(self.node_id, dest, original)

    def halt(self) -> None:
        """Voluntary Halt(st) — the enclave leaves the network (P4)."""
        self._network._halt_node(self.node_id, self.round)


@dataclass
class Node:
    """One peer: trusted enclave + untrusted OS behaviour."""

    node_id: NodeId
    enclave: Enclave
    behavior: Optional[OSBehavior]
    context: EnclaveContext

    @property
    def program(self) -> EnclaveProgram:
        return self.enclave.program

    @property
    def alive(self) -> bool:
        return not self.enclave.halted


@dataclass
class RunResult:
    """Everything a benchmark or test needs from one protocol run."""

    outputs: Dict[NodeId, object]
    halted: List[NodeId]
    stats: RunStats
    decided_rounds: Dict[NodeId, Optional[int]]

    @property
    def rounds_executed(self) -> int:
        return self.stats.rounds_executed

    @property
    def termination_seconds(self) -> float:
        return self.stats.termination_seconds

    @property
    def traffic(self) -> TrafficStats:
        return self.stats.traffic

    def honest_outputs(self, byzantine: Iterable[NodeId]) -> Dict[NodeId, object]:
        excluded = set(byzantine) | set(self.halted)
        return {
            node: value
            for node, value in self.outputs.items()
            if node not in excluded
        }


class SynchronousNetwork(RoundHost):
    """The simulator: builds the network, runs one protocol to completion."""

    def __init__(
        self,
        config: SimulationConfig,
        program_factory: Callable[[NodeId], EnclaveProgram],
        behaviors: Optional[Dict[NodeId, OSBehavior]] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        self.config = config
        self.topology = topology or Topology.full_mesh(config.n)
        if self.topology.n != config.n:
            raise ConfigurationError(
                f"topology size {self.topology.n} != network size {config.n}"
            )
        self.clock = SimulationClock()
        self.master_rng = DeterministicRNG(("simulation", config.seed))
        behaviors = behaviors or {}

        authority: Optional[AttestationAuthority] = None
        if config.channel_security is ChannelSecurity.FULL:
            group_name = config.extra.get("dh_group", "2048")
            self._dh_group = MODP_768 if group_name == "small" else MODP_2048
            authority = AttestationAuthority(self.master_rng, self._dh_group)
        else:
            self._dh_group = MODP_2048

        self.nodes: Dict[NodeId, Node] = {}
        enclaves: Dict[NodeId, Enclave] = {}
        for node_id in range(config.n):
            program = program_factory(node_id)
            enclave = Enclave(
                node_id, program, self.master_rng, self.clock, authority
            )
            enclaves[node_id] = enclave
            self.nodes[node_id] = Node(
                node_id=node_id,
                enclave=enclave,
                behavior=behaviors.get(node_id),
                context=EnclaveContext(self, node_id),
            )

        # The transports hold a reference to this same dict, so swapping
        # an entry here (parallel-run re-integration) updates them too.
        self._enclaves = enclaves

        self.transport: Transport = build_transport(
            config.channel_security, enclaves, self._dh_group
        )

        self.stats = RunStats()
        self._init_round_state()
        # A network outlives its protocol instances, so its digest memo is
        # bounded — see _ack_digest.  OrderedDict: the policy is LRU.
        self._digest_cache: "OrderedDict[tuple, bytes]" = OrderedDict()
        # This round's ACKs as (acker, dest, digest) triples — the digest
        # is all an ACK carries; only the per-wire back-end ever builds
        # ProtocolMessage objects from them.
        self._ack_queue: List[Tuple[NodeId, NodeId, bytes]] = []
        # Multicast digest by message object identity, valid for one round
        # (entries are cleared at round start; the messages stay referenced
        # by the round's delivery plan, so ids cannot be reused mid-round).
        self._ack_digest_by_id: Dict[int, bytes] = {}
        # Per-node neighbour tuples (the topology is static between
        # churn/halt events) — see neighbour_tuple().
        self._neighbour_cache: Dict[NodeId, Tuple[NodeId, ...]] = {}
        self._future_wires: Dict[Round, List[WireMessage]] = {}
        # Per-round wire-size cache for ACKs (keys embed the round number,
        # so entries die with the round — cleared at every round start and
        # on instance swap).
        self._ack_size_cache: Dict[tuple, int] = {}
        # Nodes with OS behaviours, ascending (static for the network's
        # lifetime): phase-2 injection drains and phase-6 behaviour ticks
        # iterate this instead of scanning all N nodes.
        self._behavior_nodes: List[NodeId] = [
            node_id for node_id, node in self.nodes.items()
            if node.behavior is not None
        ]
        #: Which carriage the sharded engine used for the last run that
        #: reached it ("shm"); None while every run has been serial.
        self.parallel_data_plane: Optional[str] = None
        # Engine-session state (repro.net.session): whether run_parallel
        # keeps its forked crew for the next run, the crew it kept, and
        # the recycle payload the session prepared for it.
        self._session_persistent = False
        self._session_crew = None
        self._session_worker_reset: Optional[tuple] = None
        self._resolve_run_paths()

    def _resolve_run_paths(self) -> None:
        """(Re)resolve every per-run engine decision from live state.

        Called once by ``__init__`` and again by every
        :meth:`begin_session_run`: the envelope-path eligibility depends
        on the installed programs' measurements and the dispatch table on
        their bound methods — both of which a session recycle may change.
        """
        config = self.config
        # The observability hub.  config.tracer wins; the legacy
        # extra["trace_actions"] flag gets a memory tracer so the
        # Definition A.5 `action_trace` view below keeps working; the
        # default is the permanently disabled NULL_TRACER (zero overhead:
        # the engine checks one boolean before building any event).
        tracer = config.tracer
        if tracer is None:
            tracer = (
                Tracer.memory()
                if config.extra.get("trace_actions")
                else NULL_TRACER
            )
        self.tracer: Tracer = tracer
        # Phase-attributed wall-clock collector (repro.obs.timing), read
        # by the round kernel only; None (the default) reads no clock.
        self._timing = config.timing
        self._honest = not self._behavior_nodes
        self._homogeneous = len(
            {node.enclave.measurement for node in self.nodes.values()}
        ) <= 1
        # The round-envelope path coalesces every (sender, receiver, round)
        # triple into one link crossing.  It applies when a run can never
        # diverge from the per-wire path: no OS behaviours anywhere (no
        # drops, delays, injections or future wires) and homogeneous
        # program measurements (so channel reads cannot reject).  It
        # tolerates a tracer for MODELED/NONE runs (it replays the
        # per-wire event stream exactly, plus envelope events); traced
        # FULL runs fall back: their per-wire events carry real
        # per-message sealed sizes, which only per-message sealing
        # produces.  ``extra["disable_envelope_fast_path"]`` forces the
        # per-wire path (the reference the equivalence tests compare
        # against).
        envelope_disabled = bool(
            config.extra.get("disable_envelope_fast_path", False)
        )
        self._envelope_fast_path = (
            self._honest
            and self._homogeneous
            and not (
                self.tracer.enabled
                and config.channel_security is ChannelSecurity.FULL
            )
            and not envelope_disabled
        )
        # Runs that fall back to per-wire processing (adversarial, traced
        # FULL, heterogeneous measurements) still keep the dual ledger
        # honest: per-message sends are recorded as logical-only and the
        # physical ledger gets one coalesced crossing per link afterwards.
        # With the envelope layer explicitly disabled, per-wire sends
        # mirror 1:1 into the physical ledger (the pre-envelope meaning).
        self._envelope_accounting = (
            not envelope_disabled and not self._envelope_fast_path
        )
        # Per-round observation hook: ``extra["round_hook"]`` is called as
        # ``hook(network, rnd, halted_now)`` when a round closes, whatever
        # back-end served it.  The campaign runner uses it to collect
        # liveness trails for invariant checking; the hook must treat the
        # network as read-only.
        self._round_hook = config.extra.get("round_hook")
        self._warned_parallel_fallback = False
        self.sched_counters = dict.fromkeys(self.sched_counters, 0)
        # Envelope-path dispatch table, cached across rounds (halts are
        # read live off the enclave; only replace_programs invalidates).
        self._dispatch_cache: Optional[List[tuple]] = None

    @property
    def action_trace(self) -> Optional[ActionTrace]:
        """Definition A.5 instrumentation as a view over the tracer.

        Available when the tracer retains events in memory (the
        ``extra["trace_actions"]`` flag, or any tracer with a
        :class:`repro.obs.tracer.MemorySink`); None otherwise.
        """
        if not self.tracer.enabled or self.tracer.events is None:
            return None
        return trace_from_wire_events(self.tracer.wire_events())

    # ------------------------------------------------------------------
    # queueing API used by EnclaveContext
    # ------------------------------------------------------------------
    def neighbour_tuple(self, node: NodeId) -> Tuple[NodeId, ...]:
        """The cached neighbour tuple of ``node``.

        ``topology.neighbours`` returns an adjacency view that every
        multicast used to re-tuple; with N concurrent ERB instances that
        is N identical recomputations per node per round.  The cache
        holds one tuple per node and is invalidated on churn and halts
        (:meth:`invalidate_neighbour_cache`), keeping it correct if a
        future topology becomes dynamic.
        """
        cached = self._neighbour_cache.get(node)
        if cached is None:
            cached = tuple(self.topology.neighbours(node))
            self._neighbour_cache[node] = cached
        return cached

    def invalidate_neighbour_cache(self, node: Optional[NodeId] = None) -> None:
        """Drop cached neighbour tuples (all of them when ``node`` is None)."""
        if node is None:
            self._neighbour_cache.clear()
        else:
            self._neighbour_cache.pop(node, None)

    def evict_departed_node(self, node: NodeId) -> None:
        """Active-set change (halt / eject): drop every cached view keyed
        by the departed node — its neighbour tuple and the ACK-digest LRU
        entries for multicasts it initiated.  Digests are pure functions
        of their key, so eviction can only prevent stale-view retention
        after churn, never change a value; the LRU simply stops carrying
        identities no live node will ever ACK again.
        """
        self.invalidate_neighbour_cache(node)
        cache = self._digest_cache
        if cache:
            stale = [key for key in cache if key[2] == node]
            for key in stale:
                del cache[key]

    def _ack_digest(self, key: tuple) -> bytes:
        """The host's digest memo behind a bounded LRU.

        The cache is per-network (digests are pure functions of the key,
        but a shared cache would let one network's churn evict another's
        hot entries) and a bounded LRU: hits refresh recency, and at the
        cap the single least-recently-used entry is evicted, so
        current-round identities always survive arbitrarily long runs.
        """
        cache = self._digest_cache
        digest = cache.get(key)
        if digest is not None:
            cache.move_to_end(key)
            return digest
        if len(cache) >= _DIGEST_CACHE_LIMIT:
            cache.popitem(last=False)
        return super()._ack_digest(key)

    def _queue_ack(
        self, acker: NodeId, dest: NodeId, original: ProtocolMessage
    ) -> None:
        # The envelope back-end caches the digest of each message object
        # it transmits; FULL delivers decoded copies and the per-wire
        # back-end caches nothing, so both fall back to the keyed memo.
        digest = self._ack_digest_by_id.get(id(original))
        if digest is None:
            digest = self._ack_digest(_multicast_key(original))
        self._ack_queue.append((acker, dest, digest))

    # ------------------------------------------------------------------
    # multi-instance support
    # ------------------------------------------------------------------
    def replace_programs(
        self, program_factory: Callable[[NodeId], EnclaveProgram]
    ) -> None:
        """Install fresh programs for the *next* protocol instance.

        The network persists across instances — channels keep their keys
        and monotone counters (so replays from instance i are still dead
        in instance i+1), and halted enclaves stay halted (a churned-out
        node cannot rejoin, Section 3.1/P6).  The new program must have
        the same measurement as the old one: swapping in different code
        would be caught by attestation in a real deployment, so it is a
        usage error here.
        """
        from repro.sgx.measurement import measure_program

        for node in self.nodes.values():
            if not node.alive:
                continue
            program = program_factory(node.node_id)
            if measure_program(program) != node.enclave.measurement:
                raise ConfigurationError(
                    "replacement program has a different measurement; "
                    "an instance swap cannot change the attested code"
                )
            node.enclave.program = program
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Drop everything one run (or instance) stages or caches per
        round, and rescope the traffic stats to the next one."""
        self._outbox_now.clear()
        self._outbox_next.clear()
        self._ack_queue.clear()
        self._ack_digest_by_id.clear()
        self._future_wires.clear()
        self._pending_handles.clear()
        self._ack_size_cache.clear()
        self.invalidate_neighbour_cache()
        # The cached envelope dispatch table holds bound on_message
        # methods of the *old* programs — rebuild on next use.
        self._dispatch_cache = None
        self.stats = RunStats()
        self.current_round = 0

    def begin_session_run(
        self,
        program_factory: Callable[[NodeId], EnclaveProgram],
        *,
        seed: Optional[int] = None,
    ) -> None:
        """Recycle the network for a fresh, *independent* protocol run.

        Where :meth:`replace_programs` models instance succession inside
        one execution (same attested code, halts persist, monotone state
        carries over), a session recycle starts a **new execution** on the
        long-lived network: every enclave is relaunched — fresh program
        (any measurement), fresh RDRAND fork off a re-seeded master RNG,
        trusted-clock reference reset — and every cache that could leak
        one run's state into the next is invalidated: the ACK digest LRU,
        the per-round ack-size cache, neighbour tuples, the envelope
        dispatch table, staged outboxes, ACK queues, future wires and
        multicast handles.  Traffic stats are rescoped to the new run.

        What deliberately survives is the *network*: topology, secure
        channels (a FULL session keeps its established keys) and the
        ModeledTransport's monotone freshness counters keep advancing —
        a replay captured in run ``i`` is still dead in run ``i+1``.
        That is the long-lived-service shape: relaunched enclaves joining
        a new protocol instance over existing channels, not halted ones
        rejoining an ongoing run (still forbidden, P6).

        Because :class:`DeterministicRNG` forks are label-derived, the
        recycled network's RNG streams are bit-identical to a freshly
        built network with the same ``seed`` — session reuse can never
        change protocol outputs.
        """
        if seed is not None and seed != self.config.seed:
            # A copy, never a write-through: the caller's config object may
            # go on to build other networks.
            self.config = replace(
                self.config, seed=seed, extra=dict(self.config.extra)
            )
        self.master_rng = DeterministicRNG(("simulation", self.config.seed))
        for node_id in sorted(self.nodes):
            self.nodes[node_id].enclave.relaunch(
                program_factory(node_id), self.master_rng
            )
        self.transport.refresh_measurements()
        self._reset_run_state()
        # Unlike replace_programs (same execution, same multicast
        # identities) a fresh run must also drop the ACK digest LRU —
        # stale (instance, round)-keyed digests must not leak across.
        self._digest_cache.clear()
        self._resolve_run_paths()

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self, max_rounds: int) -> RunResult:
        """Execute the protocol for at most ``max_rounds`` rounds.

        With ``config.workers > 1`` an eligible run (honest, homogeneous,
        MODELED/NONE — see :meth:`_parallel_eligible`) executes on the
        sharded multi-process engine of :mod:`repro.net.parallel`, which
        is byte-identical to the serial envelope path; everything else
        (and any failure to spawn workers) falls back to the serial
        engine below.
        """
        if max_rounds < 1:
            raise ConfigurationError("max_rounds must be >= 1")
        self._setup()
        if self._parallel_requested():
            reason = self._parallel_fallback_reason()
            if reason is None:
                from repro.net.parallel import run_parallel

                result = run_parallel(self, max_rounds)
                if result is not None:
                    return result
            elif not self._warned_parallel_fallback:
                # workers>1 was requested but the run cannot shard:
                # say why, once, instead of silently going serial.
                self._warned_parallel_fallback = True
                _LOG.warning(
                    "parallel engine disabled for this run (%s); "
                    "running serial despite workers=%d",
                    reason, self.config.workers,
                )
        if self._envelope_fast_path:
            backend = _EnvelopeRounds(self)
        else:
            backend = _PerWireRounds(self)
        for _wave in self._rounds(max_rounds, backend):
            pass  # both move messages inside their calls
        return self._result()

    def _parallel_requested(self) -> bool:
        """Whether the caller asked for the sharded engine at all: more
        than one worker over more than one node, and not opted out (an
        intentional choice, so it needs no fallback warning)."""
        config = self.config
        return (
            config.workers > 1
            and config.n > 1
            and not config.extra.get("disable_parallel_engine", False)
        )

    def _parallel_eligible(self) -> bool:
        """Whether this run executes on the sharded multi-process engine:
        requested, and nothing forces it back to the serial one."""
        return (
            self._parallel_requested()
            and self._parallel_fallback_reason() is None
        )

    def _parallel_fallback_reason(self) -> Optional[str]:
        """Why a run that asked for workers must execute serially, or
        ``None`` when it may shard.

        The parallel path inherits every activation condition of the
        round-envelope path (honest — so ROD/byzantine schedules that act
        on individual wires fall back automatically — homogeneous
        measurements, not explicitly disabled) and additionally requires
        a non-FULL transport and usable shared memory for the rings.  A
        failure to fork, or to create the rings after all, is reported by
        :func:`run_parallel` itself, which can observe it.
        """
        if not self._honest:
            return "adversarial OS behaviours require per-wire processing"
        if not self._homogeneous:
            return "heterogeneous program measurements"
        if self.transport.security is ChannelSecurity.FULL:
            return (
                "FULL channel security draws per-link enclave RNG, which "
                "a sharded run cannot reproduce byte-identically"
            )
        if not self._envelope_fast_path:
            return "envelope fast path disabled via config extra"
        from repro.net import shm

        if not shm.shared_memory_available():
            return (
                "no usable shared memory for the shard rings "
                f"({shm.shared_memory_unavailable_reason()})"
            )
        return None

    def _result(self) -> RunResult:
        outputs: Dict[NodeId, object] = {}
        decided: Dict[NodeId, Optional[int]] = {}
        halted: List[NodeId] = []
        for node_id, node in sorted(self.nodes.items()):
            if not node.alive:
                halted.append(node_id)
            if node.program.has_output:
                outputs[node_id] = node.program.output
                decided[node_id] = node.program.decided_round
        return RunResult(
            outputs=outputs,
            halted=halted,
            stats=self.stats,
            decided_rounds=decided,
        )

    def _record_physical_links(
        self, wires: List[WireMessage], rnd: Round, wave: str
    ) -> None:
        """Physical accounting for per-wire rounds: one crossing per link.

        Adversarial filtering already happened per message, so each
        surviving message keeps its own sealing — the envelope here is
        only the link-layer batch (crossings coalesce, bytes do not).
        """
        links: Dict[Tuple[NodeId, NodeId], List[int]] = {}
        for wire in wires:
            entry = links.get((wire.sender, wire.receiver))
            if entry is None:
                links[(wire.sender, wire.receiver)] = [1, wire.size]
            else:
                entry[0] += 1
                entry[1] += wire.size
        traffic = self.stats.traffic
        tracer = self.tracer
        traced = tracer.enabled
        for (sender, receiver), (count, total) in links.items():
            traffic.record_envelope(count, total)
            if traced:
                tracer.envelope(rnd, sender, receiver, count, total, wave=wave)

    def _apply_send_filter(
        self,
        behavior: OSBehavior,
        sender: NodeId,
        wire: WireMessage,
        rnd: Round,
        immediate: List[WireMessage],
    ) -> None:
        """Run one wire through the sender's OS behaviour, recording the
        traffic and (when traced) the per-wire OS action events that back
        the Definition A.5 classification."""
        traffic = self.stats.traffic
        tracer = self.tracer
        traced = tracer.enabled
        physical = not self._envelope_accounting
        delivered_any = False
        for index, (delay, out) in enumerate(behavior.filter_send(wire, rnd)):
            delivered_any = True
            if delay <= 0:
                traffic.record_send(out.mtype, out.size, rnd, physical=physical)
                immediate.append(out)
            else:
                self._future_wires.setdefault(rnd + delay, []).append(out)
            if traced:
                if out is not wire:
                    action = "modify"
                elif delay > 0:
                    action = "delay"
                elif index == 0:
                    action = "deliver"
                else:
                    action = "replay"  # duplicate copies
                tracer.wire(
                    rnd, out, action, actor=sender, charged=delay <= 0
                )
        if not delivered_any:
            traffic.record_omission()
            if traced:
                tracer.wire(rnd, wire, "drop_send", actor=sender)

    # ------------------------------------------------------------------
    # the round-envelope path, and the accounting it shares with the
    # sharded coordinator (repro.net.parallel)
    # ------------------------------------------------------------------
    def _charge_multicast(
        self,
        rnd: Round,
        sender: NodeId,
        targets: Tuple[NodeId, ...],
        message: ProtocolMessage,
        size: int,
    ) -> None:
        """Logical ledger (and per-wire trace events) for one multicast of
        ``size`` bytes per target; the physical crossing is charged per
        link by :meth:`_charge_envelopes`."""
        self.stats.traffic.record_send_bulk(
            message.type, size * len(targets), rnd, len(targets),
            physical=False,
        )
        tracer = self.tracer
        if tracer.enabled:
            mtype = message.type.value
            for receiver in targets:
                tracer.emit(WireEvent(
                    rnd=rnd,
                    sender=sender,
                    receiver=receiver,
                    size=size,
                    action="send",
                    mtype=mtype,
                    charged=True,
                ))

    @staticmethod
    def _coalesce_links(entries: List[tuple]) -> List[tuple]:
        """Group one sender's wave of ``(targets, message, size)``
        multicasts into link envelopes: ``(receivers, members, size)``
        triples, each receiver getting one envelope that carries
        ``members`` and weighs ``size`` — the member bodies plus a single
        channel overhead."""
        overhead = CHANNEL_OVERHEAD_BYTES
        first_targets = entries[0][0]
        if all(e[0] is first_targets or e[0] == first_targets for e in entries):
            # Common case: every multicast this sender staged goes to the
            # same receiver set — one shared member list, and the same
            # physical size on every link.
            return [(
                first_targets,
                [e[1] for e in entries],
                sum(e[2] for e in entries) - overhead * (len(entries) - 1),
            )]
        buckets: Dict[NodeId, List[ProtocolMessage]] = {}
        sizes: Dict[NodeId, int] = {}
        for targets, message, size in entries:
            for receiver in targets:
                buckets.setdefault(receiver, []).append(message)
                sizes[receiver] = sizes.get(receiver, 0) + size
        return [
            ((receiver,), members,
             sizes[receiver] - overhead * (len(members) - 1))
            for receiver, members in buckets.items()
        ]

    def _charge_envelopes(
        self,
        rnd: Round,
        sender: NodeId,
        receivers: Tuple[NodeId, ...],
        count: int,
        size: int,
        wave: str = "transmit",
    ) -> None:
        """Physical ledger (and envelope trace events): one crossing of
        ``size`` bytes carrying ``count`` members on each link."""
        self.stats.traffic.record_envelopes(
            len(receivers), size * len(receivers)
        )
        tracer = self.tracer
        if tracer.enabled:
            for receiver in receivers:
                tracer.envelope(rnd, sender, receiver, count, size, wave=wave)

    def _ack_wave_envelope(
        self, queue: List[Tuple[NodeId, NodeId, bytes]], rnd: Round
    ) -> None:
        """Envelope-path ACK wave for MODELED/NONE transports.

        ACKs are digests, never ProtocolMessage objects, and one modeled
        size covers the whole wave.  Each link's ACKs cross as a single
        counted envelope; (dest, digest) pairs credit their pending
        handles in one addition each, exactly as the per-wire path's
        sequential deliveries would.
        """
        nodes = self.nodes
        tracer = self.tracer
        traced = tracer.enabled
        ack_size = self._ack_wire_size(rnd)
        link_counts: Counter = Counter()
        credits: Counter = Counter()
        total = 0
        for acker, dest, digest in queue:
            if not nodes[acker].alive:
                continue
            total += 1
            link_counts[(acker, dest)] += 1
            credits[(dest, digest)] += 1
            if traced:
                tracer.emit(WireEvent(
                    rnd=rnd,
                    sender=acker,
                    receiver=dest,
                    size=ack_size,
                    action="send",
                    mtype=MessageType.ACK.value,
                    charged=True,
                ))
        self._settle_ack_wave(
            rnd, ack_size, link_counts, credits, total, seal=True
        )
        if traced:
            # The per-wire path records an omit_dead event per ACK to a
            # halted destination, in queue order, after the sends.
            for acker, dest, _digest in queue:
                if nodes[acker].alive and not nodes[dest].alive:
                    tracer.emit(WireEvent(
                        rnd=rnd,
                        sender=acker,
                        receiver=dest,
                        size=ack_size,
                        action="omit_dead",
                        mtype=MessageType.ACK.value,
                    ))

    def _ack_wire_size(self, rnd: Round) -> int:
        """Modeled wire size of every ACK of round ``rnd``."""
        return modeled_wire_size(_ack_message(b"\x00" * 8, rnd))

    def _settle_ack_wave(
        self,
        rnd: Round,
        ack_size: int,
        link_counts: Dict[Tuple[NodeId, NodeId], int],
        credits: Dict[Tuple[NodeId, bytes], int],
        total: int,
        *,
        seal: bool,
    ) -> None:
        """Charge and credit one aggregated MODELED/NONE ACK wave of
        ``total`` ACKs, ``ack_size`` bytes each: ``link_counts[(acker,
        dest)]`` per link, ``credits[(dest, digest)]`` per acknowledged
        multicast.  ACKs to a halted destination are omissions; ACKs for
        unknown multicasts are ignored, as in :meth:`_deliver`.

        ``seal`` moves each link's envelope through the transport so the
        channel counters advance as per-ACK writes would; the sharded
        coordinator passes False — its mirror carries no link state.
        """
        nodes = self.nodes
        traffic = self.stats.traffic
        transport = self.transport
        if total:
            traffic.record_send_bulk(
                MessageType.ACK, ack_size * total, rnd, total, physical=False
            )
        overhead = CHANNEL_OVERHEAD_BYTES
        for (acker, dest), count in link_counts.items():
            env_size = ack_size * count - overhead * (count - 1)
            if seal:
                (env,) = transport.seal_envelope(
                    acker, (dest,), None, count=count, size=env_size
                )
                if nodes[dest].alive:
                    transport.open_envelope(dest, env)
            self._charge_envelopes(
                rnd, acker, (dest,), count, env_size, wave="ack"
            )
        for (dest, digest), count in credits.items():
            self._credit_ack(dest, digest, count)

    def _ack_wave_envelope_full(
        self, queue: List[Tuple[NodeId, NodeId, bytes]], rnd: Round
    ) -> None:
        """Envelope-path ACK wave for the FULL transport.

        Each link's ACKs seal as one envelope whose members carry their
        own channel counters, so the logical per-ACK sizes (and the
        per-link counter sequences) match per-message writes exactly.
        """
        nodes = self.nodes
        traffic = self.stats.traffic
        transport = self.transport
        body_cache: Dict[bytes, bytes] = {}
        links: Dict[Tuple[NodeId, NodeId], List[bytes]] = {}
        for acker, dest, digest in queue:
            if not nodes[acker].alive:
                continue
            links.setdefault((acker, dest), []).append(digest)
        for (acker, dest), digests in links.items():
            bodies = []
            for digest in digests:
                body = body_cache.get(digest)
                if body is None:
                    body = encode(_ack_message(digest, rnd).to_tuple())
                    body_cache[digest] = body
                bodies.append(body)
            (env,) = transport.seal_envelope(acker, (dest,), bodies)
            for msize in env.member_sizes:
                traffic.record_send(MessageType.ACK, msize, rnd, physical=False)
            traffic.record_envelope(env.count, env.size)
            if not nodes[dest].alive:
                traffic.record_omissions(env.count)
                continue
            for message in transport.open_envelope(dest, env):
                self._credit_ack(dest, message.payload)

    def _deliver(self, wires: List[WireMessage], rnd: Round) -> None:
        """Receive per-wire: each wire passes the receiver's OS behaviour,
        then the channel read (integrity / program / freshness checks;
        failures count as omissions per Theorem A.2), then credits its
        handle (an ACK) or dispatches to the program."""
        nodes = self.nodes
        traffic = self.stats.traffic
        transport = self.transport
        tracer = self.tracer
        traced = tracer.enabled
        delivered = self._active.delivered
        for wire in wires:
            receiver_node = nodes.get(wire.receiver)
            if receiver_node is None or not receiver_node.alive:
                traffic.record_omission()
                if traced:
                    tracer.wire(rnd, wire, "omit_dead")
                continue
            behavior = receiver_node.behavior
            if behavior is not None and not behavior.filter_receive(wire, rnd):
                traffic.record_omission()
                if traced:
                    tracer.wire(rnd, wire, "drop_recv", actor=wire.receiver)
                continue
            try:
                message = transport.read(wire.receiver, wire)
            except (IntegrityError, ReplayError, StaleRoundError,
                    ProtocolError):
                traffic.record_rejection()
                if traced:
                    tracer.wire(rnd, wire, "reject")
                continue
            if message.type is MessageType.ACK:
                self._credit_ack(wire.receiver, message.payload)
                continue
            delivered.add(wire.receiver)
            receiver_node.program.on_message(
                receiver_node.context, wire.sender, message
            )


class _PerWireRounds:
    """The per-wire back-end: one wire per message.  The general one
    (adversarial, traced-FULL and heterogeneous runs — OS behaviours act
    on individual wires) and the reference the envelope back-end is tested
    against."""

    engine = "serial"

    def __init__(self, net: SynchronousNetwork) -> None:
        self.net = net
        self.run_hooks = net.run_hooks
        self._wires: List[WireMessage] = []

    def transmit(self, rnd: Round, intents: List[_SendIntent]) -> int:
        """Write each multicast through the blinded channel and hand the
        wires to the sender's OS behaviour, which may drop / delay /
        inject; surviving wires are charged (they crossed the network)."""
        net = self.net
        nodes = net.nodes
        traffic = net.stats.traffic
        transport = net.transport
        tracer = net.tracer
        traced = tracer.enabled
        # With envelope accounting, per-wire sends are logical-only; the
        # physical ledger gets one coalesced crossing per link below.
        physical = not net._envelope_accounting
        net._ack_size_cache.clear()
        transmissions: List[WireMessage] = []
        for intent in intents:
            message = intent.message
            wires = transport.write(
                intent.sender, intent.targets, message,
                modeled_wire_size(message),
            )
            behavior = nodes[intent.sender].behavior
            if behavior is None:
                for wire in wires:
                    traffic.record_send(
                        wire.mtype, wire.size, rnd, physical=physical
                    )
                if traced:
                    tracer.wire_fanout(rnd, wires, "send", charged=True)
                transmissions.extend(wires)
            else:
                for wire in wires:
                    net._apply_send_filter(
                        behavior, intent.sender, wire, rnd, transmissions
                    )

        # Injected (replayed / forged) wires and previously delayed wires
        # (only OS behaviours produce either).
        for behavior_id in net._behavior_nodes:
            node = nodes[behavior_id]
            behavior = node.behavior
            if not node.alive:
                continue
            for delay, out in behavior.drain_injections(rnd):
                if delay <= 0:
                    traffic.record_send(
                        out.mtype, out.size, rnd, physical=physical
                    )
                    if traced:
                        tracer.wire(
                            rnd, out, "replay", actor=node.node_id, charged=True
                        )
                    transmissions.append(out)
                else:
                    if traced:
                        tracer.wire(rnd, out, "replay", actor=node.node_id)
                    net._future_wires.setdefault(rnd + delay, []).append(out)
        for out in net._future_wires.pop(rnd, ()):  # delayed arrivals
            traffic.record_send(
                out.mtype, out.size, rnd, physical=physical
            )
            if traced:
                tracer.wire(rnd, out, "flush", charged=True)
            transmissions.append(out)

        if not physical and transmissions:
            net._record_physical_links(transmissions, rnd, "transmit")
        self._wires = transmissions
        return len(transmissions)

    def deliver(self, rnd: Round) -> int:
        net = self.net
        net._deliver(self._wires, rnd)
        return len(net._ack_queue)

    def ack_wave(self, rnd: Round) -> None:
        """Write the queued ACKs back through the acker's OS behaviour and
        deliver them."""
        net = self.net
        nodes = net.nodes
        traffic = net.stats.traffic
        transport = net.transport
        tracer = net.tracer
        traced = tracer.enabled
        physical = not net._envelope_accounting
        ack_queue, net._ack_queue = net._ack_queue, []
        ack_wires: List[WireMessage] = []
        for acker, dest, digest in ack_queue:
            acker_node = nodes[acker]
            if not acker_node.alive:
                continue
            ack = _ack_message(digest, rnd)
            cache_key = (
                ack.instance, ack.initiator, ack.seq, ack.rnd, ack.payload
            )
            size_hint = net._ack_size_cache.get(cache_key)
            if size_hint is None:
                size_hint = modeled_wire_size(ack)
                net._ack_size_cache[cache_key] = size_hint
            (wire,) = transport.write(acker, (dest,), ack, size_hint)
            behavior = acker_node.behavior
            if behavior is None:
                traffic.record_send(
                    wire.mtype, wire.size, rnd, physical=physical
                )
                if traced:
                    tracer.wire(rnd, wire, "send", charged=True)
                ack_wires.append(wire)
                continue
            net._apply_send_filter(behavior, acker, wire, rnd, ack_wires)
        if not physical and ack_wires:
            net._record_physical_links(ack_wires, rnd, "ack")
        net._deliver(ack_wires, rnd)
        # Behaviours tick every round regardless of program activity
        # (delay queues and injection schedules advance on rounds, not on
        # deliveries); they never interact with program hooks.
        for behavior_id in net._behavior_nodes:
            nodes[behavior_id].behavior.on_round_end(rnd)


class _EnvelopeRounds:
    """The round-envelope back-end: everything one sender transmits to
    one receiver in one wave crosses as a single :class:`Envelope` — one
    AEAD seal (FULL) or one counter bump (MODELED/NONE) per link.

    Semantically identical to :class:`_PerWireRounds` on its activation
    domain (honest, homogeneous, untraced-or-non-FULL): same logical
    traffic statistics, same dispatch order (so first-wins message
    semantics match), same ACK credits, halts and round summaries.
    """

    engine = "envelope"

    def __init__(self, net: SynchronousNetwork) -> None:
        self.net = net
        self.run_hooks = net.run_hooks
        self._plan: List[tuple] = []
        self._envelopes: List[Envelope] = []
        self._queue: List[Tuple[NodeId, NodeId, bytes]] = []

    def transmit(self, rnd: Round, intents: List[_SendIntent]) -> int:
        """Build the delivery plan — one entry per multicast, in emission
        order, so dispatch replays the per-wire delivery order exactly —
        then seal one envelope per (sender, receiver) link."""
        net = self.net
        traffic = net.stats.traffic
        transport = net.transport
        full = transport.security is ChannelSecurity.FULL
        digest_by_id = net._ack_digest_by_id
        digest_by_id.clear()
        plan: List[Tuple[NodeId, Tuple[NodeId, ...], ProtocolMessage, int]] = []
        per_sender: Dict[NodeId, List[tuple]] = {}
        logical_count = 0
        for intent in intents:
            message = intent.message
            digest_by_id[id(message)] = intent.digest
            logical_count += len(intent.targets)
            # FULL charges the real per-member sealed sizes, known only
            # after sealing, and carries the body (encoded once per
            # fan-out) where the modeled transports carry the size.
            sized = (
                encode(message.to_tuple()) if full
                else modeled_wire_size(message)
            )
            plan.append(
                (intent.sender, intent.targets, message, 0 if full else sized)
            )
            per_sender.setdefault(intent.sender, []).append(
                (intent.targets, message, sized)
            )
            if not full:
                net._charge_multicast(
                    rnd, intent.sender, intent.targets, message, sized
                )

        # Counters advance per member, so channel state stays
        # interchangeable with the per-wire back-end.
        envelopes: List[Envelope] = []
        for sender, entries in per_sender.items():
            if full:
                buckets: Dict[NodeId, List[tuple]] = {}
                for targets, message, body in entries:
                    for receiver in targets:
                        buckets.setdefault(receiver, []).append((message, body))
                for receiver, pairs in buckets.items():
                    (env,) = transport.seal_envelope(
                        sender, (receiver,), [body for _, body in pairs]
                    )
                    for (message, _), msize in zip(pairs, env.member_sizes):
                        traffic.record_send(
                            message.type, msize, rnd, physical=False
                        )
                    traffic.record_envelope(env.count, env.size)
                    envelopes.append(env)
                continue
            for receivers, members, env_size in net._coalesce_links(entries):
                # One seal call per member list: the transport hoists the
                # guard / measurement / row lookups out of the per-link loop.
                envelopes.extend(transport.seal_envelope(
                    sender, receivers, members, size=env_size
                ))
                net._charge_envelopes(
                    rnd, sender, receivers, len(members), env_size
                )
        self._plan = plan
        self._envelopes = envelopes
        return logical_count

    def deliver(self, rnd: Round) -> int:
        """Open each live receiver's envelopes (the link-level integrity /
        freshness checks, and for FULL the single AEAD open), then
        dispatch members in plan order."""
        net = self.net
        nodes = net.nodes
        traffic = net.stats.traffic
        transport = net.transport
        open_envelope = transport.open_envelope
        tracer = net.tracer
        traced = tracer.enabled
        full = transport.security is ChannelSecurity.FULL
        opened: Dict[Tuple[NodeId, NodeId], deque] = {}
        inbound: Set[NodeId] = set()
        for env in self._envelopes:
            receiver = env.receiver
            if not nodes[receiver].alive:
                continue  # per-member omissions are recorded in dispatch
            members = open_envelope(receiver, env)
            inbound.add(receiver)
            if full:
                opened[(env.sender, receiver)] = deque(members)
        # The dispatch table is static between program swaps (halts are
        # read live off the enclave below), so it is built once per run
        # instead of once per round.
        dispatch = net._dispatch_cache
        if dispatch is None:
            dispatch = [None] * net.config.n
            for node_id in range(net.config.n):
                node = nodes[node_id]
                dispatch[node_id] = (
                    node.enclave, node.program.on_message, node.context
                )
            net._dispatch_cache = dispatch
        halted = EnclaveState.HALTED
        for sender, targets, message, size_hint in self._plan:
            mtype = message.type.value if traced else None
            for receiver in targets:
                enclave, on_message, context = dispatch[receiver]
                if enclave.state is halted:
                    traffic.record_omission()
                    if traced:
                        tracer.emit(WireEvent(
                            rnd=rnd,
                            sender=sender,
                            receiver=receiver,
                            size=size_hint,
                            action="omit_dead",
                            mtype=mtype,
                        ))
                    continue
                if full:
                    on_message(
                        context, sender, opened[(sender, receiver)].popleft()
                    )
                else:
                    on_message(context, sender, message)
        # Every receiver that had an envelope opened got at least one
        # on_message dispatch — deliveries re-wake for the round's end.
        net._active.delivered.update(inbound)
        self._queue, net._ack_queue = net._ack_queue, []
        return len(self._queue)

    def ack_wave(self, rnd: Round) -> None:
        net = self.net
        if self._queue:
            if net.transport.security is ChannelSecurity.FULL:
                net._ack_wave_envelope_full(self._queue, rnd)
            else:
                net._ack_wave_envelope(self._queue, rnd)
