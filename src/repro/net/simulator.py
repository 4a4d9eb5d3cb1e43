"""The synchronous round-based simulation engine.

One :class:`SynchronousNetwork` drives N peers through lockstep rounds of
length ``2*delta`` (assumptions S2/S3).  Each peer is a :class:`Node`:
an :class:`Enclave` running an :class:`EnclaveProgram` (trusted) plus an
optional adversarial :class:`OSBehavior` (untrusted).

The round itself — Algorithm 2's begin, transmit, deliver, ack wave,
halt check (P4) and end, then the early stop once every live node has an
output, or ``on_protocol_end`` (⊥ for the undecided) at the round bound —
is written once, in :meth:`RoundHost._rounds`.  An execution environment
is a :class:`RoundBackend`: where hooks run and how messages move.  One
lives here, :class:`_EnvelopeRounds`: all messages sharing a clean
``(sender, receiver, round)`` link cross as one
:class:`~repro.channel.peer_channel.Envelope`, and a link with an OS
behaviour or a measurement mismatch at an end goes one wire per message,
the behaviours acting as per-link omission masks (Thm A.2).  The sharded
coordinator (:mod:`repro.net.parallel`) and the TCP daemon
(:mod:`repro.net.wire`) are the other two.
"""

from __future__ import annotations

import logging
import weakref
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
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
from repro.sgx.program import EnclaveProgram, batch_verb
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


class _BatchTable(list):
    """A dispatch table whose entries are ``(enclave, on_messages,
    context)``: :meth:`RoundHost._dispatch` hands each receiver its whole
    wave through the batch verb instead of one ``on_message`` per member.
    The simulator gives one to a run whose links all coalesce and that is
    untraced (``SynchronousNetwork._batch``)."""

    __slots__ = ()


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
    ``transport``, ``neighbour_tuple(node)``, ``_queue_ack(acker, dest,
    original)`` (``_queue_acks`` loops over it unless the host has a bulk
    form), ``evict_departed_node(node)`` and ``_reset_run_state()``
    (what :meth:`begin_session_run` drops between runs); those depend on
    how it delivers.
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

    def begin_session_run(
        self,
        program_factory: Callable[[NodeId], EnclaveProgram],
        *,
        seed: Optional[int] = None,
    ) -> None:
        """Re-arm this host for a fresh, *independent* protocol run: a new
        execution, where :meth:`SynchronousNetwork.replace_programs` is
        the next instance of the same one.  Every hosted enclave is
        relaunched (fresh program of any measurement, RDRAND fork off a
        re-seeded master RNG, clock reference reset) and
        :meth:`_reset_run_state` drops whatever one run stages or caches.
        The network survives: topology, secure channels (FULL keeps its
        keys) and monotone freshness counters, so a replay captured in
        run ``i`` is still dead in run ``i+1``.  RNG forks are
        label-derived and each channel draws from its own link streams,
        so a re-armed host decides what a freshly built one does at
        ``seed``.  The simulator hosts every node; a
        :class:`repro.net.wire.WireNode` hosts, and relaunches, its own.
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

    def _queue_acks(
        self, acker: NodeId, pairs: Iterable[Tuple[NodeId, ProtocolMessage]]
    ) -> None:
        """``_queue_ack`` for each ``(dest, original)`` pair, in order."""
        for dest, original in pairs:
            self._queue_ack(acker, dest, original)

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
            backend.run_hooks("on_round_begin", rnd)
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
    ) -> List[NodeId]:
        """:meth:`RoundBackend.run_hooks` for programs hosted in this
        process: visit the nodes the scheduler says are due, in node-id
        order; returns the visit list.  The only caller of a program's
        round and protocol-end hooks — a shard worker runs it on its
        replica too."""
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
        # Wait semantics: what on_round_begin stages transmits this round.
        self._in_round_begin = hook == "on_round_begin"
        for node_id in visit:
            node = nodes[node_id]
            if node.alive:
                getattr(node.program, hook)(node.context)
        self._in_round_begin = False
        if hook == "on_round_end":
            active.after_end(rnd, visit, halted_now)
        return visit

    def _dispatch(
        self, rnd: Round, plan: Iterable[tuple], dispatch,
        omit: Optional[Callable[..., None]] = None,
    ) -> None:
        """Hand a plan's ``(sender, targets, message, size)`` members to
        their receivers.  Every back-end dispatches here; what one must see
        per member comes through its dispatch table, never through this
        loop, and the table picks the order.

        A per-member table gives plan order: each member goes to each
        target's ``on_message`` through ``dispatch[target]``, an
        ``(enclave, on_message, context)``, or to ``omit``
        (:meth:`_omit_dead` unless given) once that enclave has halted.

        A :class:`_BatchTable` gives receiver-major order: receivers in
        ascending node id, each getting its members as ``(sender,
        message)`` pairs in plan order through one call of its
        ``on_messages``; a halted receiver's members, and those a program
        that halts part-way leaves unhandled, are omissions in bulk.  Only
        an untraced run whose links all coalesce gets one, because there
        the regrouping is unobservable:

        * each receiver sees its members in plan order, so first-wins
          rules decide as before, and an ``on_messages`` leaves what the
          per-member loop leaves (:meth:`EnclaveProgram.on_messages`);
        * the next round's plan (``_outbox_next`` is one host-wide list)
          comes out receiver-major too, but each sender's intents keep
          its emission order, so every link carries the same members in
          the same order and FULL seals the same bytes;
        * the ACK queue and the round's multicast handles change order;
          ACKs are only tallied into counters (the sharded coordinator
          merges worker tallies in another order already), and a
          round's ``halted_now`` and ``RunResult.halted`` are sorted;
        * the wire already delivers sender-major and decides what the
          simulator decides.

        A traced run keeps plan order because its event order is pinned;
        a run with a per-wire link does because an OS behaviour such as
        :class:`~repro.adversary.omission.RandomOmission` draws one coin
        per call from a sequential per-node stream, and another receive
        or ACK order would land its coins on other wires.
        """
        halted = EnclaveState.HALTED
        if isinstance(dispatch, _BatchTable):
            batches: List[list] = [[] for _ in dispatch]
            for sender, targets, message, _size in plan:
                member = (sender, message)
                for receiver in targets:
                    batches[receiver].append(member)
            traffic = self.stats.traffic
            for receiver, (enclave, on_messages, context) in enumerate(
                dispatch
            ):
                batch = batches[receiver]
                if not batch:
                    continue
                # Dropped once handed over: the round's ACK queue peaks at
                # the end of the loop, and would peak on top of them.
                batches[receiver] = None
                if enclave.state is halted:
                    traffic.record_omissions(len(batch))
                    continue
                handled = on_messages(context, batch)
                if handled < len(batch):
                    traffic.record_omissions(len(batch) - handled)
            return
        omit = omit or self._omit_dead
        for sender, targets, message, size in plan:
            for receiver in targets:
                enclave, on_message, context = dispatch[receiver]
                if enclave.state is halted:
                    omit(rnd, sender, receiver, size, message.type)
                else:
                    on_message(context, sender, message)

    def _omit_dead(
        self, rnd: Round, sender: NodeId, receiver: NodeId, size: int,
        mtype: Optional[MessageType],
    ) -> None:
        """A message addressed to a halted (or unknown) receiver is an
        omission — and, traced, an ``omit_dead`` event."""
        self.stats.traffic.record_omission()
        if self.tracer.enabled:
            self.tracer.emit(WireEvent(
                rnd=rnd, sender=sender, receiver=receiver, size=size,
                action="omit_dead", mtype=getattr(mtype, "value", None),
            ))

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
        # In node-id order: the handles follow the plan's order, which a
        # batched run regroups (see _dispatch).
        halted_now.sort()
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
                tracer.emit(RoundSpan(
                    rnd=rnd, bytes=round_bytes, seconds=seconds,
                    omissions=omissions, rejections=rejections, live=live,
                    decided=decided, halted=halted_now,
                ))
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
        # A weak proxy: the host owns its nodes' contexts, and a strong
        # back-reference would make every finished run cyclic garbage.
        self._network = weakref.proxy(network)
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

    def acknowledge_all(
        self, pairs: Iterable[Tuple[NodeId, ProtocolMessage]]
    ) -> None:
        """:meth:`acknowledge` each ``(dest, original)`` pair, in order."""
        self._network._queue_acks(self.node_id, pairs)

    def halt(self) -> None:
        """Voluntary Halt(st) — the enclave leaves the network (P4)."""
        self._network._halt_node(self.node_id, self.round)

    @property
    def halted(self) -> bool:
        """Whether this enclave has halted."""
        return not self._network.nodes[self.node_id].alive


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

        self._init_round_state()
        # A network outlives its protocol instances, so its digest memo is
        # bounded — see _ack_digest.  OrderedDict: the policy is LRU.
        self._digest_cache: "OrderedDict[tuple, bytes]" = OrderedDict()
        # This round's ACKs as (acker, dest, digest) triples — the digest
        # is all an ACK carries; only a per-wire link ever builds
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
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Open a fresh run (the first one too): an instance's reset, the
        ACK digest LRU (a fresh run repeats no multicast identity), and
        every per-run engine decision resolved again from live state —
        the per-link predicate depends on the installed programs'
        measurements, which a session run may change."""
        self._reset_instance_state()
        self._digest_cache.clear()
        config = self.config
        # The observability hub: config.tracer, or the permanently
        # disabled NULL_TRACER (zero overhead: the engine checks one
        # boolean before building any event).
        self.tracer: Tracer = (
            config.tracer if config.tracer is not None else NULL_TRACER
        )
        # Phase-attributed wall-clock collector (repro.obs.timing), read
        # by the round kernel only; None (the default) reads no clock.
        self._timing = config.timing
        self._wired = self._per_wire_links()
        # Receiver-major delivery (see RoundHost._dispatch).
        self._batch = self._wired is None and not self.tracer.enabled
        # Per-round observation hook: ``extra["round_hook"]`` is called as
        # ``hook(network, rnd, halted_now)`` when a round closes, whatever
        # back-end served it.  The campaign runner uses it to collect
        # liveness trails for invariant checking; the hook must treat the
        # network as read-only.
        self._round_hook = config.extra.get("round_hook")
        self._warned_parallel_fallback = False
        self.sched_counters = dict.fromkeys(self.sched_counters, 0)

    def _per_wire_links(self) -> Optional[List[FrozenSet[NodeId]]]:
        """The per-link predicate: entry ``s`` is the set of peers whose
        link with ``s`` goes per wire; None when every link coalesces.

        A link goes per wire when an end has an OS behaviour (it meets
        the members one by one) or the ends' measurements differ (each
        member rejects on its own).  Then every link of a traced run goes
        per wire, as does every link of a traced FULL run: traced events
        carry per-message sealed sizes and OS actions in per-wire order
        (Definition A.5).
        """
        faulty = frozenset(self._behavior_nodes)
        groups: Dict[bytes, List[NodeId]] = {}
        for node_id, node in self.nodes.items():
            groups.setdefault(node.enclave.measurement, []).append(node_id)
        traced = self.tracer.enabled
        full = self.config.channel_security is ChannelSecurity.FULL
        if not faulty and len(groups) == 1 and not (traced and full):
            return None
        everyone = frozenset(self.nodes)
        if traced:
            return [everyone] * self.config.n
        wired: List[FrozenSet[NodeId]] = [everyone] * self.config.n
        for members in groups.values():
            peers = faulty | everyone.difference(members)
            for node_id in set(members) - faulty:
                wired[node_id] = peers
        return wired

    @property
    def action_trace(self) -> Optional[ActionTrace]:
        """Definition A.5 instrumentation as a view over the tracer.

        Available when the tracer retains events in memory
        (``Tracer.memory()``, or any tracer with a
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
        # The back-end caches the digest of each message object it
        # transmits; FULL delivers decoded copies, and a delayed copy an
        # old message, so both fall back to the keyed memo.
        digest = self._ack_digest_by_id.get(id(original))
        if digest is None:
            digest = self._ack_digest(_multicast_key(original))
        self._ack_queue.append((acker, dest, digest))

    def _queue_acks(
        self, acker: NodeId, pairs: Iterable[Tuple[NodeId, ProtocolMessage]]
    ) -> None:
        # _queue_ack's digests, in one extend.
        by_id = self._ack_digest_by_id.get
        keyed = self._ack_digest
        self._ack_queue.extend([
            (acker, dest,
             by_id(id(original)) or keyed(_multicast_key(original)))
            for dest, original in pairs
        ])

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
        self._reset_instance_state()

    def _reset_instance_state(self) -> None:
        """Drop everything one run (or instance) stages or caches per
        round, and rescope the traffic stats to the next one."""
        self._outbox_now.clear()
        self._outbox_next.clear()
        self._ack_queue.clear()
        self._ack_digest_by_id.clear()
        self._future_wires.clear()
        self._pending_handles.clear()
        self.invalidate_neighbour_cache()
        # The cached envelope dispatch table holds bound on_message
        # methods of the *old* programs — rebuild on next use.
        self._dispatch_cache: Optional[List[tuple]] = None
        self.stats = RunStats()
        self.current_round = 0

    def _dispatch_table(self) -> List[tuple]:
        """``(enclave, on_message, context)`` by node id, built once per
        run: halts are read live off the enclave; a program swap drops
        it."""
        if self._dispatch_cache is None:
            self._dispatch_cache = [
                (node.enclave, node.program.on_message, node.context)
                for node in self.nodes.values()
            ]
        return self._dispatch_cache

    def _batch_table(self) -> _BatchTable:
        """``(enclave, on_messages, context)`` by node id: the table of a
        run that delivers receiver-major."""
        return _BatchTable(
            (node.enclave, batch_verb(node.program), node.context)
            for node in self.nodes.values()
        )

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
        for _wave in self._rounds(max_rounds, _EnvelopeRounds(self)):
            pass  # the back-end moves messages inside its calls
        return self._result()

    def _parallel_requested(self) -> bool:
        """Whether the caller asked for the sharded engine at all: more
        than one worker over more than one node."""
        return self.config.workers > 1 and self.config.n > 1

    def _parallel_eligible(self) -> bool:
        """Whether this run executes on the sharded multi-process engine:
        requested, and nothing forces it back to the serial one."""
        return (
            self._parallel_requested()
            and self._parallel_fallback_reason() is None
        )

    def _parallel_fallback_reason(self) -> Optional[str]:
        """Why a run that asked for workers must execute serially, or
        ``None`` when it may shard: the sharded engine runs an honest
        MODELED/NONE run whose links all coalesce (OS behaviours live in
        one process), given usable shared memory for the rings.  A
        failure to fork, or to create the rings after all, is reported by
        :func:`run_parallel` itself, which can observe it.
        """
        if self._behavior_nodes:
            return "adversarial OS behaviours run serially, as per-wire links"
        if self.transport.security is ChannelSecurity.FULL:
            return (
                "FULL channel security seals in the coordinator, and the "
                "shard workers seal nothing"
            )
        if self._wired is not None:
            return "heterogeneous program measurements"
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
        delivered_any = False
        for index, (delay, out) in enumerate(behavior.filter_send(wire, rnd)):
            delivered_any = True
            if delay <= 0:
                traffic.record_send(out.mtype, out.size, rnd, physical=False)
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
                    rnd=rnd, sender=sender, receiver=receiver, size=size,
                    action="send", mtype=mtype, charged=True,
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

    def _tally_acks(
        self, queue: List[Tuple[NodeId, NodeId, bytes]]
    ) -> Tuple[Counter, Counter, int]:
        """An ACK queue as ``(link_counts, credits, total)``: ACKs per
        ``(acker, dest)`` link and per ``(dest, digest)`` multicast, and
        how many there are.  A halted acker's queued ACKs never leave."""
        halted = {
            node_id for node_id, node in self.nodes.items() if not node.alive
        }
        if halted:
            queue = [ack for ack in queue if ack[0] not in halted]
        return (
            Counter((acker, dest) for acker, dest, _ in queue),
            Counter((dest, digest) for _, dest, digest in queue),
            len(queue),
        )

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
        ack_size = self._ack_wire_size(rnd)
        if tracer.enabled:
            for acker, dest, _digest in queue:
                if nodes[acker].alive:
                    tracer.emit(WireEvent(
                        rnd=rnd, sender=acker, receiver=dest, size=ack_size,
                        action="send", mtype=MessageType.ACK.value,
                        charged=True,
                    ))
        self._settle_ack_wave(
            rnd, ack_size, *self._tally_acks(queue), seal=True
        )
        if tracer.enabled:
            # The per-wire path records an omit_dead event per ACK to a
            # halted destination, in queue order, after the sends.
            for acker, dest, _digest in queue:
                if nodes[acker].alive and not nodes[dest].alive:
                    tracer.emit(WireEvent(
                        rnd=rnd, sender=acker, receiver=dest, size=ack_size,
                        action="omit_dead", mtype=MessageType.ACK.value,
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
        charge: bool = True,
    ) -> None:
        """Charge and credit one aggregated MODELED/NONE ACK wave of
        ``total`` ACKs, ``ack_size`` bytes each: ``link_counts[(acker,
        dest)]`` per link, ``credits[(dest, digest)]`` per acknowledged
        multicast.  ACKs to a halted destination are omissions; ACKs for
        unknown multicasts are ignored, as in :meth:`_credit_ack`.

        ``seal`` moves each link's envelope through the transport so the
        channel counters advance as per-ACK writes would; the sharded
        coordinator passes False — its mirror carries no link state.
        ``charge=False`` leaves the physical ledger to the caller.
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
            if charge:
                self._charge_envelopes(
                    rnd, acker, (dest,), count, env_size, wave="ack"
                )
        for (dest, digest), count in credits.items():
            self._credit_ack(dest, digest, count)

    def _ack_wave_envelope_full(
        self,
        queue: List[Tuple[NodeId, NodeId, bytes]],
        rnd: Round,
        charge: bool = True,
    ) -> None:
        """Envelope-path ACK wave for the FULL transport.

        Each link's ACKs seal as one envelope whose members carry their
        own channel counters, so the logical per-ACK sizes (and the
        per-link counter sequences) match per-message writes exactly.
        ``charge=False`` leaves the physical ledger to the caller.
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
            if charge:
                traffic.record_envelope(env.count, env.size)
            if not nodes[dest].alive:
                traffic.record_omissions(env.count)
                continue
            for message in transport.open_envelope(dest, env):
                self._credit_ack(dest, message.payload)

    def _drain_os_wires(self, rnd: Round, out: List[WireMessage]) -> None:
        """The wires only OS behaviours put on a round, appended to
        ``out`` in per-wire order and charged like any send: each live
        behaviour's injections (replayed / forged copies), in node order
        (one an injection delays joins the future wires), then the wires
        delayed to this round."""
        nodes = self.nodes
        traffic = self.stats.traffic
        tracer = self.tracer
        traced = tracer.enabled
        for behavior_id in self._behavior_nodes:
            node = nodes[behavior_id]
            if not node.alive:
                continue
            for delay, wire in node.behavior.drain_injections(rnd):
                if delay <= 0:
                    traffic.record_send(
                        wire.mtype, wire.size, rnd, physical=False
                    )
                    if traced:
                        tracer.wire(
                            rnd, wire, "replay", actor=behavior_id,
                            charged=True,
                        )
                    out.append(wire)
                else:
                    if traced:
                        tracer.wire(rnd, wire, "replay", actor=behavior_id)
                    self._future_wires.setdefault(rnd + delay, []).append(wire)
        for wire in self._future_wires.pop(rnd, ()):  # delayed arrivals
            traffic.record_send(wire.mtype, wire.size, rnd, physical=False)
            if traced:
                tracer.wire(rnd, wire, "flush", charged=True)
            out.append(wire)

    def _receive(self, wire: WireMessage, rnd: Round) -> None:
        """Receive one wire: it passes the receiver's OS behaviour, then
        the channel read (integrity / program / freshness checks;
        failures count as omissions per Theorem A.2), then credits its
        handle (an ACK) or is dispatched to the program."""
        traffic = self.stats.traffic
        tracer = self.tracer
        receiver_node = self.nodes.get(wire.receiver)
        if receiver_node is None or not receiver_node.alive:
            self._omit_dead(
                rnd, wire.sender, wire.receiver, wire.size, wire.mtype
            )
            return
        behavior = receiver_node.behavior
        if behavior is not None and not behavior.filter_receive(wire, rnd):
            traffic.record_omission()
            if tracer.enabled:
                tracer.wire(rnd, wire, "drop_recv", actor=wire.receiver)
            return
        try:
            message = self.transport.read(wire.receiver, wire)
        except (IntegrityError, ReplayError, StaleRoundError, ProtocolError):
            traffic.record_rejection()
            if tracer.enabled:
                tracer.wire(rnd, wire, "reject")
            return
        if message.type is MessageType.ACK:
            self._credit_ack(wire.receiver, message.payload)
            return
        self._active.delivered.add(wire.receiver)
        receiver_node.program.on_message(
            receiver_node.context, wire.sender, message
        )

    def _end_os_round(self, rnd: Round) -> None:
        """Behaviours tick every round regardless of program activity
        (delay queues and injection schedules advance on rounds, not on
        deliveries); they never interact with program hooks."""
        nodes = self.nodes
        for behavior_id in self._behavior_nodes:
            nodes[behavior_id].behavior.on_round_end(rnd)


def _opened_copy(opened: dict, receiver: NodeId, on_message) -> Callable:
    """``on_message`` fed the next copy ``receiver`` opened from its
    sender's envelope."""

    def on_opened(context, sender, _message) -> None:
        on_message(context, sender, opened[(sender, receiver)].popleft())

    return on_opened


def _opened_batches(opened: dict, receiver: NodeId, on_messages) -> Callable:
    """``on_messages`` fed, member by member, the copies ``receiver``
    opened from its senders' envelopes."""

    def on_opened(context, batch) -> int:
        return on_messages(context, [
            (sender, opened[(sender, receiver)].popleft())
            for sender, _message in batch
        ])

    return on_opened


class _EnvelopeRounds:
    """The in-process round back-end.  What one sender transmits to one
    receiver in one wave over a clean link crosses as one
    :class:`Envelope`: one AEAD seal (FULL) or one counter bump
    (MODELED/NONE).  On a per-wire link
    (:meth:`SynchronousNetwork._per_wire_links`) each member is a wire
    through the sender's OS behaviour, whose surviving copies are the
    member's mask (none is a drop, Thm A.2), received at the member's
    plan position; injected and delayed copies follow the plan.  So each
    receiver sees the order of one wire per message, and every adversary
    coin repeats.  The physical ledger of a run with no per-wire link
    charges coalesced crossings; with one, each wave charges one crossing
    per link that carried anything, with the wave's logical bytes.
    """

    engine = "envelope"

    def __init__(self, net: SynchronousNetwork) -> None:
        self.net = net
        self.run_hooks = net.run_hooks
        self._wired = net._wired
        # The plan in delivery order: runs of clean members, each followed
        # by the per-wire copies that come next.
        self._segments: List[Tuple[List[tuple], List[WireMessage]]] = []
        self._envelopes: List[Envelope] = []
        self._extras: List[WireMessage] = []
        self._queue: List[Tuple[NodeId, NodeId, bytes]] = []
        if net._batch:
            self._dispatch = net._batch_table()
            opened_copies = _opened_batches
        else:
            self._dispatch = net._dispatch_table()
            opened_copies = _opened_copy
        if net.transport.security is ChannelSecurity.FULL:
            # A FULL receiver gets the decoded copies its links' envelopes
            # opened, in member order.  The wrappers close over the dict,
            # never over this back-end: a table entry that held it would
            # make every FULL run cyclic garbage.
            self._opened: Dict[Tuple[NodeId, NodeId], deque] = {}
            self._dispatch = type(self._dispatch)(
                (enclave, opened_copies(self._opened, receiver, verb), context)
                for receiver, (enclave, verb, context)
                in enumerate(self._dispatch)
            )

    def transmit(self, rnd: Round, intents: List[_SendIntent]) -> int:
        """Build the delivery plan — ``(sender, targets, message, size)``
        entries of clean members and the copies of per-wire ones, in
        emission order — writing the members on per-wire links, then seal
        the clean links."""
        net = self.net
        wired_of = self._wired
        traffic = net.stats.traffic
        write = net.transport.write
        full = net.transport.security is ChannelSecurity.FULL
        start = traffic.bytes_sent
        digest_by_id = net._ack_digest_by_id
        digest_by_id.clear()
        segments: List[Tuple[List[tuple], List[WireMessage]]] = [([], [])]

        def clean_member(entry: tuple) -> None:
            if segments[-1][1]:     # after a per-wire copy: a new segment
                segments.append(([], []))
            segments[-1][0].append(entry)

        per_sender: Dict[NodeId, List[tuple]] = {}
        wires: List[WireMessage] = []  # every copy on a per-wire link
        in_flight = 0
        for intent in intents:
            sender, targets, message = (
                intent.sender, intent.targets, intent.message
            )
            digest_by_id[id(message)] = intent.digest
            size = modeled_wire_size(message)
            clean = targets
            wired = None if wired_of is None else wired_of[sender]
            if wired is None or wired.isdisjoint(targets):
                clean_member((sender, targets, message, size))
            else:
                behavior = net.nodes[sender].behavior
                sent = write(
                    sender, [r for r in targets if r in wired], message, size
                )
                if behavior is None:  # an honest OS: every member leaves
                    traffic.record_send_bulk(
                        message.type, sum(wire.size for wire in sent), rnd,
                        len(sent), physical=False,
                    )
                    net.tracer.wire_fanout(rnd, sent, "send", charged=True)
                sent = iter(sent)
                clean = []
                for receiver in targets:
                    if receiver not in wired:
                        # Untraced: see _per_wire_links.
                        clean_member((sender, (receiver,), message, size))
                        clean.append(receiver)
                        continue
                    wire = next(sent)
                    if behavior is None:
                        copies = [wire]
                    else:
                        copies = []
                        net._apply_send_filter(
                            behavior, sender, wire, rnd, copies
                        )
                    segments[-1][1].extend(copies)
                    wires.extend(copies)
                clean = tuple(clean)
            if clean:
                in_flight += len(clean)
                # FULL seals the body (encoded once per fan-out) and
                # charges the real sealed sizes, known only after sealing.
                per_sender.setdefault(sender, []).append((
                    clean, message,
                    encode(message.to_tuple()) if full else size,
                ))
                if not full:
                    net._charge_multicast(rnd, sender, clean, message, size)
        self._segments = segments
        self._extras = []
        self._envelopes = self._seal(
            rnd, per_sender, full, charge=wired_of is None
        )
        if wired_of is not None:
            net._drain_os_wires(rnd, self._extras)
            self._charge_crossings(
                rnd, "transmit",
                [(env.sender, env.receiver) for env in self._envelopes],
                wires + self._extras, start,
            )
        return in_flight + len(wires) + len(self._extras)

    def _seal(
        self,
        rnd: Round,
        per_sender: Dict[NodeId, List[tuple]],
        full: bool,
        charge: bool,
    ) -> List[Envelope]:
        """Seal each sender's ``(targets, message, size-or-body)``
        entries as one envelope per link, counters advancing per member;
        ``charge`` puts the coalesced crossings on the physical ledger."""
        net = self.net
        traffic = net.stats.traffic
        transport = net.transport
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
                    if charge:
                        traffic.record_envelope(env.count, env.size)
                    envelopes.append(env)
                continue
            for receivers, members, env_size in net._coalesce_links(entries):
                # One seal call per member list: the transport hoists the
                # guard / measurement / row lookups out of the per-link loop.
                envelopes.extend(transport.seal_envelope(
                    sender, receivers, members, size=env_size
                ))
                if charge:
                    net._charge_envelopes(
                        rnd, sender, receivers, len(members), env_size
                    )
        return envelopes

    def _charge_crossings(
        self, rnd: Round, wave: str, clean: Iterable[Tuple[NodeId, NodeId]],
        wires: List[WireMessage], start: int,
    ) -> None:
        """Charge one crossing per link that carried anything and the
        logical bytes since ``start``.  A traced run has no clean link: it
        traces each crossing, members and bytes, in first-use order."""
        net = self.net
        tracer = net.tracer
        if tracer.enabled:
            links: Dict[Tuple[NodeId, NodeId], List[int]] = {}
            for wire in wires:
                entry = links.setdefault((wire.sender, wire.receiver), [0, 0])
                entry[0] += 1
                entry[1] += wire.size
            for (sender, receiver), (count, size) in links.items():
                tracer.envelope(rnd, sender, receiver, count, size, wave=wave)
        else:
            links = set(clean)
            links.update([(wire.sender, wire.receiver) for wire in wires])
        traffic = net.stats.traffic
        traffic.record_envelopes(len(links), traffic.bytes_sent - start)

    def deliver(self, rnd: Round) -> int:
        """Open the live receivers' envelopes, then dispatch in plan
        order: clean members through the kernel, each per-wire copy
        through the receiver's checks, then the extra copies."""
        net = self.net
        nodes = net.nodes
        receive = net._receive
        full = net.transport.security is ChannelSecurity.FULL
        inbound: Set[NodeId] = set()
        if full:
            self._opened.clear()
        for env in self._envelopes:
            receiver = env.receiver
            if nodes[receiver].alive:  # else omitted member by member
                members = net.transport.open_envelope(receiver, env)
                inbound.add(receiver)
                if full:
                    self._opened[(env.sender, receiver)] = deque(members)
        for entries, copies in self._segments:
            net._dispatch(rnd, entries, self._dispatch)
            for wire in copies:
                receive(wire, rnd)
        for wire in self._extras:
            receive(wire, rnd)
        # Every receiver that had an envelope opened got at least one
        # on_message dispatch — deliveries re-wake for the round's end.
        net._active.delivered.update(inbound)
        self._queue, net._ack_queue = net._ack_queue, []
        return len(self._queue)

    def ack_wave(self, rnd: Round) -> None:
        """Clean links' ACKs aggregate, one envelope per link; an ACK on
        a per-wire link is a wire through the acker's OS behaviour and
        the receiver's checks, as in :meth:`transmit`."""
        net = self.net
        queue = self._queue
        if self._wired is None:
            if queue and net.transport.security is ChannelSecurity.FULL:
                net._ack_wave_envelope_full(queue, rnd)
            elif queue:
                net._ack_wave_envelope(queue, rnd)
            return
        nodes = net.nodes
        traffic = net.stats.traffic
        traced = net.tracer.enabled
        wired_of = self._wired
        start = traffic.bytes_sent
        ack_size = net._ack_wire_size(rnd)
        clean = [ack for ack in queue if ack[1] not in wired_of[ack[0]]]
        link_counts, credits, total = net._tally_acks(clean)
        wires: List[WireMessage] = []
        for acker, dest, digest in queue:
            if dest not in wired_of[acker] or not nodes[acker].alive:
                continue
            (wire,) = net.transport.write(
                acker, (dest,), _ack_message(digest, rnd), ack_size
            )
            behavior = nodes[acker].behavior
            if behavior is None:
                traffic.record_send(wire.mtype, wire.size, rnd, physical=False)
                if traced:
                    net.tracer.wire(rnd, wire, "send", charged=True)
                wires.append(wire)
            else:
                net._apply_send_filter(behavior, acker, wire, rnd, wires)
        if net.transport.security is ChannelSecurity.FULL:
            net._ack_wave_envelope_full(clean, rnd, charge=False)
        else:
            net._settle_ack_wave(
                rnd, ack_size, link_counts, credits, total,
                seal=True, charge=False,
            )
        self._charge_crossings(rnd, "ack", link_counts, wires, start)
        for wire in wires:
            net._receive(wire, rnd)
        net._end_os_round(rnd)
