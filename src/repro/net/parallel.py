"""Sharded multi-process round engine: the round kernel's third back-end.

A synchronous lockstep round is embarrassingly parallel across
*receivers*: on the honest envelope domain (the only one where this
module engages, see ``SynchronousNetwork._parallel_eligible``) a node's
round work — its ``on_round_begin`` / ``on_message`` / ``on_round_end``
transitions, outbound message sizing and ACK digest computation — reads
and writes only that node's enclave plus the network-level queues, never
another node's state.  So the engine partitions the ``n`` nodes into
``P`` shards (``node_id % P``) and gives every shard its own *forked*
worker process holding a full replica of the network.

:meth:`repro.net.simulator.RoundHost._rounds` sequences the round on the
coordinator's network (the *mirror*); :class:`_Coordinator` is its
:class:`~repro.net.simulator.RoundBackend`.  Hooks run in the workers:
each ``run_hooks`` call is one command frame down every shard's
shared-memory ring (:mod:`repro.net.shm`), the workers' staged intents
*streaming* back in keyed chunks while they are produced and a ``done``
frame closing the exchange.  Messages move as one plan frame, pickled
once and written into every ring; workers dispatch the members addressed
to their owned receivers and ship ACK aggregates and voluntary halts
home.  All traffic accounting, handle crediting, the halt check and the
round's close happen on the mirror, through the serial envelope
back-end's own methods, with divergence halts and the round's duration
shipped down so every replica observes the same liveness and clock.
Which owned nodes a worker visits is decided by its replica's
:class:`~repro.net.activeset.ActiveSet`.

A timed run's clock is the kernel's; each wave adds only what this
back-end alone has — the coordinator's wait beyond the slowest shard
(``barrier``), that shard's streaming time (``shm``), and every shard's
busy / idle split (:meth:`~repro.obs.timing.TimingCollector.record_shard`).

Determinism: per-node RNG streams live in the enclaves, which are
sharded wholesale; shard assignment is a pure function of ``node_id``;
every cross-process collection is keyed (node id, emission index, plan
position) with globally unique keys and merged in sorted key order,
which provably reconstructs the serial engine's iteration order no
matter how shard chunks interleave on the wire.  A parallel run
therefore yields byte-identical ``RunResult`` snapshots,
``TrafficStats`` ledgers and traced event streams versus the serial
envelope back-end — enforced by ``tests/test_parallel_engine.py`` and
``tests/test_parallel_v2.py``.

Bookkeeping that is *not* replicated: the coordinator performs no
transmit-side ``seal_envelope``/``open_envelope`` calls (on MODELED/NONE
transports these only advance internal channel counters, which nothing
on the eligible domain can observe), and worker-side tracers are
swapped for in-memory sinks whose events are shipped back per exchange.

A host without usable shared memory never gets here (the run says why
and executes serially); if worker processes cannot be forked after all,
:func:`run_parallel` logs why and returns ``None`` and the caller falls
back to the serial engine; a worker dying *mid-run* raises, because
shard state is already ahead of the coordinator's mirror.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import pickle
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.channel.peer_channel import modeled_wire_size
from repro.common.types import ProtocolMessage
from repro.net.activeset import ActiveSet
from repro.net import shm
from repro.net.shm import _NOTHING, _wait_spin, DATA_PLANE_SHM, ShmChannel
from repro.net.simulator import RunResult, SynchronousNetwork, _SendIntent
from repro.obs.events import WireEvent
from repro.obs.metrics import PROFILER, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.sgx.enclave import EnclaveState

_LOG = logging.getLogger("repro.engine")

_PKL = pickle.HIGHEST_PROTOCOL

#: Workers flush a streamed intent chunk once it holds this many staged
#: records — small enough that the coordinator overlaps its merge with
#: the shard still producing, large enough to amortize the pickle.
_FLUSH_INTENTS = 128

#: The network replica a freshly forked worker inherits.  Set in the
#: parent strictly while the worker processes are started (fork copies
#: it into the child), consumed by :func:`_worker_init` in the child,
#: and cleared on both sides immediately after.
_FORK_NETWORK: Optional[SynchronousNetwork] = None

#: Worker-side shard state, created once per process by _worker_init.
_STATE: Optional["_WorkerState"] = None


def planned_data_plane(
    workers: Optional[int], extra: Optional[dict] = None
) -> Optional[str]:
    """The data plane a run with this shape would use — ``"shm"`` — or
    ``None`` when the sharded engine is not in play: a single worker, no
    fork start method, or no usable shared memory (such a run executes
    serially).  Pure — no warnings — so machine stamps and the contract
    benchmark can call it freely; ``extra`` is accepted for callers that pass their config's
    and selects nothing."""
    if not workers or workers <= 1:
        return None
    if "fork" not in multiprocessing.get_all_start_methods():
        return None  # pragma: no cover - POSIX containers always fork
    return DATA_PLANE_SHM if shm.shared_memory_available() else None


class _WorkerState:
    #: The replica; its ``_active`` schedules this shard's owned nodes.
    net: SynchronousNetwork
    shard: int
    nshards: int
    #: ``node_id % nshards == shard``.
    owned: range
    events: Optional[List[object]]
    traced: bool
    timed: bool
    #: Seconds the current op has spent streaming chunks home (timed runs).
    shm_s: float


# A staged send intent, as shipped from workers to the coordinator:
# (sender, targets, message, size, digest, expect_acks, threshold).
# ``targets`` is ``None`` when the intent goes to the sender's full
# neighbour set — by far the common case — so a mesh multicast ships a
# sentinel instead of n-1 node ids; both sides resolve it through their
# own (identical) neighbour cache.
_PackedIntent = Tuple[int, Optional[Tuple[int, ...]], ProtocolMessage, int,
                      bytes, bool, int]


def _pack_intent(intent: _SendIntent, net: SynchronousNetwork) -> _PackedIntent:
    """Size one staged intent (work the serial transmit does inline, here
    parallelized into the worker that ran the emitting hook) and pack it
    for the ring."""
    targets: Optional[Tuple[int, ...]] = intent.targets
    size = modeled_wire_size(intent.message) if targets else 0
    if targets and targets is net._neighbour_cache.get(intent.sender):
        targets = None
    return (
        intent.sender, targets, intent.message, size, intent.digest,
        intent.expect_acks, intent.threshold,
    )


# ----------------------------------------------------------------------
# worker-side handlers (run inside the forked shard processes)
# ----------------------------------------------------------------------

def _worker_init(shard: int, nshards: int) -> None:
    """First thing a freshly forked worker does: claim the inherited
    network replica and reduce it to this shard's view."""
    global _STATE, _FORK_NETWORK
    net = _FORK_NETWORK
    _FORK_NETWORK = None
    if net is None:  # pragma: no cover - defensive: spawn start method
        raise RuntimeError(
            "parallel engine worker started without a forked network"
        )
    st = _WorkerState()
    st.net = net
    st.shard = shard
    st.nshards = nshards
    st.owned = range(shard, net.config.n, nshards)
    _worker_observers(st, net.tracer.enabled, net._timing is not None)
    # on_setup ran on the replica before the fork.
    net._active = ActiveSet(net.nodes, st.owned)
    _worker_own_queues(net)
    _STATE = st


def _worker_observers(st: "_WorkerState", traced: bool, timed: bool) -> None:
    """Apply the worker-side observability policy to the replica."""
    net = st.net
    st.traced = traced
    # The replica's own kernel clock stays off: a timed worker reports
    # each wave op's busy and streaming seconds in its done frame.
    st.timed = timed
    net._timing = None
    if PROFILER.enabled:
        # The fork copied the coordinator's profiling registry wholesale;
        # keeping it would re-ship the parent's pre-fork observations.  A
        # fresh registry makes the dump shipped at _worker_finish hold
        # exactly this shard's post-fork counts, so coordinator + worker
        # registries add to what a serial run would have observed.
        PROFILER.registry = MetricsRegistry()
    if traced:
        # Replace the inherited tracer (whose sinks may hold duplicated
        # file handles) with a memory sink; events ship back per exchange.
        tracer = Tracer.memory()
        net.tracer = tracer
        st.events = tracer.events
    else:
        net.tracer = NULL_TRACER
        st.events = None


def _worker_own_queues(net: SynchronousNetwork) -> None:
    """The coordinator owns all queue state (it ran the same on_setup and
    keeps the staged intents); worker replicas start each run clean."""
    net._outbox_now.clear()
    net._outbox_next.clear()
    net._ack_queue.clear()
    net._ack_digest_by_id.clear()


def _worker_recycle(channel, payload: tuple) -> None:
    """Session recycle (op ``"n"``): re-run the fresh-run reset on this
    replica so a persistent crew serves the next protocol run without
    reforking.

    Mirrors what the coordinator's :meth:`SynchronousNetwork.\
begin_session_run` + ``_setup`` did on its side — same relaunch, same
    re-seeding, same cache invalidation, then ``on_setup`` for every
    alive node (fork inheritance would have copied exactly that state) —
    with the worker-side specialisations of ``_worker_init`` around it.
    """
    st = _STATE
    net = st.net
    seed, factory, traced, timed = payload
    net.begin_session_run(factory, seed=seed)
    # _resolve_run_paths restored config's tracer/timing; re-apply the
    # worker policy before any hook can emit.
    _worker_observers(st, traced, timed)
    net._setup(st.owned)
    _worker_own_queues(net)
    channel.send(("r", st.shard))


def _check_no_stray_acks(net: SynchronousNetwork, hook: str) -> None:
    if net._ack_queue:
        raise RuntimeError(
            f"parallel engine: ctx.acknowledge during {hook} is not "
            "supported (ACKs must answer a delivered message); "
            "run with workers=1"
        )


def _flush_staged(channel, staged: List[tuple]) -> None:
    """Stream one chunk of keyed staged intents home; a timed run adds
    the send to the shard's streaming seconds."""
    st = _STATE
    if st.timed:
        t0 = perf_counter()
        channel.send(("s", staged))
        st.shm_s += perf_counter() - t0
    else:
        channel.send(("s", staged))


def _run_hooks(
    channel, visit_ids: List[int], hook: str, outbox: list
) -> Tuple[List[int], List[tuple]]:
    """Run one round hook (``on_round_begin`` / ``on_round_end``) for the
    visited live nodes, in node order.

    Intents the hooks stage land in ``outbox`` and stream home in keyed
    chunks as nodes produce them.  Returns ``(halted, batches)``:
    voluntary halts and traced event batches per node.
    """
    st = _STATE
    net = st.net
    events = st.events
    halted: List[int] = []
    staged: List[tuple] = []
    batches: List[tuple] = []
    for node_id in visit_ids:
        node = net.nodes[node_id]
        if not node.alive:
            continue
        obase = len(outbox)
        ebase = len(events) if events is not None else 0
        getattr(node.program, hook)(node.context)
        if node.enclave.halted:
            halted.append(node_id)
        for idx in range(obase, len(outbox)):
            staged.append(
                ((node_id, idx - obase), _pack_intent(outbox[idx], net))
            )
        if len(staged) >= _FLUSH_INTENTS:
            _flush_staged(channel, staged)
            staged = []
        if events is not None and len(events) > ebase:
            batches.append((node_id, events[ebase:]))
    outbox.clear()
    if events is not None:
        events.clear()
    _check_no_stray_acks(net, hook)
    if staged:
        _flush_staged(channel, staged)
    return halted, batches


def _worker_begin(channel, rnd: int) -> tuple:
    """Op ``"b"``: on_round_begin for the owned nodes due this round.

    The reply carries voluntary halts, traced event batches and the
    visit counts.
    """
    net = _STATE.net
    net.current_round = rnd
    active = net._active
    visit_ids = active.begin(rnd)
    counts = (len(visit_ids), len(active.owned) - len(visit_ids))
    net._in_round_begin = True
    halted, batches = _run_hooks(
        channel, visit_ids, "on_round_begin", net._outbox_now
    )
    net._in_round_begin = False
    return halted, batches, counts


def _worker_deliver(channel, rnd: int, packed: list) -> tuple:
    """Op ``"v"``: dispatch the plan's members to owned receivers.

    Next-round intents stream home in keyed chunks; the reply carries
    voluntary halts, per-(plan, target) omission keys for dead owned
    receivers and the ACK wave (raw and keyed when traced, else
    pre-aggregated link/credit counters).
    """
    st = _STATE
    net = st.net
    digest_by_id = net._ack_digest_by_id
    digest_by_id.clear()
    plan = []
    for sender, targets, message, digest in packed:
        if targets is None:
            targets = net.neighbour_tuple(sender)
        digest_by_id[id(message)] = digest
        plan.append((sender, targets, message))
    nshards = st.nshards
    shard = st.shard
    nodes = net.nodes
    outbox = net._outbox_next
    ackq = net._ack_queue
    events = st.events
    traced = st.traced
    halted: List[int] = []
    omitted: List[tuple] = []
    staged: List[tuple] = []
    batches: List[tuple] = []
    raw_acks: List[tuple] = []
    halted_state = EnclaveState.HALTED
    delivered = net._active.delivered
    for i, (sender, targets, message) in enumerate(plan):
        for j, receiver in enumerate(targets):
            if receiver % nshards != shard:
                continue
            node = nodes[receiver]
            enclave = node.enclave
            if enclave.state is halted_state:
                omitted.append((i, j))
                continue
            abase = len(ackq)
            obase = len(outbox)
            ebase = len(events) if traced else 0
            delivered.add(receiver)
            node.program.on_message(node.context, sender, message)
            if enclave.state is halted_state:
                halted.append(receiver)
            if traced and len(ackq) > abase:
                for k in range(abase, len(ackq)):
                    raw_acks.append(((i, j, k - abase), ackq[k]))
            for idx in range(obase, len(outbox)):
                staged.append(
                    ((i, j, idx - obase), _pack_intent(outbox[idx], net))
                )
            if len(staged) >= _FLUSH_INTENTS:
                _flush_staged(channel, staged)
                staged = []
            if traced and len(events) > ebase:
                batches.append(((i, j), events[ebase:]))
    link_counts: Dict[tuple, int] = {}
    credits: Dict[tuple, int] = {}
    total = 0
    if not traced:
        # Pre-aggregate the wave.  The serial ACK wave drops a halted
        # acker's queued ACKs at wave time; since every ACK a node emits
        # is handled in its own shard, final liveness is known locally.
        for acker, dest, digest in ackq:
            if nodes[acker].enclave.state is halted_state:
                continue
            total += 1
            key = (acker, dest)
            link_counts[key] = link_counts.get(key, 0) + 1
            ckey = (dest, digest)
            credits[ckey] = credits.get(ckey, 0) + 1
    ackq.clear()
    outbox.clear()
    if traced:
        events.clear()
    if staged:
        _flush_staged(channel, staged)
    return halted, omitted, link_counts, credits, total, raw_acks, batches


def _worker_end(
    channel, rnd: int, halted_now: List[int], seconds: float
) -> tuple:
    """Op ``"e"``: apply divergence halts, run on_round_end, advance the
    shard's clock replica, and report decided / all-done state."""
    net = _STATE.net
    for node_id in halted_now:
        net._halt_node(node_id, rnd)
    active = net._active
    end_visit = active.end()
    counts = (len(end_visit), len(active.owned) - len(end_visit))
    halted, batches = _run_hooks(
        channel, end_visit, "on_round_end", net._outbox_next
    )
    net.clock.advance(seconds)
    active.after_end(rnd, end_visit, halted_now)
    return halted, batches, active.decided, active.all_done, counts


def _worker_finish(channel) -> tuple:
    """Op ``"f"``: on_protocol_end, then ship the terminal per-node
    state back as plain tuples.

    Plain tuples, not program objects: ``EnclaveProgram`` tracks its
    undecided state with a module-level ``_UNSET`` singleton compared by
    identity, which pickling would silently break.
    """
    st = _STATE
    net = st.net
    events = st.events
    traced = st.traced
    batches: List[tuple] = []
    owned = net._active.owned
    for node_id in owned:
        node = net.nodes[node_id]
        if not node.alive:
            continue
        ebase = len(events) if traced else 0
        node.program.on_protocol_end(node.context)
        if traced and len(events) > ebase:
            batches.append((node_id, events[ebase:]))
    final = []
    for node_id in owned:
        node = net.nodes[node_id]
        program = node.program
        has_output = program.has_output
        final.append((
            node_id,
            node.alive,
            node.enclave.halted_round,
            has_output,
            program.output if has_output else None,
            program.decided_round,
            node.enclave.rdrand,
        ))
    # Ship this shard's post-fork profiling observations home: the fork
    # orphans the worker's PROFILER registry, so without this the crypto /
    # serialization histograms a parallel run populates in the workers
    # would silently vanish from the coordinator's report.
    profile = None
    if PROFILER.enabled and PROFILER.registry is not None:
        profile = PROFILER.registry.dump()
        # A persistent crew (engine sessions) may serve further runs from
        # this same process; a fresh registry keeps the next run's dump
        # from re-shipping (double-counting) this run's observations.
        PROFILER.registry = MetricsRegistry()
    return batches, final, profile


#: The ops that answer with a ``("d", reply, timing)`` frame.
_WAVE_OPS = {
    "b": _worker_begin,
    "v": _worker_deliver,
    "e": _worker_end,
    "f": _worker_finish,
}


def _worker_main(shard: int, nshards: int, channel) -> None:
    """Worker process entry: bind the channel, init the shard, then loop
    on command frames until told to quit.  Any failure ships one ``"x"``
    frame (the formatted traceback) home and exits non-zero; exit is via
    ``os._exit`` so inherited file handles and shared mappings are never
    double-flushed or double-closed by the child's teardown.

    A wave op's ``done`` frame carries ``(busy_seconds, streaming
    seconds)`` when the run is timed, else ``None``."""
    status = 0
    try:
        channel.bind_worker()
        _worker_init(shard, nshards)
        channel.send(("r", shard))
        parent_pid = os.getppid()

        def _parent_alive() -> None:
            if os.getppid() != parent_pid:  # pragma: no cover - reparented
                os._exit(3)

        while True:
            cmd = channel.recv(_parent_alive)
            op = cmd[0]
            handler = _WAVE_OPS.get(op)
            if handler is not None:
                st = _STATE
                if st.timed:
                    st.shm_s = 0.0
                    t0 = perf_counter()
                    reply = handler(channel, *cmd[1:])
                    timing = (perf_counter() - t0, st.shm_s)
                else:
                    reply, timing = handler(channel, *cmd[1:]), None
                channel.send(("d", reply, timing))
            elif op == "n":
                _worker_recycle(channel, cmd[1])
            elif op == "q":
                break
            else:  # pragma: no cover - protocol bug
                raise RuntimeError(f"unknown command {op!r}")
    except BaseException:
        status = 1
        try:
            channel.send(("x", traceback.format_exc()))
        except Exception:  # pragma: no cover - channel gone too
            pass
    finally:
        os._exit(status)


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------

class _ShardCrew:
    """P forked worker processes, one duplex channel each.

    Dedicated processes (rather than one P-worker pool) pin each shard
    to one worker for the whole run — the fixed shard→worker assignment
    that keeps per-node RNG streams and caches deterministic.
    """

    def __init__(self, network: SynchronousNetwork, nshards: int) -> None:
        global _FORK_NETWORK
        ctx = multiprocessing.get_context("fork")
        # Flush any buffered tracer sinks: the children inherit open file
        # objects, and a non-empty write buffer would be flushed twice.
        for sink in network.tracer.sinks:
            fh = getattr(sink, "_fh", None)
            if fh is not None and not fh.closed:
                fh.flush()
        self.channels = [ShmChannel() for _ in range(nshards)]
        self.nshards = nshards
        self.procs: List[multiprocessing.process.BaseProcess] = []
        _FORK_NETWORK = network
        try:
            for shard, channel in enumerate(self.channels):
                proc = ctx.Process(
                    target=_worker_main,
                    args=(shard, nshards, channel),
                    name=f"repro-shard-{shard}",
                    daemon=True,
                )
                proc.start()
                self.procs.append(proc)
            self.await_ready()
        except BaseException:
            self.shutdown()
            raise
        finally:
            _FORK_NETWORK = None

    def await_ready(self) -> None:
        """Block until every shard reports its replica ready for a run
        (after the fork, and after each session recycle)."""
        for shard, channel in enumerate(self.channels):
            msg = channel.recv(self.check_alive)
            if msg[0] != "r":
                self.raise_worker_error(shard, msg)

    def broadcast_frame(self, blob: bytes) -> None:
        for channel in self.channels:
            channel.send_frame(blob)

    def check_alive(self) -> None:
        for shard, proc in enumerate(self.procs):
            if not proc.is_alive():
                raise RuntimeError(
                    f"parallel engine: shard {shard} worker died "
                    f"(exit code {proc.exitcode})"
                )

    def raise_worker_error(self, shard: int, msg) -> None:
        if isinstance(msg, tuple) and msg and msg[0] == "x":
            raise RuntimeError(
                f"parallel engine: shard {shard} worker failed:\n{msg[1]}"
            )
        raise RuntimeError(  # pragma: no cover - protocol bug
            f"parallel engine: unexpected frame from shard {shard}: {msg!r}"
        )

    def shutdown(self) -> None:
        blob = pickle.dumps(("q",), _PKL)
        for proc, channel in zip(self.procs, self.channels):
            if proc.is_alive():
                try:
                    channel.send_frame(blob)
                except Exception:  # pragma: no cover - ring torn down
                    pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - wedged worker
                proc.terminate()
                proc.join(timeout=5)
        for channel in self.channels:
            channel.close()


class _ShardTally:
    """What the mirror knows of the shards' schedulers — the part of an
    :class:`ActiveSet` the round kernel reads — summed from what the
    workers report when a round ends."""

    decided = 0
    all_done = False


class _Coordinator:
    """The sharded back-end: hooks run in the crew's workers, messages
    move as one plan frame written into every shard's ring.

    The coordinator's own ``SynchronousNetwork`` acts as the *mirror*:
    its enclaves' liveness is kept in lockstep with the shards (worker
    hooks never run here), so the kernel's handles, halt check and round
    close, and the final ``RunResult``, read the same state the serial
    engine would.
    """

    engine = "parallel"

    def __init__(self, network: SynchronousNetwork, crew: _ShardCrew) -> None:
        self.net = network
        self.crew = crew
        self.traced = network.tracer.enabled
        self.tm = network._timing
        self.tally = network._active = _ShardTally()
        self.result: Optional[RunResult] = None
        # Setup ran in the main process before the fork, so the round-1
        # emissions are staged here, not in any worker: size them here.
        for intent in network._outbox_next:
            if intent.targets:
                intent.size = modeled_wire_size(intent.message)

    # -- helpers -------------------------------------------------------

    def _apply_halts(self, node_ids: List[int], rnd: int) -> None:
        for node_id in node_ids:
            self.net._halt_node(node_id, rnd)

    def _emit_batches(self, batches: List[tuple]) -> None:
        """Splice per-node event batches back in serial (key) order."""
        emit = self.net.tracer.emit
        batches.sort(key=lambda kv: kv[0])
        for _key, events in batches:
            for event in events:
                emit(event)

    def _merge(self, staged: List[tuple]) -> List[_SendIntent]:
        """Streamed intent chunks back in exact serial emission order
        (every record is keyed), as the intents the kernel transmits."""
        neighbours = self.net.neighbour_tuple
        staged.sort(key=lambda kv: kv[0])
        return [
            _SendIntent(
                sender, neighbours(sender) if targets is None else targets,
                message, digest, expect_acks, threshold, size,
            )
            for _key, (sender, targets, message, size, digest, expect_acks,
                       threshold) in staged
        ]

    def _wave(self, blob: bytes, sink: List[tuple]) -> List[tuple]:
        """One streamed exchange: broadcast a command frame, then drain
        the shard channels until every shard's ``done`` frame has landed;
        returns the ``done`` payloads in shard order.

        Streamed ``"s"`` chunks splice into ``sink`` the moment they
        arrive — the incremental merge that replaces v1's
        wait-then-merge barrier.

        A timed run reads the clock twice, around the whole exchange.
        The slowest shard bounds the wave: the coordinator's wait beyond
        that shard's busy time is ``barrier`` (coordination latency), the
        shard's streaming time is ``shm``, and the rest of its busy time —
        work done in parallel — stays in the phase the wave served.
        """
        channels = self.crew.channels
        done: List[Optional[tuple]] = [None] * len(channels)
        timings: List[Optional[tuple]] = [None] * len(channels)
        remaining = len(channels)
        tm = self.tm
        t0 = perf_counter() if tm is not None else 0.0
        self.crew.broadcast_frame(blob)
        step = 0
        while remaining:
            progress = False
            for shard, channel in enumerate(channels):
                if done[shard] is not None:
                    continue
                while True:
                    msg = channel.try_recv()
                    if msg is _NOTHING:
                        break
                    progress = True
                    tag = msg[0]
                    if tag == "s":
                        sink.extend(msg[1])
                    elif tag == "d":
                        done[shard] = msg[1]
                        timings[shard] = msg[2]
                        remaining -= 1
                        break
                    else:
                        self.crew.raise_worker_error(shard, msg)
            if progress:
                step = 0
            else:
                if step and step % 2048 == 0:
                    self.crew.check_alive()
                _wait_spin(step)
                step += 1
        if tm is not None:
            wall = perf_counter() - t0
            busy, streaming = max(timings)
            barrier = max(0.0, wall - busy)
            tm.add("barrier", barrier)
            tm.add("shm", min(streaming, wall - barrier))
            for shard, (busy, streaming) in enumerate(timings):
                tm.record_shard(shard, busy, max(0.0, wall - busy), streaming)
        return done

    # -- where hooks run: in the workers --------------------------------

    def run_hooks(
        self, hook: str, rnd: int, halted_now=(), seconds: float = 0.0
    ) -> None:
        if hook == "on_round_begin":
            self._begin_hooks(rnd)
        elif hook == "on_round_end":
            self._end_hooks(rnd, halted_now, seconds)
        else:
            self._finish_hooks()

    def _begin_hooks(self, rnd: int) -> None:
        """What on_round_begin emits joins the carried-over intents in
        the mirror's outbox, after them — exactly as the serial outbox
        orders them."""
        net = self.net
        staged: List[tuple] = []
        responses = self._wave(pickle.dumps(("b", rnd), _PKL), staged)
        events: List[tuple] = []
        sched_counters = net.sched_counters
        for halted, batches, w_counts in responses:
            self._apply_halts(halted, rnd)
            events.extend(batches)
            sched_counters["begin_visited"] += w_counts[0]
            sched_counters["begin_skipped"] += w_counts[1]
        if self.traced:
            self._emit_batches(events)
        net._outbox_now.extend(self._merge(staged))

    def _end_hooks(self, rnd: int, halted_now: List[int], seconds: float) -> None:
        """Divergence halts and the round's duration ship down so every
        replica observes the same liveness and clock."""
        net = self.net
        staged: List[tuple] = []
        events: List[tuple] = []
        decided = 0
        all_done = True
        responses = self._wave(
            pickle.dumps(("e", rnd, halted_now, seconds), _PKL), staged
        )
        sched_counters = net.sched_counters
        for halted, batches, w_decided, w_done, w_counts in responses:
            self._apply_halts(halted, rnd)
            events.extend(batches)
            decided += w_decided
            all_done = all_done and w_done
            sched_counters["end_visited"] += w_counts[0]
            sched_counters["end_skipped"] += w_counts[1]
        if self.traced:
            self._emit_batches(events)
        net._outbox_next.extend(self._merge(staged))
        self.tally.decided = decided
        self.tally.all_done = all_done

    def _finish_hooks(self) -> None:
        """on_protocol_end in the workers, then their terminal per-node
        state folded into the mirror and the run's result."""
        net = self.net
        batches: List[tuple] = []
        final: Dict[int, tuple] = {}
        # No round is open any more, so the wave's buckets land at run
        # level.
        responses = self._wave(pickle.dumps(("f",), _PKL), [])
        for w_batches, w_final, w_profile in responses:
            batches.extend(w_batches)
            for record in w_final:
                final[record[0]] = record
            if w_profile is not None and PROFILER.enabled \
                    and PROFILER.registry is not None:
                PROFILER.registry.merge_dump(w_profile)
        if self.traced:
            self._emit_batches(batches)
        outputs: Dict[int, object] = {}
        decided: Dict[int, Optional[int]] = {}
        halted: List[int] = []
        for node_id in sorted(final):
            (_nid, alive, halted_round, has_output, output, decided_round,
             rdrand) = final[node_id]
            enclave = net.nodes[node_id].enclave
            # Re-sync the mirror's per-node RNG stream so a follow-up
            # instance on this network (replace_programs) continues the
            # exact stream a serial run would.
            enclave.rdrand = rdrand
            if not alive:
                net._halt_node(node_id, halted_round)  # on_protocol_end halts
                halted.append(node_id)
            if has_output:
                outputs[node_id] = output
                decided[node_id] = decided_round
        self.result = RunResult(
            outputs=outputs,
            halted=halted,
            stats=net.stats,
            decided_rounds=decided,
        )

    # -- how messages move: one plan frame over the rings ---------------

    def transmit(self, rnd: int, intents: List[_SendIntent]) -> int:
        """All accounting happens here on the coordinator's ledger, with
        the serial envelope back-end's own charging; sizes and digests
        were computed where the intents were staged.  No channel
        seal/open — on MODELED/NONE those only bump internal counters
        nothing on the eligible domain observes."""
        net = self.net
        cached = net._neighbour_cache
        plan: List[tuple] = []
        per_sender: Dict[int, List[tuple]] = {}
        logical_count = 0
        for intent in intents:
            sender, targets, message = intent.sender, intent.targets, intent.message
            logical_count += len(targets)
            # A mesh multicast ships a sentinel instead of n-1 node ids.
            raw = None if targets is cached.get(sender) else targets
            plan.append(
                (sender, raw, targets, message, intent.size, intent.digest)
            )
            per_sender.setdefault(sender, []).append(
                (targets, message, intent.size)
            )
            net._charge_multicast(rnd, sender, targets, message, intent.size)
        for sender, entries in per_sender.items():
            for receivers, members, env_size in net._coalesce_links(entries):
                net._charge_envelopes(
                    rnd, sender, receivers, len(members), env_size
                )
        self.plan = plan
        return logical_count

    def deliver(self, rnd: int) -> int:
        """The plan is pickled once and the same frame written into every
        shard's ring; the workers dispatch, the coordinator accounts."""
        net = self.net
        traffic = net.stats.traffic
        tracer = net.tracer
        traced = self.traced
        plan = self.plan
        blob = pickle.dumps(
            ("v", rnd, [(s, raw, m, d) for s, raw, _res, m, _sz, d in plan]),
            _PKL,
        )
        staged: List[tuple] = []
        omitted: List[tuple] = []
        raw_acks: List[tuple] = []
        link_counts: Dict[tuple, int] = {}
        credits: Dict[tuple, int] = {}
        ack_total = 0
        deliver_events: Dict[tuple, list] = {}
        responses = self._wave(blob, staged)
        for (halted, w_omitted, w_links, w_credits, w_total, w_raw,
             batches) in responses:
            self._apply_halts(halted, rnd)
            omitted.extend(w_omitted)
            if traced:
                raw_acks.extend(w_raw)
                for key, events in batches:
                    deliver_events[key] = events
            else:
                for key, value in w_links.items():
                    link_counts[key] = link_counts.get(key, 0) + value
                for key, value in w_credits.items():
                    credits[key] = credits.get(key, 0) + value
                ack_total += w_total
        if omitted:
            traffic.record_omissions(len(omitted))
        if traced:
            # Replay dispatch order: per (plan index, target index),
            # either the receiver's hook events or its omit_dead event.
            omitted_keys = set(omitted)
            emit = tracer.emit
            for i, (sender, _raw, resolved, message, size, _d) in \
                    enumerate(plan):
                mtype = message.type.value
                for j, receiver in enumerate(resolved):
                    events = deliver_events.get((i, j))
                    if events:
                        for event in events:
                            emit(event)
                    elif (i, j) in omitted_keys:
                        emit(WireEvent(
                            rnd=rnd,
                            sender=sender,
                            receiver=receiver,
                            size=size,
                            action="omit_dead",
                            mtype=mtype,
                        ))
            raw_acks.sort(key=lambda kv: kv[0])
        net._outbox_next.extend(self._merge(staged))
        # Traced: the raw, keyed wave.  Untraced: the workers
        # pre-aggregated it.
        self.acks = (
            [ack for _key, ack in raw_acks], link_counts, credits, ack_total
        )
        return len(raw_acks)

    def ack_wave(self, rnd: int) -> None:
        net = self.net
        queue, link_counts, credits, ack_total = self.acks
        if queue:
            net._ack_wave_envelope(queue, rnd)
        elif ack_total or credits:
            # The mirror carries no link state to seal through.
            net._settle_ack_wave(
                rnd, net._ack_wire_size(rnd), link_counts, credits,
                ack_total, seal=False,
            )


def run_parallel(
    network: SynchronousNetwork, max_rounds: int
) -> Optional[RunResult]:
    """Run an eligible network on the sharded engine.

    Returns ``None`` — *before* mutating any state, and after logging
    why — when worker processes cannot be forked, in which case the
    caller runs the serial engine instead.
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        _LOG.warning(  # pragma: no cover - POSIX containers always fork
            "parallel engine unavailable (no fork start method on this "
            "platform); running serial"
        )
        return None  # pragma: no cover
    nshards = min(network.config.workers, network.config.n)
    # Engine sessions (repro.net.session) keep the forked crew alive
    # across runs: fork once, run many.  A reusable crew must match this
    # run's shape and come with a recycle payload prepared by the
    # session's begin_session_run — anything else reforks from scratch.
    crew = network._session_crew
    reset, network._session_worker_reset = network._session_worker_reset, None
    if crew is not None and (
        reset is None
        or crew.nshards != nshards
        or not all(proc.is_alive() for proc in crew.procs)
    ):
        crew.shutdown()
        crew = None
        network._session_crew = None
    if crew is not None:
        try:
            blob = pickle.dumps(("n", reset), _PKL)
        except Exception:
            # Unpicklable program factory: the recycle frame cannot ship;
            # fall back to a fresh fork (which needs no pickling at all).
            crew.shutdown()
            crew = None
            network._session_crew = None
        else:
            crew.broadcast_frame(blob)
            crew.await_ready()
    if crew is None:
        try:
            crew = _ShardCrew(network, nshards)
        except OSError as exc:  # pragma: no cover - fork/shm exhaustion
            _LOG.warning(
                "parallel engine unavailable (%s); running serial", exc
            )
            return None
        if network._session_persistent:
            network._session_crew = crew
    # Recorded for stamps and tests: the run reached the sharded engine.
    network.parallel_data_plane = DATA_PLANE_SHM
    # A timed run charges the fork (or a session's recycle handshake) to
    # ``setup``: the kernel's clock has been running since _setup.
    try:
        coordinator = _Coordinator(network, crew)
        for _wave in network._rounds(max_rounds, coordinator):
            pass  # every wave is awaited inside the coordinator's calls
        return coordinator.result
    finally:
        # A session-owned crew stays warm for the next run; the session's
        # close() joins it instead.
        if network._session_crew is not crew:
            crew.shutdown()
