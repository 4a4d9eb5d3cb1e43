"""Sharded multi-process round engine: the round kernel's third back-end.

On the honest envelope domain (the only one where this module engages,
see ``SynchronousNetwork._parallel_eligible``) a node's round work — its
hooks and ``on_message`` transitions, outbound sizing and ACK digests —
reads and writes only its own enclave and the network's queues.  So the
engine partitions the ``n`` nodes into ``P`` shards (``node_id % P``)
and gives each shard a *forked* worker process holding a full replica of
the network, whose ``_active`` schedules that shard's slice.

:meth:`repro.net.simulator.RoundHost._rounds` sequences the round on the
coordinator's network (the *mirror*); :class:`_Coordinator` is its
:class:`~repro.net.simulator.RoundBackend`.  A worker restates none of
the round: a hook wave runs the kernel's ``run_hooks`` on its replica and
ships home what the hooks left, and a delivery wave runs the kernel's
``_dispatch`` over the plan's members addressed to the shard, through
dispatch-table entries that wrap each owned receiver's ``on_message`` to
key what it leaves by plan position.  Each wave is one command frame
down every shard's shared-memory ring (:mod:`repro.net.shm`) — the plan
pickled once for all — closed by a ``done`` frame; next-round intents
*stream* home in keyed chunks meanwhile.  Accounting, handle crediting,
the halt check and the round's close happen on the mirror through the
serial back-end's own methods, with the workers' ACK tallies; divergence
halts and the round's duration ship down, so every replica observes the
same liveness and clock.

A timed run's clock is the kernel's; each wave adds only what this
back-end alone has — the coordinator's wait beyond the slowest shard
(``barrier``), that shard's streaming time (``shm``), and every shard's
busy / idle split (:meth:`~repro.obs.timing.TimingCollector.record_shard`).

Determinism: per-node RNG streams live in the enclaves, which are
sharded wholesale; shard assignment is a pure function of ``node_id``;
every cross-process collection is keyed (node id, plan position,
emission index) with globally unique keys and merged in sorted key
order, which reconstructs the serial iteration order however shard
chunks interleave.  A parallel run therefore yields byte-identical
``RunResult`` snapshots, ``TrafficStats`` ledgers and traced event
streams versus the serial back-end — enforced by
``tests/test_parallel_engine.py`` and ``tests/test_parallel_v2.py``.
The coordinator makes no ``seal_envelope``/``open_envelope`` calls (on
MODELED/NONE they only advance channel counters nothing on the eligible
domain observes), and worker tracers are in-memory sinks whose events
ship back per wave.

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
from collections import Counter
from itertools import groupby
from operator import attrgetter, itemgetter
from time import perf_counter
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.channel.peer_channel import modeled_wire_size
from repro.net.activeset import ActiveSet
from repro.net import shm
from repro.net.shm import _NOTHING, _wait_spin, DATA_PLANE_SHM, ShmChannel
from repro.net.simulator import RunResult, SynchronousNetwork, _SendIntent
from repro.obs.metrics import PROFILER, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer

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
    benchmark can call it freely; ``extra`` (a config's) selects
    nothing."""
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
    #: Per sender: its neighbour tuple, the owned targets and their
    #: positions in it (see _owned_targets).
    owned_of: Dict[int, tuple]
    events: Optional[List[object]]
    traced: bool
    timed: bool
    #: Seconds the current op has spent streaming chunks home (timed runs).
    shm_s: float


def _pack_intent(intent: _SendIntent, net: SynchronousNetwork) -> tuple:
    """Size one staged intent (work the serial transmit does inline, here
    parallelized into the worker that staged it) and pack it for the
    ring: ``(sender, targets, message, size, digest, expect_acks,
    threshold)``, ``targets`` None for the sender's neighbour tuple — by
    far the common case — which both sides resolve through their own
    (identical) neighbour cache."""
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
    st = _STATE = _WorkerState()
    st.net = net
    st.shard = shard
    st.nshards = nshards
    st.owned = range(shard, net.config.n, nshards)
    st.owned_of = {}
    # on_setup ran on the replica before the fork.
    _worker_arm(st, net.tracer.enabled, net._timing is not None, setup=False)


def _worker_arm(
    st: "_WorkerState", traced: bool, timed: bool, setup: bool
) -> None:
    """Arm the replica for a run: the worker-side observers, then the
    shard's scheduler (after ``on_setup`` when ``setup``), then clean
    queues — the coordinator ran the same on_setup and owns what it
    staged."""
    net = st.net
    st.traced = traced
    # The replica's own kernel clock stays off: a timed worker reports
    # each wave op's busy and streaming seconds in its done frame.
    st.timed = timed
    net._timing = None
    if PROFILER.enabled:
        # The fork copied the coordinator's profiling registry wholesale;
        # a fresh one makes the dump shipped after on_protocol_end hold
        # exactly this shard's post-fork counts.
        PROFILER.registry = MetricsRegistry()
    if traced:
        # Replace the inherited tracer (whose sinks may hold duplicated
        # file handles) with a memory sink; events ship back per wave.
        net.tracer = Tracer.memory()
        st.events = net.tracer.events
    else:
        net.tracer = NULL_TRACER
        st.events = None
    if setup:
        net._setup(st.owned)
    else:
        net._active = ActiveSet(net.nodes, st.owned)
    net._outbox_now.clear()
    net._outbox_next.clear()
    net._ack_queue.clear()
    net._ack_digest_by_id.clear()


def _worker_recycle(channel, payload: tuple) -> None:
    """Session recycle (op ``"n"``): re-run the fresh-run reset on this
    replica so a persistent crew serves the next protocol run without
    reforking — what the coordinator's :meth:`RoundHost.\
begin_session_run` + ``_setup`` did on its side, with the worker policy
    re-applied before any hook can emit."""
    st = _STATE
    seed, factory, traced, timed = payload
    st.net.begin_session_run(factory, seed=seed)
    _worker_arm(st, traced, timed, setup=True)
    channel.send(("r", st.shard))


def _flush_staged(channel, staged: List[tuple]) -> None:
    """Stream one chunk of keyed staged intents home; a timed run adds
    the send to the shard's streaming seconds."""
    st = _STATE
    t0 = perf_counter() if st.timed else 0.0
    channel.send(("s", staged))
    if st.timed:
        st.shm_s += perf_counter() - t0


def _worker_hooks(
    channel, hook: str, rnd: int, halted_now: List[int], seconds: float
) -> tuple:
    """Op ``"h"``: after the round's divergence halts, the kernel's own
    :meth:`RoundHost.run_hooks` on the replica, then the round's
    duration on its clock.  The reply is what the hooks left: the nodes
    now halted, the staged intents keyed by sender (a hook stages only
    its own node's), the scheduler counts, the traced events in per-node
    batches (a hook's events name their node), the shard's doneness and,
    after on_protocol_end, its terminal state."""
    st = _STATE
    net = st.net
    nodes = net.nodes
    net.current_round = rnd
    for node_id in halted_now:
        net._halt_node(node_id, rnd)
    visit = net.run_hooks(hook, rnd, halted_now, seconds)
    net.clock.advance(seconds)
    if net._ack_queue:
        raise RuntimeError(
            f"parallel engine: ctx.acknowledge during {hook} is not "
            "supported (ACKs must answer a delivered message); "
            "run with workers=1"
        )
    outbox = net._outbox_now if hook == "on_round_begin" else net._outbox_next
    intents = [
        (intent.sender, _pack_intent(intent, net)) for intent in outbox
    ]
    outbox.clear()
    counts = net.sched_counters
    net.sched_counters = dict.fromkeys(counts, 0)
    events = st.events or []
    batches = [
        (node, list(batch))
        for node, batch in groupby(events, attrgetter("node"))
    ]
    events.clear()
    active = net._active
    return (
        [node_id for node_id in visit if not nodes[node_id].alive],
        intents,
        counts,
        batches,
        active.decided,
        active.all_done,
        _final_state(net) if hook == "on_protocol_end" else None,
    )


def _final_state(net: SynchronousNetwork) -> tuple:
    """The shard's terminal per-node state as plain tuples, and its
    profiling observations.

    Plain tuples, not program objects: ``EnclaveProgram`` tracks its
    undecided state with a module-level ``_UNSET`` singleton compared by
    identity, which pickling would silently break.
    """
    final = []
    for node_id in net._active.owned:
        node = net.nodes[node_id]
        program = node.program
        output = (
            (program.output, program.decided_round)
            if program.has_output else None
        )
        final.append((node_id, output, node.enclave.rdrand))
    # The fork orphans the worker's PROFILER registry: ship its
    # observations home, and start a fresh one so a persistent crew's
    # next run does not ship (double-count) them again.
    profile = None
    if PROFILER.enabled and PROFILER.registry is not None:
        profile = PROFILER.registry.dump()
        PROFILER.registry = MetricsRegistry()
    return final, profile


def _owned_targets(
    st: "_WorkerState", sender: int, raw: Optional[Tuple[int, ...]]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The targets of one plan entry that this shard owns, and their
    positions in the entry's target tuple; memoised per sender for its
    neighbour tuple (``raw`` is None)."""
    if raw is None:
        targets = st.net.neighbour_tuple(sender)
        hit = st.owned_of.get(sender)
        if hit is not None and hit[0] is targets:
            return hit[1], hit[2]
    else:
        targets = raw
    nshards, shard = st.nshards, st.shard
    positions = tuple(
        j for j, receiver in enumerate(targets) if receiver % nshards == shard
    )
    owned = tuple(targets[j] for j in positions)
    if raw is None:
        st.owned_of[sender] = (targets, owned, positions)
    return owned, positions


def _worker_deliver(channel, rnd: int, plan: list) -> tuple:
    """Op ``"v"``: the kernel's :meth:`RoundHost._dispatch` over the
    plan's members addressed to this shard.

    The dispatch-table entries wrap each owned receiver's
    ``on_message`` — and ``omit`` each member to a halted one — to key
    what the member leaves by its plan position ``(i, j)``: next-round
    intents stream home in ``(i, j, index)`` chunks; traced, its ACKs
    and events come home keyed too.  The reply carries the receivers now
    halted, the omission count, the ACK wave (tallied, or traced raw and
    keyed) and the event batches.
    """
    st = _STATE
    net = st.net
    nodes = net.nodes
    outbox = net._outbox_next
    ackq = net._ack_queue
    events = st.events
    traced = st.traced
    delivered = net._active.delivered
    digest_by_id = net._ack_digest_by_id
    digest_by_id.clear()
    staged: List[tuple] = []
    raw_acks: List[tuple] = []
    batches: List[tuple] = []
    i, js = 0, iter(())

    def members():
        nonlocal i, js
        for i, (sender, raw, message, size, digest) in enumerate(plan):
            digest_by_id[id(message)] = digest
            owned, positions = _owned_targets(st, sender, raw)
            js = iter(positions)
            yield sender, owned, message, size

    def keyed(on_message, receiver):
        def on_owned_message(context, sender, message) -> None:
            nonlocal staged
            j = next(js)
            obase, abase = len(outbox), len(ackq)
            ebase = len(events) if traced else 0
            delivered.add(receiver)
            on_message(context, sender, message)
            for idx in range(obase, len(outbox)):
                staged.append(
                    ((i, j, idx - obase), _pack_intent(outbox[idx], net))
                )
            if len(staged) >= _FLUSH_INTENTS:
                _flush_staged(channel, staged)
                staged = []
            if traced:
                for k in range(abase, len(ackq)):
                    raw_acks.append(((i, j, k - abase), ackq[k]))
                if len(events) > ebase:
                    batches.append(((i, j), events[ebase:]))

        return on_owned_message

    def omit(rnd, sender, receiver, size, mtype) -> None:
        j = next(js)
        ebase = len(events) if traced else 0
        net._omit_dead(rnd, sender, receiver, size, mtype)
        if traced:
            batches.append(((i, j), events[ebase:]))

    table = net._dispatch_table()
    dispatch = {}
    for receiver in st.owned:
        enclave, on_message, context = table[receiver]
        dispatch[receiver] = (enclave, keyed(on_message, receiver), context)
    traffic = net.stats.traffic
    omitted = traffic.omissions
    net._dispatch(rnd, members(), dispatch, omit)
    omitted = traffic.omissions - omitted
    # Every ACK a node emits is handled in its own shard, so final
    # liveness is known here: the tally drops a halted acker's ACKs.
    tally = None if traced else net._tally_acks(ackq)
    ackq.clear()
    outbox.clear()
    if traced:
        events.clear()
    if staged:
        _flush_staged(channel, staged)
    halted = [node_id for node_id in delivered if not nodes[node_id].alive]
    return halted, omitted, tally, raw_acks, batches


#: The ops that answer with a ``("d", reply, timing)`` frame.
_WAVE_OPS = {"h": _worker_hooks, "v": _worker_deliver}


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
                st.shm_s = 0.0
                t0 = perf_counter() if st.timed else 0.0
                reply = handler(channel, *cmd[1:])
                timing = (perf_counter() - t0, st.shm_s) if st.timed else None
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
        # What the kernel reads of the mirror's scheduler, summed from the
        # workers' at each round's end.
        self.tally = network._active = SimpleNamespace(
            decided=0, all_done=False
        )
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
        """Splice keyed event batches back in serial (key) order."""
        emit = self.net.tracer.emit
        batches.sort(key=itemgetter(0))
        for _key, events in batches:
            for event in events:
                emit(event)

    def _merge(self, staged: List[tuple]) -> List[_SendIntent]:
        """Keyed intent records back in exact serial emission order, as
        the intents the kernel transmits."""
        neighbours = self.net.neighbour_tuple
        staged.sort(key=itemgetter(0))
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
        returns the ``done`` payloads in shard order.  Streamed ``"s"``
        chunks splice into ``sink`` the moment they arrive.

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
        """Every worker runs the kernel's ``run_hooks`` on its shard; the
        mirror takes in what they left.  Divergence halts and the round's
        duration ship down so every replica observes the same liveness
        and clock; what on_round_begin stages joins the carried-over
        intents in the mirror's outbox, after them — exactly as the
        serial outbox orders them."""
        net = self.net
        staged: List[tuple] = []
        batches: List[tuple] = []
        finals: List[tuple] = []
        counters = net.sched_counters
        decided, all_done = 0, True
        responses = self._wave(
            pickle.dumps(("h", hook, rnd, list(halted_now), seconds), _PKL),
            [],
        )
        for (halted, intents, counts, w_batches, w_decided, w_done,
             final) in responses:
            self._apply_halts(halted, rnd)
            staged.extend(intents)
            batches.extend(w_batches)
            for key, value in counts.items():
                counters[key] += value
            decided += w_decided
            all_done = all_done and w_done
            if final is not None:
                finals.append(final)
        if self.traced:
            self._emit_batches(batches)
        if hook == "on_round_begin":
            net._outbox_now.extend(self._merge(staged))
        elif hook == "on_round_end":
            net._outbox_next.extend(self._merge(staged))
            self.tally.decided = decided
            self.tally.all_done = all_done
        else:
            self._finish(finals)

    def _finish(self, finals: List[tuple]) -> None:
        """The workers' terminal per-node state folded into the mirror
        and the run's result."""
        net = self.net
        outputs: Dict[int, object] = {}
        decided: Dict[int, Optional[int]] = {}
        records = []
        for final, profile in finals:
            records.extend(final)
            if profile is not None and PROFILER.enabled \
                    and PROFILER.registry is not None:
                PROFILER.registry.merge_dump(profile)
        for node_id, output, rdrand in sorted(records):
            # Re-sync the mirror's per-node RNG stream so a follow-up
            # instance on this network (replace_programs) continues the
            # exact stream a serial run would.
            net.nodes[node_id].enclave.rdrand = rdrand
            if output is not None:
                outputs[node_id], decided[node_id] = output
        self.result = RunResult(
            outputs=outputs,
            halted=[
                node_id for node_id, node in sorted(net.nodes.items())
                if not node.alive
            ],
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
            plan.append((sender, raw, message, intent.size, intent.digest))
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
        staged: List[tuple] = []
        raw_acks: List[tuple] = []
        batches: List[tuple] = []
        link_counts, credits, total = Counter(), Counter(), 0
        responses = self._wave(pickle.dumps(("v", rnd, self.plan), _PKL), staged)
        for halted, omitted, tally, w_acks, w_batches in responses:
            self._apply_halts(halted, rnd)
            net.stats.traffic.record_omissions(omitted)
            raw_acks.extend(w_acks)
            batches.extend(w_batches)
            if tally is not None:
                link_counts.update(tally[0])
                credits.update(tally[1])
                total += tally[2]
        if self.traced:
            self._emit_batches(batches)
        net._outbox_next.extend(self._merge(staged))
        # Traced: the raw, keyed wave.  Untraced: the workers tallied it.
        raw_acks.sort(key=itemgetter(0))
        self.acks = ([ack for _key, ack in raw_acks], link_counts, credits, total)
        return len(raw_acks)

    def ack_wave(self, rnd: int) -> None:
        net = self.net
        queue, link_counts, credits, total = self.acks
        if queue:
            net._ack_wave_envelope(queue, rnd)
        elif total or credits:
            # The mirror carries no link state to seal through.
            net._settle_ack_wave(
                rnd, net._ack_wire_size(rnd), link_counts, credits, total,
                seal=False,
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
    blob = None
    if crew is not None and reset is not None and crew.nshards == nshards \
            and all(proc.is_alive() for proc in crew.procs):
        try:
            blob = pickle.dumps(("n", reset), _PKL)
        except Exception:
            pass  # an unpicklable program factory: refork (no pickling)
    if crew is not None and blob is None:
        crew.shutdown()
        crew = network._session_crew = None
    if crew is not None:
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
