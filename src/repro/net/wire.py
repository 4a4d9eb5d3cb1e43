"""Real-network wire transport: asyncio TCP + a lockstep round pump.

Everything else in :mod:`repro.net` runs inside the discrete-event
simulator; this module runs the *same enclave programs* over real TCP
sockets.  One :class:`WireNode` hosts one node's enclave as a
long-running daemon (``python -m repro node``); :func:`run_cluster`
spins an N-node loopback cluster up in one process group
(``python -m repro cluster``) and runs ERB / ERNG / pb-ERB / beacon
epochs end-to-end over the wire.

Design constraints, in order:

1. **The protocol cores and the sealing stack are untouched.**  Programs
   are handed a real :class:`~repro.net.simulator.EnclaveContext` (a
   :class:`WireNode` is its :class:`~repro.net.simulator.RoundHost`, so
   staging, ACK digests and the halt rule are the simulator's own),
   messages are the same :class:`~repro.common.types.ProtocolMessage`
   tuples in the same deterministic serialization, and every round
   envelope is sealed and opened by the simulator's own
   :class:`~repro.net.transport.Transport` — acceptance rule, per-link
   counter sequences and rejection taxonomy included.

2. **Decisions are identical to the simulator at the same seed.**  RNG
   forks are label-derived (``DeterministicRNG(("simulation", seed))
   .fork(("rdrand", node_id))``), so a daemon that builds only its own
   node still draws bit-identical enclave randomness.  Deliveries are
   dispatched in canonical order (links sorted by sender, members in
   emission order) so a wire round presents programs the same
   delivery-insensitive view a simulator round does.

3. **The round is the simulator's; only the waiting is ours.**  Phase
   order lives in :meth:`~repro.net.simulator.RoundHost._rounds`; a
   :class:`WireNode` is one of its delivery back-ends, and its pump
   flushes and waits where that generator yields one of three waves:

   * ``DATA* → EOD``  — sealed round envelopes, then an end-of-data
     marker;
   * ``ACK → EOA``    — aggregated 8-byte ACK digests, then an
     end-of-ack marker (the same-round ACK wave);
   * ``FIN(done)``    — post-round-end marker carrying the node's
     doneness, so every node evaluates ``everyone_done`` on the same
     information the simulator's after-round check sees.

   A peer still silent a timeout and a half into a wave is **ejected**:
   its traffic for the round is discarded and counted as omissions — the
   campaign harness's omission semantics, reused.  Ejection never
   raises; the survivors keep lockstep among themselves.

Frame layout (see docs/NETWORKING.md for the wire diagram)::

    u32 length (little-endian) | payload = encode((kind, run, rnd, ...))

The payload reuses :mod:`repro.common.serialization` — the same tagged,
deterministic, attacker-bytes-never-execute encoding the simulator's
channels use.  A frame is encoded once however many peers it goes to:
wave markers once per wave, each message once per round, and a DATA
frame is spliced per link around its shared body
(:func:`~repro.common.serialization.compose_tuple`).  One method,
:meth:`WireNode._write_frame`, length-prefixes and writes every frame.
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import struct
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.beacon import BeaconRecord, RandomBeacon, epoch_seed
from repro.channel.peer_channel import Envelope
from repro.common.config import ChannelSecurity, SimulationConfig
from repro.common.errors import (
    ConfigurationError,
    CryptoError,
    ProtocolError,
)
from repro.common.rng import DeterministicRNG
from repro.common.serialization import compose_tuple, decode, encode
from repro.common.types import NodeId, ProtocolMessage
from repro.core.erb import ErbProgram
from repro.core.erng import ErngProgram
from repro.core.pb_erb import PbErbConfig, PbErbProgram
from repro.crypto.dh import MODP_2048
from repro.crypto.hashing import hash_bytes
from repro.net.simulator import (
    EnclaveContext,
    Node,
    RoundHost,
    _multicast_key,
)
from repro.net.stats import RunStats
from repro.net.topology import Topology
from repro.net.transport import build_transport
from repro.obs.metrics import Histogram
from repro.obs.tracer import NULL_TRACER
from repro.sgx.attestation import AttestationAuthority
from repro.sgx.enclave import Enclave
from repro.sgx.program import EnclaveProgram
from repro.sgx.trusted_time import SimulationClock

_LOG = logging.getLogger("repro.wire")

#: Wire protocol version, checked in the HELLO exchange.
WIRE_PROTO_VERSION = 1

#: Length prefix framing (mirrors the shm ring's u32 header).
_LEN = struct.Struct("<I")
#: Refuse frames past this size — a corrupted length prefix must not
#: allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

# Frame kinds.
K_HELLO = 1   # (kind, version, node_id, config_digest)
K_DATA = 2    # (kind, run, rnd, counter, count, body)
K_EOD = 3     # (kind, run, rnd)              end of data wave
K_ACK = 4     # (kind, run, rnd, digests)     aggregated ack digests
K_EOA = 5     # (kind, run, rnd)              end of ack wave
K_FIN = 6     # (kind, run, rnd, done)        post-round-end barrier
K_BYE = 7     # (kind, run, rnd, reason)      graceful departure

#: Fields per frame kind, for every kind a peer may send after HELLO.
_ARITY = {K_DATA: 6, K_EOD: 3, K_ACK: 4, K_EOA: 3, K_FIN: 4, K_BYE: 4}
#: Length of one aggregated ACK digest (``RoundHost._ack_digest``).
_DIGEST_BYTES = 8
#: Largest DATA counter or count (the transport's counters are int64).
_MAX_COUNTER = 2**63 - 1

#: What each read asks the socket for.  asyncio's selector transport
#: defaults to 256 KiB, which glibc serves with a fresh mmap (plus an
#: mremap and a munmap once the bytes object shrinks to the few KiB that
#: arrived) unless an earlier free happened to raise its dynamic mmap
#: threshold past that size — round cost was bimodal, ±25 % between
#: otherwise identical processes.  Round frames are a few KiB.
_RECV_BYTES = 64 * 1024

#: Default per-barrier timeout.  Loopback rounds complete in
#: milliseconds; the default is generous so slow CI machines never
#: eject healthy peers.  A wave waits one and a half of it in all.
DEFAULT_ROUND_TIMEOUT_S = 10.0

#: How long the dialer retries an unreachable peer during cluster
#: bring-up (daemons may start in any order).
DEFAULT_CONNECT_TIMEOUT_S = 15.0

WIRE_PROTOCOLS = ("erb", "erng", "pb-erb", "beacon")


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

@dataclass
class WireNodeConfig:
    """Everything one daemon needs: identity, address book, protocol.

    The JSON form (``python -m repro node --config node.json``) uses the
    same field names; :meth:`from_json` / :meth:`to_json` round-trip it.
    """

    node_id: NodeId
    n: int
    t: int = -1
    seed: int = 0
    protocol: str = "erb"
    listen_host: str = "127.0.0.1"
    listen_port: int = 0
    #: peer id -> (host, port) for every *other* node.
    peers: Dict[int, Tuple[str, int]] = field(default_factory=dict)
    security: str = "modeled"          # "modeled" | "full"
    delta: float = 0.05
    round_timeout_s: float = DEFAULT_ROUND_TIMEOUT_S
    connect_timeout_s: float = DEFAULT_CONNECT_TIMEOUT_S
    # protocol knobs
    initiator: NodeId = 0
    message: bytes = b"wire"
    seq: int = 1
    random_bits: int = 128
    epochs: int = 1
    #: test knob: fail before the data wave of this round — exercises
    #: dead-peer ejection.
    fail_at_round: Optional[int] = None
    #: how to fail: "crash" tears the sockets down (peers eject on EOF);
    #: "hang" goes silent with sockets open (peers eject on timeout).
    fail_mode: str = "crash"

    def __post_init__(self) -> None:
        if self.t < 0:
            self.t = (self.n - 1) // 2
        if self.protocol not in WIRE_PROTOCOLS:
            raise ConfigurationError(
                f"unknown wire protocol {self.protocol!r}; "
                f"expected one of {WIRE_PROTOCOLS}"
            )
        if self.security not in ("modeled", "full"):
            raise ConfigurationError(
                f"wire security must be 'modeled' or 'full', "
                f"got {self.security!r}"
            )
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.fail_mode not in ("crash", "hang"):
            raise ConfigurationError(
                f"fail_mode must be 'crash' or 'hang', got {self.fail_mode!r}"
            )

    # -- serialization -------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "node_id": self.node_id,
            "n": self.n,
            "t": self.t,
            "seed": self.seed,
            "protocol": self.protocol,
            "listen_host": self.listen_host,
            "listen_port": self.listen_port,
            "peers": {
                str(pid): [host, port]
                for pid, (host, port) in sorted(self.peers.items())
            },
            "security": self.security,
            "delta": self.delta,
            "round_timeout_s": self.round_timeout_s,
            "connect_timeout_s": self.connect_timeout_s,
            "initiator": self.initiator,
            "message": self.message.decode("utf-8", "replace"),
            "seq": self.seq,
            "random_bits": self.random_bits,
            "epochs": self.epochs,
        }
        if self.fail_at_round is not None:
            payload["fail_at_round"] = self.fail_at_round
            payload["fail_mode"] = self.fail_mode
        return json.dumps(payload, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "WireNodeConfig":
        raw = json.loads(text)
        peers = {
            int(pid): (host, int(port))
            for pid, (host, port) in raw.get("peers", {}).items()
        }
        return WireNodeConfig(
            node_id=int(raw["node_id"]),
            n=int(raw["n"]),
            t=int(raw.get("t", -1)),
            seed=int(raw.get("seed", 0)),
            protocol=raw.get("protocol", "erb"),
            listen_host=raw.get("listen_host", "127.0.0.1"),
            listen_port=int(raw.get("listen_port", 0)),
            peers=peers,
            security=raw.get("security", "modeled"),
            delta=float(raw.get("delta", 0.05)),
            round_timeout_s=float(
                raw.get("round_timeout_s", DEFAULT_ROUND_TIMEOUT_S)
            ),
            connect_timeout_s=float(
                raw.get("connect_timeout_s", DEFAULT_CONNECT_TIMEOUT_S)
            ),
            initiator=int(raw.get("initiator", 0)),
            message=raw.get("message", "wire").encode(),
            seq=int(raw.get("seq", 1)),
            random_bits=int(raw.get("random_bits", 128)),
            epochs=int(raw.get("epochs", 1)),
            fail_at_round=(
                int(raw["fail_at_round"])
                if raw.get("fail_at_round") is not None
                else None
            ),
            fail_mode=raw.get("fail_mode", "crash"),
        )

    def config_digest(self) -> bytes:
        """What both ends of a HELLO must agree on to talk at all."""
        return hash_bytes(
            encode((
                self.n, self.t, self.seed, self.protocol, self.security,
                self.random_bits, self.epochs, WIRE_PROTO_VERSION,
            )),
            domain="wire-hello",
        )

    def simulation_config(self, seed: Optional[int] = None) -> SimulationConfig:
        security = (
            ChannelSecurity.FULL
            if self.security == "full"
            else ChannelSecurity.MODELED
        )
        return SimulationConfig(
            n=self.n,
            t=self.t,
            seed=self.seed if seed is None else seed,
            delta=self.delta,
            channel_security=security,
            random_bits=self.random_bits,
        )


# ----------------------------------------------------------------------
# observability: per-link counters + latency histograms
# ----------------------------------------------------------------------

class WireStats(RunStats):
    """The round kernel's run ledger (bytes per round are frame bytes
    here) plus per-link counters and wire-latency histograms.

    Persisted snapshots must carry ``transport="tcp"`` in their machine
    stamp (:func:`repro.obs.machine.machine_stamp`) so a wire measurement
    is never read as a simulated one.
    """

    def __init__(self) -> None:
        super().__init__()
        self.bytes_sent: Dict[int, int] = {}
        self.bytes_received: Dict[int, int] = {}
        self.frames_sent: Dict[int, int] = {}
        self.frames_received: Dict[int, int] = {}
        self.ejected: List[int] = []
        #: frames for a round already closed (late or replayed), dropped
        self.stale_frames = 0
        #: seconds spent blocked on each barrier wait
        self.barrier_wait_s = Histogram()
        #: wall-clock seconds per completed round
        self.round_wall_s = Histogram()

    @property
    def omissions(self) -> int:
        return self.traffic.omissions

    @property
    def rejections(self) -> int:
        return self.traffic.rejections

    # -- recording -----------------------------------------------------
    def sent(self, peer: int, nbytes: int) -> None:
        self.bytes_sent[peer] = self.bytes_sent.get(peer, 0) + nbytes
        self.frames_sent[peer] = self.frames_sent.get(peer, 0) + 1

    def received(self, peer: int, nbytes: int) -> None:
        self.bytes_received[peer] = self.bytes_received.get(peer, 0) + nbytes
        self.frames_received[peer] = self.frames_received.get(peer, 0) + 1

    @property
    def total_bytes_sent(self) -> int:
        return sum(self.bytes_sent.values())

    @property
    def total_bytes_received(self) -> int:
        return sum(self.bytes_received.values())

    def snapshot(self) -> Dict:
        return {
            "transport": "tcp",
            "bytes_sent_by_peer": dict(sorted(self.bytes_sent.items())),
            "bytes_received_by_peer": dict(
                sorted(self.bytes_received.items())
            ),
            "frames_sent_by_peer": dict(sorted(self.frames_sent.items())),
            "frames_received_by_peer": dict(
                sorted(self.frames_received.items())
            ),
            "total_bytes_sent": self.total_bytes_sent,
            "total_bytes_received": self.total_bytes_received,
            "omissions": self.omissions,
            "rejections": self.rejections,
            "ejected": list(self.ejected),
            "stale_frames": self.stale_frames,
            "barrier_wait_s": self.barrier_wait_s.snapshot(),
            "round_wall_s": self.round_wall_s.snapshot(),
        }


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------

@dataclass
class WireRunReport:
    """What one daemon reports after its service run."""

    node_id: NodeId
    output: Optional[object]
    decided_round: Optional[int]
    halted: bool
    rounds_executed: int
    ejected_peers: List[int]
    round_walls: List[float]
    round_bytes: List[int]
    stats: WireStats
    records: List[BeaconRecord] = field(default_factory=list)
    crashed: bool = False

    def to_json_dict(self) -> Dict:
        output = self.output
        if isinstance(output, bytes):
            output = output.decode("utf-8", "replace")
        return {
            "node_id": self.node_id,
            "output": output,
            "decided_round": self.decided_round,
            "halted": self.halted,
            "rounds_executed": self.rounds_executed,
            "ejected_peers": self.ejected_peers,
            "round_walls": self.round_walls,
            "round_bytes": self.round_bytes,
            "records": [
                {
                    "epoch": r.epoch,
                    "value": r.value,
                    "prev_digest": r.prev_digest.hex(),
                    "digest": r.digest.hex(),
                }
                for r in self.records
            ],
            "crashed": self.crashed,
            "wire": self.stats.snapshot(),
        }

    @staticmethod
    def from_json_dict(raw: Dict) -> "WireRunReport":
        """Rebuild a report from a daemon's JSON output (the multi-
        process launcher's path).  Byte outputs come back as text and
        counters stay in the ``wire`` snapshot — enough for summaries
        and calibration, not a bit-exact round trip."""
        return WireRunReport(
            node_id=int(raw["node_id"]),
            output=raw.get("output"),
            decided_round=raw.get("decided_round"),
            halted=bool(raw.get("halted")),
            rounds_executed=int(raw.get("rounds_executed", 0)),
            ejected_peers=list(raw.get("ejected_peers", [])),
            round_walls=[float(w) for w in raw.get("round_walls", [])],
            round_bytes=[int(b) for b in raw.get("round_bytes", [])],
            stats=WireStats(),
            records=[
                BeaconRecord(
                    epoch=int(r["epoch"]),
                    value=int(r["value"]),
                    prev_digest=bytes.fromhex(r["prev_digest"]),
                    digest=bytes.fromhex(r["digest"]),
                )
                for r in raw.get("records", [])
            ],
            crashed=bool(raw.get("crashed")),
        )


@dataclass
class ClusterResult:
    """Aggregated view of one loopback cluster run."""

    outputs: Dict[NodeId, object]
    decided_rounds: Dict[NodeId, Optional[int]]
    halted: List[NodeId]
    rounds_executed: int
    reports: Dict[NodeId, WireRunReport]
    records: List[BeaconRecord] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def round_samples(self) -> List[Tuple[int, float]]:
        """(bytes, wall-seconds) per round, summed across nodes — the
        calibration input."""
        samples: List[Tuple[int, float]] = []
        reports = list(self.reports.values())
        if not reports:
            return samples
        rounds = max(len(r.round_walls) for r in reports)
        for i in range(rounds):
            total_bytes = sum(
                r.round_bytes[i] for r in reports if i < len(r.round_bytes)
            )
            walls = [
                r.round_walls[i] for r in reports if i < len(r.round_walls)
            ]
            samples.append((total_bytes, max(walls) if walls else 0.0))
        return samples


# ----------------------------------------------------------------------
# simulator calibration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CalibrationFit:
    """Least-squares fit of the simulator's round-duration model
    ``wall = latency + bytes / bandwidth`` against measured wire rounds.

    ``latency_s`` maps onto the simulator's ``2Δ`` round floor (so the
    suggested ``delta`` is half of it) and ``bandwidth_bytes_per_s``
    onto ``SimulationConfig.bandwidth_bytes_per_s``.  ``residual_s`` is
    the RMS misfit — record it next to the fit; a residual on the order
    of the fitted latency means the linear model does not explain the
    measurements and the parameters are not trustworthy.
    """

    latency_s: float
    bandwidth_bytes_per_s: Optional[float]
    residual_s: float
    samples: int

    @property
    def suggested_delta(self) -> float:
        return max(self.latency_s / 2.0, 0.0)

    def to_json_dict(self) -> Dict:
        return {
            "latency_s": self.latency_s,
            "bandwidth_bytes_per_s": self.bandwidth_bytes_per_s,
            "residual_s": self.residual_s,
            "samples": self.samples,
            "suggested_delta": self.suggested_delta,
        }


def fit_round_model(samples: Sequence[Tuple[int, float]]) -> CalibrationFit:
    """Fit ``wall = latency + bytes/bandwidth`` to ``(bytes, wall)``
    samples by ordinary least squares.

    Degenerate inputs fall back gracefully: with fewer than two distinct
    byte counts the bandwidth term is unidentifiable and the fit reduces
    to ``latency = mean(wall)``, ``bandwidth = None``.
    """
    pts = [(float(b), float(w)) for b, w in samples if w >= 0.0]
    if not pts:
        raise ConfigurationError("calibration needs at least one sample")
    n = len(pts)
    mean_b = sum(b for b, _ in pts) / n
    mean_w = sum(w for _, w in pts) / n
    var_b = sum((b - mean_b) ** 2 for b, _ in pts)
    cov = sum((b - mean_b) * (w - mean_w) for b, w in pts)
    slope = cov / var_b if var_b > 0.0 else 0.0     # seconds per byte
    if slope <= 0.0:
        # One byte count, or faster with more bytes (loopback noise
        # dominates): report the latency-only model rather than a
        # negative bandwidth.
        residual = (sum((w - mean_w) ** 2 for _, w in pts) / n) ** 0.5
        return CalibrationFit(
            latency_s=mean_w,
            bandwidth_bytes_per_s=None,
            residual_s=residual,
            samples=n,
        )
    latency = mean_w - slope * mean_b
    residual = (
        sum((w - (latency + slope * b)) ** 2 for b, w in pts) / n
    ) ** 0.5
    return CalibrationFit(
        latency_s=max(latency, 0.0),
        bandwidth_bytes_per_s=1.0 / slope,
        residual_s=residual,
        samples=n,
    )


def calibrate_from_results(
    results: Sequence[ClusterResult],
) -> CalibrationFit:
    """Fit the round model against every round of several cluster runs."""
    samples: List[Tuple[int, float]] = []
    for result in results:
        samples.extend(result.round_samples)
    return fit_round_model(samples)


# ----------------------------------------------------------------------
# per-link state
# ----------------------------------------------------------------------

class _RoundInbox:
    """Buffered frames of one (run, round) from one peer."""

    __slots__ = (
        "data", "acks", "eod", "eoa", "fin", "done",
        "eod_seen", "eoa_seen",
    )

    def __init__(self) -> None:
        self.data: List[tuple] = []
        self.acks: List[bytes] = []
        self.eod = asyncio.Event()
        self.eoa = asyncio.Event()
        self.fin = asyncio.Event()
        self.done = False
        # Events are force-set when a peer dies (so barriers wake); these
        # record whether the wave marker actually arrived — a dead peer's
        # partial round traffic is discarded, not half-applied.
        self.eod_seen = False
        self.eoa_seen = False

    def wake_all(self) -> None:
        self.eod.set()
        self.eoa.set()
        self.fin.set()


class _Peer:
    """One TCP link to one peer node."""

    def __init__(self, node_id: NodeId) -> None:
        self.node_id = node_id
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.alive = False
        self.goodbye: Optional[str] = None
        self._inboxes: Dict[Tuple[int, int], _RoundInbox] = {}

    def inbox(self, run: int, rnd: int) -> _RoundInbox:
        key = (run, rnd)
        box = self._inboxes.get(key)
        if box is None:
            box = _RoundInbox()
            self._inboxes[key] = box
        return box

    def drop_round(self, run: int, rnd: int) -> None:
        self._inboxes.pop((run, rnd), None)

    def mark_dead(self, reason: str) -> None:
        self.alive = False
        if self.goodbye is None:
            self.goodbye = reason
        for box in self._inboxes.values():
            box.wake_all()


# ----------------------------------------------------------------------
# protocol plans
# ----------------------------------------------------------------------

def _protocol_plan(
    cfg: WireNodeConfig, seed: int
) -> Tuple[Callable[[NodeId], EnclaveProgram], int]:
    """(program factory, max_rounds) for one run — the same factories
    the one-shot drivers (`run_erb` et al.) build."""
    if cfg.protocol == "erb":
        def factory(node_id: NodeId) -> EnclaveProgram:
            return ErbProgram(
                node_id=node_id,
                initiator=cfg.initiator,
                n=cfg.n,
                t=cfg.t,
                seq=cfg.seq,
                message=cfg.message if node_id == cfg.initiator else None,
            )
        return factory, cfg.t + 2
    if cfg.protocol in ("erng", "beacon"):
        def factory(node_id: NodeId) -> EnclaveProgram:
            return ErngProgram(
                node_id=node_id,
                n=cfg.n,
                t=cfg.t,
                random_bits=cfg.random_bits,
            )
        return factory, cfg.t + 2
    if cfg.protocol == "pb-erb":
        pb = PbErbConfig()
        topology = Topology.full_mesh(cfg.n)

        def factory(node_id: NodeId) -> EnclaveProgram:
            return PbErbProgram(
                node_id=node_id,
                initiator=cfg.initiator,
                n=cfg.n,
                t=cfg.t,
                topology=topology,
                seq=cfg.seq,
                message=cfg.message if node_id == cfg.initiator else None,
                pb=pb,
            )
        return factory, pb.resolved_round_bound(cfg.n)
    raise ConfigurationError(f"unknown protocol {cfg.protocol!r}")


class _WireAbort(Exception):
    """Internal: the fail_at_round knob fired."""


# ----------------------------------------------------------------------
# the node daemon
# ----------------------------------------------------------------------

class WireNode(RoundHost):
    """One node's enclave programs served over TCP.

    Lifecycle: :meth:`start_server` (bind), :meth:`run_service`
    (connect, handshake, run the configured protocol to completion),
    :meth:`shutdown` (graceful stop, also wired to SIGTERM by the
    daemon CLI).  All coroutines run on one event loop; ``run_service``
    owns every task it spawns and joins them before returning, so a
    clean shutdown leaves no orphan tasks.
    """

    engine = "wire"

    def __init__(self, cfg: WireNodeConfig, tracer=None) -> None:
        self.cfg = cfg
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = WireStats()
        self.topology = Topology.full_mesh(cfg.n)
        self.current_run = 0
        # In ascending id order, which is the canonical dispatch order.
        self._peers: Dict[NodeId, _Peer] = {
            pid: _Peer(pid) for pid in range(cfg.n) if pid != cfg.node_id
        }
        self._server: Optional[asyncio.base_events.Server] = None
        self._stop = asyncio.Event()
        self._connected = asyncio.Event()
        self._round_walls: List[float] = []
        self._round_bytes: List[int] = []
        self._round_t0 = 0.0
        # The last (run, round) closed here, and its FIN consensus.
        self._closed = (0, 0)
        self._peers_done = False
        self._departed: set = set()
        self._build_universe(cfg.seed)

    # ------------------------------------------------------------------
    # deterministic universe: enclaves and the transport over them
    # ------------------------------------------------------------------
    def _build_universe(self, seed: int) -> None:
        """Build every node's enclave — because every RNG fork is
        label-derived from the shared seed, exactly the enclaves the
        simulator would build — and the simulator's own transport over
        them, which seals and opens every round envelope this node sends
        or receives.  Under FULL it runs every pairwise handshake locally:
        no key material ever crosses the wire, the shared simulation seed
        *is* the key agreement."""
        cfg = self.cfg
        #: The simulator-side view of ``cfg`` (what programs read as
        #: ``ctx.config``).
        self.config = cfg.simulation_config(seed)
        master = DeterministicRNG(("simulation", seed))
        clock = self.clock = SimulationClock()
        factory, self._max_rounds = _protocol_plan(cfg, seed)
        security = self.config.channel_security
        authority = (
            AttestationAuthority(master, MODP_2048)
            if security is ChannelSecurity.FULL else None
        )
        enclaves = {
            node_id: Enclave(node_id, factory(node_id), master, clock, authority)
            for node_id in range(cfg.n)
        }
        self.enclave = enclaves[cfg.node_id]
        self.context = EnclaveContext(self, cfg.node_id)
        #: The RoundHost view: this daemon hosts exactly one node.
        self.nodes = {
            cfg.node_id: Node(cfg.node_id, self.enclave, None, self.context)
        }
        self.transport = build_transport(security, enclaves, MODP_2048)
        # Fresh per-run state; the ledger's rounds restart with the run.
        self._init_round_state()
        self._ack_out: Dict[NodeId, List[bytes]] = {}
        self.stats.rounds.clear()
        self.stats.traffic.bytes_by_round.clear()

    # ------------------------------------------------------------------
    # RoundHost: what EnclaveContext calls
    # ------------------------------------------------------------------
    def neighbour_tuple(self, node: NodeId) -> Tuple[NodeId, ...]:
        return tuple(
            t for t in self.topology.neighbours(node)
            if t not in self._departed
        )

    def _queue_ack(
        self, acker: NodeId, dest: NodeId, original: ProtocolMessage
    ) -> None:
        self._ack_out.setdefault(dest, []).append(
            self._ack_digest(_multicast_key(original))
        )

    def evict_departed_node(self, node: NodeId) -> None:
        """A halted, ejected or departed node leaves the topology from
        the next multicast on (the simulator's eviction timing: a BYE is
        only ever sent after the current round's data wave)."""
        self._departed.add(node)

    # ------------------------------------------------------------------
    # link layer: framing, sealing
    # ------------------------------------------------------------------
    def _write_frame(self, peer: _Peer, body: bytes) -> None:
        """The one framing site: length-prefix an encoded frame and write
        it to ``peer``.  Callers choose the peers — the live ones, or the
        one being dialled — and encode a frame for several peers once."""
        frame = _LEN.pack(len(body)) + body
        try:
            peer.writer.write(frame)
        except (ConnectionError, OSError):
            self._eject(peer, "write-error")
            return
        self.stats.sent(peer.node_id, len(frame))
        self.stats.traffic.bytes_by_round[self.current_round] += len(frame)

    async def _drain_all(self) -> None:
        for peer in self._peers.values():
            if peer.alive and peer.writer is not None:
                try:
                    await peer.writer.drain()
                except (ConnectionError, OSError):
                    self._eject(peer, "write-error")

    def _seal_members(
        self,
        peer_id: NodeId,
        members: List[bytes],
        shared: Dict[tuple, bytes],
    ) -> Tuple[int, bytes]:
        """(counter, frame body) of the envelope the transport seals for
        one link from ``members``, the encoded message tuples: FULL's
        ciphertext, or MODELED's ``(measurement, members)`` — composed
        once per round per member list (``shared``)."""
        (envelope,) = self.transport.seal_envelope(
            self.cfg.node_id, (peer_id,), members
        )
        if envelope.sealed is not None:
            return envelope.counter, encode(envelope.sealed)
        key = tuple(members)
        body = shared.get(key)
        if body is None:
            body = shared[key] = compose_tuple((
                encode(envelope.member_measurement), compose_tuple(members),
            ))
        return envelope.counter, body

    def _open_members(
        self, peer_id: NodeId, counter: int, count: int, body
    ) -> Tuple[ProtocolMessage, ...]:
        """Open one DATA frame through the transport.  The body came off
        a socket: whatever is not the shape this mode seals, or holds
        other than ``count`` members, is a forgery, omitted like a failed
        MAC."""
        me = self.cfg.node_id
        full = self.transport.security is ChannelSecurity.FULL
        if full and isinstance(body, bytes):
            envelope = Envelope(peer_id, me, counter, len(body), count, body)
        elif not full and isinstance(body, tuple) and len(body) == 2:
            envelope = Envelope(
                peer_id, me, counter, 0, count,
                members=body[1], member_measurement=body[0],
            )
        else:
            raise ProtocolError("malformed DATA body")
        members = self.transport.open_envelope(me, envelope)
        if not full:
            try:
                members = tuple(ProtocolMessage.from_tuple(m) for m in members)
            except (TypeError, ValueError) as exc:
                raise ProtocolError(f"malformed DATA member: {exc}") from None
        if len(members) != count:
            raise ProtocolError(
                f"DATA frame declares {count} members but holds {len(members)}"
            )
        return members

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    async def start_server(self) -> Tuple[str, int]:
        """Bind the listening socket; returns the bound address."""
        self._server = await asyncio.start_server(
            self._accept, self.cfg.listen_host, self.cfg.listen_port
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.cfg.listen_port = port
        return host, port

    async def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            hello, _ = await asyncio.wait_for(
                self._read_raw_frame(reader),
                timeout=self.cfg.connect_timeout_s,
            )
            kind, version, peer_id, digest = hello
            if kind != K_HELLO or version != WIRE_PROTO_VERSION:
                raise ProtocolError("bad HELLO")
            if digest != self.cfg.config_digest():
                raise ProtocolError(
                    "peer disagrees on (n, t, seed, protocol) — refusing"
                )
            peer = self._peers.get(peer_id)
            if peer is None or peer.alive:
                raise ProtocolError(f"unexpected peer {peer_id}")
        except (ProtocolError, asyncio.TimeoutError, ConnectionError,
                OSError, asyncio.IncompleteReadError) as exc:
            _LOG.warning("node %d: rejected connection: %s",
                         self.cfg.node_id, exc)
            writer.close()
            return
        self._attach(peer, reader, writer)
        self._send_hello(peer)
        self._check_connected()

    def _send_hello(self, peer: _Peer) -> None:
        self._write_frame(peer, encode((
            K_HELLO, WIRE_PROTO_VERSION, self.cfg.node_id,
            self.cfg.config_digest(),
        )))

    def _attach(
        self,
        peer: _Peer,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peer.reader = reader
        peer.writer = writer
        writer.transport.max_size = _RECV_BYTES
        peer.alive = True
        peer.reader_task = asyncio.ensure_future(self._reader_loop(peer))

    def _check_connected(self) -> None:
        if all(p.alive for p in self._peers.values()):
            self._connected.set()

    async def _dial(self, peer_id: NodeId) -> None:
        """Connect to a higher-numbered peer, retrying through bring-up."""
        host, port = self.cfg.peers[peer_id]
        deadline = perf_counter() + self.cfg.connect_timeout_s
        delay = 0.02
        while True:
            try:
                reader, writer = await asyncio.open_connection(host, port)
                break
            except (ConnectionError, OSError):
                if perf_counter() >= deadline or self._stop.is_set():
                    raise ProtocolError(
                        f"node {self.cfg.node_id}: peer {peer_id} at "
                        f"{host}:{port} unreachable"
                    )
                await asyncio.sleep(delay)
                delay = min(delay * 2, 0.5)
        peer = self._peers[peer_id]
        peer.reader = reader
        peer.writer = writer
        writer.transport.max_size = _RECV_BYTES
        self._send_hello(peer)
        hello, _ = await asyncio.wait_for(
            self._read_raw_frame(reader), timeout=self.cfg.connect_timeout_s
        )
        kind, version, got_id, digest = hello
        if (kind != K_HELLO or version != WIRE_PROTO_VERSION
                or got_id != peer_id
                or digest != self.cfg.config_digest()):
            writer.close()
            raise ProtocolError(f"bad HELLO from peer {peer_id}")
        peer.alive = True
        peer.reader_task = asyncio.ensure_future(self._reader_loop(peer))
        self._check_connected()

    @staticmethod
    async def _read_raw_frame(
        reader: asyncio.StreamReader,
    ) -> Tuple[tuple, int]:
        header = await reader.readexactly(_LEN.size)
        (length,) = _LEN.unpack(header)
        if length > MAX_FRAME_BYTES:
            raise ProtocolError(f"oversized frame ({length} bytes)")
        body = await reader.readexactly(length)
        return decode(body), _LEN.size + length

    async def connect_peers(self) -> None:
        """Dial every higher-numbered peer; wait for the rest to dial us."""
        dialers = [
            asyncio.ensure_future(self._dial(pid))
            for pid in sorted(self._peers)
            if pid > self.cfg.node_id
        ]
        try:
            if dialers:
                await asyncio.gather(*dialers)
            await asyncio.wait_for(
                self._connected.wait(), timeout=self.cfg.connect_timeout_s
            )
        except asyncio.TimeoutError:
            missing = [p.node_id for p in self._peers.values() if not p.alive]
            raise ProtocolError(
                f"node {self.cfg.node_id}: peers {missing} never connected"
            ) from None
        finally:
            for task in dialers:
                if not task.done():
                    task.cancel()

    async def _reader_loop(self, peer: _Peer) -> None:
        assert peer.reader is not None
        try:
            while True:
                frame, nbytes = await self._read_raw_frame(peer.reader)
                self.stats.received(peer.node_id, nbytes)
                self._route(peer, frame)
        except (asyncio.IncompleteReadError, ConnectionError, OSError):
            # No BYE first: the peer crashed — eject (a peer that said
            # goodbye is already dead, and _eject is a no-op then).
            self._eject(peer, "connection-lost")
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # malformed frame: treat as link death
            _LOG.warning(
                "node %d: link to %d failed: %s",
                self.cfg.node_id, peer.node_id, exc,
            )
            self._eject(peer, "protocol-error")

    def _route(self, peer: _Peer, frame: object) -> None:
        """File one decoded frame in its round inbox.  Every field of
        every kind is checked before anything reads it: a frame of the
        wrong shape raises :class:`ProtocolError`, which kills the link."""
        if not (
            isinstance(frame, tuple) and frame
            and isinstance(frame[0], int) and frame[0] in _ARITY
        ):
            raise ProtocolError("unknown frame kind")
        kind = frame[0]
        if len(frame) != _ARITY[kind]:
            raise ProtocolError(
                f"malformed frame: kind {kind} with {len(frame)} fields"
            )
        _, run, rnd = frame[0:3]
        if not (isinstance(run, int) and isinstance(rnd, int)):
            raise ProtocolError("malformed frame position")
        if kind == K_DATA:
            # (counter, count): the link counter the transport checks and
            # the member count the opened envelope must hold.
            valid = all(
                type(v) is int and 1 <= v <= _MAX_COUNTER for v in frame[3:5]
            )
        elif kind == K_ACK:
            digests = frame[3]
            valid = isinstance(digests, tuple) and all(
                isinstance(d, bytes) and len(d) == _DIGEST_BYTES
                for d in digests
            )
        elif kind == K_FIN:
            valid = frame[3] in (0, 1)
        elif kind == K_BYE:
            valid = isinstance(frame[3], str)
        else:
            valid = True        # EOD, EOA: the position is all they carry
        if not valid:
            raise ProtocolError(f"malformed frame of kind {kind}")
        if kind == K_BYE:
            peer.mark_dead(f"bye:{frame[3]}")
            self.evict_departed_node(peer.node_id)
            return
        # Lockstep bounds what an honest peer can send: it cannot pass
        # our barrier further than the next round, or round 1 of the next
        # run.  A frame behind that window is late or replayed (its inbox
        # is gone for good); one beyond it would allocate inboxes nothing
        # ever drops.
        if (run, rnd) <= self._closed:
            self.stats.stale_frames += 1
            return
        if not (
            (run == self.current_run and rnd <= self.current_round + 1)
            or (run, rnd) == (self.current_run + 1, 1)
        ):
            raise ProtocolError(
                f"frame for run {run} round {rnd} outside the lockstep window"
            )
        box = peer.inbox(run, rnd)
        if kind == K_DATA:
            box.data.append(frame[3:])       # (counter, count, body)
        elif kind == K_EOD:
            box.eod_seen = True
            box.eod.set()
        elif kind == K_ACK:
            box.acks.extend(frame[3])
        elif kind == K_EOA:
            box.eoa_seen = True
            box.eoa.set()
        else:
            box.done = bool(frame[3])
            box.fin.set()

    # ------------------------------------------------------------------
    # barriers
    # ------------------------------------------------------------------
    def _live_peers(self) -> List[_Peer]:
        return [peer for peer in self._peers.values() if peer.alive]

    async def _barrier(self, run: int, rnd: int, wave: str) -> None:
        """Wait for every live peer's end-of-wave marker.  The wave has
        one deadline — a timeout and a half from its start — and each
        peer gets what is left of it: k silent peers cost one wait."""
        if wave == "fin" and self.enclave.halted:
            return      # we said BYE, not FIN: nobody answers
        deadline = perf_counter() + 1.5 * self.cfg.round_timeout_s
        for peer in self._live_peers():
            event: asyncio.Event = getattr(peer.inbox(run, rnd), wave)
            if event.is_set():
                continue
            t0 = perf_counter()
            try:
                await asyncio.wait_for(event.wait(), max(deadline - t0, 0.0))
            except asyncio.TimeoutError:
                self._eject(peer, f"timeout:{wave}:round-{rnd}")
            self.stats.barrier_wait_s.observe(perf_counter() - t0)

    def _eject(self, peer: _Peer, reason: str) -> None:
        """Dead/slow peer: remove it from the lockstep group.  Its
        undelivered traffic becomes omissions — the campaign harness's
        omission semantics over a real socket."""
        if not peer.alive:
            return
        peer.mark_dead(reason)
        self.evict_departed_node(peer.node_id)
        self.stats.ejected.append(peer.node_id)
        _LOG.info(
            "node %d: ejected peer %d (%s)",
            self.cfg.node_id, peer.node_id, reason,
        )
        if peer.writer is not None:
            try:
                peer.writer.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # the round: RoundBackend over TCP frames, and the pump that waits
    # ------------------------------------------------------------------
    def _mark_wave(self, kind: int, rnd: int, *rest) -> None:
        """Tell every live peer this node's part of a wave is out: one
        frame, encoded once."""
        body = encode((kind, self.current_run, rnd, *rest))
        for peer in self._live_peers():
            self._write_frame(peer, body)

    def run_hooks(
        self, hook: str, rnd: int, halted_now=(), seconds: float = 0.0
    ) -> None:
        """The hooks run here, on the one hosted node; around them goes
        what this daemon owes its peers when a round closes."""
        if hook == "on_round_begin":
            self._round_t0 = perf_counter()
            if self.cfg.fail_at_round == rnd:
                raise _WireAbort()
        super().run_hooks(hook, rnd, halted_now, seconds)
        if hook == "on_round_end":
            if self.enclave.halted:
                self._mark_wave(K_BYE, rnd, "halted")
            else:
                self._mark_wave(K_FIN, rnd, int(self._active.all_done))

    def transmit(self, rnd: int, intents: list) -> int:
        """One sealed envelope per link, then the end-of-data marker.
        No piece is encoded twice in a round: each message once, not once
        per link, and each link's DATA frame is spliced from the shared
        pieces around its own counter."""
        per_target: Dict[NodeId, List[bytes]] = {}
        for intent in intents:
            body = encode(intent.message.to_tuple())
            for target in intent.targets:
                per_target.setdefault(target, []).append(body)
        head = (encode(K_DATA), encode(self.current_run), encode(rnd))
        shared: Dict[tuple, bytes] = {}
        # Counters and counts repeat across links.
        ints: Dict[int, bytes] = {}
        sent = 0
        for target in sorted(per_target):
            members = per_target[target]
            peer = self._peers.get(target)
            if peer is None or not peer.alive:
                self.stats.traffic.record_omissions(len(members))
                continue
            counter, body = self._seal_members(target, members, shared)
            count = len(members)
            for value in (counter, count):
                if value not in ints:
                    ints[value] = encode(value)
            self._write_frame(peer, compose_tuple((
                *head, ints[counter], ints[count], body,
            )))
            sent += count
        self._mark_wave(K_EOD, rnd)
        return sent

    def deliver(self, rnd: int) -> int:
        """Dispatch the data wave in canonical order — links sorted by
        sender id, members in emission order — then answer it within the
        same round trip: aggregated ACK digests and the end-of-ack
        marker."""
        cfg = self.cfg
        run = self.current_run
        traffic = self.stats.traffic
        program = self.enclave.program
        for peer in self._peers.values():
            box = peer.inbox(run, rnd)
            if not peer.alive and not box.eod_seen:
                # Died mid-wave: the round's partial traffic is
                # discarded wholesale (omissions), never half-applied.
                traffic.record_omissions(sum(c for _, c, _ in box.data))
                continue
            for counter, count, body in box.data:
                if self.enclave.halted:
                    continue    # a halted enclave opens nothing
                try:
                    members = self._open_members(
                        peer.node_id, counter, count, body
                    )
                except (CryptoError, ProtocolError) as exc:
                    # Verification failure is an omission (Thm A.2).
                    traffic.rejections += count
                    traffic.record_omissions(count)
                    _LOG.info(
                        "node %d: rejected envelope from %d: %s",
                        cfg.node_id, peer.node_id, exc,
                    )
                    continue
                self._active.delivered.add(cfg.node_id)
                for member in members:
                    program.on_message(self.context, peer.node_id, member)
        acks, self._ack_out = self._ack_out, {}
        for dest in sorted(acks):
            peer = self._peers.get(dest)
            if peer is not None and peer.alive:
                self._write_frame(
                    peer, encode((K_ACK, run, rnd, tuple(acks[dest])))
                )
        self._mark_wave(K_EOA, rnd)
        return sum(map(len, acks.values()))

    def ack_wave(self, rnd: int) -> None:
        for peer in self._peers.values():
            box = peer.inbox(self.current_run, rnd)
            if not peer.alive and not box.eoa_seen:
                continue    # died mid-ack-wave: its ACKs are omitted
            for digest in box.acks:
                self._credit_ack(self.cfg.node_id, digest)

    def _everyone_done(self) -> bool:
        """FIN consensus — or this node is leaving: halted, or asked to
        stop at this round boundary."""
        if self.enclave.halted or self._stop.is_set():
            return True
        return self._active.all_done and self._peers_done

    async def _run_rounds(self, run: int, max_rounds: int) -> None:
        """Serve one run.  The kernel sequences the round; this pump only
        flushes and waits wherever it yields a wave."""
        self._setup()
        for wave in self._rounds(max_rounds, self):
            rnd = self.current_round
            await self._drain_all()
            await self._barrier(run, rnd, wave)
            if wave == "fin":
                self._finish_round(run, rnd)

    def _finish_round(self, run: int, rnd: int) -> None:
        self._peers_done = all(
            peer.inbox(run, rnd).done for peer in self._live_peers()
        )
        wall = perf_counter() - self._round_t0
        self._round_walls.append(wall)
        self._round_bytes.append(self.stats.traffic.round_bytes(rnd))
        self.stats.round_wall_s.observe(wall)
        for peer in self._peers.values():
            peer.drop_round(run, rnd)
        self._closed = (run, rnd)

    # ------------------------------------------------------------------
    # service entry points
    # ------------------------------------------------------------------
    async def run_service(self) -> WireRunReport:
        """Connect, run the configured protocol (all epochs for the
        beacon), close down cleanly, report."""
        cfg = self.cfg
        records: List[BeaconRecord] = []
        crashed = False
        try:
            await self.connect_peers()
            if cfg.protocol == "beacon":
                prev_seed = b""
                prev_record = RandomBeacon.GENESIS
                for epoch in range(cfg.epochs):
                    if self._stop.is_set():
                        break
                    seed = epoch_seed(cfg.seed, epoch, prev_seed)
                    self.current_run = epoch
                    self._departed.clear()
                    self._build_universe(seed)
                    await self._run_rounds(epoch, self._max_rounds)
                    program = self.enclave.program
                    if not program.has_output:
                        break
                    value = program.output
                    digest = BeaconRecord.compute_digest(
                        epoch, value, prev_record
                    )
                    records.append(BeaconRecord(
                        epoch=epoch, value=value,
                        prev_digest=prev_record, digest=digest,
                    ))
                    prev_seed = digest
                    prev_record = digest
            else:
                await self._run_rounds(0, self._max_rounds)
        except _WireAbort:
            crashed = True
            if cfg.fail_mode == "hang":
                # Silent, sockets open: peers must eject us on timeout.
                # Exit once they all have (they close their side).
                while (any(p.alive for p in self._peers.values())
                       and not self._stop.is_set()):
                    await asyncio.sleep(0.05)
        finally:
            await self._close(crashed=crashed)
        program = self.enclave.program
        return WireRunReport(
            node_id=cfg.node_id,
            output=program.output if program.has_output else None,
            decided_round=program.decided_round,
            halted=self.enclave.halted,
            rounds_executed=self.stats.rounds_executed,
            ejected_peers=list(self.stats.ejected),
            round_walls=list(self._round_walls),
            round_bytes=list(self._round_bytes),
            stats=self.stats,
            records=records,
            crashed=crashed,
        )

    def shutdown(self) -> None:
        """Request a graceful stop (SIGTERM handler): the pump exits at
        the next round boundary, peers get a BYE, tasks are joined."""
        self._stop.set()

    async def _close(self, crashed: bool = False) -> None:
        if not crashed:
            self._mark_wave(K_BYE, self.current_round, "shutdown")
        await self._drain_all()
        for peer in self._peers.values():
            if peer.writer is not None:
                try:
                    peer.writer.close()
                except OSError:
                    pass
            if peer.reader_task is not None:
                peer.reader_task.cancel()
        tasks = [
            p.reader_task for p in self._peers.values()
            if p.reader_task is not None
        ]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


# ----------------------------------------------------------------------
# daemon + cluster entry points
# ----------------------------------------------------------------------

def run_node_daemon(cfg: WireNodeConfig) -> WireRunReport:
    """``python -m repro node``: host one node until its protocol run
    completes or SIGTERM arrives.  Installs signal handlers for a clean
    shutdown — the pump exits at a round boundary and every task is
    joined, so no orphan tasks survive the loop."""
    import signal

    async def _main() -> WireRunReport:
        node = WireNode(cfg)
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, node.shutdown)
            except (NotImplementedError, RuntimeError):
                pass    # non-POSIX loop: Ctrl-C still raises
        await node.start_server()
        return await node.run_service()

    return asyncio.run(_main())


def allocate_loopback_ports(count: int) -> List[int]:
    """Reserve ``count`` distinct ephemeral loopback ports.

    Bind-then-close: the OS keeps the port out of the ephemeral pool
    long enough for the daemons to claim it (standard test-harness
    idiom; a race is possible but vanishingly rare on loopback).
    """
    ports: List[int] = []
    sockets = []
    for _ in range(count):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        sockets.append(sock)
        ports.append(sock.getsockname()[1])
    for sock in sockets:
        sock.close()
    return ports


def cluster_configs(
    n: int,
    protocol: str = "erb",
    *,
    t: int = -1,
    seed: int = 0,
    security: str = "modeled",
    initiator: int = 0,
    message: bytes = b"wire",
    epochs: int = 1,
    random_bits: int = 128,
    round_timeout_s: float = DEFAULT_ROUND_TIMEOUT_S,
    fail_at_round: Optional[Dict[int, int]] = None,
    fail_mode: str = "crash",
    ports: Optional[List[int]] = None,
) -> List[WireNodeConfig]:
    """Per-node configs for an N-node loopback cluster.

    With ``ports`` (e.g. from :func:`allocate_loopback_ports`) the
    address book is fixed up front — the multi-process launcher needs
    that; the in-process runner leaves ports at 0 and fills the book
    after binding.
    """
    port_of = {
        i: (ports[i] if ports is not None else 0) for i in range(n)
    }
    fail_at_round = fail_at_round or {}
    configs = []
    for i in range(n):
        configs.append(WireNodeConfig(
            node_id=i,
            n=n,
            t=t,
            seed=seed,
            protocol=protocol,
            listen_port=port_of[i],
            peers={
                j: ("127.0.0.1", port_of[j]) for j in range(n) if j != i
            },
            security=security,
            initiator=initiator,
            message=message,
            epochs=epochs,
            random_bits=random_bits,
            round_timeout_s=round_timeout_s,
            fail_at_round=fail_at_round.get(i),
            fail_mode=fail_mode,
        ))
    return configs


async def run_cluster_async(
    configs: Sequence[WireNodeConfig],
) -> ClusterResult:
    """Run every node of a loopback cluster on one event loop.

    Real sockets, real frames — the nodes share nothing but TCP.  Ports
    left at 0 are bound first and the address book distributed before
    any dial."""
    t0 = perf_counter()
    nodes = [WireNode(cfg) for cfg in configs]
    ports: Dict[int, int] = {}
    for node in nodes:
        _, port = await node.start_server()
        ports[node.cfg.node_id] = port
    for node in nodes:
        node.cfg.peers = {
            pid: ("127.0.0.1", ports[pid])
            for pid in ports
            if pid != node.cfg.node_id
        }
    reports = await asyncio.gather(
        *(node.run_service() for node in nodes)
    )
    return _cluster_result(
        {report.node_id: report for report in reports}, t0
    )


def _cluster_result(
    reports: Dict[NodeId, WireRunReport], t0: float
) -> ClusterResult:
    """Aggregate the per-node reports of one cluster run started at
    ``t0``; the beacon chain is read off the node that ran longest."""
    ordered = sorted(reports.items())
    longest = max(reports.values(), key=lambda r: r.rounds_executed)
    return ClusterResult(
        outputs={
            nid: r.output for nid, r in ordered if r.output is not None
        },
        decided_rounds={
            nid: r.decided_round for nid, r in ordered
            if r.output is not None
        },
        halted=[nid for nid, r in ordered if r.halted or r.crashed],
        rounds_executed=longest.rounds_executed,
        reports=reports,
        records=longest.records,
        wall_seconds=perf_counter() - t0,
    )


def run_cluster(configs: Sequence[WireNodeConfig]) -> ClusterResult:
    """Synchronous wrapper around :func:`run_cluster_async`."""
    return asyncio.run(run_cluster_async(configs))


# ----------------------------------------------------------------------
# multi-process cluster: one OS process per daemon
# ----------------------------------------------------------------------

def spawn_node_processes(
    configs: Sequence[WireNodeConfig], config_dir: str
):
    """Start one ``python -m repro node`` daemon per config.

    Ports must be pre-allocated in the address books
    (:func:`allocate_loopback_ports` + :func:`cluster_configs` with
    ``ports=``).  Returns the ``subprocess.Popen`` handles in config
    order; the caller owns their lifecycle (this is what the SIGTERM
    lifecycle test drives directly).
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src_root = str(Path(__file__).resolve().parents[2])
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    if src_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            src_root + (os.pathsep + existing if existing else "")
        )
    procs = []
    for cfg in configs:
        path = Path(config_dir) / f"node-{cfg.node_id}.json"
        path.write_text(cfg.to_json(), encoding="utf-8")
        procs.append(subprocess.Popen(
            [sys.executable, "-m", "repro", "node", "--config", str(path)],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        ))
    return procs


def run_cluster_processes(
    configs: Sequence[WireNodeConfig],
    timeout_s: float = 120.0,
) -> ClusterResult:
    """Run a loopback cluster as separate OS processes and aggregate
    the daemons' JSON reports.  The in-process runner
    (:func:`run_cluster`) is the default; this is the path that proves
    the daemon binary itself works end to end."""
    import subprocess
    import tempfile

    t0 = perf_counter()
    with tempfile.TemporaryDirectory(prefix="repro-wire-") as config_dir:
        procs = spawn_node_processes(configs, config_dir)
        reports: Dict[NodeId, WireRunReport] = {}
        try:
            for cfg, proc in zip(configs, procs):
                out, _ = proc.communicate(timeout=timeout_s)
                try:
                    raw = json.loads(out.strip().splitlines()[-1])
                except (json.JSONDecodeError, IndexError):
                    raise ProtocolError(
                        f"node {cfg.node_id} daemon produced no report "
                        f"(exit {proc.returncode})"
                    ) from None
                reports[cfg.node_id] = WireRunReport.from_json_dict(raw)
        except subprocess.TimeoutExpired:
            raise ProtocolError(
                f"cluster did not complete within {timeout_s}s"
            ) from None
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
    return _cluster_result(reports, t0)
