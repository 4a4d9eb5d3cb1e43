"""A distributed random beacon (Appendix H, "Random Beacons").

Every epoch the peer network runs one ERNG instance; the resulting common
unbiased value is appended to a hash-chained public log, NIST-beacon
style — except no trusted third party exists: any ``t < N/2`` (or
``t ≤ N/3`` with the optimized protocol) byzantine peers can neither bias
nor predict the output.

The chain commits each epoch to its predecessor
(``digest = H(epoch || value || prev_digest)``), so a consumer who saw
record ``i`` can later verify that record ``i+k`` extends the same
history — retroactive rewriting requires breaking the hash.

Three execution modes, all producing **byte-identical chains**:

* **rebuild** (the default, the original one-shot shape): every epoch
  builds a fresh network and — with ``workers > 1`` — forks a fresh
  worker crew.
* **session** (``session=True``): epochs run back-to-back on one
  persistent :class:`~repro.net.session.EngineSession` — channels, caches
  and worker shards survive; only the per-epoch recycle (re-seed,
  relaunch, invalidate) runs between epochs.
* **pipelined** (:meth:`RandomBeacon.run_pipelined`): a whole batch of
  epochs executes as *one* engine run of a multi-epoch program.  Epoch
  ``e+1``'s INIT dissemination is staged in the same engine round whose
  ACK wave closes epoch ``e`` (the boundary work rides inside the final
  round instead of a separate setup phase), and the INIT crosses the wire
  one round later — the seed of epoch ``e+1`` derives from epoch ``e``'s
  digest, so one round is the pipelining floor.  Steady state is two
  rounds per epoch with zero per-epoch engine setup.

Chain semantics are identical in every mode: epoch ``e``'s contribution
at node ``i`` is the first ``random_bits`` draw of the RDRAND fork that a
fresh network seeded with ``epoch_seed(e)`` would give node ``i``, so the
pipelined program reproduces the sequential chain bit-for-bit (pinned by
tests/test_session.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.config import SimulationConfig
from repro.common.errors import ConfigurationError, ProtocolError
from repro.common.rng import DeterministicRNG
from repro.common.serialization import encode
from repro.common.types import NodeId, ProtocolMessage
from repro.core.erb import ErbCore
from repro.core.erng import ErngProgram, run_erng, xor_fold
from repro.core.erng_optimized import (
    ClusterConfig,
    OptimizedErngProgram,
    run_optimized_erng,
)
from repro.crypto.hashing import hash_bytes
from repro.net.session import EngineSession
from repro.sgx.program import EnclaveProgram
from repro.sgx.rdrand import RdRand


@dataclass(frozen=True)
class BeaconRecord:
    """One epoch of the beacon log."""

    epoch: int
    value: int
    prev_digest: bytes
    digest: bytes

    @staticmethod
    def compute_digest(epoch: int, value: int, prev_digest: bytes) -> bytes:
        return hash_bytes(
            encode((epoch, value, prev_digest)), domain="beacon-record"
        )


#: The digest epoch 0's record chains to.
GENESIS = hash_bytes(b"beacon-genesis", domain="beacon-record")


def epoch_seed(
    beacon_seed: int, epoch: int, prev_digest: Optional[bytes]
) -> int:
    """The engine seed of one epoch: chained off the previous record's
    digest (None before the first, which hashes ``b""``), so epoch seeds
    are unpredictable until the previous epoch's value is public — and
    every execution mode derives the exact same seeds."""
    material = hash_bytes(
        encode((beacon_seed, epoch, prev_digest or b"")),
        domain="beacon-epoch-seed",
    )
    return int.from_bytes(material[:8], "big")


def next_record(
    epoch: int, value: int, prev_digest: Optional[bytes]
) -> BeaconRecord:
    """Epoch ``epoch``'s record of ``value``, chained to the previous
    record's digest (None before the first, which chains to
    :data:`GENESIS`)."""
    prev = prev_digest or GENESIS
    return BeaconRecord(
        epoch, value, prev, BeaconRecord.compute_digest(epoch, value, prev)
    )


def _epoch_contribution(
    seed: int, node_id: NodeId, random_bits: int
) -> int:
    """Node ``node_id``'s epoch contribution: the first ``random_bits``
    draw of the RDRAND fork a fresh network seeded with ``seed`` gives
    that node.  The pipelined program calls this instead of the shared
    engine RDRAND so its draws match the per-epoch-run modes exactly."""
    master = DeterministicRNG(("simulation", seed))
    return RdRand(master, node_id).random_bits(random_bits)


# ----------------------------------------------------------------------
# per-epoch program factories (module level: session recycle frames ship
# them to the persistent worker crew by pickle)
# ----------------------------------------------------------------------

class _ErngEpochFactory:
    def __init__(self, n: int, t: int, random_bits: int) -> None:
        self.n = n
        self.t = t
        self.random_bits = random_bits

    def __call__(self, node_id: NodeId) -> ErngProgram:
        return ErngProgram(
            node_id=node_id, n=self.n, t=self.t,
            random_bits=self.random_bits,
        )


class _OptimizedEpochFactory:
    def __init__(
        self, n: int, t: int, random_bits: int,
        cluster: ClusterConfig, early_stop: bool,
    ) -> None:
        self.n = n
        self.t = t
        self.random_bits = random_bits
        self.cluster = cluster
        self.early_stop = early_stop

    def __call__(self, node_id: NodeId) -> OptimizedErngProgram:
        return OptimizedErngProgram(
            node_id=node_id, n=self.n, t=self.t, cluster=self.cluster,
            random_bits=self.random_bits, early_stop=self.early_stop,
        )


class _PipelineFactory:
    def __init__(
        self, n: int, t: int, random_bits: int, beacon_seed: int,
        start_epoch: int, epochs: int, prev_digest: Optional[bytes],
    ) -> None:
        self.n = n
        self.t = t
        self.random_bits = random_bits
        self.beacon_seed = beacon_seed
        self.start_epoch = start_epoch
        self.epochs = epochs
        self.prev_digest = prev_digest

    def __call__(self, node_id: NodeId) -> "BeaconPipelineProgram":
        return BeaconPipelineProgram(
            node_id=node_id, n=self.n, t=self.t,
            random_bits=self.random_bits, beacon_seed=self.beacon_seed,
            start_epoch=self.start_epoch, epochs=self.epochs,
            prev_digest=self.prev_digest,
        )


# ----------------------------------------------------------------------
# the pipelined multi-epoch program
# ----------------------------------------------------------------------

class BeaconPipelineProgram(EnclaveProgram):
    """A batch of chained ERNG epochs as one engine run.

    Hosts the *real* :class:`ErbCore` state machines of the unoptimized
    ERNG, one set per epoch, with epoch-prefixed instance tags
    (``e<epoch>:rng-<j>``) multiplexed over the shared channels — the
    engine's per-destination envelopes coalesce whatever shares a round.

    Epoch hand-off happens in ``on_round_end``: once every core of epoch
    ``e`` has decided (round ``R``, the round whose phase-4 ACK wave
    acknowledged ``e``'s last ECHO burst), the node derives epoch
    ``e+1``'s seed from ``e``'s digest, draws its contribution, and
    stages the INIT multicast — in the *same engine round* ``R``, to
    cross the wire in ``R+1``.  Staging any earlier is impossible: the
    seed depends on ``e``'s outcome, which needs ``R``'s deliveries.
    That one-round floor is the pipelining depth bound the chain's
    seed-dependency imposes; :attr:`RandomBeacon.pipeline_stats` makes
    the window explicit (``staged_round[e+1] == decided_round[e]``,
    ``start_round[e+1] == decided_round[e] + 1``) and tests pin it.

    Honest populations only: under adversarial omissions nodes could
    start epochs in different rounds, which the lockstep round check
    (P5) would escalate into divergence halts — the per-epoch-run modes
    remain the adversarial path.
    """

    PROGRAM_NAME = "beacon-pipeline"
    PROGRAM_VERSION = "1"
    SPARSE_AWARE = True

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        t: int,
        *,
        beacon_seed: int,
        epochs: int,
        start_epoch: int = 0,
        prev_digest: Optional[bytes] = None,
        random_bits: int = 128,
    ) -> None:
        super().__init__()
        if epochs < 1:
            raise ConfigurationError("pipeline batch needs epochs >= 1")
        self.node_id = node_id
        self.n = n
        self.t = t
        self.random_bits = random_bits
        self.beacon_seed = beacon_seed
        self.epochs = epochs
        self.start_epoch = start_epoch
        self._prev_digest = prev_digest
        self._epoch = 0                      # completed epochs this batch
        self._cores: Dict[str, ErbCore] = {}
        self._values: List[int] = []
        self._staged_rounds: List[int] = []
        self._start_rounds: List[int] = []
        self._decided_rounds: List[int] = []
        self._deadline = t + 2
        self._closing = False

    # ------------------------------------------------------------------
    def _begin_epoch(self, ctx, first: bool) -> None:
        epoch = self.start_epoch + self._epoch
        seed = epoch_seed(self.beacon_seed, epoch, self._prev_digest)
        contribution = _epoch_contribution(
            seed, ctx.node_id, self.random_bits
        )
        prefix = f"e{epoch}:rng-"
        self._cores = {
            f"{prefix}{j}": ErbCore(
                instance=f"{prefix}{j}",
                initiator=j,
                expected_seq=1,
                group_size=self.n,
                fault_bound=self.t,
            )
            for j in range(self.n)
        }
        # Round-begin staging transmits this round; round-end staging
        # transmits next round (the engine's Wait semantics).
        start = ctx.round if first else ctx.round + 1
        self._staged_rounds.append(ctx.round)
        self._start_rounds.append(start)
        self._deadline = start + self.t + 1
        self._cores[f"{prefix}{ctx.node_id}"].begin(ctx, contribution)

    def on_round_begin(self, ctx) -> None:
        if ctx.round == 1:
            self._begin_epoch(ctx, first=True)

    def on_message(self, ctx, sender: NodeId, message: ProtocolMessage) -> None:
        core = self._cores.get(message.instance)
        if core is not None:
            core.handle_message(ctx, sender, message)

    def on_round_end(self, ctx) -> None:
        if self.has_output or not self._cores:
            return
        if ctx.round >= self._deadline:
            for core in self._cores.values():
                core.finish(ctx)
        if all(core.decided for core in self._cores.values()):
            self._complete_epoch(ctx)

    def on_protocol_end(self, ctx) -> None:
        # Truncated run (max_rounds too small): close the current epoch
        # with ⊥ fills and ship the completed prefix; the driver raises
        # if the batch came up short.
        if self.has_output:
            return
        self._closing = True
        if self._cores:
            for core in self._cores.values():
                core.finish(ctx)
            self._complete_epoch(ctx)
        else:  # pragma: no cover - round 1 never ran
            self._accept(ctx, ((), (), (), ()))

    def sparse_wake_round(self, rnd: int):
        if self.has_output:
            return None
        return max(rnd + 1, self._deadline)

    # ------------------------------------------------------------------
    def _complete_epoch(self, ctx) -> None:
        epoch = self.start_epoch + self._epoch
        final = {
            core.initiator: core.output
            for core in self._cores.values()
            if core.output is not None
        }
        value = xor_fold(final.values())
        self._prev_digest = next_record(epoch, value, self._prev_digest).digest
        self._values.append(value)
        self._decided_rounds.append(ctx.round)
        self._epoch += 1
        self._cores = {}
        if self._epoch >= self.epochs or self._closing:
            self._accept(ctx, (
                tuple(self._values),
                tuple(self._staged_rounds),
                tuple(self._start_rounds),
                tuple(self._decided_rounds),
            ))
        else:
            self._begin_epoch(ctx, first=False)


class RandomBeacon:
    """An ERNG-backed beacon service over a fixed peer population.

    Keyword-only engine options (``workers``, ``extra``, ``tracer``,
    ``timing``) flow into every epoch's :class:`SimulationConfig`;
    ``session=True`` runs epochs on one persistent
    :class:`~repro.net.session.EngineSession` (fork once, run many)
    instead of rebuilding the world per epoch.  Close a session-mode
    beacon with :meth:`close` (or use it as a context manager).
    """

    def __init__(
        self,
        n: int,
        t: int = -1,
        optimized: bool = False,
        cluster: Optional[ClusterConfig] = None,
        seed: int = 0,
        random_bits: int = 128,
        behaviors: Optional[Dict[NodeId, object]] = None,
        *,
        session: bool = False,
        workers: int = 1,
        extra: Optional[dict] = None,
        tracer=None,
        timing=None,
    ) -> None:
        self.n = n
        self.t = t if t >= 0 else (n - 1) // 2
        self.optimized = optimized
        self.cluster = cluster
        self.seed = seed
        self.random_bits = random_bits
        self.behaviors = behaviors
        self.workers = workers
        self.extra = dict(extra) if extra else {}
        self.tracer = tracer
        self.timing = timing
        self.use_session = session
        self.log: List[BeaconRecord] = []
        #: Per-epoch round accounting of pipelined batches (aligned with
        #: the matching ``log`` entries): staged/start/decided rounds and
        #: the explicit overlap flag.
        self.pipeline_stats: List[dict] = []
        #: The engine's RunResult of the most recent epoch or batch —
        #: traffic/round stats for benchmarks.
        self.last_result = None
        self._session: Optional[EngineSession] = None

    # ------------------------------------------------------------------
    def _epoch_config(self, seed: int) -> SimulationConfig:
        return SimulationConfig(
            n=self.n,
            t=self.t,
            seed=seed,
            random_bits=self.random_bits,
            workers=self.workers,
            extra=dict(self.extra),
            tracer=self.tracer,
            timing=self.timing,
        )

    def _epoch_factory(self):
        if self.optimized:
            cluster = self.cluster or ClusterConfig()
            cluster.validate(self.n)
            return _OptimizedEpochFactory(
                self.n, self.t, self.random_bits, cluster,
                bool(self.extra.get("erng_early_stop", True)),
            )
        return _ErngEpochFactory(self.n, self.t, self.random_bits)

    def _epoch_max_rounds(self) -> int:
        if self.optimized:
            cluster = self.cluster or ClusterConfig()
            return cluster.resolved_gamma(self.n) + 5
        return self.t + 2

    def _ensure_session(self, factory) -> EngineSession:
        if self._session is None:
            config = self._epoch_config(self._epoch_seed(len(self.log)))
            if self.optimized:
                config.require_erng_opt_bound()
            else:
                config.require_erb_bound()
            self._session = EngineSession(
                config, factory, behaviors=self.behaviors
            )
        return self._session

    # ------------------------------------------------------------------
    def next_beacon(self) -> BeaconRecord:
        """Run one ERNG epoch and append the result to the chain."""
        epoch = len(self.log)
        seed = self._epoch_seed(epoch)
        if self.use_session:
            factory = self._epoch_factory()
            session = self._ensure_session(factory)
            result = session.run(
                self._epoch_max_rounds(),
                program_factory=factory, seed=seed,
            )
        else:
            config = self._epoch_config(seed)
            if self.optimized:
                result = run_optimized_erng(
                    config, cluster=self.cluster, behaviors=self.behaviors
                )
            else:
                result = run_erng(config, behaviors=self.behaviors)
        self.last_result = result
        value = self._common_output(result)
        return self._append(value)

    # ------------------------------------------------------------------
    def run_pipelined(self, epochs: int) -> List[BeaconRecord]:
        """Run ``epochs`` chained epochs as one pipelined engine run.

        Appends the batch to :attr:`log` (extending whatever the chain
        already holds) and records per-epoch round accounting in
        :attr:`pipeline_stats`.  Requires the unoptimized backend and an
        honest population — see :class:`BeaconPipelineProgram`.
        """
        if epochs < 1:
            raise ConfigurationError("run_pipelined needs epochs >= 1")
        if self.optimized:
            raise ConfigurationError(
                "pipelined epochs require the unoptimized ERNG backend "
                "(the optimized protocol's coin/cluster rounds are "
                "seed-locked; run session mode instead)"
            )
        if self.behaviors:
            raise ConfigurationError(
                "pipelined epochs require an honest population "
                "(cross-epoch lockstep); run per-epoch modes under "
                "adversarial behaviors"
            )
        start_epoch = len(self.log)
        factory = _PipelineFactory(
            self.n, self.t, self.random_bits, self.seed,
            start_epoch, epochs, self._head(),
        )
        max_rounds = epochs * (self.t + 2) + 2
        seed = self._epoch_seed(start_epoch)
        if self.use_session:
            session = self._ensure_session(factory)
            result = session.run(
                max_rounds, program_factory=factory, seed=seed
            )
        else:
            config = self._epoch_config(seed)
            config.require_erb_bound()
            with EngineSession(config, factory) as session:
                result = session.run(max_rounds)
        self.last_result = result
        batch = self._common_output(result)
        values, staged, starts, decided = batch
        if len(values) != epochs:
            raise ProtocolError(
                f"pipelined batch truncated: {len(values)}/{epochs} "
                "epochs completed (max_rounds too small?)"
            )
        records = []
        for i, value in enumerate(values):
            records.append(self._append(value))
            self.pipeline_stats.append({
                "epoch": start_epoch + i,
                "staged_round": staged[i],
                "start_round": starts[i],
                "decided_round": decided[i],
                "rounds": decided[i] - starts[i] + 1,
                # Epoch i's INIT was staged in the engine round whose ACK
                # wave closed epoch i-1 — the pipelining overlap window.
                "overlaps_prev_ack_wave": (
                    i > 0 and staged[i] == decided[i - 1]
                ),
            })
        return records

    # ------------------------------------------------------------------
    def _head(self) -> Optional[bytes]:
        return self.log[-1].digest if self.log else None

    def _append(self, value: int) -> BeaconRecord:
        record = next_record(len(self.log), value, self._head())
        self.log.append(record)
        return record

    def _epoch_seed(self, epoch: int) -> int:
        return epoch_seed(self.seed, epoch, self._head())

    def _common_output(self, result):
        byzantine = set(self.behaviors or ())
        outputs = result.honest_outputs(byzantine)
        values = {v for v in outputs.values() if v is not None}
        if len(values) != 1:
            raise ProtocolError(
                f"beacon epoch failed to converge: honest outputs {values!r}"
            )
        return values.pop()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Retire the persistent engine session (no-op without one)."""
        if self._session is not None:
            self._session.close()
            self._session = None

    def __enter__(self) -> "RandomBeacon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    @staticmethod
    def verify_chain(records: Sequence[BeaconRecord]) -> bool:
        """Check hash-chain integrity of a beacon log prefix."""
        prev = None
        for index, record in enumerate(records):
            if record != next_record(index, record.value, prev):
                return False
            prev = record.digest
        return True
