"""The seven workloads: what one op is, and how its output is checked.

Every workload is a closed loop with one client in one process: the
simulator and the in-process TCP cluster are the system under test, not
load generators.  No message delay is injected: simulator rounds cost
processor time only (simulated clock), wire rounds cross the host
loopback.  Op ``i`` draws its inputs from ``seed + i``.

A workload has four steps, driven by ``worker.py``:

* ``setup(seed)``  — build whatever outlives one op, run op 0 as the
  untimed warm-up and check it (``setup_s`` ends here);
* ``op(i)``        — one timed op, returned with its correctness verdict
  and the counts its public result object carries;
* ``finish()``     — untimed end-of-run checks (reference runs);
* ``close()``      — release processes and sockets.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Dict, Optional

from repro import ErbProgram, SimulationConfig, run_erng
from repro.apps.beacon import RandomBeacon
from repro.campaign import build_grid, run_case
from repro.common.config import ChannelSecurity
from repro.net.parallel import planned_data_plane
from repro.net.session import EngineSession
from repro.net.wire import cluster_configs, run_cluster

@dataclass
class Op:
    """Outcome of one op.  A workload that times itself (the wire rep
    differences two cluster runs) fills ``ops``/``wall_s``/``cpu_s``;
    otherwise the worker times the call and counts one op."""

    ok: bool
    counts: Dict[str, float] = field(default_factory=dict)
    ops: int = 1
    wall_s: Optional[float] = None
    cpu_s: Optional[float] = None


def sim_counts(*results) -> Dict[str, float]:
    """The simulator's public ledger of one op (summed over its runs)."""
    traffic = [r.traffic for r in results]
    return {
        "simulator.msgs_per_op": sum(t.messages_sent for t in traffic),
        "simulator.envelopes_per_op": sum(t.envelopes_sent for t in traffic),
        "simulator.bytes_per_op": sum(t.envelope_bytes_sent for t in traffic),
        "simulator.omissions_per_op": sum(t.omissions for t in traffic),
        "simulator.halted_per_op": sum(len(r.halted) for r in results),
        "simulator.rounds_per_op": sum(r.rounds_executed for r in results),
    }


def erb_messages(n: int) -> int:
    """Messages of one honest ERB: INIT + ECHO, each ACKed."""
    return 2 * n * (n - 1)


class ErbFactory:
    """Picklable ERB program factory (session recycle frames ship it to
    the shard workers)."""

    def __init__(self, n: int, t: int, payload: bytes) -> None:
        self.n, self.t, self.payload = n, t, payload

    def __call__(self, node_id: int) -> ErbProgram:
        return ErbProgram(
            node_id=node_id, initiator=0, n=self.n, t=self.t,
            message=self.payload if node_id == 0 else None,
        )


def seeded_payload(seed: int, size: int) -> bytes:
    block = hashlib.sha256(f"perfbench-payload:{seed}".encode()).digest()
    return (block * (size // len(block) + 1))[:size]


class Workload:
    def __init__(self, smoke: bool = False, inject: bool = False) -> None:
        self.smoke = smoke
        self.inject = inject
        self.seed = 0
        self.retries = 0       # ops repeated after the engine broke

    def setup(self, seed: int) -> bool:
        self.seed = seed
        return self.op(0).ok

    def op(self, i: int) -> Op:
        raise NotImplementedError

    def finish(self) -> bool:
        return True

    def close(self) -> None:
        pass


class SimErngN64(Workload):
    """Fresh network per op, MODELED, serial, round-envelope fast path."""

    def op(self, i: int) -> Op:
        n = 16 if self.smoke else 64
        r = run_erng(SimulationConfig(n=n, seed=self.seed + i))
        ok = (
            len(r.outputs) == n
            and len(set(r.outputs.values())) == 1
            and r.rounds_executed == 2
            and r.traffic.messages_sent == n * erb_messages(n)
            and not r.halted
        )
        return Op(ok, sim_counts(r))


class CampaignN16(Workload):
    """One 12-cell adversarial sweep; the campaign invariants are the
    oracle.  ``inject`` corrupts every cell's output after the run (the
    campaign's own test-only hook) so the failure path can be tested."""

    def op(self, i: int) -> Op:
        grid = build_grid(
            ["erb", "erng"], [16], ["omission", "rod", "byzantine"],
            ["none", "late"], [i], master_seed=self.seed,
            inject={"kind": "corrupt_output", "node": 1, "value": "corrupted"}
            if self.inject else None,
        )
        outcomes = [run_case(spec) for spec in grid]
        ok = len(outcomes) == 12 and all(o.passed for o in outcomes)
        return Op(ok, sim_counts(*(o.result for o in outcomes)))


class ShardedErbN512(Workload):
    """One persistent session on the two-worker sharded engine."""

    def setup(self, seed: int) -> bool:
        self.seed = seed
        self.n = 64 if self.smoke else 512
        self.payload = seeded_payload(seed, 64)
        t = SimulationConfig(n=self.n).t
        self.rounds = t + 2
        self.factory = ErbFactory(self.n, t, self.payload)
        self.session = self._session(workers=2)
        self.first = None
        return self.op(0).ok

    def _session(self, workers: int) -> EngineSession:
        config = SimulationConfig(n=self.n, workers=workers, seed=self.seed)
        return EngineSession(config, self.factory)

    def op(self, i: int) -> Op:
        try:
            r = self.session.run(self.rounds, seed=self.seed + i)
        except Exception:
            # repro.net.shm's ring cursors can tear under preemption (see
            # README.md, Steadiness): the coordinator then reads a stale
            # frame and the crew is lost.  A caller would rebuild the
            # session and repeat the run; so does this one, once, and the
            # repeat is counted (parallel.op_retries), not hidden.
            traceback.print_exc()
            self.retries += 1
            self.session.close()
            self.session = self._session(workers=2)
            r = self.session.run(self.rounds, seed=self.seed + i)
        if i == 0:
            self.first = r
        ok = (
            r.rounds_executed == 2
            and r.traffic.messages_sent == erb_messages(self.n)
            and len(r.outputs) == self.n
            and all(v == self.payload for v in r.outputs.values())
        )
        counts = sim_counts(r)
        counts["parallel.shm_plane"] = float(
            getattr(self.session.network, "parallel_data_plane", None) == "shm"
        )
        return Op(ok, counts)

    def finish(self) -> bool:
        # The sharded engine must have run (not silently fallen back) on
        # the plane it planned, and must match a serial run bit for bit.
        network = self.session.network
        planned = planned_data_plane(2, network.config.extra)
        if getattr(network, "parallel_data_plane", None) != planned:
            return False
        with self._session(workers=1) as serial:
            ref = serial.run(self.rounds)
        return (
            ref.outputs == self.first.outputs
            and ref.halted == self.first.halted
            and ref.traffic.bytes_by_round == self.first.traffic.bytes_by_round
        )

    def close(self) -> None:
        self.session.close()


class BeaconN16(Workload):
    """Service shape at small N: one session beacon, one epoch per op."""

    def setup(self, seed: int) -> bool:
        self.seed = seed
        self.beacon = RandomBeacon(16, seed=seed, session=True)
        return self.op(0).ok

    def op(self, i: int) -> Op:
        record = self.beacon.next_beacon()
        log = self.beacon.log
        ok = record.epoch == len(log) - 1 and (
            len(log) < 2 or record.prev_digest == log[-2].digest
        )
        return Op(ok, sim_counts(self.beacon.last_result))

    def finish(self) -> bool:
        log = self.beacon.log
        head = min(4, len(log))
        rebuilt = RandomBeacon(16, seed=self.seed)
        for _ in range(head):
            rebuilt.next_beacon()
        return RandomBeacon.verify_chain(log) and rebuilt.log == log[:head]

    def close(self) -> None:
        self.beacon.close()


class FullErbN8(Workload):
    """FULL security: real DH/Schnorr set-up, real AEAD on every message."""

    def setup(self, seed: int) -> bool:
        self.seed = seed
        self.payload = seeded_payload(seed, 1024)
        config = SimulationConfig(
            n=8, seed=seed, channel_security=ChannelSecurity.FULL,
            extra={"dh_group": "small"} if self.smoke else {},
        )
        self.rounds = config.t + 2
        self.session = EngineSession(
            config, ErbFactory(8, config.t, self.payload)
        )
        return self.op(0).ok

    def op(self, i: int) -> Op:
        r = self.session.run(self.rounds, seed=self.seed + i)
        ok = (
            len(r.outputs) == 8
            and all(v == self.payload for v in r.outputs.values())
            and r.traffic.rejections == 0
        )
        return Op(ok, sim_counts(r))

    def close(self) -> None:
        self.session.close()


class WireBeaconN9(Workload):
    """Beacon epochs over real TCP loopback.  One rep runs a 1-epoch and
    a 17-epoch cluster at the same seed; their difference is 16 steady
    epochs with the cold bring-up cancelled, using only public calls."""

    N = 9
    LONG = 17

    def _cluster(self, seed: int, epochs: int, **knobs):
        configs = cluster_configs(
            self.N, "beacon", seed=seed, epochs=epochs, **knobs
        )
        wall, cpu = perf_counter(), process_time()
        result = run_cluster(configs)
        return result, perf_counter() - wall, process_time() - cpu

    def _chain(self, seed: int, epochs: int):
        beacon = RandomBeacon(self.N, seed=seed)
        for _ in range(epochs):
            beacon.next_beacon()
        return beacon.log

    def _agrees(self, result, seed: int, epochs: int) -> bool:
        chain = self._chain(seed, epochs)
        reports = result.reports.values()
        return (
            len(result.reports) == self.N
            and all(r.records == chain for r in reports)
            and not result.halted
            and not any(r.ejected_peers for r in reports)
        )

    def setup(self, seed: int) -> bool:
        self.seed = seed
        result, _, _ = self._cluster(seed, 1)
        return self._agrees(result, seed, 1)

    def op(self, i: int) -> Op:
        seed = self.seed + i
        short, wall_1, cpu_1 = self._cluster(seed, 1)
        long, wall_n, cpu_n = self._cluster(seed, self.LONG)
        ok = self._agrees(short, seed, 1) and self._agrees(long, seed, self.LONG)

        def total(result, attr):
            return sum(
                sum(getattr(r.stats, attr).values())
                for r in result.reports.values()
            )

        return Op(
            ok,
            {
                "wire.bytes_per_op": total(long, "bytes_sent")
                - total(short, "bytes_sent"),
                "wire.frames_per_op": total(long, "frames_sent")
                - total(short, "frames_sent"),
            },
            ops=self.LONG - 1,
            wall_s=wall_n - wall_1,
            cpu_s=cpu_n - cpu_1,
        )

    def finish(self) -> bool:
        # A node that crashes before round 2 is ejected by every
        # survivor, and the survivors still agree.
        victim = self.N - 1
        result, _, _ = self._cluster(
            self.seed, 1, fail_at_round={victim: 2}, round_timeout_s=0.5
        )
        survivors = [r for n, r in result.reports.items() if n != victim]
        return (
            result.halted == [victim]
            and all(r.ejected_peers == [victim] for r in survivors)
            and len({repr(r.records) for r in survivors}) == 1
            and len(survivors[0].records) == 1
        )


#: The three commands of one ``cli-cold`` op (``layers.py`` times each).
CLI_COMMANDS = {
    "erb": ("erb", "--n", "32", "--message", "hello"),
    "beacon": ("beacon", "--n", "9", "--epochs", "4"),
    "cluster": ("cluster", "--n", "5", "--protocol", "erb", "--message", "hi"),
}


def run_cli(*args: str) -> bool:
    """One ``python -m repro …`` child, exec to exit (``PYTHONPATH`` is
    inherited from the worker)."""
    done = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, timeout=120, check=False,
    )
    return done.returncode == 0 and bool(done.stdout.strip())


class CliCold(Workload):
    """What a shell user waits for: three cold commands, import graph
    included.  Engine work is negligible by construction."""

    def op(self, i: int) -> Op:
        # run_cli is looked up at call time so a tracer can wrap it; the
        # list runs all three even when one fails.
        return Op(all([
            run_cli(*command, "--seed", str(self.seed + i))
            for command in CLI_COMMANDS.values()
        ]))


WORKLOADS = {
    "sim-erng-n64": SimErngN64,
    "campaign-n16": CampaignN16,
    "sharded-erb-n512": ShardedErbN512,
    "beacon-n16": BeaconN16,
    "full-erb-n8": FullErbN8,
    "wire-beacon-n9": WireBeaconN9,
    "cli-cold": CliCold,
}
