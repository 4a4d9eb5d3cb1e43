"""Direct drivers: each layer's public functions, timed on their own.

One pass (about ten seconds) calls into every layer with inputs shaped
like the workloads': a 1 KiB ERB INIT for crypto/serialization/channel,
ERNG networks of 16 and 64 for the simulator, the N=512 sharded ERB for
parallel, a nine-node loopback beacon for wire.  Timings are the median
of a few batches; they carry no regression bound — they say *which
storey moved* when an end-to-end metric does (see README.md for the
layer → end-to-end table).

Started by ``run.py`` (which puts ``src`` on ``PYTHONPATH``); prints one
JSON object ``{metric: value}`` on the last line of stdout.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

from repro import ErngProgram, SimulationConfig, SynchronousNetwork
from repro.apps.beacon import RandomBeacon
from repro.campaign import build_schedule
from repro.channel.peer_channel import SecureChannel
from repro.common.config import ChannelSecurity
from repro.common.rng import DeterministicRNG
from repro.common.serialization import decode, encode, encoded_size
from repro.common.types import MessageType, ProtocolMessage
from repro.crypto import (
    AEAD, AeadKey, DiffieHellman, hash_bytes, schnorr_keygen, schnorr_verify,
)
from repro.crypto.dh import MODP_768, MODP_2048
from repro.net.session import EngineSession
from repro.net.shm import ShmChannel
from repro.net.wire import cluster_configs, run_cluster
from repro.sgx.attestation import AttestationAuthority
from repro.sgx.enclave import Enclave
from repro.sgx.trusted_time import SimulationClock

import spans
import workloads


def per_call(fn, calls: int = 1, batches: int = 5) -> float:
    """Seconds per call: the median over ``batches`` of ``calls`` calls."""
    samples = []
    for _ in range(batches):
        start = perf_counter()
        for _ in range(calls):
            fn()
        samples.append((perf_counter() - start) / calls)
    return statistics.median(samples)


def timed(fn, *args, **kwargs):
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


def init_message(size: int = 1024) -> ProtocolMessage:
    return ProtocolMessage(
        type=MessageType.INIT, initiator=0, seq=1,
        payload=workloads.seeded_payload(0, size), rnd=1, instance="erb",
    )


def erng_factory(config: SimulationConfig):
    def factory(node_id: int) -> ErngProgram:
        return ErngProgram(
            node_id=node_id, n=config.n, t=config.t,
            random_bits=config.random_bits,
        )

    return factory


def crypto(group, calls: int) -> dict:
    rng = DeterministicRNG("perfbench-crypto")
    aead = AEAD(AeadKey.generate(rng))
    small, kib, big = (workloads.seeded_payload(1, n) for n in (64, 1024, 16384))
    sealed = aead.seal(kib, rng, b"0->1")
    dh = DiffieHellman(rng, group)
    pair, peer = dh.generate_keypair(), dh.generate_keypair()
    signer = schnorr_keygen(rng, group)
    signature = signer.sign(kib, rng)
    return {
        "crypto.seal_us_64": 1e6 * per_call(lambda: aead.seal(small, rng, b"0->1"), calls),
        "crypto.seal_us_1k": 1e6 * per_call(lambda: aead.seal(kib, rng, b"0->1"), calls),
        "crypto.open_us_1k": 1e6 * per_call(lambda: aead.open(sealed, b"0->1"), calls),
        "crypto.seal_mb_s_16k": len(big) / 1e6
        / per_call(lambda: aead.seal(big, rng, b"0->1"), max(1, calls // 10)),
        "crypto.hash_us_64": 1e6 * per_call(lambda: hash_bytes(small, domain="bench"), calls),
        "crypto.dh_keygen_ms": 1e3 * per_call(dh.generate_keypair, batches=3),
        "crypto.dh_shared_ms": 1e3
        * per_call(lambda: dh.shared_secret(pair, peer.public), batches=3),
        "crypto.schnorr_sign_ms": 1e3 * per_call(lambda: signer.sign(kib, rng), batches=3),
        "crypto.schnorr_verify_ms": 1e3 * per_call(
            lambda: schnorr_verify(group, signer.public, kib, signature), batches=3
        ),
    }


def serialization(calls: int) -> dict:
    message = init_message().to_tuple()
    blob = encode(message)
    # What the envelope path sizes per link: 64 ERNG members.
    members = tuple(
        (MessageType.ECHO.value, j, 1, 1 << 127, 2, f"rng-{j}", ())
        for j in range(64)
    )
    return {
        "serialization.encode_us": 1e6 * per_call(lambda: encode(message), calls),
        "serialization.decode_us": 1e6 * per_call(lambda: decode(blob), calls),
        "serialization.encoded_size_us": 1e6
        * per_call(lambda: encoded_size(members), max(1, calls // 10)),
    }


def channel(group, calls: int) -> dict:
    master = DeterministicRNG("perfbench-channel")
    authority = AttestationAuthority(master, group)
    clock = SimulationClock()
    factory = workloads.ErbFactory(2, 0, b"")
    a, b = (Enclave(i, factory(i), master, clock, authority) for i in (0, 1))

    def establish() -> SecureChannel:
        return SecureChannel.establish(a, b, ChannelSecurity.FULL, group)

    establish_s = per_call(establish, batches=3)
    link = establish()
    message = init_message()
    bodies = [encode(message.to_tuple())] * 16
    rng = a.rdrand.rng()
    # Each wire can be read once (replay guard), so writes and reads are
    # timed in pairs and summed apart.
    write_s = read_s = env_write_s = env_read_s = 0.0
    for _ in range(calls):
        wire, dt = timed(link.write, 0, message, rng, a.measurement)
        write_s += dt
        read_s += timed(link.read, 1, wire)[1]
    env_calls = max(1, calls // 10)
    for _ in range(env_calls):
        envelope, dt = timed(link.write_envelope, 0, bodies, rng, a.measurement)
        env_write_s += dt
        env_read_s += timed(link.read_envelope, 1, envelope)[1]
    return {
        "channel.establish_ms": 1e3 * establish_s,
        "channel.write_us_1k": 1e6 * write_s / calls,
        "channel.read_us_1k": 1e6 * read_s / calls,
        "channel.envelope_write_us_x16": 1e6 * env_write_s / env_calls,
        "channel.envelope_read_us_x16": 1e6 * env_read_s / env_calls,
    }


def simulator(batches: int) -> dict:
    out = {}
    for n in (16, 64):
        config = SimulationConfig(n=n, seed=n)
        out[f"simulator.build_ms_n{n}"] = 1e3 * per_call(
            lambda: SynchronousNetwork(config, erng_factory(config)),
            batches=batches,
        )
    # Honest run: the round-envelope fast path.
    config = SimulationConfig(n=64, seed=1)
    network = SynchronousNetwork(config, erng_factory(config))
    result, wall = timed(network.run, config.t + 2)
    out["simulator.round_ms_envelope_n64"] = 1e3 * wall / result.rounds_executed
    # Omission schedule: OS behaviours force the general per-wire path.
    samples = []
    for seed in range(batches):
        config = SimulationConfig(n=16, seed=seed)
        behaviors = build_schedule("omission", 16, config.t, seed).compile(seed)
        network = SynchronousNetwork(
            config, erng_factory(config), behaviors=behaviors
        )
        result, wall = timed(network.run, config.t + 2)
        samples.append(wall / result.rounds_executed)
    out["simulator.round_ms_perwire_n16"] = 1e3 * statistics.median(samples)
    return out


def parallel(n: int) -> dict:
    payload = workloads.seeded_payload(2, 64)
    config = SimulationConfig(n=n, workers=2, seed=0)
    factory = workloads.ErbFactory(n, config.t, payload)
    rounds = config.t + 2
    with EngineSession(config, factory) as session:
        first_s = timed(session.run, rounds)[1]            # carries the fork
        warm_s = statistics.median(
            timed(session.run, rounds, seed=seed)[1] for seed in (1, 2)
        )
    with EngineSession(SimulationConfig(n=n, seed=0), factory) as session:
        session.run(rounds)
        serial_s = timed(session.run, rounds, seed=2)[1]
    return {
        "parallel.first_run_ms": 1e3 * first_s,
        "parallel.warm_run_ms": 1e3 * warm_s,
        "parallel.speedup_vs_serial": serial_s / warm_s,
    }


def _echo(link: ShmChannel) -> None:
    """Child side of the shm driver: echo small frames, swallow the bulk
    stream and acknowledge its end; leave when the parent is gone."""
    link.bind_worker()
    parent = os.getppid()

    def parent_alive() -> None:
        if os.getppid() != parent:
            os._exit(1)

    while True:
        frame = link.recv(parent_alive)
        if frame is None:
            return
        if frame == b"end-of-stream":
            link.send(b"ack")
        elif len(frame) <= 4096:
            link.send(frame)


def shm(calls: int) -> dict:
    link = ShmChannel()
    child = multiprocessing.get_context("fork").Process(target=_echo, args=(link,))
    child.start()
    deadline = perf_counter() + 30

    def child_alive() -> None:
        if not child.is_alive() or perf_counter() > deadline:
            raise TimeoutError("shm echo child died or stalled")

    try:
        page, chunk = bytes(4096), bytes(64 * 1024)

        def round_trip() -> None:
            link.send(page)
            link.recv(child_alive)

        round_trip()
        put_get_s = per_call(round_trip, calls)
        chunks = 2 * calls     # wraps the 4 MiB ring several times over

        def stream() -> None:
            for _ in range(chunks):
                link.send(chunk)
            link.send(b"end-of-stream")
            link.recv(child_alive)

        stream_s = per_call(stream, batches=3)
        link.send(None)
        child.join(10)
    finally:
        if child.is_alive():
            child.kill()
            child.join()
        link.close()
    return {
        "shm.put_get_us_4k": 1e6 * put_get_s,
        "shm.ring_mb_s": chunks * len(chunk) / 1e6 / stream_s,
    }


def over_the_ring(*drivers) -> dict:
    """Run the drivers that cross ``repro.net.shm`` rings.

    The ring packs its 8-byte cursors with ``struct`` in a standard
    (``<``) format, which CPython writes byte by byte, so a reader that
    polls while the writer is preempted can see a torn cursor and read a
    stale or garbage frame.  A driver that breaks is repeated on a fresh
    ring and counted: ``shm.driver_retries`` is this layer's
    failed-or-retried metric, not noise to hide."""
    out, retries = {}, 0
    for driver, arg in drivers:
        for attempt in range(5):
            try:
                out.update(driver(arg))
                break
            except Exception:     # whatever a garbage frame raises
                traceback.print_exc()
                retries += 1
        else:
            raise RuntimeError(f"{driver.__name__} driver broke five times")
    out["shm.driver_retries"] = float(retries)
    return out


def session(calls: int) -> dict:
    config = SimulationConfig(n=16, seed=0)
    factory = erng_factory(config)
    network = SynchronousNetwork(config, factory)
    network.run(config.t + 2)
    seeds = iter(range(1, 10**9))
    return {
        "session.rearm_ms_n16": 1e3 * per_call(
            lambda: network.begin_session_run(factory, seed=next(seeds)), calls
        ),
    }


def beacon(epochs: int) -> dict:
    rebuilt = RandomBeacon(16, seed=3)
    rebuild_s = per_call(rebuilt.next_beacon, batches=epochs)
    pipelined = RandomBeacon(16, seed=3)
    pipelined_s = timed(pipelined.run_pipelined, 4 * epochs)[1]
    verify_s = per_call(lambda: RandomBeacon.verify_chain(pipelined.log))
    return {
        "beacon.epoch_ms_rebuild_n16": 1e3 * rebuild_s,
        "beacon.pipelined_epoch_ms_n16": 1e3 * pipelined_s / (4 * epochs),
        "beacon.verify_us_per_record": 1e6 * verify_s / len(pipelined.log),
    }


def wire() -> dict:
    short = run_cluster(cluster_configs(9, "beacon", seed=5, epochs=1))
    long = run_cluster(cluster_configs(9, "beacon", seed=5, epochs=17))
    reports = list(long.reports.values())
    rounds = sorted(w for r in reports for w in r.round_walls)
    waits = [r.stats.barrier_wait_s for r in reports]
    return {
        "wire.bringup_ms": 1e3 * short.wall_seconds,
        "wire.round_ms_p50": 1e3 * statistics.median(rounds),
        "wire.round_ms_p95": 1e3 * rounds[int(0.95 * (len(rounds) - 1))],
        "wire.barrier_wait_ms_p50": 1e3 * statistics.median(w.p50 for w in waits),
        "wire.barrier_wait_share": sum(w.total for w in waits)
        / sum(sum(r.round_walls) for r in reports),
        "wire.ejections": float(sum(len(r.ejected_peers) for r in reports)),
    }


def campaign() -> dict:
    sweep = workloads.CampaignN16()
    sweep.setup(7)
    op, wall = timed(sweep.op, 1)
    tracer = spans.Tracer()
    tracer.install(layers=("adversary",))
    try:
        sweep.op(1)
    finally:
        tracer.uninstall()
    return {
        "campaign.cases_per_s": 12 / wall,
        "adversary.filter_calls_per_op": float(tracer.calls["adversary"]),
    }


def cli(batches: int) -> dict:
    def python(*args: str):
        return lambda: subprocess.run(
            [sys.executable, *args], capture_output=True, check=True
        )

    interp_s = per_call(python("-c", "pass"), batches=batches)
    import_s = per_call(python("-c", "import repro.cli"), batches=batches)
    out = {
        "cli.interp_ms": 1e3 * interp_s,
        "cli.import_ms": 1e3 * (import_s - interp_s),
    }
    for name, args in workloads.CLI_COMMANDS.items():
        out[f"cli.{name}_ms"] = 1e3 * per_call(
            python("-m", "repro", *args), batches=max(1, batches - 1)
        )
    return out


def run_all(smoke: bool = False) -> dict:
    """Every direct metric.  ``smoke`` (tests only) shrinks the inputs:
    the 768-bit group, N=64 for the sharded run, one batch each."""
    group = MODP_768 if smoke else MODP_2048
    calls = 20 if smoke else 200
    out = {}
    out.update(crypto(group, calls))
    out.update(serialization(calls))
    out.update(channel(group, calls))
    out.update(simulator(1 if smoke else 3))
    out.update(over_the_ring(
        (parallel, 64 if smoke else 512), (shm, calls // 2)
    ))
    out.update(session(2 if smoke else 20))
    out.update(beacon(2 if smoke else 8))
    out.update(wire())
    out.update(campaign())
    out.update(cli(1 if smoke else 3))
    return out


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true")
    print(json.dumps(run_all(parser.parse_args().smoke)))
