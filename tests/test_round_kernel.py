"""One round kernel, four back-ends.

``RoundHost._rounds`` sequences the lockstep round once; the simulator's
round-envelope back-end (and the per-wire reference of
:mod:`tests.per_wire`), the sharded coordinator and the TCP daemon only
say where hooks run and how messages move.  So every environment, at one seed, must
walk the same phases in the same order every round, halt the same nodes,
decide in the same rounds, and close each round with the same number of
decided nodes — a wire cluster's one-node daemons summed.

Also pinned here: the fallback the sharded engine now relies on — a host
without shared memory gets one warning and the serial engine.
"""

from __future__ import annotations

import asyncio
import logging
import multiprocessing

import pytest

from repro import SimulationConfig, run_erb, run_erng
from repro.core.erb import ErbProgram
from repro.net.shm import shared_memory_available
from repro.net.simulator import SynchronousNetwork
from repro.net.wire import WireNode, cluster_configs
from repro.obs import ROUND_PHASES
from repro.obs.events import PhaseEvent, RoundSpan
from repro.obs.tracer import Tracer

from tests.per_wire import per_wire
from tests.test_parallel_engine import _snapshot

N, SEED, PAYLOAD = 5, 7, b"kernel"

needs_shards = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not shared_memory_available(),
    reason="the sharded engine needs fork and POSIX shared memory",
)


def _erb_factory(config):
    def factory(node_id):
        return ErbProgram(
            node_id=node_id, initiator=0, n=config.n, t=config.t, seq=1,
            message=PAYLOAD if node_id == 0 else None,
        )
    return factory


def _phase_trail(events):
    """Phase names per round, in emission order."""
    trail = {}
    for event in events:
        if isinstance(event, PhaseEvent):
            trail.setdefault(event.rnd, []).append(event.phase)
    return trail


def _decided_trail(events):
    return {e.rnd: e.decided for e in events if isinstance(e, RoundSpan)}


def _simulated(protocol, **knobs):
    tracer = Tracer.memory()
    config = SimulationConfig(n=N, seed=SEED, tracer=tracer, **knobs)
    if protocol == "erb":
        result = run_erb(config, initiator=0, message=PAYLOAD)
    else:
        result = run_erng(config)
    return (
        [_phase_trail(tracer.events)],
        result.halted,
        result.decided_rounds,
        _decided_trail(tracer.events),
    )


def _wired(protocol):
    """A loopback cluster whose daemons each trace into memory."""
    configs = cluster_configs(N, protocol, seed=SEED, message=PAYLOAD)
    tracers = [Tracer.memory() for _ in configs]

    async def main():
        nodes = [WireNode(cfg, tracer=t) for cfg, t in zip(configs, tracers)]
        ports = {}
        for node in nodes:
            _, ports[node.cfg.node_id] = await node.start_server()
        for node in nodes:
            node.cfg.peers = {
                pid: ("127.0.0.1", port) for pid, port in ports.items()
                if pid != node.cfg.node_id
            }
        return await asyncio.wait_for(
            asyncio.gather(*(node.run_service() for node in nodes)), 60
        )

    reports = asyncio.run(main())
    decided = {}
    for tracer in tracers:
        for rnd, count in _decided_trail(tracer.events).items():
            decided[rnd] = decided.get(rnd, 0) + count
    return (
        [_phase_trail(tracer.events) for tracer in tracers],
        [r.node_id for r in reports if r.halted],
        {r.node_id: r.decided_round for r in reports if r.output is not None},
        decided,
    )


def _run(environment, protocol):
    if environment == "wire":
        return _wired(protocol)
    if environment == "per-wire":
        with per_wire():
            return _simulated(protocol)
    return _simulated(protocol, workers=2 if environment == "workers=2" else 1)


@pytest.mark.parametrize("protocol", ["erb", "erng"])
@pytest.mark.parametrize("environment", [
    "per-wire",
    "envelope",
    pytest.param("workers=2", marks=needs_shards),
    "wire",
])
def test_every_environment_walks_the_same_round(protocol, environment):
    _, halted, decided_rounds, decided = _run("envelope", protocol)
    trails, e_halted, e_decided_rounds, e_decided = _run(environment, protocol)
    assert decided  # the reference really was traced
    for trail in trails:  # one per tracer: the wire has a tracer per node
        assert sorted(trail) == sorted(decided)
        for rnd, phases in trail.items():
            assert tuple(phases) == ROUND_PHASES, f"round {rnd}"
    assert e_halted == halted
    assert e_decided_rounds == decided_rounds
    assert e_decided == decided


def test_without_shared_memory_a_sharded_run_warns_once_and_goes_serial(
    monkeypatch, caplog
):
    """The rings are the only carriage: no usable shared memory is one
    more reason a ``workers > 1`` run executes serially — said once."""
    monkeypatch.setattr(
        "repro.net.shm.shared_memory_available", lambda: False
    )
    config = SimulationConfig(n=8, seed=3, workers=2)
    network = SynchronousNetwork(config, _erb_factory(config))
    assert network._parallel_eligible() is False
    with caplog.at_level(logging.WARNING, logger="repro.engine"):
        result = network.run(config.t + 2)
        network.replace_programs(_erb_factory(config))
        network.run(config.t + 2)
    warnings = [
        rec for rec in caplog.records if rec.levelno >= logging.WARNING
    ]
    assert len(warnings) == 1
    assert "shared memory" in warnings[0].getMessage()
    assert "workers=2" in warnings[0].getMessage()
    assert network.parallel_data_plane is None
    serial_cfg = SimulationConfig(n=8, seed=3)
    serial = SynchronousNetwork(
        serial_cfg, _erb_factory(serial_cfg)
    ).run(serial_cfg.t + 2)
    assert _snapshot(result) == _snapshot(serial)
