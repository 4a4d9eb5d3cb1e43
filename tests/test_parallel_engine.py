"""The sharded parallel engine must be invisible in every observable.

``SimulationConfig.workers`` is purely a performance knob: on its
activation domain (honest, measurement-homogeneous, MODELED/NONE) a run
sharded across worker processes must produce byte-identical ``RunResult``
snapshots, logical *and* physical ``TrafficStats`` ledgers and — when
traced — the exact serial event stream, versus the serial envelope path.
These tests pin that equivalence for honest ERB and ERNG across
fidelities and worker counts, the eligibility/fallback predicate, the
coordinator's halt mirroring, multi-instance RNG-stream continuity, the
``TrafficStats.merge`` ledger arithmetic, and a hypothesis property test
over seeds and shard counts.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ChannelSecurity, SimulationConfig, run_erb, run_erng
from repro.adversary.omission import SelectiveOmission
from repro.common.errors import ConfigurationError
from repro.common.types import MessageType
from repro.core.erb import ErbProgram
from repro.core.erng_optimized import run_optimized_erng
from repro.net.simulator import SynchronousNetwork
from repro.net.stats import TrafficStats
from repro.obs.events import WireEvent
from repro.obs.tracer import Tracer


def _snapshot(result):
    """Every observable of a run the equivalence claim covers — logical
    and physical: the parallel engine replays the serial envelope path's
    coalescing exactly, so even the envelope ledger must match."""
    traffic = result.traffic
    return {
        "messages_sent": traffic.messages_sent,
        "bytes_sent": traffic.bytes_sent,
        "messages_by_type": dict(traffic.messages_by_type),
        "bytes_by_type": dict(traffic.bytes_by_type),
        "bytes_by_round": dict(traffic.bytes_by_round),
        "omissions": traffic.omissions,
        "rejections": traffic.rejections,
        "envelopes_sent": traffic.envelopes_sent,
        "envelope_bytes_sent": traffic.envelope_bytes_sent,
        "outputs": result.outputs,
        "halted": result.halted,
        "decided_rounds": result.decided_rounds,
        "rounds_executed": result.rounds_executed,
        "termination_seconds": result.stats.termination_seconds,
    }


def _workers_config(config: SimulationConfig, workers: int) -> SimulationConfig:
    return SimulationConfig(
        n=config.n,
        t=config.t,
        delta=config.delta,
        bandwidth_bytes_per_s=config.bandwidth_bytes_per_s,
        channel_security=config.channel_security,
        ack_threshold=config.ack_threshold,
        seed=config.seed,
        random_bits=config.random_bits,
        tracer=config.tracer,
        extra=dict(config.extra),
        workers=workers,
    )


_FIDELITIES = [ChannelSecurity.MODELED, ChannelSecurity.NONE]
_WORKER_COUNTS = [2, 4]


# ---------------------------------------------------------------------------
# the determinism suite: workers ∈ {1, 2, 4} are byte-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("security", _FIDELITIES)
@pytest.mark.parametrize("workers", _WORKER_COUNTS)
def test_honest_erb_parallel_equals_serial(security, workers):
    config = SimulationConfig(n=16, seed=5, channel_security=security)
    serial = run_erb(config, initiator=0, message=b"shard")
    parallel = run_erb(
        _workers_config(config, workers), initiator=0, message=b"shard"
    )
    assert _snapshot(parallel) == _snapshot(serial)
    assert parallel.outputs
    assert all(v == b"shard" for v in parallel.outputs.values())


@pytest.mark.parametrize("security", _FIDELITIES)
@pytest.mark.parametrize("workers", _WORKER_COUNTS)
def test_honest_erng_parallel_equals_serial(security, workers):
    """ERNG runs N concurrent ERB instances — the heaviest per-receiver
    load, and the workload the speedup acceptance number is measured on."""
    config = SimulationConfig(n=12, seed=8, channel_security=security)
    serial = run_erng(config)
    parallel = run_erng(_workers_config(config, workers))
    assert _snapshot(parallel) == _snapshot(serial)
    assert len(set(parallel.outputs.values())) == 1


def test_optimized_erng_parallel_equals_serial():
    """The optimized ERNG replaces programs across instances on one
    network — the parallel engine must hand back per-node RNG streams so
    instance i+1 continues exactly where a serial run would."""
    config = SimulationConfig(n=12, t=4, seed=21)
    serial = run_optimized_erng(config)
    parallel = run_optimized_erng(_workers_config(config, 4))
    assert _snapshot(parallel) == _snapshot(serial)


# ---------------------------------------------------------------------------
# traced runs: the merged event stream is the serial stream
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("security", _FIDELITIES)
def test_traced_parallel_run_replays_serial_events(security):
    """Per-shard tracers are merged in canonical order: a traced parallel
    run must emit the serial envelope path's event stream exactly —
    phases, wires, envelopes, decisions and round spans."""
    t_par, t_ser = Tracer.memory(), Tracer.memory()
    serial = run_erng(
        SimulationConfig(n=8, seed=3, channel_security=security, tracer=t_ser)
    )
    parallel = run_erng(_workers_config(
        SimulationConfig(n=8, seed=3, channel_security=security, tracer=t_par),
        3,
    ))
    assert parallel.outputs == serial.outputs
    assert t_par.events == t_ser.events


def test_traced_parallel_erb_replays_serial_events():
    t_par, t_ser = Tracer.memory(), Tracer.memory()
    serial = run_erb(
        SimulationConfig(n=9, seed=11, tracer=t_ser), initiator=0, message=b"t"
    )
    parallel = run_erb(
        _workers_config(SimulationConfig(n=9, seed=11, tracer=t_par), 2),
        initiator=0,
        message=b"t",
    )
    assert parallel.outputs == serial.outputs
    assert t_par.events == t_ser.events


# ---------------------------------------------------------------------------
# halts: voluntary mid-run halts propagate through the coordinator mirror
# ---------------------------------------------------------------------------

class _HaltingErb(ErbProgram):
    PROGRAM_NAME = "parallel-halting-erb"

    def on_round_begin(self, ctx):
        if ctx.round == 2 and self.node_id in (1, 5):
            ctx.halt()
            return
        super().on_round_begin(ctx)


def _halting_network(config: SimulationConfig) -> SynchronousNetwork:
    def factory(node_id):
        return _HaltingErb(
            node_id=node_id, initiator=0, n=config.n, t=config.t, seq=1,
            message=b"halt" if node_id == 0 else None,
        )

    return SynchronousNetwork(config, factory)


def test_voluntary_halts_parallel_equals_serial():
    config = SimulationConfig(n=10, seed=2)
    serial = _halting_network(config).run(config.t + 2)
    parallel = _halting_network(_workers_config(config, 3)).run(config.t + 2)
    assert _snapshot(parallel) == _snapshot(serial)
    assert parallel.halted == [1, 5]
    # Traced: the members addressed to the halted nodes are omit_dead
    # events, spliced into the merged stream where the serial path
    # emits them.
    t_ser, t_par = Tracer.memory(), Tracer.memory()
    _halting_network(replace(config, tracer=t_ser)).run(config.t + 2)
    _halting_network(
        _workers_config(replace(config, tracer=t_par), 3)
    ).run(config.t + 2)
    assert t_par.events == t_ser.events
    assert sum(
        1 for e in t_ser.events
        if isinstance(e, WireEvent) and e.action == "omit_dead"
    ) == 14


# ---------------------------------------------------------------------------
# eligibility and fallback
# ---------------------------------------------------------------------------

def _erb_network(config: SimulationConfig, **kwargs) -> SynchronousNetwork:
    def factory(node_id):
        return ErbProgram(
            node_id=node_id, initiator=0, n=config.n, t=config.t, seq=1,
            message=b"p" if node_id == 0 else None,
        )

    return SynchronousNetwork(config, factory, **kwargs)


def test_parallel_requires_workers_above_one():
    network = _erb_network(SimulationConfig(n=8, seed=1))
    assert network._parallel_eligible() is False
    network = _erb_network(SimulationConfig(n=8, seed=1, workers=4))
    assert network._parallel_eligible() is True


def test_adversarial_runs_fall_back_to_serial():
    """ROD/omission schedules act on individual wires; they disable the
    envelope path and with it the parallel engine — and the fallback is
    silent: results still match a workers=1 run exactly."""
    config = SimulationConfig(n=12, seed=9, workers=4)
    behaviors = {2: SelectiveOmission(victims=range(3, 9))}
    network = _erb_network(config, behaviors=behaviors)
    assert network._parallel_eligible() is False
    adv = network.run(config.t + 2)

    serial_net = _erb_network(
        _workers_config(config, 1),
        behaviors={2: SelectiveOmission(victims=range(3, 9))},
    )
    serial = serial_net.run(config.t + 2)
    assert _snapshot(adv) == _snapshot(serial)
    assert adv.traffic.omissions > 0


def test_full_channel_falls_back_to_serial():
    """FULL channels seal in the coordinating process only (the shard
    workers seal nothing); the predicate must decline."""
    config = SimulationConfig(
        n=4, seed=2, workers=4,
        channel_security=ChannelSecurity.FULL,
        extra={"dh_group": "small"},
    )
    network = _erb_network(config)
    assert network._parallel_eligible() is False


def test_workers_must_be_positive():
    with pytest.raises(ConfigurationError):
        SimulationConfig(n=4, workers=0)


# ---------------------------------------------------------------------------
# TrafficStats.merge: per-shard ledgers fold into one run total
# ---------------------------------------------------------------------------

def test_traffic_stats_merge_adds_both_ledgers():
    a = TrafficStats()
    a.record_send(MessageType.ECHO, 100, 1)
    a.record_send_bulk(MessageType.ACK, 240, 1, 3, physical=False)
    a.record_envelope(3, 160)
    a.record_omission()

    b = TrafficStats()
    b.record_send(MessageType.ECHO, 50, 2)
    b.record_rejection()
    b.record_omissions(2)

    total = TrafficStats()
    total.merge(a)
    total.merge(b)
    assert total.messages_sent == 5
    assert total.bytes_sent == 390
    assert total.messages_by_type[MessageType.ECHO] == 2
    assert total.messages_by_type[MessageType.ACK] == 3
    assert dict(total.bytes_by_round) == {1: 340, 2: 50}
    assert total.omissions == 3
    assert total.rejections == 1
    # Physical ledger: a's per-wire send (1 crossing, 100 B) + explicit
    # envelope (3 members, 160 B) + b's per-wire send (1 crossing, 50 B).
    assert total.envelopes_sent == 3
    assert total.envelope_bytes_sent == 310


def test_traffic_stats_merge_matches_single_ledger():
    """Merging disjoint shard ledgers is arithmetically identical to
    recording every event on one ledger."""
    single = TrafficStats()
    shards = [TrafficStats() for _ in range(3)]
    for i in range(30):
        target = shards[i % 3]
        for ledger in (single, target):
            ledger.record_send(MessageType.ECHO, 10 + i, 1 + i % 4)
            if i % 5 == 0:
                ledger.record_envelope(2, 15 + i)
            if i % 7 == 0:
                ledger.record_omission()
    merged = TrafficStats()
    for shard in shards:
        merged.merge(shard)
    assert merged == single


# ---------------------------------------------------------------------------
# property test: workers is observationally inert
# ---------------------------------------------------------------------------

@settings(max_examples=6, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=12),
    seed=st.integers(min_value=0, max_value=2**16),
    workers=st.integers(min_value=2, max_value=5),
)
def test_snapshots_worker_invariant(n, seed, workers):
    config = SimulationConfig(n=n, seed=seed)
    serial = run_erng(config)
    parallel = run_erng(_workers_config(config, workers))
    assert _snapshot(parallel) == _snapshot(serial)
