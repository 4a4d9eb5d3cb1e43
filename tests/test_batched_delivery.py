"""Receiver-major delivery is unobservable: the order oracle.

An untraced run whose links all coalesce hands each receiver its whole
wave through one ``on_messages`` call (``RoundHost._dispatch`` with a
batch table); a traced run keeps plan order, one ``on_message`` per
member.  Every run here is made both ways and must agree on outputs,
halts, decided rounds, rounds executed, the whole traffic ledger and the
per-round hook trail — over ERB, ERNG, optimized ERNG, pb-ERB and a
session beacon, at every channel fidelity.  A counting patch proves the
untraced side took the batch path, and a ``workers=2`` cell compares the
shard workers (per member) with the batched serial back-end.
"""

from __future__ import annotations

import dataclasses
import multiprocessing

import pytest

from repro import ChannelSecurity, SimulationConfig, run_erb, run_erng
from repro.apps.beacon import RandomBeacon
from repro.core.erng import ErngProgram
from repro.core.erng_optimized import ClusterConfig, run_optimized_erng
from repro.core.pb_erb import run_pb_erb
from repro.net.shm import shared_memory_available
from repro.net.simulator import SynchronousNetwork
from repro.obs.tracer import Tracer
from repro.sgx.program import EnclaveProgram

N, T = 9, 2

#: The traffic counters a traced FULL run charges per wire by design
#: (``SynchronousNetwork._per_wire_links``): it crosses each link member
#: by member, where an untraced run seals one envelope per link.  The
#: untraced FULL physical counts are pinned by ``test_work_counts.py``.
_PHYSICAL = ("envelopes_sent", "envelope_bytes_sent")


class _Beacon(RandomBeacon):
    """A session beacon at a chosen channel fidelity."""

    def __init__(self, security, **kwargs) -> None:
        super().__init__(N, T, seed=kwargs.pop("seed"), session=True, **kwargs)
        self.security = security

    def _epoch_config(self, seed):
        return dataclasses.replace(
            super()._epoch_config(seed), channel_security=self.security
        )


def _beacon(config):
    beacon = _Beacon(
        config.channel_security, seed=config.seed, workers=config.workers,
        extra=config.extra, tracer=config.tracer,
    )
    try:
        results = []
        for _ in range(3):
            beacon.next_beacon()
            results.append(beacon.last_result)
        return results
    finally:
        beacon.close()


#: protocol -> (run, the class whose ``on_messages`` a batched run calls)
RUNS = {
    "erb": (
        lambda config: run_erb(config, initiator=0, message=b"order"),
        EnclaveProgram,
    ),
    "erng": (run_erng, ErngProgram),
    "erng-opt": (
        lambda config: run_optimized_erng(config, cluster=ClusterConfig()),
        EnclaveProgram,
    ),
    "pb-erb": (
        lambda config: run_pb_erb(config, initiator=0, message=b"order"),
        EnclaveProgram,
    ),
    "beacon": (_beacon, ErngProgram),
}

SECURITIES = [
    ChannelSecurity.MODELED, ChannelSecurity.NONE, ChannelSecurity.FULL,
]


def _observe(protocol, security, seed, *, traced, workers=1):
    """Run ``protocol`` once and return everything the claim covers."""
    trail = []

    def hook(network, rnd, halted_now):
        trail.append((
            rnd, list(halted_now),
            sorted(i for i, node in network.nodes.items() if node.alive),
        ))

    extra = {"round_hook": hook}
    if security is ChannelSecurity.FULL:
        extra["dh_group"] = "small"
    config = SimulationConfig(
        n=N, t=T, seed=seed, channel_security=security, workers=workers,
        extra=extra, tracer=Tracer.memory() if traced else None,
    )
    run, _batch_class = RUNS[protocol]
    results = run(config)
    if not isinstance(results, list):
        results = [results]
    ledgers = []
    for result in results:
        traffic = dict(vars(result.traffic))
        if security is ChannelSecurity.FULL:
            for name in _PHYSICAL:
                traffic.pop(name)
        ledgers.append((
            result.outputs, result.halted, result.decided_rounds,
            result.rounds_executed, traffic,
        ))
    return ledgers, trail


@pytest.fixture
def batch_calls(monkeypatch):
    """Count the calls of each program class's batch verb."""
    calls = {}
    for cls in {cls for _run, cls in RUNS.values()}:
        verb = vars(cls)["on_messages"]

        def counting(self, ctx, batch, _verb=verb, _cls=cls):
            calls[_cls] = calls.get(_cls, 0) + 1
            return _verb(self, ctx, batch)

        monkeypatch.setattr(cls, "on_messages", counting)
    return calls


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("security", SECURITIES, ids=lambda s: s.value)
@pytest.mark.parametrize("protocol", sorted(RUNS))
def test_batched_run_equals_per_member_run(
    protocol, security, seed, batch_calls
):
    batch_class = RUNS[protocol][1]
    per_member = _observe(protocol, security, seed, traced=True)
    assert batch_calls.get(batch_class, 0) == 0
    batched = _observe(protocol, security, seed, traced=False)
    assert batch_calls.get(batch_class, 0) > 0
    assert batched == per_member


needs_shards = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not shared_memory_available(),
    reason="the sharded engine needs fork and POSIX shared memory",
)


@needs_shards
@pytest.mark.parametrize("protocol", ["erb", "erng"])
def test_sharded_workers_equal_batched_serial(protocol, batch_calls):
    """The shard workers dispatch per member; the serial back-end the
    coordinator would otherwise run batches."""
    sharded = _observe(
        protocol, ChannelSecurity.MODELED, 1, traced=False, workers=2
    )
    assert not batch_calls
    serial = _observe(protocol, ChannelSecurity.MODELED, 1, traced=False)
    assert batch_calls
    assert sharded == serial


class _HaltAtMember(ErngProgram):
    """ERNG whose node halts itself (``ctx.halt()``) right after its
    ``k``-th delivered member; it overrides only ``on_message``, so a
    batched run calls the default batch verb over it."""

    def __init__(self, node_id, k, **kwargs) -> None:
        super().__init__(node_id=node_id, **kwargs)
        self.halt_at = k
        self.delivered = 0

    def on_message(self, ctx, sender, message) -> None:
        super().on_message(ctx, sender, message)
        self.delivered += 1
        if self.delivered == self.halt_at:
            ctx.halt()


#: (t, the nodes that halt, the member they halt after): nodes 2 and 6
#: halt in round 1 (k < 9) or at their first member of round 2 (k = 9);
#: with t = 3, six nodes halting in round 2 leave every ECHO sender short
#: of ACKs, so nine nodes halt on divergence in one round.
HALTS = [(2, (2, 6), 1), (2, (2, 6), 4), (2, (2, 6), 9), (3, range(3, 9), 9)]


@pytest.mark.parametrize("security", SECURITIES[:2], ids=lambda s: s.value)
@pytest.mark.parametrize("t, halters, k", HALTS)
def test_halt_inside_a_batch_omits_the_rest(
    t, halters, k, security, batch_calls
):
    """What a node is sent after it halts inside its own batch are
    omissions, and the halts on divergence they cause reach the round
    hook in the same order, in a batched run as member by member."""
    observed = []
    for tracer in (Tracer.memory(), None):
        trail = []
        config = SimulationConfig(
            n=N, t=t, seed=4, channel_security=security, tracer=tracer,
            extra={"round_hook": lambda net, rnd, now: trail.append(
                (rnd, list(now))
            )},
        )

        def factory(node_id):
            return _HaltAtMember(
                node_id, k if node_id in halters else 0, n=N, t=t
            )

        result = SynchronousNetwork(config, factory).run(t + 2)
        observed.append((
            result.traffic.omissions, result.halted, result.outputs,
            result.decided_rounds, dict(vars(result.traffic)), trail,
        ))
    assert batch_calls.get(EnclaveProgram, 0) > 0
    assert batch_calls.get(ErngProgram, 0) == 0
    assert set(halters) <= set(observed[0][1])
    assert observed[0][0] > 0
    assert observed[1] == observed[0]
