"""A finished run is freed by reference counting alone.

Nothing a run leaves behind may hold its network in a reference cycle:
with the cyclic collector off, dropping the result frees the network.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import ChannelSecurity, SimulationConfig, run_erb, run_erng
from repro.apps.beacon import RandomBeacon
from repro.campaign import Fault, Schedule, run_case
from repro.campaign.spec import CaseSpec
from repro.net.simulator import SynchronousNetwork
from repro.net.wire import WireNode, cluster_configs, run_cluster


@pytest.fixture
def networks(monkeypatch):
    """Weak references to every network built, with the collector off."""
    refs = []
    init = SynchronousNetwork.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(SynchronousNetwork, "__init__", recording)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _beacon_epoch():
    beacon = RandomBeacon(8, seed=5, session=True)
    try:
        return beacon.next_beacon()
    finally:
        beacon.close()


RUNS = {
    "erb": lambda: run_erb(
        SimulationConfig(n=8, seed=1), initiator=0, message=b"m"
    ),
    "erng": lambda: run_erng(SimulationConfig(n=8, seed=1)),
    "full-erb": lambda: run_erb(
        SimulationConfig(
            n=4, seed=1, channel_security=ChannelSecurity.FULL,
            extra={"dh_group": "small"},
        ),
        initiator=0, message=b"m",
    ),
    "adversarial-case": lambda: run_case(CaseSpec(
        protocol="erb", n=5, t=2, seed=11,
        schedule=Schedule(faults=(Fault(node=1, kind="replay"),)),
    )),
    "workers=2": lambda: run_erb(
        SimulationConfig(n=8, seed=1, workers=2), initiator=0, message=b"m"
    ),
    "session-beacon": _beacon_epoch,
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_dropped_result_frees_the_network(networks, run):
    result = RUNS[run]()
    assert networks
    del result
    assert [ref() for ref in networks] == [None] * len(networks)


def test_finished_wire_cluster_frees_its_nodes(monkeypatch):
    """A loopback cluster's daemons are freed once it returns: a closed
    link holds no node, so a 9-node cluster's 72 receive buffers do not
    wait for the collector."""
    refs = []
    init = WireNode.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(WireNode, "__init__", recording)
    gc.collect()
    gc.disable()
    try:
        result = run_cluster(cluster_configs(3, "erb", seed=1, message=b"m"))
        assert sorted(result.outputs) == [0, 1, 2]
        del result
        assert len(refs) == 3
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()
