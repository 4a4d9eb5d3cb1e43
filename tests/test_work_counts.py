"""Work done, pinned: the noise-free half of the performance contract.

A change in *speed* is a ``perfbench/compare.py`` table in
EXPERIMENTS.md; a change in *work done* — one message, envelope, byte,
omission or round more or fewer — fails here.  Every row is the ledger
``perfbench/workloads.py::sim_counts`` prints, read off one small run
per execution environment at commit d1f8119 (the parent of the PR that
added this file).  These rows record, they do not define: re-record one
only in a PR that means to change the work, and say so there.
"""

from __future__ import annotations

import pytest

from repro import SimulationConfig, run_erb, run_erng
from repro.apps.beacon import RandomBeacon
from repro.campaign import build_grid, run_case
from repro.common.config import ChannelSecurity
from repro.net.wire import cluster_configs, run_cluster
from repro.obs.metrics import PROFILER

from tests.per_wire import PerMessageCrossings, per_wire

#: Honest rows must not depend on the seed: each is run at both.
SEEDS = (3, 11)


def ledger(result):
    traffic = result.traffic
    return (
        traffic.messages_sent,
        traffic.envelopes_sent,
        traffic.bytes_sent,
        traffic.envelope_bytes_sent,
        traffic.omissions,
        result.rounds_executed,
    )


def _erng_n16(seed):
    return run_erng(SimulationConfig(n=16, seed=seed))


def _erng_n16_per_message(seed):
    with per_wire(PerMessageCrossings):
        return _erng_n16(seed)


def _erb_n64(seed, workers):
    return run_erb(
        SimulationConfig(n=64, seed=seed, workers=workers),
        initiator=0,
        message=b"p" * 64,
    )


def _beacon_n9_epochs(seed):
    with RandomBeacon(9, seed=seed, session=True) as beacon:
        for _ in range(2):
            beacon.next_beacon()
            yield beacon.last_result


HONEST_ROWS = [
    pytest.param(
        lambda seed: [_erng_n16(seed)],
        (7680, 960, 804000, 535200, 0, 2),
        id="erng-n16-envelope",
    ),
    pytest.param(
        lambda seed: [_erng_n16_per_message(seed)],
        (7680, 7680, 804000, 804000, 0, 2),
        id="erng-n16-perwire",
    ),
    pytest.param(
        lambda seed: [_erb_n64(seed, workers=1)],
        (8064, 8064, 1024128, 1024128, 0, 2),
        id="erb-n64-serial",
    ),
    pytest.param(
        lambda seed: [_erb_n64(seed, workers=2)],
        (8064, 8064, 1024128, 1024128, 0, 2),
        id="erb-n64-workers2",
    ),
    pytest.param(
        _beacon_n9_epochs,
        (1296, 288, 135432, 95112, 0, 2),
        id="beacon-n9-session-epochs",
    ),
]


@pytest.mark.parametrize("runs, row", HONEST_ROWS)
def test_honest_ledger(runs, row):
    ledgers = [ledger(r) for seed in SEEDS for r in runs(seed)]
    assert ledgers == [row] * len(ledgers)


def test_full_erb_ledger_and_crypto_calls():
    """FULL security sizes messages by their real encoding, whose
    integers are minimal-length: a random field with a leading zero byte
    is a byte shorter, so the byte totals move by a few bytes with the
    seed and this row is pinned at one.  Every envelope is sealed once
    and opened once."""
    registry = PROFILER.enable()
    try:
        result = run_erb(
            SimulationConfig(
                n=8, seed=3, channel_security=ChannelSecurity.FULL,
                extra={"dh_group": "small"},
            ),
            initiator=0,
            message=b"x" * 1024,
        )
        crypto_calls = (
            registry.histogram("channel.write_s").count,
            registry.histogram("channel.read_s").count,
        )
    finally:
        PROFILER.disable()
    assert ledger(result) == (112, 112, 75600, 76160, 0, 2)
    assert crypto_calls == (112, 112)


@pytest.mark.parametrize("seed", SEEDS)
def test_wire_erb_frames(seed):
    """Loopback TCP, N = 5: every node sends 40 frames — to each of its
    four peers one HELLO, DATA, ACK and BYE and, per round, one EOD, EOA
    and FIN — carrying 1,992 bytes."""
    result = run_cluster(cluster_configs(5, "erb", seed=seed, message=b"hi"))
    assert result.halted == []
    for report in result.reports.values():
        stats = report.stats
        assert (
            report.rounds_executed,
            sum(stats.frames_sent.values()),
            sum(stats.bytes_sent.values()),
        ) == (2, 40, 1992)


@pytest.mark.parametrize("seed", SEEDS)
def test_wire_beacon_frames(seed):
    """Loopback TCP, N = 5, two chained MODELED beacon epochs, where a
    link's round envelope carries one member per ERB instance: every
    node sends 88 frames — to each of its four peers one HELLO and BYE
    and, per epoch and round, one DATA, EOD, ACK, EOA and FIN — carrying
    7,408 bytes.  Recorded at commit 8d7c86e."""
    result = run_cluster(cluster_configs(5, "beacon", seed=seed, epochs=2))
    assert result.halted == [] and len(result.records) == 2
    for report in result.reports.values():
        stats = report.stats
        assert (
            report.rounds_executed,
            sum(stats.frames_sent.values()),
            sum(stats.bytes_sent.values()),
        ) == (2, 88, 7408)


def test_adversarial_campaign_cell():
    """One omission-strategy cell of the campaign grid (ERNG, N = 16,
    t = 7): the OS of node 2 drops traffic, P4 halts it, and the run
    takes the full t + 2 rounds."""
    (spec,) = build_grid(
        ["erng"], [16], ["omission"], ["none"], [0], master_seed=3
    )
    outcome = run_case(spec)
    assert outcome.passed
    assert ledger(outcome.result) == (6435, 914, 675708, 675708, 300, 9)
    assert outcome.result.halted == [2]
