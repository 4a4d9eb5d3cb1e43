"""Tests for the real-network wire transport (`repro.net.wire`).

The load-bearing claims:

* an N=5 loopback cluster over real TCP sockets reaches **decisions
  identical to the simulator** at the same seed — outputs, decided
  rounds and round counts — for ERB, ERNG, pb-ERB, and chained beacon
  epochs, under both MODELED and FULL channel security;
* dead and silent peers are **ejected cleanly** (EOF and barrier-timeout
  paths) and the survivors still decide;
* shutdown is clean: SIGTERM-driven daemons exit zero with a parseable
  report, and the in-process runner leaves **no orphan asyncio tasks**.
"""

from __future__ import annotations

import asyncio
import json
import signal
import tempfile
import time
import types

import pytest

from repro.apps.beacon import RandomBeacon
from repro.channel.peer_channel import SecureChannel
from repro.common.config import ChannelSecurity, SimulationConfig
from repro.common.errors import ConfigurationError
from repro.common.serialization import decode, encode
from repro.core.erb import run_erb
from repro.core.erng import run_erng
from repro.core.pb_erb import run_pb_erb
from repro.net.wire import (
    K_ACK,
    K_BYE,
    K_DATA,
    K_EOA,
    K_EOD,
    K_FIN,
    DEFAULT_ROUND_TIMEOUT_S,
    WireNode,
    WireNodeConfig,
    WireRunReport,
    allocate_loopback_ports,
    calibrate_from_results,
    cluster_configs,
    fit_round_model,
    run_cluster,
    run_cluster_async,
    spawn_node_processes,
)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

class TestWireNodeConfig:
    def test_json_round_trip(self):
        cfg = cluster_configs(
            3, "erng", seed=2, ports=[9001, 9002, 9003]
        )[1]
        assert WireNodeConfig.from_json(cfg.to_json()) == cfg

    def test_json_round_trip_fail_knobs(self):
        cfg = cluster_configs(
            3, "erb", fail_at_round={0: 2}, fail_mode="hang",
            ports=[9001, 9002, 9003],
        )[0]
        restored = WireNodeConfig.from_json(cfg.to_json())
        assert restored.fail_at_round == 2
        assert restored.fail_mode == "hang"

    def test_config_file_strings_become_typed_values(self):
        """A hand-written config file may quote its numbers."""
        cfg = WireNodeConfig.from_json(json.dumps({
            "node_id": "1", "n": "3", "listen_port": "9001",
            "round_timeout_s": "2",
        }))
        assert (cfg.node_id, cfg.n, cfg.listen_port) == (1, 3, 9001)
        assert type(cfg.node_id) is int and type(cfg.listen_port) is int
        assert type(cfg.round_timeout_s) is float and cfg.round_timeout_s == 2.0
        assert cfg.fail_at_round is None and cfg.message == b"wire"
        # Node 1 peers with the two others, never with itself.
        assert sorted(WireNode(cfg)._peers) == [0, 2]
        assert "fail_at_round" not in json.loads(cfg.to_json())

    def test_t_defaults_to_protocol_maximum(self):
        cfg = WireNodeConfig(node_id=0, n=7)
        assert cfg.t == 3

    def test_rejects_unknown_protocol(self):
        with pytest.raises(ConfigurationError):
            WireNodeConfig(node_id=0, n=3, protocol="zab")

    def test_rejects_unknown_security(self):
        with pytest.raises(ConfigurationError):
            WireNodeConfig(node_id=0, n=3, security="tls")

    def test_config_digest_binds_run_parameters(self):
        a = WireNodeConfig(node_id=0, n=5, seed=1)
        b = WireNodeConfig(node_id=1, n=5, seed=1)
        c = WireNodeConfig(node_id=0, n=5, seed=2)
        # Same run parameters from different nodes agree; a different
        # seed must not (the HELLO handshake refuses mismatched peers).
        assert a.config_digest() == b.config_digest()
        assert a.config_digest() != c.config_digest()


# ----------------------------------------------------------------------
# decision identity with the simulator
# ----------------------------------------------------------------------

class TestDecisionIdentity:
    def test_erb_n5_matches_simulator(self):
        result = run_cluster(
            cluster_configs(5, "erb", seed=7, message=b"wire-payload")
        )
        sim = run_erb(
            SimulationConfig(n=5, seed=7),
            initiator=0, message=b"wire-payload",
        )
        assert result.outputs == sim.outputs
        assert result.decided_rounds == sim.decided_rounds
        assert result.rounds_executed == sim.rounds_executed

    def test_erng_n5_matches_simulator(self):
        result = run_cluster(cluster_configs(5, "erng", seed=11))
        sim = run_erng(SimulationConfig(n=5, seed=11))
        assert result.outputs == sim.outputs
        assert result.decided_rounds == sim.decided_rounds
        assert result.rounds_executed == sim.rounds_executed

    def test_pb_erb_n5_matches_simulator(self):
        result = run_cluster(
            cluster_configs(5, "pb-erb", seed=3, message=b"pb")
        )
        sim = run_pb_erb(
            SimulationConfig(n=5, seed=3), initiator=0, message=b"pb"
        )
        assert result.outputs == sim.outputs
        assert result.decided_rounds == sim.decided_rounds

    def test_full_security_matches_simulator(self):
        """FULL channels: real AEAD envelopes cross the sockets, and the
        per-link counter sequences replayed from the shared seed line up
        with the simulator's establishment order exactly."""
        result = run_cluster(
            cluster_configs(5, "erb", seed=5, message=b"sealed",
                            security="full")
        )
        sim = run_erb(
            SimulationConfig(
                n=5, seed=5, channel_security=ChannelSecurity.FULL
            ),
            initiator=0, message=b"sealed",
        )
        assert result.outputs == sim.outputs
        assert result.decided_rounds == sim.decided_rounds

    def test_erb_seed_sweep_matches_simulator(self):
        for seed in (0, 1, 42):
            result = run_cluster(
                cluster_configs(5, "erb", seed=seed, message=b"s")
            )
            sim = run_erb(
                SimulationConfig(n=5, seed=seed), initiator=0, message=b"s"
            )
            assert result.outputs == sim.outputs, f"seed {seed}"

    def test_beacon_epochs_match_random_beacon(self):
        """Two chained epochs over TCP reproduce RandomBeacon's log —
        values, previous-digest links and record digests — and so its
        session chain, one network re-armed per epoch, as the wire's
        daemons are."""
        result = run_cluster(cluster_configs(5, "beacon", seed=13, epochs=2))
        for session in (False, True):
            with RandomBeacon(n=5, seed=13, session=session) as beacon:
                beacon.next_beacon()
                beacon.next_beacon()
            assert result.records == beacon.log, f"session={session}"
        assert RandomBeacon.verify_chain(result.records)

    def test_full_beacon_keys_its_channels_once_per_cluster(
        self, monkeypatch
    ):
        """Under FULL a daemon replays the n(n-1)/2 attested handshakes
        once for the whole service, not once per epoch: three epochs of
        an n = 3 cluster make 3 x 3 establishments (one replay per epoch
        would make 36), and decide the chain MODELED decides."""
        establish = SecureChannel.establish
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return establish(*args, **kwargs)

        monkeypatch.setattr(SecureChannel, "establish", staticmethod(counted))
        result = run_cluster(
            cluster_configs(3, "beacon", seed=4, epochs=3, security="full")
        )
        assert len(calls) == 3 * 3
        assert result.halted == []
        beacon = RandomBeacon(3, seed=4)
        for _ in range(3):
            beacon.next_beacon()
        assert result.records == beacon.log


# ----------------------------------------------------------------------
# dead/slow peer handling
# ----------------------------------------------------------------------

def _assert_no_deadline_paid(reports):
    """A peer whose link dies costs the survivors no barrier deadline:
    the ejection wakes every wave that waits on it, so no round comes
    near the 1.5 x ``round_timeout_s`` a hung peer costs."""
    for report in reports:
        assert report.round_walls
        assert max(report.round_walls) < DEFAULT_ROUND_TIMEOUT_S / 4


class TestDeadPeers:
    def test_crashed_peer_is_ejected_and_survivors_decide(self):
        result = run_cluster(
            cluster_configs(5, "erb", seed=7, message=b"x",
                            fail_at_round={4: 2})
        )
        assert sorted(result.outputs) == [0, 1, 2, 3]
        assert result.reports[4].crashed
        for survivor in (0, 1, 2, 3):
            assert result.reports[survivor].ejected_peers == [4]
        _assert_no_deadline_paid([result.reports[i] for i in range(4)])

    def test_silent_peer_ejected_on_barrier_timeout(self):
        """A hung peer (sockets open, nothing sent) must be ejected
        after the timeout + grace retry, and the survivors decide."""
        result = run_cluster(
            cluster_configs(5, "erb", seed=7, message=b"x",
                            fail_at_round={3: 2}, fail_mode="hang",
                            round_timeout_s=0.4)
        )
        assert sorted(result.outputs) == [0, 1, 2, 4]
        for survivor in (0, 1, 2, 4):
            assert result.reports[survivor].ejected_peers == [3]

    def test_silent_peers_share_one_deadline(self, caplog):
        """A wave has one deadline, a timeout and a half from its start:
        two hung peers are ejected together, in the wave they first miss,
        and cost the survivors one wait — not one each."""
        from repro.net.wire import WireNode

        timeout = 0.5

        async def main():
            nodes = [WireNode(cfg) for cfg in cluster_configs(
                5, "erb", seed=7, message=b"x", fail_at_round={3: 2, 4: 2},
                fail_mode="hang", round_timeout_s=timeout,
            )]
            ports = {}
            for node in nodes:
                _, ports[node.cfg.node_id] = await node.start_server()
            for node in nodes:
                node.cfg.peers = {
                    pid: ("127.0.0.1", port) for pid, port in ports.items()
                    if pid != node.cfg.node_id
                }
            tasks = [asyncio.ensure_future(n.run_service()) for n in nodes]
            reports = await asyncio.wait_for(asyncio.gather(*tasks[:3]), 60)
            # The two hung daemons keep each other's link open: stop them.
            for node in nodes[3:]:
                node.shutdown()
            await asyncio.wait_for(asyncio.gather(*tasks[3:]), 60)
            return reports

        with caplog.at_level("INFO", logger="repro.wire"):
            reports = asyncio.run(main())
        ejections = [
            rec.args for rec in caplog.records if "ejected peer" in rec.msg
        ]
        for report in reports:
            assert report.ejected_peers == [3, 4]
            assert [
                reason for node, _, reason in ejections
                if node == report.node_id
            ] == ["timeout:eod:round-2"] * 2
            # ~1.5 x timeout; one wait per silent peer would be 3 x.
            assert 1.5 * timeout <= report.round_walls[1] < 2.5 * timeout

    def test_a_death_after_the_deadline_fired_is_still_an_ejection(self):
        """Between a wave's deadline cancelling its future and the barrier
        resuming to eject, the last peers owed may still send their
        marker or die: neither raises, and the death is an ejection."""
        from repro.net.wire import WireNode

        class _Transport:
            def close(self):
                pass

        loop = asyncio.new_event_loop()
        try:
            node = WireNode(cluster_configs(3, "erb")[0])
            marker, dying = node._peers[1], node._peers[2]
            for peer in (marker, dying):
                peer.alive = True
                peer.link = types.SimpleNamespace(transport=_Transport())
            node._wave, node._owed = (0, 1, "eod"), {1, 2}
            node._wave_done = loop.create_future()
            node._wave_done.cancel()
            node._route(marker, (K_EOD, 0, 1))
            node._eject(dying, "connection-lost")
        finally:
            loop.close()
        assert node._owed == set()
        assert node.stats.ejected == [2]

    def test_crashed_initiator_leaves_no_decision(self):
        """If the initiator dies before round 1 nothing was ever sent;
        the cluster must terminate round-bounded, not hang."""
        result = run_cluster(
            cluster_configs(4, "erb", seed=1, message=b"x",
                            fail_at_round={0: 1})
        )
        assert result.outputs == {}
        assert result.reports[0].crashed


# ----------------------------------------------------------------------
# hostile frames: a peer whose OS rewrites what its enclave sealed
# ----------------------------------------------------------------------

#: DATA bodies no mode seals: not bytes (FULL), not a (measurement,
#: members) pair (MODELED), or a pair whose halves are junk.
HOSTILE_BODIES = (7, None, "s", (), (b"m",), tuple(range(60)))


def _run_with_hostile_sender(n, hostile, corrupt, **knobs):
    """An ERB loopback cluster in which ``corrupt(node)`` has rewired node
    ``hostile`` before the run; returns the nodes and their reports."""
    from repro.net.wire import WireNode

    async def main():
        nodes = [
            WireNode(cfg)
            for cfg in cluster_configs(n, "erb", seed=7, message=b"x", **knobs)
        ]
        corrupt(nodes[hostile])
        ports = {}
        for node in nodes:
            _, ports[node.cfg.node_id] = await node.start_server()
        for node in nodes:
            node.cfg.peers = {
                pid: ("127.0.0.1", port) for pid, port in ports.items()
                if pid != node.cfg.node_id
            }
        reports = await asyncio.wait_for(
            asyncio.gather(*(node.run_service() for node in nodes)), 60
        )
        return nodes, reports

    return asyncio.run(main())


def _rewriting(rewrite):
    """Rewire a node so that each frame it writes goes out as the frames
    ``rewrite(frame)`` lists instead — its OS rewriting what the enclave
    sealed, at the one framing site.  A frame added after the first goes
    only to a peer still live."""
    def corrupt(node):
        write = node._write_frame

        def write_rewritten(peer, body):
            first, *added = rewrite(decode(body))
            write(peer, encode(first))
            for frame in added:
                if peer.alive:
                    write(peer, encode(frame))

        node._write_frame = write_rewritten
    return corrupt


def _of_kind(kind, replace):
    """A rewrite that replaces each frame of ``kind`` by ``replace(frame)``."""
    return _rewriting(lambda f: [replace(f) if f[0] == kind else f])


#: One malformed frame per control kind, and DATA frames whose member
#: count is no count (a negative one used to crash every receiver's
#: service when its junk body was rejected; a zero one hid the
#: rejection) or whose counter no transport counter can hold; node 4
#: sends it instead of the honest one (the BYE is slipped in after its
#: round-1 EOD).
MALFORMED_FRAMES = {
    "data-count-negative": _of_kind(K_DATA, lambda f: f[:4] + (-1, 7)),
    "data-count-zero": _of_kind(K_DATA, lambda f: f[:4] + (0, 7)),
    "data-counter-past-int64": _of_kind(
        K_DATA, lambda f: f[:3] + (2**63,) + f[4:]
    ),
    "eod-arity": _of_kind(K_EOD, lambda f: f + (0,)),
    "ack-unhashable-digest": _of_kind(K_ACK, lambda f: f[:3] + (({},),)),
    "ack-digests-not-a-tuple": _of_kind(K_ACK, lambda f: f[:3] + (b"d" * 8,)),
    "ack-short-digest": _of_kind(K_ACK, lambda f: f[:3] + ((b"d" * 7,),)),
    "eoa-arity": _of_kind(K_EOA, lambda f: f[:2]),
    "fin-done-not-0-or-1": _of_kind(K_FIN, lambda f: f[:3] + (2,)),
    "bye-reason-not-str": _rewriting(
        lambda f: [f, (K_BYE, f[1], f[2], 7)]
        if f[0] == K_EOD and f[2] == 1 else [f]
    ),
}


class TestHostileFrames:
    @pytest.mark.parametrize("security, n", [("modeled", 7), ("full", 4)])
    def test_malformed_data_body_is_an_omission(self, security, n):
        """Every DATA frame the last node sends carries a body of the
        wrong shape.  Each receiver must count a rejection and carry on —
        not die of a TypeError — so the sender, never ACKed, halts (P4)
        and everyone else still decides."""
        hostile = n - 1
        bodies = iter(HOSTILE_BODIES * n)
        corrupt = _of_kind(K_DATA, lambda f: f[:5] + (next(bodies),))
        nodes, reports = _run_with_hostile_sender(
            n, hostile, corrupt, security=security
        )
        survivors = [i for i in range(n) if i != hostile]
        for i in survivors:
            assert not reports[i].crashed and reports[i].output == b"x"
            assert nodes[i].stats.rejections >= 1
            assert nodes[i].stats.omissions >= nodes[i].stats.rejections
        assert reports[hostile].halted

    @pytest.mark.parametrize("security", ["modeled", "full"])
    def test_data_frame_sent_twice_is_rejected_as_stale(self, security):
        """The last node's OS sends each of its DATA frames twice.  The
        copy's counter is one the receiver has already accepted, so the
        transport's freshness check rejects it (an omission); the
        original got through, so nobody is ejected and everyone
        decides."""
        nodes, reports = _run_with_hostile_sender(
            5, 4, _rewriting(lambda f: [f, f] if f[0] == K_DATA else [f]),
            security=security,
        )
        for i in range(5):
            assert not reports[i].crashed and reports[i].output == b"x"
            assert reports[i].ejected_peers == []
        for node in nodes[:4]:
            assert node.stats.rejections == node.stats.omissions == 1

    @pytest.mark.parametrize("security", ["modeled", "full"])
    def test_data_frame_miscounting_its_members_is_rejected(self, security):
        """The last node's OS declares one member more than each of its
        DATA frames holds.  The opened envelope does not match: each
        receiver rejects it (charged at the declared count), so the
        sender — never ACKed — halts (P4) and the others decide."""
        corrupt = _of_kind(K_DATA, lambda f: f[:4] + (f[4] + 1, f[5]))
        nodes, reports = _run_with_hostile_sender(
            5, 4, corrupt, security=security
        )
        for i in range(4):
            assert not reports[i].crashed and reports[i].output == b"x"
            assert nodes[i].stats.rejections == 2
        assert reports[4].halted

    def test_data_bound_to_a_foreign_measurement_is_rejected(self):
        """A MODELED DATA body names the sender's program measurement;
        the last node's OS swaps in another program's.  Each receiver
        counts a rejection, the sender — never ACKed — halts (P4), and
        the others decide."""
        corrupt = _of_kind(K_DATA, lambda f: f[:5] + ((bytes(32), f[5][1]),))
        nodes, reports = _run_with_hostile_sender(5, 4, corrupt)
        for i in range(4):
            assert not reports[i].crashed and reports[i].output == b"x"
            assert nodes[i].stats.rejections == 1
        assert reports[4].halted

    def test_data_frame_of_the_wrong_arity_is_link_death(self):
        """A DATA frame without its body cannot be attributed to a round
        envelope at all: the link is dropped (protocol-error ejection),
        as for any undecodable frame, and the survivors decide."""
        _, reports = _run_with_hostile_sender(
            5, 4, _of_kind(K_DATA, lambda f: f[:-1])
        )
        for i in range(4):
            assert not reports[i].crashed and reports[i].output == b"x"
            assert reports[i].ejected_peers == [4]
        _assert_no_deadline_paid(reports[:4])

    @pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
    def test_malformed_frame_of_each_kind_is_link_death(self, case):
        """Every field of every kind is checked where the frame is
        routed: an ACK whose digests are not 8-byte strings (an
        unhashable one used to crash every receiver's service), a FIN
        whose doneness is not 0 or 1, a BYE without a reason, a marker
        of the wrong arity — each kills the link, nobody crashes, and
        the survivors decide."""
        _, reports = _run_with_hostile_sender(5, 4, MALFORMED_FRAMES[case])
        for i in range(4):
            assert not reports[i].crashed and reports[i].output == b"x"
            assert reports[i].ejected_peers == [4]
        _assert_no_deadline_paid(reports[:4])

    @staticmethod
    def _injecting(after_kind, after_rnd, extra):
        """Rewire a node to send ``extra(run)`` right after each of its
        ``after_kind`` frames of round ``after_rnd``."""
        return _rewriting(
            lambda f: [f, extra(f[1])]
            if f[0] == after_kind and f[2] == after_rnd else [f]
        )

    def test_replayed_frame_for_a_closed_round_is_dropped_and_counted(self):
        """Lockstep puts every receiver past round 1 by the time the
        sender's round-2 EOA leaves, so a round-1 EOD replayed behind it
        is late: dropped and counted, no inbox re-created for a round
        nothing will ever drop again, nobody ejected."""
        nodes, reports = _run_with_hostile_sender(
            5, 4, self._injecting(K_EOA, 2, lambda run: (K_EOD, run, 1))
        )
        for i in range(5):
            assert not reports[i].crashed and reports[i].output == b"x"
            assert reports[i].ejected_peers == []
        for node in nodes[:4]:
            assert node.stats.stale_frames == 1
            assert all(not peer._inboxes for peer in node._peers.values())

    @pytest.mark.parametrize("run_shift, rnd", [(0, 10**6), (0, "x"), (2, 1)])
    def test_frame_outside_the_lockstep_window_is_link_death(
        self, run_shift, rnd
    ):
        """No honest peer can be further ahead than the next round (or
        round 1 of the next run): a frame claiming more — or a position
        that is no round at all — kills the link instead of allocating an
        inbox per claimed round, and the survivors decide."""
        nodes, reports = _run_with_hostile_sender(
            5, 4, self._injecting(
                K_EOD, 1, lambda run: (K_DATA, run + run_shift, rnd, 1, 1, b"")
            )
        )
        for i in range(4):
            assert not reports[i].crashed and reports[i].output == b"x"
            assert reports[i].ejected_peers == [4]
            assert len(nodes[i]._peers[4]._inboxes) <= 1
        _assert_no_deadline_paid(reports[:4])


# ----------------------------------------------------------------------
# clean shutdown
# ----------------------------------------------------------------------

class TestShutdown:
    def test_in_process_cluster_leaves_no_orphan_tasks(self):
        async def main():
            result = await run_cluster_async(
                cluster_configs(5, "erb", seed=7, message=b"x")
            )
            # Every link, dialer and server must be closed and joined by the
            # time run_service returns — only this coroutine remains.
            leftovers = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            return result, leftovers

        result, leftovers = asyncio.run(main())
        assert sorted(result.outputs) == [0, 1, 2, 3, 4]
        assert leftovers == []

    def test_shutdown_request_stops_multi_epoch_run(self):
        """node.shutdown() (the SIGTERM handler's body) stops a beacon
        service at the next boundary with no orphan tasks."""
        from repro.net.wire import WireNode

        async def main():
            configs = cluster_configs(3, "beacon", seed=2, epochs=10_000)
            nodes = [WireNode(cfg) for cfg in configs]
            ports = {}
            for node in nodes:
                _, port = await node.start_server()
                ports[node.cfg.node_id] = port
            for node in nodes:
                node.cfg.peers = {
                    pid: ("127.0.0.1", p) for pid, p in ports.items()
                    if pid != node.cfg.node_id
                }
            tasks = [
                asyncio.ensure_future(node.run_service()) for node in nodes
            ]
            # Let a few epochs complete, then stop every daemon.
            await asyncio.sleep(0.3)
            for node in nodes:
                node.shutdown()
            reports = await asyncio.wait_for(asyncio.gather(*tasks), 30)
            leftovers = [
                t for t in asyncio.all_tasks()
                if t is not asyncio.current_task()
            ]
            return reports, leftovers

        reports, leftovers = asyncio.run(main())
        assert leftovers == []
        for report in reports:
            assert not report.crashed
            # Interrupted long before 10k epochs: the stop actually
            # took effect rather than the service running to completion.
            assert len(report.records) < 10_000

    def test_daemon_processes_send_what_the_in_process_cluster_sends(self):
        """The shutdown BYE goes to every peer live when the last round
        began, whichever daemon closes first: per-node frame and byte
        totals do not depend on the interleaving of five processes."""
        from repro.net.wire import run_cluster_processes

        def totals(result):
            return {
                node: (
                    sum(report.stats.frames_sent.values()),
                    report.stats.total_bytes_sent,
                )
                for node, report in result.reports.items()
            }

        in_process = run_cluster(cluster_configs(5, "erb", seed=0))
        processes = run_cluster_processes(cluster_configs(
            5, "erb", seed=0, ports=allocate_loopback_ports(5)
        ))
        assert totals(processes) == totals(in_process)
        assert all(frames == 40 for frames, _ in totals(in_process).values())

    def test_sigterm_daemon_processes_exit_cleanly(self):
        """Real daemons, real signals: SIGTERM mid-service must produce
        exit code 0 and a parseable report — no kill -9, no orphans."""
        ports = allocate_loopback_ports(3)
        configs = cluster_configs(
            3, "beacon", seed=2, epochs=100_000, ports=ports
        )
        with tempfile.TemporaryDirectory() as config_dir:
            procs = spawn_node_processes(configs, config_dir)
            try:
                time.sleep(2.0)     # past startup, service mid-stream
                assert all(p.poll() is None for p in procs), \
                    "daemons died before SIGTERM"
                for proc in procs:
                    proc.send_signal(signal.SIGTERM)
                for proc in procs:
                    out, _ = proc.communicate(timeout=30)
                    assert proc.returncode == 0, out
                    report = json.loads(out.strip().splitlines()[-1])
                    assert report["crashed"] is False
            finally:
                for proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------

class TestCalibration:
    def test_fit_recovers_synthetic_model(self):
        samples = [(b, 0.002 + b / 1e6) for b in (1_000, 5_000, 20_000, 80_000)]
        fit = fit_round_model(samples)
        assert fit.latency_s == pytest.approx(0.002, abs=1e-9)
        assert fit.bandwidth_bytes_per_s == pytest.approx(1e6, rel=1e-9)
        assert fit.residual_s < 1e-9
        assert fit.suggested_delta == pytest.approx(0.001, abs=1e-9)

    def test_fit_degenerate_single_byte_count(self):
        fit = fit_round_model([(100, 0.01), (100, 0.03)])
        assert fit.bandwidth_bytes_per_s is None
        assert fit.latency_s == pytest.approx(0.02)
        assert fit.residual_s == pytest.approx(0.01)

    def test_fit_noise_dominated_falls_back_to_latency(self):
        # More bytes measured *faster*: a negative slope must not be
        # reported as a bandwidth.
        fit = fit_round_model([(1_000, 0.05), (50_000, 0.01)])
        assert fit.bandwidth_bytes_per_s is None

    def test_fit_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            fit_round_model([])

    def test_calibrate_from_measured_cluster(self):
        result = run_cluster(cluster_configs(5, "erng", seed=9))
        fit = calibrate_from_results([result])
        assert fit.samples == result.rounds_executed
        assert fit.latency_s >= 0.0
        assert fit.residual_s >= 0.0


# ----------------------------------------------------------------------
# observability stamps
# ----------------------------------------------------------------------

class TestTransportStamp:
    def test_wire_stats_snapshot_is_tcp_stamped(self):
        result = run_cluster(cluster_configs(3, "erb", seed=1, message=b"x"))
        snap = result.reports[0].stats.snapshot()
        assert snap["transport"] == "tcp"
        assert snap["total_bytes_sent"] > 0
        assert set(snap["bytes_sent_by_peer"]) == {1, 2}

    def test_report_survives_the_daemons_json_round_trip(self):
        """What a daemon prints is what the multi-process launcher
        rebuilds: counters, histograms and beacon records included."""
        result = run_cluster(cluster_configs(3, "beacon", seed=1, epochs=2))
        for report in result.reports.values():
            printed = report.to_json_dict()
            assert printed["wire"]["total_bytes_sent"] > 0
            assert WireRunReport.from_json_dict(printed).to_json_dict() == printed
            text = json.dumps(printed)
            rebuilt = WireRunReport.from_json_dict(json.loads(text))
            assert json.dumps(rebuilt.to_json_dict()) == text

    def test_machine_stamp_transport_axis(self):
        from repro.obs.machine import machine_stamp

        assert "transport" not in machine_stamp()
        tcp = machine_stamp(workers=1, transport="tcp")
        assert tcp["transport"] == "tcp"
