"""Engine sessions: cross-run reuse, cache hygiene, beacon pipelining.

The contract under test is the one ``repro.net.session`` documents: a
run on a recycled session is **bit-identical** to the same run on a
freshly built network, at every channel security — session reuse (and,
with ``workers > 1``, the persistent forked crew) is purely a
performance property.  The cache
-eviction regression test pins the hygiene that makes this true: stale
digest-LRU entries, ack-size hints and neighbour tuples from a prior
run must never leak into the next one.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, run_erng
from repro.apps.beacon import RandomBeacon, _ErngEpochFactory
from repro.channel.peer_channel import SecureChannel
from repro.common.config import ChannelSecurity
from repro.common.errors import ConfigurationError
from repro.crypto.stream_cipher import NONCE_SIZE
from repro.net.session import EngineSession
from repro.net.shm import shared_memory_available

fork_only = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="parallel engine needs os.fork"
)


def _assert_same_run(session_result, fresh_result) -> None:
    """Bit-identity between a session run and a fresh-network run."""
    assert session_result.outputs == fresh_result.outputs
    assert session_result.halted == fresh_result.halted
    assert session_result.decided_rounds == fresh_result.decided_rounds
    assert (
        dict(session_result.traffic.bytes_by_round)
        == dict(fresh_result.traffic.bytes_by_round)
    )
    assert (
        session_result.traffic.messages_sent
        == fresh_result.traffic.messages_sent
    )
    assert (
        session_result.traffic.bytes_sent == fresh_result.traffic.bytes_sent
    )


class TestSerialSessionReuse:
    def test_session_runs_match_fresh_networks(self):
        factory = _ErngEpochFactory(5, 2, 64)
        with EngineSession(
            SimulationConfig(n=5, seed=3, random_bits=64), factory
        ) as session:
            first = session.run(4)
            reseeded = session.run(4, seed=9)
            # Back to the first seed: the recycled network must
            # reproduce run one bit-for-bit (label-derived RNG forks,
            # not construction-order-dependent state).
            replay = session.run(4, seed=3)
            assert session.runs_started == 3

        _assert_same_run(
            first, run_erng(SimulationConfig(n=5, seed=3, random_bits=64))
        )
        _assert_same_run(
            reseeded, run_erng(SimulationConfig(n=5, seed=9, random_bits=64))
        )
        _assert_same_run(replay, first)

    def test_recycle_evicts_every_cross_run_cache(self):
        """The hygiene regression pin: warm caches from run 1 — plus
        deliberately planted stale entries — must all be evicted by
        ``begin_session_run``, and the next run must still be
        bit-identical to a fresh network's."""
        factory = _ErngEpochFactory(5, 2, 64)
        session = EngineSession(
            SimulationConfig(n=5, seed=3, random_bits=64), factory
        )
        net = session.network
        try:
            session.run(4)
            # The run warmed the digest LRU...
            assert net._digest_cache
            stats_before = net.stats
            # ...and a hostile prior run could have left anything in
            # them: plant sentinels that would poison run 2 if kept.
            net._digest_cache[("stale",)] = b"poison"
            net._neighbour_cache[999] = (1, 2, 3)

            net.begin_session_run(factory, seed=3)
            assert not net._digest_cache
            assert not net._neighbour_cache
            assert net._dispatch_cache is None
            assert net.current_round == 0
            assert net.stats is not stats_before  # per-run TrafficStats

            replay = net.run(4)
            _assert_same_run(
                replay,
                run_erng(SimulationConfig(n=5, seed=3, random_bits=64)),
            )
        finally:
            session.close()

    def test_reseeding_never_writes_through_to_the_callers_config(self):
        """The session re-seeds its own copy: a second network built
        from the caller's config object still gets the caller's seed."""
        config = SimulationConfig(n=5, seed=3, random_bits=64)
        factory = _ErngEpochFactory(5, 2, 64)
        with EngineSession(config, factory) as session:
            reseeded = session.run(4, seed=99)
            assert session.config.seed == 99
            session.config.extra["session-only"] = True
        assert config.seed == 3
        assert "session-only" not in config.extra
        _assert_same_run(
            reseeded, run_erng(SimulationConfig(n=5, seed=99, random_bits=64))
        )

    def test_close_is_idempotent_and_final(self):
        factory = _ErngEpochFactory(5, 2, 64)
        session = EngineSession(
            SimulationConfig(n=5, seed=3, random_bits=64), factory
        )
        session.run(4)
        session.close()
        session.close()
        with pytest.raises(ConfigurationError):
            session.run(4)


def _full_config(seed: int) -> SimulationConfig:
    return SimulationConfig(
        n=4, seed=seed, random_bits=64,
        channel_security=ChannelSecurity.FULL, extra={"dh_group": "small"},
    )


def _full_session_runs(seeds):
    """ERNG runs at ``seeds`` on one FULL session (n = 4)."""
    with EngineSession(
        _full_config(seeds[0]), _ErngEpochFactory(4, 1, 64)
    ) as session:
        return [session.run(3, seed=seed) for seed in seeds]


class TestFullSessionRuns:
    """Under FULL each peer channel draws from its own link streams,
    forked off the enclaves' RDRAND when the network is built and kept
    for the channel's life.  A relaunch re-forks the protocol's RDRAND
    only, so a recycled run is a fresh run, and a rerun at the same seed
    seals with the kept streams' later nonces."""

    @pytest.mark.parametrize("first, second", [
        (seed, 7 * seed + 11) for seed in range(10)
    ])
    def test_recycled_run_matches_a_fresh_network(self, first, second):
        _, reseeded = _full_session_runs([first, second])
        _assert_same_run(reseeded, run_erng(_full_config(second)))

    def test_first_run_is_a_fresh_run(self):
        (first,) = _full_session_runs([3])
        _assert_same_run(first, run_erng(_full_config(3)))

    def test_same_seed_sequence_gives_the_same_runs(self):
        seeds = [3, 9, 3]
        for a, b in zip(_full_session_runs(seeds), _full_session_runs(seeds)):
            _assert_same_run(a, b)

    def test_rerun_at_the_same_seed_repeats_no_nonce(self, monkeypatch):
        """Every seal on a directed link draws its link stream's next
        nonce, across runs: a rerun at the same seed continues the kept
        streams instead of restarting them under the kept keys."""
        nonces: dict = {}
        write_envelope = SecureChannel.write_envelope

        def recording(channel, sender, *args):
            envelope = write_envelope(channel, sender, *args)
            nonces.setdefault((sender, envelope.receiver), []).append(
                envelope.sealed[:NONCE_SIZE]
            )
            return envelope

        monkeypatch.setattr(SecureChannel, "write_envelope", recording)
        with EngineSession(
            _full_config(3), _ErngEpochFactory(4, 1, 64)
        ) as session:
            enclaves = session.network._enclaves
            # A second fork off the building launch's RDRAND replays each
            # link stream from its start.
            streams = {
                (a, b): enclaves[a].rdrand.rng().fork(("channel", b))
                .randbytes(4096)
                for a in enclaves for b in enclaves if a != b
            }
            first = session.run(3)
            second = session.run(3, seed=3)
        _assert_same_run(first, second)
        assert set(nonces) == set(streams)
        for link, drawn in nonces.items():
            offsets = [streams[link].find(nonce) for nonce in drawn]
            start = offsets[0]
            assert start > 0
            assert offsets == list(
                range(start, start + NONCE_SIZE * len(drawn), NONCE_SIZE)
            )


@fork_only
class TestParallelCrewReuse:
    @pytest.mark.parametrize("plane", ["shm"])
    def test_crew_survives_runs_and_stays_bit_identical(self, plane):
        if not shared_memory_available():
            pytest.skip("POSIX shared memory unavailable")
        factory = _ErngEpochFactory(9, 4, 64)
        config = SimulationConfig(n=9, seed=5, workers=2, random_bits=64)
        with EngineSession(config, factory) as session:
            first = session.run(6)
            crew = session.network._session_crew
            assert crew is not None  # the fork happened...
            second = session.run(6, seed=11)
            # ...exactly once: the same crew served the recycled run.
            assert session.network._session_crew is crew
            assert session.network.parallel_data_plane == plane

        _assert_same_run(
            first, run_erng(SimulationConfig(n=9, seed=5, random_bits=64))
        )
        _assert_same_run(
            second, run_erng(SimulationConfig(n=9, seed=11, random_bits=64))
        )


# ---------------------------------------------------------------------------
# Beacon chains across execution shapes
# ---------------------------------------------------------------------------

def _chain_digests(beacon: RandomBeacon):
    return [record.digest for record in beacon.log]


def _sequential_chain(epochs: int, seed: int = 7, **kwargs):
    beacon = RandomBeacon(n=5, t=2, seed=seed, **kwargs)
    for _ in range(epochs):
        beacon.next_beacon()
    assert RandomBeacon.verify_chain(beacon.log)
    return _chain_digests(beacon)


class TestBeaconChainIdentity:
    @pytest.mark.parametrize("workers,plane", [
        (1, None),
        pytest.param(2, "shm", marks=fork_only),
    ])
    def test_sequential_session_pipelined_agree(self, workers, plane):
        if plane == "shm" and not shared_memory_available():
            pytest.skip("POSIX shared memory unavailable")
        epochs = 3
        reference = _sequential_chain(epochs)

        kwargs = dict(n=5, t=2, seed=7, workers=workers)
        with RandomBeacon(session=True, **kwargs) as session_beacon:
            for _ in range(epochs):
                session_beacon.next_beacon()
            assert _chain_digests(session_beacon) == reference

        with RandomBeacon(session=True, **kwargs) as pipelined:
            pipelined.run_pipelined(epochs)
            assert _chain_digests(pipelined) == reference
            assert RandomBeacon.verify_chain(pipelined.log)

    @pytest.mark.parametrize("n", [9, 16])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_optimized_chain_agrees_across_shapes(self, n, seed):
        """The optimized (cluster-sampled) ERNG beacon gives one chain
        whether each epoch rebuilds its network, recycles a session, or
        recycles a session's forked crew."""
        kwargs = dict(n=n, t=n // 3, optimized=True, seed=seed)
        shapes = [dict(), dict(session=True)]
        if hasattr(os, "fork") and shared_memory_available():
            shapes.append(dict(session=True, workers=2))
        chains = []
        for shape in shapes:
            with RandomBeacon(**kwargs, **shape) as beacon:
                for _ in range(3):
                    beacon.next_beacon()
                assert RandomBeacon.verify_chain(beacon.log)
                chains.append(_chain_digests(beacon))
        assert len(chains[0]) == 3
        assert all(chain == chains[0] for chain in chains)

    def test_split_batches_resume_the_same_chain(self):
        """Pipelined batches and per-epoch runs interleaved on one
        session extend one chain — identical to all-sequential."""
        reference = _sequential_chain(5)
        with RandomBeacon(n=5, t=2, seed=7, session=True) as beacon:
            beacon.run_pipelined(2)
            beacon.next_beacon()
            beacon.run_pipelined(2)
            assert _chain_digests(beacon) == reference

    def test_overlap_window_is_explicit_and_steady(self):
        """Every epoch after the first stages its INIT inside the
        previous epoch's ACK-wave round (the seed-dependency bound:
        depth-1 overlap), settling at two engine rounds per epoch."""
        with RandomBeacon(n=5, t=2, seed=7, session=True) as beacon:
            beacon.run_pipelined(4)
            stats = beacon.pipeline_stats
        assert [s["overlaps_prev_ack_wave"] for s in stats] == [
            False, True, True, True,
        ]
        for prev, cur in zip(stats, stats[1:]):
            assert cur["staged_round"] == prev["decided_round"]
            assert cur["start_round"] == prev["decided_round"] + 1
            assert cur["rounds"] == 2

    @given(
        epochs=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_pipelined_matches_sequential_for_any_epoch_count(
        self, epochs, seed
    ):
        reference = _sequential_chain(epochs, seed=seed)
        with RandomBeacon(n=5, t=2, seed=seed, session=True) as beacon:
            beacon.run_pipelined(epochs)
            assert _chain_digests(beacon) == reference

    def test_pipelined_rejects_unsupported_shapes(self):
        with RandomBeacon(n=5, t=1, optimized=True, session=True) as beacon:
            with pytest.raises(ConfigurationError):
                beacon.run_pipelined(2)
