"""Phase-attributed timing must be complete, faithful, cheap and invisible.

Four claims pinned here:

* **complete** — on every back-end (envelope, sharded parallel, the TCP
  daemon, and the per-wire reference of :mod:`tests.per_wire`) the
  phase buckets account for at least 90% of the measured run wall
  clock, and each round's buckets sum to its wall;
* **cheap** — the round kernel owns the clock: an untimed run reads it
  never, a timed run a bounded number of times per round, however many
  messages the round carries;
* **invisible** — a timed (and traced) run produces byte-identical
  protocol observables to an untimed run: timing is observational only;
* **merged** — worker-side ``PROFILER`` observations survive the fork:
  the coordinator's merged registry reports exactly the counts a serial
  run of the same workload reports (the metrics-loss fix).
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext

import pytest

import repro.net.parallel
import repro.net.simulator
import repro.obs.timing
from repro import ChannelSecurity, SimulationConfig, run_erb, run_erng
from repro.net.wire import WireNode, cluster_configs
from repro.obs.events import MetaEvent, TimingEvent
from repro.obs.metrics import PROFILER
from repro.obs.timing import PHASE_BUCKETS, TimingCollector
from repro.obs.tracer import MemorySink, Tracer

from tests.per_wire import per_wire


def _snapshot(result):
    """The protocol observables a timing collector must not perturb."""
    traffic = result.traffic
    return {
        "messages_sent": traffic.messages_sent,
        "bytes_sent": traffic.bytes_sent,
        "messages_by_type": dict(traffic.messages_by_type),
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


def _run(protocol, timing=None, tracer=None, backend=None, **config_kwargs):
    """One run; ``backend="per-wire"`` runs it on the per-wire reference."""
    config = SimulationConfig(timing=timing, tracer=tracer, **config_kwargs)
    with per_wire() if backend == "per-wire" else nullcontext():
        if protocol == "erb":
            return run_erb(config, initiator=0, message=b"timed")
        return run_erng(config)


class TestCoverage:
    """Bucket sums must cover >= 90% of the measured wall on every path."""

    @pytest.mark.parametrize(
        "engine,kwargs",
        [
            ("envelope", dict(n=64, seed=3)),
            ("per-wire", dict(n=12, seed=3,
                              channel_security=ChannelSecurity.FULL,
                              extra={"dh_group": "small"})),
            ("parallel", dict(n=16, seed=3, workers=2)),
        ],
    )
    def test_coverage_at_least_90_percent(self, engine, kwargs):
        timing = TimingCollector()
        _run("erb", timing=timing, backend=engine, **kwargs)
        assert timing.engine == engine
        assert timing.wall_seconds > 0
        assert timing.coverage() >= 0.9, (
            f"{engine}: buckets cover {timing.coverage():.1%} of wall"
        )
        # every bucket the collector used is a documented phase
        assert set(timing.totals) <= set(PHASE_BUCKETS)

    def test_round_buckets_cover_round_wall(self):
        timing = TimingCollector()
        _run("erb", timing=timing, n=64, seed=3)
        assert timing.rounds
        for record in timing.rounds:
            bucket_sum = sum(record["buckets"].values())
            # residual is charged to "other", so per-round coverage is
            # exact up to float noise
            assert bucket_sum == pytest.approx(record["wall"], rel=1e-6)

    def test_wire_nodes_cover_their_wall_and_wait(self):
        """The TCP daemon is timed by the same kernel clock: each node's
        barrier waits land in ``wait``."""
        configs = cluster_configs(5, "erb", seed=3, message=b"timed")
        timings = [TimingCollector() for _ in configs]

        async def main():
            nodes = [WireNode(cfg) for cfg in configs]
            for node, timing in zip(nodes, timings):
                node._timing = timing
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
        assert all(report.output == b"timed" for report in reports)
        for timing in timings:
            assert timing.engine == "wire"
            assert timing.coverage() >= 0.9
            assert timing.totals["wait"] > 0
            assert set(timing.totals) <= set(PHASE_BUCKETS)
            for record in timing.rounds:
                assert sum(record["buckets"].values()) == pytest.approx(
                    record["wall"], rel=1e-6
                )

    def test_parallel_records_per_shard_breakdown(self):
        timing = TimingCollector()
        _run("erng", timing=timing, n=12, seed=8, workers=2)
        assert timing.engine == "parallel"
        assert timing.coverage() >= 0.9
        shard_rounds = [r for r in timing.rounds if r["shards"]]
        assert shard_rounds, "no per-shard records on the parallel path"
        for record in shard_rounds:
            shards = {s["shard"] for s in record["shards"]}
            assert shards == {0, 1}
            for shard in record["shards"]:
                assert shard["busy"] >= 0.0
                assert shard["idle"] >= 0.0
                # shard buckets cover the shard's busy time (residual in
                # the shard's own "other")
                assert sum(shard["buckets"].values()) == pytest.approx(
                    shard["busy"], rel=1e-6
                )


#: Config knobs that select each simulator back-end.
BACKENDS = {
    "per-wire": {"backend": "per-wire"},
    "envelope": {},
    "parallel": {"workers": 2},
}


class TestClockReads:
    """Exact counts of clock reads through every binding the engine and
    the collector time with: none when untimed, and a fixed number per
    round — not per message — when timed."""

    @pytest.fixture
    def reads(self, monkeypatch):
        calls = []
        clock = time.perf_counter

        def counting():
            calls.append(None)
            return clock()

        for module in (repro.net.simulator, repro.net.parallel,
                       repro.obs.timing):
            monkeypatch.setattr(module, "perf_counter", counting, raising=False)
        return calls

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_untimed_run_reads_no_clock(self, reads, backend):
        _run("erb", n=12, seed=3, **BACKENDS[backend])
        assert len(reads) == 0

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_timed_run_reads_the_clock_per_round(self, reads, backend):
        timing = TimingCollector()
        result = _run("erb", timing=timing, n=12, seed=3, **BACKENDS[backend])
        assert timing.engine == backend
        assert len(reads) <= 16 * result.rounds_executed + 8


class TestInvisibility:
    """Timed (and traced) runs are byte-identical to untimed runs."""

    def test_envelope_timed_equals_untimed(self):
        baseline = _run("erb", n=64, seed=3)
        sink = MemorySink()
        timed = _run(
            "erb", timing=TimingCollector(), tracer=Tracer(sink),
            n=64, seed=3,
        )
        assert _snapshot(timed) == _snapshot(baseline)
        timing_events = [
            e for e in sink.events if isinstance(e, TimingEvent)
        ]
        assert len(timing_events) == timed.rounds_executed
        for event in timing_events:
            assert event.wall > 0
            assert sum(event.buckets.values()) == pytest.approx(
                event.wall, rel=1e-6
            )

    def test_parallel_timed_equals_untimed(self):
        baseline = _run("erng", n=12, seed=8, workers=2)
        timed = _run(
            "erng", timing=TimingCollector(), n=12, seed=8, workers=2
        )
        assert _snapshot(timed) == _snapshot(baseline)

    def test_serial_full_timed_equals_untimed(self):
        kwargs = dict(
            n=12, seed=3, channel_security=ChannelSecurity.FULL,
            extra={"dh_group": "small"}, backend="per-wire",
        )
        baseline = _run("erb", **kwargs)
        timed = _run("erb", timing=TimingCollector(), **kwargs)
        assert _snapshot(timed) == _snapshot(baseline)

    def test_collector_accumulates_across_runs(self):
        timing = TimingCollector()
        _run("erb", timing=timing, n=16, seed=1)
        rounds_first = len(timing.rounds)
        wall_first = timing.wall_seconds
        _run("erb", timing=timing, n=16, seed=2)
        assert len(timing.rounds) > rounds_first
        assert timing.wall_seconds > wall_first

    def test_as_dict_round_trips_to_json(self):
        import json

        timing = TimingCollector()
        _run("erng", timing=timing, n=12, seed=8, workers=2)
        payload = json.loads(json.dumps(timing.as_dict()))
        assert payload["kind"] == "timing"
        assert payload["engine"] == "parallel"
        assert payload["bucket_order"] == list(PHASE_BUCKETS)
        assert payload["rounds"]


class TestProfilerMerge:
    """Worker-side PROFILER counts must survive the fork (the fix for
    silently dropped parallel metrics)."""

    def _profiled_counts(self, workers):
        registry = PROFILER.enable()
        try:
            _run("erng", n=12, seed=8, workers=workers)
            return (
                {n: h.count for n, h in registry._histograms.items()},
                {n: h.total for n, h in registry._histograms.items()},
            )
        finally:
            PROFILER.disable()

    def test_parallel_profiler_counts_equal_serial(self):
        serial_counts, serial_totals = self._profiled_counts(1)
        parallel_counts, parallel_totals = self._profiled_counts(2)
        assert serial_counts, "serial run produced no profiler samples"
        # exact count equality: same workload, every worker observation
        # shipped home and merged
        assert parallel_counts == serial_counts
        # totals are wall-clock and differ, but must all be populated
        for name, total in parallel_totals.items():
            assert total > 0, f"{name} merged to an empty histogram"

    def test_worker_observations_actually_merge(self):
        """The merged registry must contain MORE than the coordinator
        alone could observe: with workers=2 the serialize.encode_s calls
        happen inside worker processes."""
        counts, _ = self._profiled_counts(2)
        assert counts.get("serialize.encode_s", 0) > 0


class TestMetaEvent:
    def test_meta_event_round_trips(self):
        from repro.obs.events import event_from_dict, event_to_dict
        from repro.obs.machine import machine_stamp

        event = MetaEvent(machine=machine_stamp(workers=2, data_plane="shm"))
        payload = event_to_dict(event)
        assert payload["kind"] == "meta"
        rebuilt = event_from_dict(payload)
        assert rebuilt == event
        assert rebuilt.machine["workers"] == 2
        assert rebuilt.machine["data_plane"] == "shm"
        assert rebuilt.machine["cpu_count"] is not None

    def test_stamp_omits_absent_fields(self):
        from repro.obs.machine import machine_stamp

        stamp = machine_stamp()
        assert "workers" not in stamp and "data_plane" not in stamp
