"""Phase-attributed wall-clock timing, read by the round kernel.

A :class:`TimingCollector` attaches to a run through
``SimulationConfig.timing`` (or a wire daemon's ``_timing``).  One clock
runs it: :meth:`repro.net.simulator.RoundHost._rounds` takes one reading
at each boundary of the round and charges the time since the previous
reading to the phase that just ended, so every back-end — per-wire,
envelope, sharded and the TCP daemon — is timed by the same instrument.
The buckets, in report order:

``begin`` … ``end``  the six round phases of
               :data:`repro.obs.events.ROUND_PHASES` — the same names the
               trace's phase events carry
``wait``       how long the kernel stayed suspended at a wave it yielded:
               ≈0 on the in-process back-ends, the barrier wait on the
               wire
``setup``      before round 1: ``on_setup`` hooks, the shard fork
``shm``        sharded engine only: the slowest shard's streaming time on
               the shared-memory rings, netted out of its phase
``barrier``    sharded engine only: the coordinator's wait on a wave
               beyond its slowest shard's busy time (true coordination
               latency), netted out of its phase
``other``      a shard's busy time outside ``shm`` (per-shard records)

Sub-buckets (:meth:`TimingCollector.add`) are netted out of the phase
they fell in at its next reading, so each round's bucket sums equal its
wall.  Per-layer cost (crypto, serialization, transport, core) is what
``perfbench/run.py --traced`` spans measure; the collector answers which
phase, which round, which shard, and how long it waited.

Like the tracer and :data:`~repro.obs.metrics.PROFILER`, the collector
is **zero-cost when absent**: the kernel caches ``self._timing`` in a
local and tests it at each boundary, so an untimed run pays a handful of
predicted branches per round and reads no clock.  A timed run reads it
about ten times per round, plus twice per sharded wave.  ``as_dict()``
is the sidecar payload ``python -m repro report`` renders.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

from repro.obs.events import ROUND_PHASES

#: The attribution buckets, in report order.
PHASE_BUCKETS = ROUND_PHASES + ("wait", "setup", "shm", "barrier", "other")


class TimingCollector:
    """Accumulates per-round and per-run phase attribution.

    One collector may span several runs (multi-instance runs like churn
    reuse one config, a beacon session runs one per epoch): wall
    time and buckets accumulate, and the round list keeps growing in
    execution order.
    """

    __slots__ = (
        "engine",
        "wall_seconds",
        "totals",
        "rounds",
        "_run_t0",
        "_mark",
        "_netted",
        "_round",
    )

    def __init__(self) -> None:
        self.engine = ""
        self.wall_seconds = 0.0
        self.totals: Dict[str, float] = {}
        self.rounds: List[dict] = []
        self._run_t0 = 0.0
        self._mark = 0.0
        self._netted = 0.0
        self._round: Optional[dict] = None

    # ---- the clock ----------------------------------------------------
    def start_run(self) -> None:
        self._run_t0 = self._mark = perf_counter()
        self._netted = 0.0
        self._round = None

    def lap(self, phase: str) -> None:
        """Charge the time since the previous reading to ``phase``, less
        whatever was :meth:`add`-ed to sub-buckets meanwhile."""
        now = perf_counter()
        self._charge(phase, now - self._mark - self._netted)
        self._mark = now
        self._netted = 0.0

    def add(self, bucket: str, seconds: float) -> None:
        """Charge ``seconds`` of the current phase to ``bucket`` instead."""
        self._charge(bucket, seconds)
        self._netted += seconds

    def end_run(self) -> None:
        """Close the run: what followed the last round is ``end``."""
        self.lap("end")
        self.wall_seconds += self._mark - self._run_t0

    def _charge(self, bucket: str, seconds: float) -> None:
        self.totals[bucket] = self.totals.get(bucket, 0.0) + seconds
        record = self._round
        if record is not None:
            buckets = record["buckets"]
            buckets[bucket] = buckets.get(bucket, 0.0) + seconds
            record["wall"] += seconds

    # ---- rounds ---------------------------------------------------------
    def start_round(self, rnd: int) -> None:
        """Open round ``rnd`` at the previous reading (no clock read)."""
        self._round = {"rnd": rnd, "wall": 0.0, "buckets": {}, "shards": {}}

    def end_round(self) -> dict:
        """Close the open round and return its record (for TimingEvent)."""
        record = self._round
        assert record is not None, "start_round() first"
        record["shards"] = list(record["shards"].values())
        self.rounds.append(record)
        self._round = None
        return record

    def record_shard(
        self, shard: int, busy: float, idle: float, shm: float
    ) -> None:
        """Add one sharded wave to ``shard``'s record in the open round.

        ``busy`` is the shard's wall inside the wave, ``idle`` the time it
        sat waiting for slower shards, ``shm`` its streaming time; the
        rest of its busy time is its ``other``.
        """
        record = self._round
        if record is None:
            return
        entry = record["shards"].get(shard)
        if entry is None:
            entry = record["shards"][shard] = {
                "shard": shard, "busy": 0.0, "idle": 0.0,
                "buckets": {"shm": 0.0, "other": 0.0},
            }
        entry["busy"] += busy
        entry["idle"] += idle
        entry["buckets"]["shm"] += shm
        entry["buckets"]["other"] += busy - shm

    # ---- summaries ----------------------------------------------------
    @property
    def bucket_sum(self) -> float:
        return sum(self.totals.values())

    def coverage(self) -> float:
        """Fraction of the measured run wall the buckets account for."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.bucket_sum / self.wall_seconds

    def as_dict(self) -> dict:
        """The ``--timing-out`` sidecar payload."""
        return {
            "kind": "timing",
            "engine": self.engine,
            "wall_seconds": self.wall_seconds,
            "bucket_order": list(PHASE_BUCKETS),
            "totals": dict(self.totals),
            "rounds": [
                {
                    "rnd": r["rnd"],
                    "wall": r["wall"],
                    "buckets": dict(r["buckets"]),
                    "shards": [dict(s) for s in r["shards"]],
                }
                for r in self.rounds
            ],
        }
