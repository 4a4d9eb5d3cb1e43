"""Phase-attributed wall-clock timing for the round engine.

A :class:`TimingCollector` attaches to a run through
``SimulationConfig.timing`` and buckets each round's wall time into the
engine's cost centres:

``seal``       transport writes / envelope sealing (AEAD or counter pass)
``open``       transport reads / envelope opening and verification
``serialize``  message sizing, body encoding, and cross-process pickling
``handler``    protocol hook execution (``on_round_begin`` /
               ``on_message`` / ``on_round_end`` / setup and finish),
               stamping what the hooks stage (round + ACK digest)
               included
``ack_wave``   the ACK wave's aggregation and crediting
``batch_crypto``  wave-batched envelope sealing / opening (the
               vectorized fast path; per-link crypto stays in
               ``seal``/``open``)
``shm``        parallel engine only: shared-memory data-plane traffic —
               frame writes, polls that landed a frame, and frame
               decode
``barrier``    parallel engine only: coordinator wall blocked on worker
               phases *beyond* any shard's concurrent busy time (true
               coordination latency; worker fork/join included)
``overlap``    parallel engine only: coordinator wall blocked on worker
               phases *while* at least one shard was computing — the
               parallelized work the coordinator was waiting for, not
               coordination overhead
``merge``      parallel engine only: splicing staged intents / events
               back into serial order and replaying the transmit plan
``scheduler``  the round scheduler (:mod:`repro.net.activeset`):
               computing the per-round visit lists, wake-hint
               bookkeeping and the incremental doneness tracking
``other``      the round's measured residual (engine bookkeeping not
               covered by a named bucket)

Like the tracer and :data:`~repro.obs.metrics.PROFILER`, the collector
is **zero-cost when absent**: the engine caches ``self._timing`` in a
local and checks ``is not None`` once per instrumentation point, so the
default (untimed) run pays a handful of predicted branches per round.

On the parallel engine the coordinator's buckets account its own wall
clock (bucket sums still cover the measured round wall); the workers'
in-barrier buckets are shipped back through the staged-intent merge and
recorded per shard, including per-barrier idle time — the imbalance the
coordinator's ``barrier`` bucket hides.  ``as_dict()`` is the sidecar
payload ``python -m repro report`` renders.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional

#: The attribution buckets, in report order.
PHASE_BUCKETS = (
    "seal",
    "open",
    "serialize",
    "handler",
    "ack_wave",
    "batch_crypto",
    "shm",
    "barrier",
    "overlap",
    "merge",
    "scheduler",
    "other",
)


class TimingCollector:
    """Accumulates per-round and per-run phase attribution.

    One collector may span several ``run()`` calls (multi-instance
    drivers like churn reuse one config): wall time and buckets
    accumulate, and the round list keeps growing in execution order.
    """

    __slots__ = (
        "engine",
        "wall_seconds",
        "totals",
        "rounds",
        "_run_t0",
        "_round_t0",
        "_round",
    )

    def __init__(self) -> None:
        self.engine = ""
        self.wall_seconds = 0.0
        self.totals: Dict[str, float] = {}
        self.rounds: List[dict] = []
        self._run_t0: Optional[float] = None
        self._round_t0: Optional[float] = None
        self._round: Optional[dict] = None

    # ---- run / round lifecycle ---------------------------------------
    def start_run(self, engine: str = "") -> None:
        if engine:
            self.engine = engine
        self._run_t0 = perf_counter()

    def end_run(self) -> None:
        if self._run_t0 is not None:
            self.wall_seconds += perf_counter() - self._run_t0
            self._run_t0 = None

    def set_engine(self, engine: str) -> None:
        self.engine = engine

    def start_round(self, rnd: int) -> None:
        self._round = {"rnd": rnd, "wall": 0.0, "buckets": {}, "shards": []}
        self._round_t0 = perf_counter()

    def end_round(self) -> dict:
        """Close the round: measure its wall, attribute the residual to
        ``other``, and return the finished record (for TimingEvent)."""
        record = self._round
        assert record is not None, "start_round() first"
        wall = perf_counter() - self._round_t0
        record["wall"] = wall
        buckets = record["buckets"]
        residual = wall - sum(buckets.values())
        if residual > 0:
            buckets["other"] = buckets.get("other", 0.0) + residual
            self.totals["other"] = self.totals.get("other", 0.0) + residual
        self.rounds.append(record)
        self._round = None
        self._round_t0 = None
        return record

    # ---- attribution --------------------------------------------------
    def add(self, bucket: str, seconds: float) -> None:
        """Charge ``seconds`` to ``bucket`` (round-level when a round is
        open, else run-level only — setup/finish hooks, worker spawn)."""
        self.totals[bucket] = self.totals.get(bucket, 0.0) + seconds
        record = self._round
        if record is not None:
            b = record["buckets"]
            b[bucket] = b.get(bucket, 0.0) + seconds

    def record_shard(
        self,
        shard: int,
        busy: float,
        idle: float,
        buckets: Dict[str, float],
    ) -> None:
        """Attach one shard's in-barrier breakdown to the open round.

        ``busy`` is the shard's total wall inside this round's barriers,
        ``idle`` the time it sat at barriers waiting for slower shards
        (coordinator barrier wall minus shard busy) — the per-round
        imbalance signal.  ``buckets`` are the worker-side cost centres;
        any un-attributed busy time lands in the shard's ``other``.
        """
        record = self._round
        if record is None:
            return
        buckets = dict(buckets)
        residual = busy - sum(buckets.values())
        if residual > 0:
            buckets["other"] = buckets.get("other", 0.0) + residual
        record["shards"].append(
            {"shard": shard, "busy": busy, "idle": idle, "buckets": buckets}
        )

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
