"""Sustained-load random-beacon benchmarks (the service-shape workload).

The one-shot engine benchmarks measure single protocol runs; this module
measures the metric RandSolomon frames — random values produced per unit
time — on the chained beacon service, across the three execution shapes
the engine now offers:

* **sequential** — the pre-session shape: every epoch rebuilds the
  network (and, with ``workers > 1``, reforks the whole worker crew);
* **session**   — epochs share one :class:`~repro.net.session.EngineSession`
  (fork once, run many; cross-run cache hygiene between epochs);
* **pipelined** — all epochs run as one engine run, epoch *e+1*'s INIT
  wave staged inside epoch *e*'s ACK-wave round (the overlap window
  ``RandomBeacon.pipeline_stats`` makes explicit).

Cases persisted:

* ``beacon_n9_{sequential,session,pipelined}`` at the paper-table scale
  (N = 9, t = 2) with ``workers = REPRO_BENCH_WORKERS`` — the speedup
  pair behind ``beacon_pipeline_speedup_vs_sequential`` (the PR's
  acceptance number, >= 2x at default scale on a fork-capable host) and
  ``beacon_session_speedup_vs_sequential``;
* ``beacon_n9_serial_{sequential,session,pipelined}`` on the serial
  engine — the honesty row: what session reuse buys *without* fork
  amortisation;
* ``beacon_n256_{sequential,pipelined}`` (smoke: N = 16) — the sustained
  -load scale row, message-work dominated;
* ``beacon_n256_opt_{sequential,session}`` (smoke: N = 16) — the
  optimized (cluster/committee) backend as a streaming service.

Every mode must reproduce the byte-identical beacon chain — the session
and pipeline are performance properties, never semantic ones — and every
timed loop feeds a per-epoch latency histogram (``repro.obs`` Histogram)
into the ``beacon_throughput.metrics.json`` sidecar.

History entries append to the repo-root ``BENCH_engine.json`` stamped
``suite="beacon"``: the bench gate compares beacon entries only against
prior beacon entries (service epochs/s and raw engine sweeps are
different quantities — see :func:`repro.obs.bench.entries_comparable`).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from time import perf_counter

from bench_common import (
    METRICS,
    SCALE,
    WORKERS,
    machine_stamp,
    pick,
    save_results,
)

from repro.apps.beacon import RandomBeacon
from repro.baselines import CommitteeBeaconModel
from repro.net.parallel import planned_data_plane

BENCH_FILE = Path(__file__).parent.parent / "BENCH_engine.json"

#: Beacon timing rows accumulated by the tests in this module; every
#: update re-persists the whole dict so partial runs still leave a file.
_BEACON_ROWS: dict = {}

#: One BENCH_engine.json history entry per pytest session.
_SESSION_STAMP = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


def _timed_epochs(case: str, beacon: RandomBeacon, epochs: int):
    """Drive ``epochs`` epochs one at a time, feeding each epoch's wall
    time into the shared latency histogram.  Returns (seconds, records,
    messages) for the whole chain."""
    histogram = METRICS.histogram(f"beacon.epoch_latency_ms.{case}")
    messages = 0
    t0 = perf_counter()
    for _ in range(epochs):
        e0 = perf_counter()
        beacon.next_beacon()
        histogram.observe((perf_counter() - e0) * 1e3)
        messages += beacon.last_result.traffic.messages_sent
    return perf_counter() - t0, list(beacon.log), messages


def _timed_pipeline(case: str, beacon: RandomBeacon, epochs: int):
    """Run one pipelined batch; per-epoch latency is the amortised batch
    time (individual epochs overlap, so they have no private wall
    time)."""
    t0 = perf_counter()
    beacon.run_pipelined(epochs)
    seconds = perf_counter() - t0
    histogram = METRICS.histogram(f"beacon.epoch_latency_ms.{case}")
    for _ in range(epochs):
        histogram.observe(seconds / epochs * 1e3)
    return seconds, list(beacon.log), beacon.last_result.traffic.messages_sent


def _record_beacon_case(
    case: str, n: int, epochs: int, seconds: float, messages: int
) -> None:
    histogram = METRICS.histogram(f"beacon.epoch_latency_ms.{case}")
    _BEACON_ROWS[case] = {
        "n": n,
        "epochs": epochs,
        "messages": messages,
        "seconds": round(seconds, 6),
        "messages_per_sec": round(messages / seconds),
        "epochs_per_sec": round(epochs / seconds, 3),
        "ms_per_epoch": round(seconds / epochs * 1e3, 3),
        "epoch_latency_ms": {
            "p50": round(histogram.p50, 3),
            "p95": round(histogram.p95, 3),
            "max": round(histogram.max, 3),
        },
    }
    _persist_beacon_rows()


def _persist_beacon_rows() -> None:
    save_results("beacon_throughput", {"cases": dict(_BEACON_ROWS)})
    entry = {
        "timestamp": _SESSION_STAMP,
        "scale": SCALE,
        **machine_stamp(
            workers=WORKERS,
            data_plane=planned_data_plane(WORKERS, {}),
            suite="beacon",
        ),
        "cases": dict(_BEACON_ROWS),
    }
    sequential = _BEACON_ROWS.get("beacon_n9_sequential")
    pipelined = _BEACON_ROWS.get("beacon_n9_pipelined")
    session = _BEACON_ROWS.get("beacon_n9_session")
    if sequential and pipelined:
        entry["beacon_pipeline_speedup_vs_sequential"] = round(
            pipelined["epochs_per_sec"] / sequential["epochs_per_sec"], 3
        )
    if sequential and session:
        entry["beacon_session_speedup_vs_sequential"] = round(
            session["epochs_per_sec"] / sequential["epochs_per_sec"], 3
        )
    try:
        payload = json.loads(BENCH_FILE.read_text())
    except (OSError, ValueError):
        payload = {"benchmark": "engine_throughput", "history": []}
    history = payload.setdefault("history", [])
    # One entry per pytest session: replace the entry this session started.
    if history and history[-1].get("timestamp") == entry["timestamp"]:
        history[-1] = entry
    else:
        history.append(entry)
    payload["latest"] = entry
    BENCH_FILE.write_text(json.dumps(payload, indent=2) + "\n")


def _assert_same_chain(*chains) -> None:
    """Byte-identity across execution shapes: same digests, same values."""
    reference = chains[0]
    assert RandomBeacon.verify_chain(reference)
    for chain in chains[1:]:
        assert [r.digest for r in chain] == [r.digest for r in reference]
        assert chain == reference


def test_beacon_n9_pipeline_speedup():
    """The acceptance pair: N = 9 (t = 2) beacon epochs under per-epoch
    rebuild vs a persistent session vs the pipelined scheduler, all with
    ``workers = REPRO_BENCH_WORKERS``.  Sequential mode reforks the whole
    worker crew every epoch; the session forks once — the honest source
    of the sustained-throughput win — and pipelining folds the per-epoch
    barrier rounds on top."""
    epochs = pick(3, 10, 16)
    kwargs = dict(
        n=9, t=2, seed=7, workers=WORKERS
    )

    with RandomBeacon(**kwargs) as beacon:
        seq_seconds, seq_chain, seq_messages = _timed_epochs(
            "beacon_n9_sequential", beacon, epochs
        )
    with RandomBeacon(session=True, **kwargs) as beacon:
        ses_seconds, ses_chain, ses_messages = _timed_epochs(
            "beacon_n9_session", beacon, epochs
        )
    with RandomBeacon(session=True, **kwargs) as beacon:
        pipe_seconds, pipe_chain, pipe_messages = _timed_pipeline(
            "beacon_n9_pipelined", beacon, epochs
        )
        overlaps = [
            stat["overlaps_prev_ack_wave"] for stat in beacon.pipeline_stats
        ]

    # The mandatory equivalence: execution shape changes wall time only.
    _assert_same_chain(seq_chain, ses_chain, pipe_chain)
    assert seq_messages == ses_messages
    # Every hand-off after the first epoch staged inside the previous
    # epoch's ACK wave — the overlap window the pipeline exists for.
    assert overlaps == [False] + [True] * (epochs - 1)

    _record_beacon_case("beacon_n9_sequential", 9, epochs, seq_seconds, seq_messages)
    _record_beacon_case("beacon_n9_session", 9, epochs, ses_seconds, ses_messages)
    _record_beacon_case("beacon_n9_pipelined", 9, epochs, pipe_seconds, pipe_messages)

    if SCALE != "smoke" and WORKERS >= 2 and hasattr(os, "fork"):
        # The acceptance bar: session reuse + epoch overlap must at least
        # double sustained epochs/s over the per-epoch rebuild shape.
        # Gated on fork because without it workers>1 falls back to the
        # serial path and "reforking the crew every epoch" measures
        # nothing.
        assert pipe_seconds * 2 <= seq_seconds, (
            f"pipelined beacon only {seq_seconds / pipe_seconds:.2f}x "
            f"faster than per-epoch rebuild ({WORKERS} workers)"
        )
        assert ses_seconds < seq_seconds, (
            f"session beacon slower than rebuild: {ses_seconds:.3f}s vs "
            f"{seq_seconds:.3f}s"
        )


def test_beacon_n9_serial_sustained():
    """The honesty row: the same three shapes on the serial engine
    (``workers = 1``), where there is no fork cost to amortise — the
    session/pipeline win shrinks to cache warmth and folded barrier
    rounds.  Recorded without a speedup floor; the numbers tell the
    story (and must never *regress* thanks to the bench gate)."""
    epochs = pick(8, 48, 64)
    kwargs = dict(n=9, t=2, seed=7, workers=1)

    with RandomBeacon(**kwargs) as beacon:
        seq_seconds, seq_chain, seq_messages = _timed_epochs(
            "beacon_n9_serial_sequential", beacon, epochs
        )
    with RandomBeacon(session=True, **kwargs) as beacon:
        ses_seconds, ses_chain, _ = _timed_epochs(
            "beacon_n9_serial_session", beacon, epochs
        )
    with RandomBeacon(session=True, **kwargs) as beacon:
        pipe_seconds, pipe_chain, pipe_messages = _timed_pipeline(
            "beacon_n9_serial_pipelined", beacon, epochs
        )

    _assert_same_chain(seq_chain, ses_chain, pipe_chain)
    _record_beacon_case(
        "beacon_n9_serial_sequential", 9, epochs, seq_seconds, seq_messages
    )
    _record_beacon_case(
        "beacon_n9_serial_session", 9, epochs, ses_seconds, seq_messages
    )
    _record_beacon_case(
        "beacon_n9_serial_pipelined", 9, epochs, pipe_seconds, pipe_messages
    )


def test_beacon_n256_scale():
    """The sustained-load scale row (smoke: N = 16): at N = 256 each
    unoptimized epoch is ~33M logical messages, so the run is message
    -work dominated and the pipeline's value is bounded — exactly the
    regime the row documents.  Chains must still be byte-identical."""
    n = pick(16, 256, 256)
    epochs = 2
    kwargs = dict(n=n, seed=11, workers=1)

    with RandomBeacon(**kwargs) as beacon:
        seq_seconds, seq_chain, seq_messages = _timed_epochs(
            f"beacon_n{n}_sequential", beacon, epochs
        )
    with RandomBeacon(session=True, **kwargs) as beacon:
        pipe_seconds, pipe_chain, pipe_messages = _timed_pipeline(
            f"beacon_n{n}_pipelined", beacon, epochs
        )

    _assert_same_chain(seq_chain, pipe_chain)
    _record_beacon_case(
        f"beacon_n{n}_sequential", n, epochs, seq_seconds, seq_messages
    )
    _record_beacon_case(
        f"beacon_n{n}_pipelined", n, epochs, pipe_seconds, pipe_messages
    )


def test_beacon_n256_optimized_service():
    """The optimized (cluster/committee) backend as a streaming service
    (smoke: N = 16): per-epoch cost is O(n·|cluster|), so session reuse
    is the whole win — the pipeline does not apply (the optimized
    protocol's coin rounds are seed-locked, see ``run_pipelined``)."""
    n = pick(16, 256, 256)
    epochs = pick(3, 10, 10)
    kwargs = dict(
        n=n, t=n // 3, optimized=True, seed=13, workers=1,
    )

    with RandomBeacon(**kwargs) as beacon:
        seq_seconds, seq_chain, seq_messages = _timed_epochs(
            f"beacon_n{n}_opt_sequential", beacon, epochs
        )
    with RandomBeacon(session=True, **kwargs) as beacon:
        ses_seconds, ses_chain, ses_messages = _timed_epochs(
            f"beacon_n{n}_opt_session", beacon, epochs
        )

    _assert_same_chain(seq_chain, ses_chain)
    assert seq_messages == ses_messages
    _record_beacon_case(
        f"beacon_n{n}_opt_sequential", n, epochs, seq_seconds, seq_messages
    )
    _record_beacon_case(
        f"beacon_n{n}_opt_session", n, epochs, ses_seconds, ses_messages
    )


def test_beacon_committee_baseline_row():
    """The EXPERIMENTS.md "TEE-reduction vs error-correcting-code" row:
    price a RandSolomon-flavored committee beacon (N = 4f+1, RS shares +
    signature chains — an analytic cost model, see
    ``repro.baselines.beacon_committee``) against a *measured* TEE
    beacon tolerating the same f with N = 2f+1 nodes.

    No speed assertion — the committee's message count can undercut the
    unoptimized O(N^3) ERNG at tiny N; the row's point is the costs the
    TEE removes structurally (PKI, per-message signature verification,
    RS decoding) and the 4f+1 → 2f+1 population reduction."""
    f = 2
    epochs = pick(2, 6, 8)
    model = CommitteeBeaconModel(share_bits=128)

    messages = bytes_sent = 0
    with RandomBeacon(
        n=2 * f + 1, t=f, seed=17, session=True
    ) as beacon:
        for _ in range(epochs):
            beacon.next_beacon()
            messages += beacon.last_result.traffic.messages_sent
            bytes_sent += beacon.last_result.traffic.bytes_sent
        assert RandomBeacon.verify_chain(beacon.log)

    row = model.tolerance_row(
        f, {"epochs": epochs, "messages": messages, "bytes": bytes_sent}
    )
    # Structural reductions the TEE buys at equal tolerance f: fewer
    # than half the nodes, zero signature verifications, zero decoding.
    assert row["committee_n"] == 4 * f + 1 > row["tee_n"] == 2 * f + 1
    assert row["committee"]["signature_verifications"] > 0
    assert row["committee"]["field_operations"] > 0
    assert row["message_ratio_committee_over_tee"] is not None
    save_results("beacon_committee_baseline", {"rows": [row]})
