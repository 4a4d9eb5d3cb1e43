"""Loopback wire calibration: measured TCP rounds vs the round model.

Unlike every other benchmark module this one runs **real sockets**:
N-node loopback clusters (`repro.net.wire`) running ERNG over TCP.  It
fits the simulator's ``wall = latency + bytes/bw`` round model to the
round walls each cluster recorded itself and prints the
measured-vs-modeled table EXPERIMENTS.md quotes.  The walls are kernel
and scheduler quantities of the box that ran them, so nothing is
persisted; the bytes per round are exact and asserted.  Wire speed is
measured by the ``wire-beacon-n9`` workload of ``perfbench/``.
"""

from __future__ import annotations

from bench_common import pick, print_table

from repro.net.wire import calibrate_from_results, cluster_configs, run_cluster

#: Frame bytes of one ERNG round summed over the cluster, seed 4.
BYTES_PER_ROUND = {3: 2103, 5: 8710, 9: 43596, 17: 258128}


def test_wire_calibration_fit():
    """Fit the simulator's round model against measured rounds across
    sizes (varying N varies bytes/round, identifying the bandwidth term)."""
    sizes = pick((3, 5), (3, 5, 9), (3, 5, 9, 17))
    results = [
        run_cluster(cluster_configs(n, "erng", seed=4)) for n in sizes
    ]
    fit = calibrate_from_results(results)
    assert fit.samples == sum(len(r.round_samples) for r in results)
    assert fit.latency_s >= 0.0

    rows = []
    for n, result in zip(sizes, results):
        samples = result.round_samples
        bytes_per_round = round(sum(b for b, _ in samples) / len(samples))
        assert bytes_per_round == BYTES_PER_ROUND[n]
        measured = sum(w for _, w in samples) / len(samples)
        modeled = fit.latency_s
        if fit.bandwidth_bytes_per_s is not None:
            modeled += bytes_per_round / fit.bandwidth_bytes_per_s
        rows.append((n, bytes_per_round, measured * 1e3, modeled * 1e3))
    print_table(
        "Loopback ERNG rounds, measured vs wall = latency + bytes / bandwidth",
        ["N", "bytes/round", "measured ms/round", "modeled ms/round"],
        rows,
    )
    print(f"fit: {fit.to_json_dict()}")
