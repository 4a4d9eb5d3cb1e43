"""Fig. 3b — ERNG traffic vs network size: unoptimized (cubic) vs
optimized (fixed 2N/3 cluster at these sizes), Ex vs Th.

Paper: the unoptimized curve is cubic in N; at N = 512 the optimized
version with a fixed 2/3 cluster cuts traffic by ~60 %.  We sweep smaller
sizes (the simulator pays per-message costs the testbed paid in
parallel), check the cubic exponent, and assert the optimized saving.
"""

from __future__ import annotations

from bench_common import growth_exponent, pick, powers_of_two, print_table, save_results

from repro import ClusterConfig, SimulationConfig, run_erng, run_optimized_erng
from repro.analysis.complexity import erng_unopt_bytes_honest

_MB = 1024.0 * 1024.0


def _sweep():
    sizes = pick(
        smoke=powers_of_two(4, 16),
        default=powers_of_two(4, 64),
        full=powers_of_two(4, 128),
    )
    rows = []
    for n in sizes:
        unopt = run_erng(SimulationConfig(n=n, seed=5))
        opt = run_optimized_erng(
            SimulationConfig(n=n, t=n // 3, seed=5),
            cluster=ClusterConfig(mode="fixed_fraction"),
        )
        assert len(set(unopt.outputs.values())) == 1
        assert len(set(opt.outputs.values())) == 1
        rows.append(
            {
                "n": n,
                "unopt_mb": unopt.traffic.bytes_sent / _MB,
                "th_unopt_mb": erng_unopt_bytes_honest(n) / _MB,
                "opt_mb": opt.traffic.bytes_sent / _MB,
                "saving": 1.0 - opt.traffic.bytes_sent / unopt.traffic.bytes_sent,
            }
        )
    return rows


def test_fig3b_erng_traffic():
    rows = _sweep()

    print_table(
        "Fig 3b — ERNG traffic vs N (ERNG-0 = unoptimized, ERNG-1 = optimized)",
        ["N", "ERNG-0 MB (Ex)", "ERNG-0 MB (Th)", "ERNG-1 MB (Ex)", "saving"],
        [
            (r["n"], r["unopt_mb"], r["th_unopt_mb"], r["opt_mb"],
             f"{r['saving']:.0%}")
            for r in rows
        ],
    )
    save_results("fig3b_erng_traffic", {"rows": rows})

    # Cubic scaling of the unoptimized protocol: log-log slope ~3.
    slope = growth_exponent(
        [r["n"] for r in rows], [r["unopt_mb"] for r in rows]
    )
    assert 2.7 < slope < 3.3

    # Ex matches Th within calibration slack.
    for r in rows:
        assert 0.5 < r["unopt_mb"] / r["th_unopt_mb"] < 2.0

    # Paper: >= ~60 % saving with the fixed 2N/3 cluster at the top size.
    # ((2/3)^3 ≈ 0.30 of the work, minus CHOSEN/FINAL overhead, which
    # still eats the margin below N = 32: 49.8 % at N = 16.)
    for r in rows:
        if r["n"] >= 32:
            assert r["saving"] > 0.5

    # The saving improves with N (overheads amortize).
    assert rows[-1]["saving"] > rows[0]["saving"]
