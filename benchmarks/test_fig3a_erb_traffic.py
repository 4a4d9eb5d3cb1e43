"""Fig. 3a — ERB network traffic (MB) vs network size, Ex vs Th.

Paper: traffic grows quadratically (INIT ~100 B, ACK ~80 B; 277 MB at
N = 1024) and the experimental curve matches the theoretical one.  We
sweep the same sizes and compare measured bytes against
``analysis.complexity.erb_bytes_honest``.
"""

from __future__ import annotations

from bench_common import growth_exponent, pick, powers_of_two, print_table, save_results

from repro import SimulationConfig, run_erb
from repro.analysis.complexity import erb_bytes_honest, erb_messages_honest

_MB = 1024.0 * 1024.0


def _sweep():
    sizes = pick(
        smoke=powers_of_two(4, 32),
        default=powers_of_two(4, 512),
        full=powers_of_two(4, 1024),
    )
    rows = []
    for n in sizes:
        result = run_erb(
            SimulationConfig(n=n, seed=4), initiator=0,
            message=(0xDEADBEEF).to_bytes(16, "big"),
        )
        rows.append(
            {
                "n": n,
                "messages": result.traffic.messages_sent,
                "th_messages": erb_messages_honest(n),
                "ex_mb": result.traffic.bytes_sent / _MB,
                "th_mb": erb_bytes_honest(n) / _MB,
            }
        )
    return rows


def test_fig3a_erb_traffic():
    rows = _sweep()

    print_table(
        "Fig 3a — ERB traffic vs N (Ex = measured, Th = closed form)",
        ["N", "msgs (Ex)", "msgs (Th)", "MB (Ex)", "MB (Th)"],
        [
            (r["n"], r["messages"], r["th_messages"], r["ex_mb"], r["th_mb"])
            for r in rows
        ],
    )
    save_results("fig3a_erb_traffic", {"rows": rows})

    # Message counts match the structural formula *exactly*.
    for r in rows:
        assert r["messages"] == r["th_messages"]

    # Byte counts match Th within the calibration slack.
    for r in rows:
        assert 0.5 < r["ex_mb"] / r["th_mb"] < 2.0

    # Quadratic scaling: empirical log-log slope ~2.
    slope = growth_exponent(
        [r["n"] for r in rows], [r["ex_mb"] for r in rows]
    )
    assert 1.8 < slope < 2.2

    # Paper headline: 277 MB at N = 1024 — same decade.
    top = rows[-1]
    if top["n"] == 1024:
        assert 90 < top["ex_mb"] < 600
