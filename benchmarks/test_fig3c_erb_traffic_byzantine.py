"""Fig. 3c — ERB traffic vs byzantine fraction.

Paper (N = 512): traffic *decreases* as the byzantine fraction grows —
halt-on-divergence ejects misbehaving nodes, which then neither relay nor
acknowledge (69 MB honest vs 35 MB at f = N/4: ~50 % less).
"""

from __future__ import annotations

from bench_common import pick, print_table, save_results

from repro import SimulationConfig, run_erb
from repro.adversary import chain_delay_strategy

_MB = 1024.0 * 1024.0


def _network_size() -> int:
    return pick(smoke=32, default=128, full=512)


def _sweep():
    n = _network_size()
    t = (n - 1) // 2
    rows = []
    denominators = []
    denom = n // 2
    while denom >= 4:
        denominators.append(denom)
        denom //= 2
    honest = run_erb(SimulationConfig(n=n, t=t, seed=6), 0, b"fig3c")
    rows.append(
        {"fraction": "0", "f": 0, "ex_mb": honest.traffic.bytes_sent / _MB,
         "halted": 0}
    )
    for denom in denominators:
        f = n // denom
        behaviors = chain_delay_strategy(list(range(f)), honest_target=f)
        result = run_erb(
            SimulationConfig(n=n, t=t, seed=6),
            initiator=0,
            message=b"fig3c",
            behaviors=behaviors,
        )
        rows.append(
            {
                "fraction": f"1/{denom}",
                "f": f,
                "ex_mb": result.traffic.bytes_sent / _MB,
                "halted": len(result.halted),
            }
        )
    return rows


def test_fig3c_erb_traffic_byzantine():
    rows = _sweep()
    n = _network_size()

    print_table(
        f"Fig 3c — ERB traffic vs byzantine fraction (N = {n})",
        ["byz fraction", "f", "traffic (MB)", "nodes ejected"],
        [(r["fraction"], r["f"], r["ex_mb"], r["halted"]) for r in rows],
    )
    save_results("fig3c_erb_traffic_byzantine", {"n": n, "rows": rows})

    # Every byzantine node was ejected (they fed the chain, lost ACKs).
    for r in rows:
        assert r["halted"] == r["f"]

    # Monotone decrease: more ejections, less traffic.
    traffic = [r["ex_mb"] for r in rows]
    assert traffic == sorted(traffic, reverse=True)

    # Paper magnitude: a substantial cut at f = N/4 (they report ~50 %;
    # ours is ~(1 - f/N)^2 per the quadratic echo/ack structure).
    cut = 1.0 - rows[-1]["ex_mb"] / rows[0]["ex_mb"]
    assert cut > 0.3
