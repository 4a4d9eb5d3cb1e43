"""Fig. 2c — ERB termination time vs byzantine fraction.

Paper (N = 512): byzantine nodes form a worst-case delay chain — each
forwards the value to exactly one other byzantine node per round and is
then eliminated — so termination grows *linearly* with the byzantine
fraction, from 4 s honest to 389 s at f = N/4.
"""

from __future__ import annotations

from bench_common import pick, print_table, save_results

from repro import SimulationConfig, run_erb
from repro.adversary import chain_delay_strategy


def _network_size() -> int:
    return pick(smoke=32, default=128, full=512)


def _fractions():
    n = _network_size()
    fractions = []
    denom = n  # start at a single byzantine node (fraction 1/N)
    while denom >= 4:
        fractions.append(denom)
        denom //= 2
    return fractions  # denominators: f = n / denom


def _sweep():
    n = _network_size()
    t = (n - 1) // 2
    rows = []
    honest = run_erb(SimulationConfig(n=n, t=t, seed=3), 0, b"fig2c")
    rows.append(
        {
            "fraction": "0",
            "f": 0,
            "rounds": honest.rounds_executed,
            "termination_s": honest.termination_seconds,
            "mb": honest.traffic.megabytes_sent,
        }
    )
    for denom in _fractions():
        f = n // denom
        behaviors = chain_delay_strategy(list(range(f)), honest_target=f)
        result = run_erb(
            SimulationConfig(n=n, t=t, seed=3),
            initiator=0,
            message=b"fig2c",
            behaviors=behaviors,
        )
        honest_values = set(result.honest_outputs(set(range(f))).values())
        assert len(honest_values) == 1
        rows.append(
            {
                "fraction": f"1/{denom}",
                "f": f,
                "rounds": result.rounds_executed,
                "termination_s": result.termination_seconds,
                "mb": result.traffic.megabytes_sent,
            }
        )
    return rows


def test_fig2c_erb_byzantine_termination():
    rows = _sweep()
    n = _network_size()

    print_table(
        f"Fig 2c — ERB termination vs byzantine fraction (N = {n})",
        ["byz fraction", "f", "rounds", "termination (s)", "traffic (MB)"],
        [
            (r["fraction"], r["f"], r["rounds"], r["termination_s"], r["mb"])
            for r in rows
        ],
    )
    save_results("fig2c_erb_byzantine", {"n": n, "rows": rows})

    # Paper claim: rounds = min{f+2, t+2} — the delay chain realizes the
    # worst case exactly.
    t = (n - 1) // 2
    for r in rows:
        expected = 2 if r["f"] == 0 else min(r["f"] + 2, t + 2)
        assert r["rounds"] == expected

    # Linear growth in f: termination(f) - termination(0) = f * one round
    # (the chain adds exactly one round per byzantine node).
    round_s = SimulationConfig(n=n).round_seconds
    for r in rows:
        if r["rounds"] < t + 2:  # below the t+2 cap the law is exact
            expected = rows[0]["termination_s"] + r["f"] * round_s
            assert r["termination_s"] == expected

    # The paper's ~100x stretch at f = N/4 (389 s vs 4 s): ours is
    # (f+2)/2 rounds = ~16x at N=128, ~65x at N=512.
    stretch = rows[-1]["termination_s"] / rows[0]["termination_s"]
    assert stretch >= (n // 4) / 4
