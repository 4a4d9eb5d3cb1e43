"""Table 1 — reliable-broadcast protocols compared.

The paper's table is asymptotic; this bench instantiates the three
protocols we implement (ERB, RBsig/DS-style, RBearly/PT-style) on the
same network and measures rounds, messages, bytes and signature
verifications, both honest and with f omission/delay faults.  Expected
shape: ERB matches the omission-model protocols' round count with an
honest initiator (2), beats RBsig on bytes (no signature chains) and
beats RBearly on messages once faults stretch the run (no per-round
liveness broadcasts).  The asymptotic rows of the paper's Table 1 are
printed alongside from ``analysis.complexity.TABLE1_FORMULAS``.
"""

from __future__ import annotations

from bench_common import pick, print_table, save_results

from repro import SimulationConfig, run_erb
from repro.adversary import DelayAdversary, chain_delay_strategy
from repro.analysis.complexity import TABLE1_FORMULAS
from repro.baselines.rb_early import run_rb_early
from repro.baselines.rb_sig import run_rb_sig

_MB = 1024.0 * 1024.0


def _measure():
    n = pick(smoke=9, default=33, full=65)
    t = (n - 1) // 2
    f = max(2, n // 8)
    rows = []

    # --- honest runs -----------------------------------------------------
    erb = run_erb(SimulationConfig(n=n, t=t, seed=7), 0, b"t1")
    rbsig, registry = run_rb_sig(SimulationConfig(n=n, t=t, seed=7), 0, b"t1")
    rbearly = run_rb_early(SimulationConfig(n=n, t=t, seed=7), 0, b"t1")
    for name, result, verifications in (
        ("ERB", erb, 0),
        ("RBsig (DS-style)", rbsig, registry.verifications),
        ("RBearly (PT-style)", rbearly, 0),
    ):
        rows.append(
            {
                "protocol": name,
                "case": "honest",
                "rounds": result.rounds_executed,
                "messages": result.traffic.messages_sent,
                "mb": result.traffic.bytes_sent / _MB,
                "sig_verifications": verifications,
            }
        )

    # --- f faulty runs -----------------------------------------------------
    erb_byz = run_erb(
        SimulationConfig(n=n, t=t, seed=7), 0, b"t1",
        behaviors=chain_delay_strategy(list(range(f)), honest_target=f),
    )
    delayers = {node: DelayAdversary(2) for node in range(1, f + 1)}
    rbsig_byz, registry_byz = run_rb_sig(
        SimulationConfig(n=n, t=t, seed=7), 0, b"t1", behaviors=delayers
    )
    rbearly_byz = run_rb_early(
        SimulationConfig(n=n, t=t, seed=7), 0, b"t1", behaviors=delayers
    )
    for name, result, verifications in (
        ("ERB", erb_byz, 0),
        ("RBsig (DS-style)", rbsig_byz, registry_byz.verifications),
        ("RBearly (PT-style)", rbearly_byz, 0),
    ):
        rows.append(
            {
                "protocol": name,
                "case": f"f={f} faulty",
                "rounds": result.rounds_executed,
                "messages": result.traffic.messages_sent,
                "mb": result.traffic.bytes_sent / _MB,
                "sig_verifications": verifications,
            }
        )
    return {"n": n, "t": t, "f": f, "rows": rows}


def test_table1_broadcast_comparison():
    data = _measure()
    rows = data["rows"]
    n, t, f = data["n"], data["t"], data["f"]

    print_table(
        f"Table 1 (measured) — reliable broadcast at N={n}, t={t}",
        ["protocol", "case", "rounds", "messages", "MB", "sig verifs"],
        [
            (r["protocol"], r["case"], r["rounds"], r["messages"], r["mb"],
             r["sig_verifications"])
            for r in rows
        ],
    )
    print()
    print("Table 1 (paper, asymptotic):")
    for name, row in TABLE1_FORMULAS.items():
        print(
            f"  {name:<10} model={row['model']:<10} N>={row['network']:<5} "
            f"rounds={row['rounds']:<15} comm={row['comm']}"
        )
    save_results("table1_broadcast", data)

    by_key = {(r["protocol"], r["case"]): r for r in rows}

    # Round complexity: ERB honest = 2; RBsig always t+1 (no early stop);
    # RBearly honest = 2.
    assert by_key[("ERB", "honest")]["rounds"] == 2
    assert by_key[("RBsig (DS-style)", "honest")]["rounds"] == t + 1
    assert by_key[("RBearly (PT-style)", "honest")]["rounds"] == 2
    # ERB under the worst-case chain: min{f+2, t+2}.
    assert by_key[("ERB", f"f={f} faulty")]["rounds"] == min(f + 2, t + 2)

    # Communication: ERB bytes < RBsig bytes (signature chains cost).
    assert (
        by_key[("ERB", "honest")]["mb"]
        < by_key[("RBsig (DS-style)", "honest")]["mb"]
    )
    # ERB never verifies a signature; RBsig verifies many.
    assert by_key[("RBsig (DS-style)", "honest")]["sig_verifications"] > 0

    # With faults, RBearly's per-round liveness broadcasts outweigh ERB.
    assert (
        by_key[("ERB", f"f={f} faulty")]["messages"]
        < by_key[("RBearly (PT-style)", f"f={f} faulty")]["messages"] * 2
    )
