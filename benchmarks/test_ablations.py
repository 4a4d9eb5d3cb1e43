"""Ablation benches for the design choices DESIGN.md §5 calls out.

* **Halt-on-divergence (P4) on/off** — Section 4.2 claims active
  self-detection cuts anomaly-detection cost and "sanitizes" the network;
  with P4 disabled (ACK threshold 0) misbehaving nodes linger and keep
  consuming bandwidth.
* **ACK threshold sweep** — the resilience/efficiency trade-off around
  Algorithm 2's ``N_ack < t`` rule.
* **Channel fidelity** — FULL (real crypto) and MODELED channels must
  produce identical protocol behaviour (same rounds, same message
  counts); only wire bytes differ here, and the cost in time is the
  ``full-erb-n8`` workload of ``perfbench/``.
"""

from __future__ import annotations

from bench_common import pick, print_table, save_results

from repro import ChannelSecurity, SimulationConfig, run_erb
from repro.adversary import chain_delay_strategy

_MB = 1024.0 * 1024.0


def _p4_ablation():
    n = pick(smoke=16, default=64, full=128)
    t = (n - 1) // 2
    f = n // 4
    rows = []
    for label, threshold in (("P4 on (threshold=t)", None), ("P4 off (threshold=0)", 0)):
        config = SimulationConfig(
            n=n, t=t, seed=9,
            ack_threshold=t if threshold is None else threshold,
        )
        behaviors = chain_delay_strategy(list(range(f)), honest_target=f)
        result = run_erb(config, initiator=0, message=b"abl", behaviors=behaviors)
        rows.append(
            {
                "variant": label,
                "rounds": result.rounds_executed,
                "ejected": len(result.halted),
                "messages": result.traffic.messages_sent,
                "mb": result.traffic.bytes_sent / _MB,
            }
        )
    return {"n": n, "f": f, "rows": rows}


def test_ablation_halt_on_divergence():
    data = _p4_ablation()
    rows = data["rows"]
    print_table(
        f"Ablation — halt-on-divergence under a chain of f={data['f']} "
        f"delayers (N={data['n']})",
        ["variant", "rounds", "nodes ejected", "messages", "MB"],
        [
            (r["variant"], r["rounds"], r["ejected"], r["messages"], r["mb"])
            for r in rows
        ],
    )
    save_results("ablation_p4", data)
    with_p4, without_p4 = rows
    assert with_p4["ejected"] == data["f"]
    assert without_p4["ejected"] == 0
    # Ejected nodes stop echoing and ACKing: P4 saves traffic.
    assert with_p4["messages"] < without_p4["messages"]


def _threshold_sweep():
    n = pick(smoke=9, default=17, full=33)
    t = (n - 1) // 2
    rows = []
    from repro.adversary import SelectiveOmission

    # The initiator omits to exactly half its peers: it collects exactly
    # t ACKs, sitting right on Algorithm 2's boundary.
    victims = set(range(1, n // 2 + 1))
    for threshold in (0, t // 2, t, t + 1):
        config = SimulationConfig(n=n, t=t, seed=10, ack_threshold=threshold)
        result = run_erb(
            config, initiator=0, message=b"thr",
            behaviors={0: SelectiveOmission(victims=victims)},
        )
        rows.append(
            {
                "threshold": threshold,
                "initiator_ejected": 0 in result.halted,
                "rounds": result.rounds_executed,
                "honest_agree": len(set(result.honest_outputs({0}).values())) == 1,
            }
        )
    return {"n": n, "t": t, "victims": len(victims), "rows": rows}


def test_ablation_ack_threshold():
    data = _threshold_sweep()
    rows = data["rows"]
    print_table(
        f"Ablation — ACK threshold vs an initiator omitting to "
        f"{data['victims']} of {data['n'] - 1} peers",
        ["threshold", "initiator ejected", "rounds", "honest agree"],
        [
            (r["threshold"], r["initiator_ejected"], r["rounds"],
             r["honest_agree"])
            for r in rows
        ],
    )
    save_results("ablation_ack_threshold", data)
    # Agreement holds at every threshold (safety is threshold-independent);
    # only the ejection policy changes.
    assert all(r["honest_agree"] for r in rows)
    # A zero threshold never ejects; the strictest threshold does.
    assert not rows[0]["initiator_ejected"]
    assert rows[-1]["initiator_ejected"]


def _fidelity_comparison():
    n = pick(smoke=4, default=6, full=8)
    results = {}
    for label, security in (
        ("MODELED", ChannelSecurity.MODELED),
        ("FULL (real crypto)", ChannelSecurity.FULL),
    ):
        config = SimulationConfig(
            n=n, seed=11, channel_security=security,
            extra={"dh_group": "small"},
        )
        result = run_erb(config, initiator=0, message=b"fidelity")
        results[label] = {
            "rounds": result.rounds_executed,
            "messages": result.traffic.messages_sent,
            "mb": result.traffic.bytes_sent / _MB,
            "outputs": sorted(
                str(v) for v in set(result.outputs.values())
            ),
        }
    return {"n": n, "results": results}


def test_ablation_channel_fidelity():
    data = _fidelity_comparison()
    results = data["results"]
    print_table(
        f"Ablation — channel fidelity at N={data['n']} (identical protocol "
        "behaviour, different cost)",
        ["channel", "rounds", "messages", "MB"],
        [
            (label, r["rounds"], r["messages"], r["mb"])
            for label, r in results.items()
        ],
    )
    save_results("ablation_channel_fidelity", data)
    modeled = results["MODELED"]
    full = results["FULL (real crypto)"]
    assert modeled["rounds"] == full["rounds"]
    assert modeled["messages"] == full["messages"]
    assert modeled["outputs"] == full["outputs"]
    assert full["mb"] > modeled["mb"]  # real AEAD framing is heavier
