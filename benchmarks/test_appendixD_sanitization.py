"""Appendix D — network sanitization: Monte-Carlo churn trajectories vs
the closed forms, plus Theorem D.1's confidence bound at the paper's own
parameters (N = 2^10, p = 2^-5, λ = 30 → r ≈ 2500)."""

from __future__ import annotations


from bench_common import pick, print_table, save_results

from repro.common.rng import DeterministicRNG
from repro.core.sanitization import SanitizationModel


def _measure():
    t = pick(smoke=63, default=255, full=511)
    p = 2**-5
    model = SanitizationModel(t=t, p=p)
    horizon = pick(smoke=400, default=1500, full=3000)
    trials = pick(smoke=50, default=200, full=400)
    mean = model.monte_carlo_mean(
        instances=horizon, trials=trials, rng=DeterministicRNG("appD")
    )
    checkpoints = [0] + [horizon * k // 6 for k in range(1, 7)]
    rows = [
        {
            "r": r,
            "closed_form": model.expected_faulty_after(r),
            "monte_carlo": mean[r],
            "markov_bound": model.prob_any_faulty_bound(r),
        }
        for r in checkpoints
    ]
    r_for_lambda30 = SanitizationModel(t=511, p=p).instances_for_confidence(30.0)

    # End-to-end: the same contraction measured on *real* repeated ERB
    # instances via the ChurnDriver (no replacement: q = 0).
    from repro.common.config import SimulationConfig
    from repro.core.churn import ChurnDriver

    e2e_n = pick(smoke=9, default=15, full=21)
    e2e_byz = list(range(1, (e2e_n - 1) // 2 + 1))
    e2e_p = 0.4
    driver = ChurnDriver(
        SimulationConfig(n=e2e_n, seed=14),
        byzantine=e2e_byz,
        misbehave_p=e2e_p,
        seed=14,
    )
    e2e_instances = pick(smoke=8, default=20, full=30)
    report = driver.run(e2e_instances)
    e2e_model = SanitizationModel(
        t=len(e2e_byz), p=e2e_p, replacement_byzantine_p=0.0
    )
    return {
        "t": t,
        "p": p,
        "trials": trials,
        "rows": rows,
        "r_for_lambda30": r_for_lambda30,
        "e2e": {
            "n": e2e_n,
            "byzantine": len(e2e_byz),
            "p": e2e_p,
            "live_byzantine": report.live_byzantine,
            "expected": [
                e2e_model.expected_faulty_after(r)
                for r in range(1, e2e_instances + 1)
            ],
            "agreements": report.agreements_held,
            "instances": report.instances,
            "sanitized_at": report.sanitized_at,
        },
    }


def test_appendix_d_sanitization():
    data = _measure()
    rows = data["rows"]

    print_table(
        f"Appendix D — churn of t={data['t']} byzantine nodes, p=1/32 "
        f"({data['trials']} Monte-Carlo trials)",
        ["instances r", "E[F_r] closed form", "MC mean", "Pr[F_r>=1] bound"],
        [
            (r["r"], r["closed_form"], r["monte_carlo"], r["markov_bound"])
            for r in rows
        ],
    )
    print(
        f"\npaper example: t=511, lambda=30 -> r = {data['r_for_lambda30']} "
        "instances (paper's estimate: ~2500)"
    )
    e2e = data["e2e"]
    print(
        f"\nend-to-end (real ERB instances, N={e2e['n']}, "
        f"{e2e['byzantine']} byzantine, p={e2e['p']}):"
    )
    print(f"  live byzantine per instance: {e2e['live_byzantine']}")
    print(
        f"  closed-form expectation:     "
        f"{[round(x, 2) for x in e2e['expected'][:len(e2e['live_byzantine'])]]}"
    )
    print(
        f"  agreement held in {e2e['agreements']}/{e2e['instances']} "
        f"instances; sanitized at instance {e2e['sanitized_at']}"
    )
    save_results("appendixD_sanitization", data)

    # End-to-end protocol behaviour matches the abstract process: the
    # live-byzantine count is non-increasing and agreement never breaks.
    live = e2e["live_byzantine"]
    assert live == sorted(live, reverse=True)
    assert e2e["agreements"] == e2e["instances"]

    # Monte Carlo tracks the closed form.
    for r in rows:
        if r["closed_form"] >= 1.0:
            assert abs(r["monte_carlo"] - r["closed_form"]) <= max(
                2.0, 0.15 * r["closed_form"]
            )

    # Strictly decaying expectation; the bound reaches e^-lambda at the
    # paper's r.
    values = [r["closed_form"] for r in rows]
    assert values == sorted(values, reverse=True)
    assert 2200 <= data["r_for_lambda30"] <= 2600