"""Appendix E / Theorem 5.1 — unbiasedness: β(ERNG) = 1.

Empirical reproduction: run many seeded instances of (a) the strawman XOR
beacon under the A4 look-ahead attacker and (b) ERNG under the same
attacker, and estimate the attacker's success rate at steering a
1/2-probability predicate plus the β estimator over the output samples.
Expected shape: strawman ≈ 3/4 steering (β ≈ 1.5 on that test), ERNG ≈
1/2 (β ≈ 1)."""

from __future__ import annotations

from bench_common import pick, print_table, save_results

from repro import SimulationConfig, run_erng, run_strawman_rng
from repro.adversary import LookaheadBiasAdversary
from repro.analysis.bias import empirical_bias
from repro.common.config import ChannelSecurity

K = 16
FAVOURABLE = staticmethod(lambda v: v & 1 == 0)


def _collect(runner, config_factory, trials):
    samples = []
    favourable_hits = 0
    for seed in range(trials):
        adversary = LookaheadBiasAdversary(0, lambda v: v & 1 == 0)
        result = runner(config_factory(seed), behaviors={0: adversary})
        honest = result.honest_outputs({0})
        value = next(iter(honest.values()))
        samples.append(value)
        favourable_hits += value & 1 == 0
    return samples, favourable_hits / trials


def _measure():
    trials = pick(smoke=40, default=150, full=400)
    n = 5
    strawman_samples, strawman_rate = _collect(
        run_strawman_rng,
        lambda seed: SimulationConfig(
            n=n, seed=seed, random_bits=K,
            channel_security=ChannelSecurity.NONE,
        ),
        trials,
    )
    erng_samples, erng_rate = _collect(
        run_erng,
        lambda seed: SimulationConfig(n=n, seed=seed, random_bits=K),
        trials,
    )
    return {
        "trials": trials,
        "strawman_rate": strawman_rate,
        "erng_rate": erng_rate,
        "strawman_beta": empirical_bias(strawman_samples, K),
        "erng_beta": empirical_bias(erng_samples, K),
    }


def test_appendix_e_unbiasedness():
    data = _measure()

    print_table(
        f"Appendix E — A4 look-ahead attacker steering an even-output "
        f"predicate ({data['trials']} runs each)",
        ["generator", "P(favourable)", "beta (bit0 test)", "beta (max)"],
        [
            ("strawman XOR beacon", f"{data['strawman_rate']:.2f}",
             data["strawman_beta"]["bit0"], data["strawman_beta"]["beta"]),
            ("ERNG", f"{data['erng_rate']:.2f}",
             data["erng_beta"]["bit0"], data["erng_beta"]["beta"]),
            ("theory: fair coin", "0.50", 1.0, 1.0),
            ("theory: strawman under A4", "0.75", 1.5, 1.5),
        ],
    )
    save_results("appendixE_bias", data)

    # Strawman: the attacker steers ~3/4 of outputs into its set.
    assert data["strawman_rate"] > 0.65
    assert data["strawman_beta"]["bit0"] > 1.3

    # ERNG: indistinguishable from fair.  The β estimate of a fair bit
    # scatters by ~1/sqrt(trials), so the 1.3 line only separates fair
    # from steered once the sweep has the default's 150 samples.
    assert 0.35 < data["erng_rate"] < 0.65
    if data["trials"] >= 150:
        assert data["erng_beta"]["bit0"] < 1.3
