"""Fig. 2a — ERB termination time vs network size (honest case).

Paper: termination is ~2 rounds at every N; the curve sits just above the
one-round line and bends up only when the shared 128 MB/s link saturates
(around N = 2^8 on DeterLab).  We sweep the same N range and assert both
the two-round behaviour and the bandwidth knee.
"""

from __future__ import annotations

from bench_common import pick, powers_of_two, print_table, save_results

from repro import SimulationConfig, run_erb


#: A deliberately tight shared link (bytes/s).  The paper's knee appears
#: where per-round traffic outgrows the link; with the default 128 MB/s
#: that happens around N = 2^10 — this second series shifts the knee into
#: the default sweep so the phenomenon is visible at every scale.
TIGHT_LINK = 16 * 1024 * 1024

#: Smallest swept N whose round traffic outgrows ``TIGHT_LINK`` (2 s of
#: a 16 MB/s link carry 32 MB; the ECHO round at N = 2^9 is ~50 MB).
KNEE_N = 512


def _sweep():
    sizes = pick(
        smoke=powers_of_two(4, 32),
        default=powers_of_two(4, 512),
        full=powers_of_two(4, 1024),
    )
    rows = []
    for n in sizes:
        config = SimulationConfig(n=n, seed=1)
        result = run_erb(config, initiator=0, message=b"fig2a-payload")
        assert set(result.outputs.values()) == {b"fig2a-payload"}
        tight_config = SimulationConfig(
            n=n, seed=1, bandwidth_bytes_per_s=TIGHT_LINK
        )
        tight = run_erb(tight_config, initiator=0, message=b"fig2a-payload")
        rows.append(
            {
                "n": n,
                "rounds": result.rounds_executed,
                "one_round_s": config.round_seconds,
                "termination_s": result.termination_seconds,
                "termination_tight_s": tight.termination_seconds,
                "mb": result.traffic.megabytes_sent,
            }
        )
    return rows


def test_fig2a_erb_termination():
    rows = _sweep()

    print_table(
        "Fig 2a — ERB honest termination (time in simulated seconds)",
        ["N", "rounds", "one round (s)", "termination (s)",
         "termination, 16MB/s link (s)", "traffic (MB)"],
        [
            (r["n"], r["rounds"], r["one_round_s"], r["termination_s"],
             r["termination_tight_s"], r["mb"])
            for r in rows
        ],
    )
    save_results("fig2a_erb_termination", {"rows": rows})

    # Paper claim 1: honest initiator => exactly 2 rounds at every N.
    assert all(r["rounds"] == 2 for r in rows)

    # Paper claim 2: termination ~ 2x one round until the link saturates;
    # never *below* two nominal rounds.
    for r in rows:
        assert r["termination_s"] >= 2 * r["one_round_s"] - 1e-9

    # Paper claim 3 (the knee): once per-round traffic outgrows the shared
    # link, termination bends up — flat below the knee, stretched from it
    # on.  Each row is held to the side of the knee its N is on, so a
    # sweep that stops short of it (smoke) still checks the flat part.
    for r in rows:
        if r["n"] >= KNEE_N:
            assert r["termination_tight_s"] > r["termination_s"]
        else:
            assert r["termination_tight_s"] == r["termination_s"]
