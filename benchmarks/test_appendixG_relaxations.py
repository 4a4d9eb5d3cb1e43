"""Appendix G — relaxing the model assumptions, measured.

* **S5 (full connectivity)** — the paper: "the direct point-to-point
  broadcast ... can be replaced with a flooding algorithm" on a sparse
  expander.  We run Flood-ERB on random 4-regular expanders vs the full
  mesh: validity holds on both; rounds grow by ~the diameter; per-node
  fan-out drops from N-1 to the constant degree.
* **S1 (fixed network size)** — the sketched join protocol: every
  join/leave is ERB-announced; all honest directories stay identical
  through a churn sequence.
"""

from __future__ import annotations

from bench_common import pick, print_table, save_results

from repro import SimulationConfig
from repro.common.rng import DeterministicRNG
from repro.core.flooding import run_flood_erb
from repro.net.membership import MembershipService
from repro.net.topology import Topology

_MB = 1024.0 * 1024.0


def _flooding_sweep():
    sizes = pick(smoke=[8, 16], default=[16, 32, 64], full=[16, 32, 64, 128])
    rows = []
    for n in sizes:
        mesh = run_flood_erb(
            SimulationConfig(n=n, seed=12), Topology.full_mesh(n), 0, b"g"
        )
        expander = Topology.random_regular(n, 4, DeterministicRNG(("exp", n)))
        sparse = run_flood_erb(
            SimulationConfig(n=n, seed=12), expander, 0, b"g"
        )
        assert set(mesh.outputs.values()) == {b"g"}
        assert set(sparse.outputs.values()) == {b"g"}
        rows.append(
            {
                "n": n,
                "mesh_rounds": mesh.rounds_executed,
                "mesh_mb": mesh.traffic.bytes_sent / _MB,
                "expander_rounds": sparse.rounds_executed,
                "expander_mb": sparse.traffic.bytes_sent / _MB,
                "expander_degree": 4,
            }
        )
    return rows


def _membership_churn():
    service = MembershipService(initial_members=8, seed=13)
    events = pick(smoke=4, default=10, full=20)
    joined = []
    for index in range(events):
        if index % 3 == 2 and len(service.members) > 4 and joined:
            service.leave(joined.pop(0))
        else:
            sponsor = service.members[index % len(service.members)]
            joined.append(service.join(sponsor))
        assert service.views_consistent()
    return {
        "events": events,
        "final_size": len(service.members),
        "consistent": service.views_consistent(),
    }


def test_appendix_g_flooding():
    rows = _flooding_sweep()
    print_table(
        "Appendix G / S5 — Flood-ERB: full mesh vs 4-regular expander",
        ["N", "mesh rounds", "mesh MB", "expander rounds", "expander MB"],
        [
            (r["n"], r["mesh_rounds"], r["mesh_mb"], r["expander_rounds"],
             r["expander_mb"])
            for r in rows
        ],
    )
    save_results("appendixG_flooding", {"rows": rows})
    for r in rows:
        # Mesh floods settle in 2 rounds; expanders add ~diameter rounds
        # but stay logarithmic, far below the t+2 deadline.
        assert r["mesh_rounds"] == 2
        assert 2 < r["expander_rounds"] <= 2 + 2 * (r["n"].bit_length())


def test_appendix_g_membership():
    data = _membership_churn()
    print()
    print(
        f"Appendix G / S1 — dynamic membership: {data['events']} ERB-announced "
        f"join/leave events, final size {data['final_size']}, all honest "
        f"views consistent: {data['consistent']}"
    )
    save_results("appendixG_membership", data)
    assert data["consistent"]
