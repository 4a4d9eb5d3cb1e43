"""Machine provenance stamps for benchmark history and run sidecars.

A wall-clock number without its machine is an anecdote: the same
benchmark case differs 3x between a laptop and a one-core CI container.
Every persisted measurement — ``BENCH_engine.json`` history entries,
``--timing-out`` / ``--metrics-out`` sidecars, trace files — therefore
carries the same stamp (git rev, CPU count, worker count), and the
regression gate in :mod:`repro.obs.bench` only compares entries whose
stamps are comparable.
"""

from __future__ import annotations

import os
import subprocess
from pathlib import Path
from typing import Dict, Optional


def git_revision() -> Optional[str]:
    """The repo's short git rev, or None outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def machine_stamp(
    workers: Optional[int] = None,
    data_plane: Optional[str] = None,
    suite: Optional[str] = None,
    transport: Optional[str] = None,
) -> Dict:
    """Provenance fields for persisted measurements.

    Timestamp-only entries from different machines are incomparable;
    stamping the git rev, CPU count, worker count and — for parallel
    runs — the engine data plane ("shm" or "pickle") makes a history
    line reproducible evidence rather than an anecdote.  Real-network runs additionally stamp the
    ``transport`` ("tcp"); simulated entries carry none.
    """
    stamp: Dict = {
        "git_rev": git_revision(),
        "cpu_count": os.cpu_count(),
    }
    if workers is not None:
        stamp["workers"] = workers
    if data_plane is not None:
        stamp["data_plane"] = data_plane
    if suite is not None:
        stamp["suite"] = suite
    if transport is not None:
        stamp["transport"] = transport
    return stamp


def stamps_comparable(a: Dict, b: Dict) -> bool:
    """Whether two stamped entries measure the same machine shape.

    Comparable means same CPU count and same worker count (and both
    actually stamped) — the two parameters that change what a throughput
    number physically means.  Parallel entries additionally key on the
    engine data plane: a shared-memory number is no evidence about a
    pickle-pipe number.  Entries written while the engine still had two
    round schedulers carry a ``scheduler`` stamp ("dense" / "sparse");
    it stays an axis so those never compare across modes, and nothing
    emits it any more.  So is the benchmark ``suite``: beacon sustained-load rows
    measure service epochs, not raw engine sweeps.  And so is the
    ``transport``: a real-TCP wall clock (``transport="tcp"``) measures
    sockets and kernels, never comparable with a simulated number (which
    carries no transport field at all).  These fields may legitimately
    be absent (entries predating them carry none and stay comparable
    with each other).  Git revs are expected to differ; that is the
    regression being looked for.
    """
    for key in ("cpu_count", "workers"):
        if a.get(key) is None or b.get(key) is None:
            return False
        if a[key] != b[key]:
            return False
    if a.get("data_plane") != b.get("data_plane"):
        return False
    if a.get("suite") != b.get("suite"):
        return False
    if a.get("transport") != b.get("transport"):
        return False
    return a.get("scheduler") == b.get("scheduler")
