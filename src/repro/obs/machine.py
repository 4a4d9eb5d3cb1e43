"""Machine provenance stamps for run sidecars and traces.

A wall-clock number without its machine is an anecdote: the same run
differs 3x between a laptop and a one-core CI container.  Every
measurement the program persists — ``--timing-out`` / ``--metrics-out``
sidecars, the :class:`~repro.obs.events.MetaEvent` at the head of a
trace, wire cluster reports — therefore carries the same stamp.  It is
provenance only: nothing in the program compares two stamps.
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
    transport: Optional[str] = None,
) -> Dict:
    """Provenance fields for persisted measurements.

    Always the git rev and CPU count; the worker count, the parallel
    engine's data plane ("shm") and, for real-network runs, the
    ``transport`` ("tcp") when they apply to the run.
    """
    stamp: Dict = {
        "git_rev": git_revision(),
        "cpu_count": os.cpu_count(),
    }
    if workers is not None:
        stamp["workers"] = workers
    if data_plane is not None:
        stamp["data_plane"] = data_plane
    if transport is not None:
        stamp["transport"] = transport
    return stamp
