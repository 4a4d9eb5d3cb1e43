"""Shared machinery for the figure/table reproduction benchmarks.

Every benchmark module regenerates one artifact of the paper's evaluation
(Section 6): it sweeps the same parameter the paper swept, prints the same
rows/series, asserts the paper's *shape* claims (who wins, growth order,
crossovers), and persists the rows under ``benchmarks/results/`` so
EXPERIMENTS.md can quote them.  Speed is not measured here but by
``perfbench/``.

Sweep sizes are controlled by ``REPRO_BENCH_SCALE``:

* ``smoke``   — minimal sizes (CI sanity; persists nothing, so the
  checked-in default-scale rows survive the run);
* ``default`` — moderate sizes, minutes of wall time in total;
* ``full``    — the paper's maxima (N = 2^10 for ERB), slower.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Dict, List, Sequence

RESULTS_DIR = Path(__file__).parent / "results"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "default").lower()
if SCALE not in ("smoke", "default", "full"):
    raise RuntimeError(f"unknown REPRO_BENCH_SCALE={SCALE!r}")


def pick(smoke, default, full):
    """Choose a sweep by scale."""
    return {"smoke": smoke, "default": default, "full": full}[SCALE]


def powers_of_two(lo: int, hi: int) -> List[int]:
    return [1 << k for k in range(int(math.log2(lo)), int(math.log2(hi)) + 1)]


def print_table(title: str, headers: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Render an aligned ASCII table to stdout (visible with ``-s``)."""
    rendered = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(header)), *(len(row[i]) for row in rendered)) if rendered else len(str(header))
        for i, header in enumerate(headers)
    ]
    line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    print()
    print(title)
    print("-" * len(line))
    print(line)
    print("-" * len(line))
    for row in rendered:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)


def save_results(name: str, payload: Dict) -> None:
    """Persist one benchmark's rows for EXPERIMENTS.md (not at smoke
    scale: its tiny sweeps must not overwrite the quoted rows)."""
    if SCALE == "smoke":
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    payload = dict(payload)
    payload["scale"] = SCALE
    with open(RESULTS_DIR / f"{name}.json", "w") as fh:
        json.dump(payload, fh, indent=2, default=str)


def growth_exponent(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) vs log(x): the empirical growth order."""
    pairs = [
        (math.log(x), math.log(y))
        for x, y in zip(xs, ys)
        if x > 0 and y > 0
    ]
    n = len(pairs)
    if n < 2:
        raise ValueError("need at least two positive points")
    mean_x = sum(p[0] for p in pairs) / n
    mean_y = sum(p[1] for p in pairs) / n
    num = sum((x - mean_x) * (y - mean_y) for x, y in pairs)
    den = sum((x - mean_x) ** 2 for x, _ in pairs)
    return num / den
