"""Bench-history regression gate.

``BENCH_engine.json`` accumulates one history entry per benchmark run
(:mod:`benchmarks.test_engine_throughput`).  This module compares the
newest entry against the best *comparable* prior entry and fails loudly
on a real regression:

* two entries are comparable only when both carry a machine stamp
  (:mod:`repro.obs.machine`) and agree on ``cpu_count``, ``workers``,
  ``scale`` and the parallel engine's ``data_plane`` — numbers measured
  on different hardware, sweep sizes or coordinator transports are
  anecdotes, not evidence, and are never compared;
* a case regresses when its newest ``messages_per_sec`` falls more than
  ``threshold`` (default 15%) below the best comparable prior run of the
  same case;
* ``parallel_speedup_vs_serial`` additionally has a ratchet floor: it
  must not drop below the minimum any comparable prior entry recorded.

Exit-code contract (enforced by ``tools/bench_check.py`` and CI):
``0`` pass, ``1`` regression, ``2`` structurally unusable history.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Default allowed throughput drop vs the best comparable prior entry.
DEFAULT_THRESHOLD = 0.15

#: Stamp keys two entries must agree on to be comparable.  ``git_rev``
#: is provenance, not a comparability axis — revisions are exactly what
#: the gate compares across.
_STAMP_KEYS = ("cpu_count", "workers", "scale")


def entries_comparable(newest: Dict, prior: Dict) -> bool:
    """Whether ``prior``'s numbers are evidence about ``newest``'s.

    The engine data plane (``shm`` vs ``pickle``) is a comparability
    axis too: parallel throughput through shared-memory rings and
    through pickle pipes are different quantities, so a v2 entry never
    regress-compares against a v1 stamp.  Entries written while the
    engine still had a ``dense`` and a ``sparse`` round scheduler carry a
    ``scheduler`` stamp; it remains an axis so the gate never compares
    those across modes (nothing emits it any more, and an entry without
    one compares only with others without one).  Unlike the machine-shape
    keys both fields may legitimately be absent (entries predating them,
    serial runs) — two entries without them remain comparable.

    ``suite`` is the benchmark-family axis: the beacon sustained-load
    rows (``suite="beacon"``) measure epochs of a chained service, not
    the raw engine sweeps the unsuffixed entries measure, so the gate
    never cross-compares them.  ``transport`` separates real-network
    entries (``transport="tcp"`` from the loopback wire suite) from
    simulated ones, which carry no transport field: socket wall clock
    and simulated wall clock are different quantities.  Like
    ``data_plane``/``scheduler`` both are absent-tolerant — entries
    predating the fields stay comparable with each other.
    """
    for key in _STAMP_KEYS:
        a, b = newest.get(key), prior.get(key)
        if a is None or b is None or a != b:
            return False
    if newest.get("data_plane") != prior.get("data_plane"):
        return False
    if newest.get("suite") != prior.get("suite"):
        return False
    if newest.get("transport") != prior.get("transport"):
        return False
    return newest.get("scheduler") == prior.get("scheduler")


@dataclass
class CaseDelta:
    """One benchmark case's newest-vs-best-prior comparison."""

    case: str
    newest: float
    best_prior: float
    ratio: float  # newest / best_prior
    regressed: bool


@dataclass
class GateResult:
    """Outcome of one gate evaluation (see :func:`check_history`)."""

    ok: bool
    exit_code: int  # 0 pass, 1 regression, 2 structural
    lines: List[str] = field(default_factory=list)
    deltas: List[CaseDelta] = field(default_factory=list)
    compared_entries: int = 0

    def report(self) -> str:
        return "\n".join(self.lines)


def _structural(message: str) -> GateResult:
    return GateResult(ok=False, exit_code=2, lines=[f"bench gate: {message}"])


def check_history(
    data: Dict, threshold: float = DEFAULT_THRESHOLD
) -> GateResult:
    """Gate the newest history entry of one ``BENCH_*.json`` payload."""
    history = data.get("history")
    if not isinstance(history, list) or not history:
        return _structural("no history entries to compare")
    newest = history[-1]
    cases = newest.get("cases")
    if not isinstance(cases, dict) or not cases:
        return _structural("newest history entry has no cases")

    priors = [
        entry for entry in history[:-1]
        if isinstance(entry.get("cases"), dict)
        and entries_comparable(newest, entry)
    ]
    stamp_keys = ("git_rev",) + _STAMP_KEYS
    if newest.get("data_plane") is not None:
        stamp_keys += ("data_plane",)
    if newest.get("scheduler") is not None:
        stamp_keys += ("scheduler",)
    if newest.get("suite") is not None:
        stamp_keys += ("suite",)
    stamp = ", ".join(f"{key}={newest.get(key)}" for key in stamp_keys)
    lines = [
        f"bench gate: newest entry {newest.get('timestamp', '?')} ({stamp})",
        f"bench gate: {len(priors)} comparable prior entr"
        f"{'y' if len(priors) == 1 else 'ies'} "
        f"of {len(history) - 1} (threshold {threshold:.0%})",
    ]
    if not priors:
        lines.append(
            "bench gate: PASS — nothing comparable to regress against "
            "(first stamped run on this machine/scale)"
        )
        return GateResult(ok=True, exit_code=0, lines=lines)

    deltas: List[CaseDelta] = []
    regressed = False
    for case in sorted(cases):
        newest_rate = _rate(cases[case])
        if newest_rate is None:
            continue
        best_prior: Optional[float] = None
        for entry in priors:
            prior_rate = _rate(entry["cases"].get(case))
            if prior_rate is not None:
                best_prior = (
                    prior_rate if best_prior is None
                    else max(best_prior, prior_rate)
                )
        if best_prior is None or best_prior <= 0:
            lines.append(f"  {case:<24} {newest_rate:>12,.0f} msg/s  (new case)")
            continue
        ratio = newest_rate / best_prior
        bad = ratio < 1.0 - threshold
        regressed = regressed or bad
        deltas.append(CaseDelta(
            case=case,
            newest=newest_rate,
            best_prior=best_prior,
            ratio=ratio,
            regressed=bad,
        ))
        marker = "REGRESSED" if bad else "ok"
        lines.append(
            f"  {case:<24} {newest_rate:>12,.0f} msg/s  vs best "
            f"{best_prior:>12,.0f}  ({ratio - 1.0:+.1%})  {marker}"
        )

    floor_ok, floor_lines = _check_speedup_floor(newest, priors)
    lines.extend(floor_lines)
    regressed = regressed or not floor_ok

    if regressed:
        lines.append(
            "bench gate: FAIL — throughput regressed beyond the threshold "
            "(rerun to rule out noise, or investigate the newest change)"
        )
        return GateResult(
            ok=False, exit_code=1, lines=lines, deltas=deltas,
            compared_entries=len(priors),
        )
    lines.append("bench gate: PASS")
    return GateResult(
        ok=True, exit_code=0, lines=lines, deltas=deltas,
        compared_entries=len(priors),
    )


def _rate(case: Optional[Dict]) -> Optional[float]:
    if not isinstance(case, dict):
        return None
    rate = case.get("messages_per_sec")
    try:
        return float(rate)
    except (TypeError, ValueError):
        return None


def _check_speedup_floor(newest: Dict, priors: List[Dict]):
    """The parallel-speedup ratchet: never drop below the comparable
    floor.  Throughput noise hides inside the 15% band; a speedup ratio
    collapse (e.g. a new serial section in the coordinator) usually does
    not, so it gets an absolute floor instead of a percentage."""
    key = "parallel_speedup_vs_serial"
    newest_value = newest.get(key)
    if newest_value is None:
        return True, []
    prior_values = [
        entry[key] for entry in priors if entry.get(key) is not None
    ]
    if not prior_values:
        return True, [f"  {key:<24} {newest_value:.3f}  (no prior floor)"]
    floor = min(prior_values)
    ok = float(newest_value) >= float(floor)
    marker = "ok" if ok else "REGRESSED"
    return ok, [
        f"  {key:<24} {float(newest_value):.3f}  vs floor "
        f"{float(floor):.3f}  {marker}"
    ]


def check_file(path, threshold: float = DEFAULT_THRESHOLD) -> GateResult:
    """Load a ``BENCH_*.json`` file and gate its newest entry."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return _structural(f"cannot read {path}: {exc}")
    except ValueError as exc:
        return _structural(f"{path} is not JSON: {exc}")
    if not isinstance(data, dict):
        return _structural(f"{path} is not a benchmark history object")
    return check_history(data, threshold)
