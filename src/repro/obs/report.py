"""Render timing sidecars, timed traces and figure-sweep rows as reports.

``python -m repro report PATH`` accepts three inputs and renders each as
a CLI table plus (optionally) a self-contained HTML page:

* a ``--timing-out`` sidecar (``{"kind": "timing", ...}``, the
  :meth:`repro.obs.timing.TimingCollector.as_dict` payload) — phase
  breakdown, per-round detail and per-shard utilization;
* a ``--trace-out`` JSONL trace containing :class:`TimingEvent` records
  (a traced *and* timed run) — aggregated to the same shape;
* a ``benchmarks/results/*.json`` row dump (``{"rows": [...]}`` — the
  figure-sweep tables, e.g. the pb-ERB and optimized-ERNG scaling
  curves) — rendered as the aligned table EXPERIMENTS.md quotes.

Wall-clock comparisons between runs are not this module's job: a
``perfbench/run.py --out`` file is read by ``perfbench/compare.py``.

``timing_to_collapsed`` additionally exports the phase attribution in
collapsed-stack format (``frame;frame value`` per line, values in
microseconds), which speedscope and standard flamegraph tooling ingest
directly.
"""

from __future__ import annotations

import html as _html
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.timing import PHASE_BUCKETS


# ----------------------------------------------------------------------
# input detection / loading
# ----------------------------------------------------------------------

def load_payload(path) -> Tuple[str, Dict]:
    """Classify and load a report input.

    Returns ``("timing", payload)`` or ``("rows", payload)``; raises
    ``ValueError`` for anything else (the CLI maps that to exit code 2).
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except ValueError:
        data = None
    if isinstance(data, dict):
        if data.get("kind") == "timing":
            return "timing", data
        if isinstance(data.get("rows"), list) and data["rows"]:
            return "rows", data
        if isinstance(data.get("history"), list) or (
            "runs" in data and "stamp" in data
        ):
            raise ValueError(
                f"{path}: benchmark runs are not a report input; compare "
                "two `perfbench/run.py --out` files with perfbench/compare.py"
            )
        raise ValueError(
            f"{path}: JSON is neither a timing sidecar (kind='timing') "
            "nor a results row dump (has 'rows')"
        )
    timing = _timing_from_trace_lines(text.splitlines())
    if timing is not None:
        return "timing", timing
    raise ValueError(
        f"{path}: not a timing sidecar, a results row dump, or a JSONL "
        "trace containing timing events"
    )


def _timing_from_trace_lines(lines: List[str]) -> Optional[Dict]:
    """Aggregate a JSONL trace's timing/meta events into a sidecar-shaped
    payload, or None when the trace carries no timing."""
    rounds: List[dict] = []
    machine: Optional[dict] = None
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            return None
        if not isinstance(record, dict):
            return None
        kind = record.get("kind")
        if kind == "timing":
            rounds.append({
                "rnd": record.get("rnd", 0),
                "wall": float(record.get("wall", 0.0)),
                "buckets": dict(record.get("buckets", {})),
                "shards": list(record.get("shards", [])),
            })
        elif kind == "meta" and machine is None:
            machine = record.get("machine")
    if not rounds:
        return None
    totals: Dict[str, float] = {}
    for record in rounds:
        for bucket, seconds in record["buckets"].items():
            totals[bucket] = totals.get(bucket, 0.0) + seconds
    payload: Dict = {
        "kind": "timing",
        "engine": "",
        "wall_seconds": sum(r["wall"] for r in rounds),
        "bucket_order": list(PHASE_BUCKETS),
        "totals": totals,
        "rounds": rounds,
    }
    if machine is not None:
        payload["machine"] = machine
    return payload


# ----------------------------------------------------------------------
# shared formatting helpers
# ----------------------------------------------------------------------

def _ordered_buckets(payload: Dict) -> List[str]:
    order = list(payload.get("bucket_order") or PHASE_BUCKETS)
    extra = sorted(set(payload.get("totals", {})) - set(order))
    return order + extra

def _fmt_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f} s"
    return f"{seconds * 1e3:.2f} ms"


def _stamp_line(machine: Optional[Dict]) -> Optional[str]:
    if not machine:
        return None
    parts = [f"{key}={machine[key]}" for key in
             ("git_rev", "cpu_count", "workers") if key in machine]
    return "machine: " + ", ".join(parts) if parts else None


# ----------------------------------------------------------------------
# timing report
# ----------------------------------------------------------------------

def render_timing_report(payload: Dict) -> str:
    """The CLI view of one timing payload."""
    wall = float(payload.get("wall_seconds", 0.0))
    totals: Dict[str, float] = payload.get("totals", {})
    rounds: List[dict] = payload.get("rounds", [])
    bucket_sum = sum(totals.values())
    lines = [
        f"timing: engine={payload.get('engine') or '?'}  "
        f"wall={_fmt_seconds(wall)}  rounds={len(rounds)}  "
        f"attributed={bucket_sum / wall:.1%}" if wall > 0 else
        f"timing: engine={payload.get('engine') or '?'}  rounds={len(rounds)}",
    ]
    stamp = _stamp_line(payload.get("machine"))
    if stamp:
        lines.append(stamp)
    lines.append("")
    lines.append(f"{'phase':<12} {'seconds':>12} {'share':>7}  bar")
    denom = wall if wall > 0 else (bucket_sum or 1.0)
    for bucket in _ordered_buckets(payload):
        seconds = totals.get(bucket, 0.0)
        if seconds <= 0:
            continue
        share = seconds / denom
        bar = "#" * max(1, round(share * 40))
        lines.append(
            f"{bucket:<12} {_fmt_seconds(seconds):>12} {share:>7.1%}  {bar}"
        )

    shard_rounds = [r for r in rounds if r.get("shards")]
    if shard_rounds:
        lines.append("")
        lines.append("per-shard utilization (busy vs barrier wall):")
        agg: Dict[int, List[float]] = {}
        for record in shard_rounds:
            for shard in record["shards"]:
                entry = agg.setdefault(int(shard["shard"]), [0.0, 0.0])
                entry[0] += float(shard.get("busy", 0.0))
                entry[1] += float(shard.get("idle", 0.0))
        lines.append(
            f"{'shard':>5} {'busy':>12} {'idle':>12} {'util':>6}"
        )
        for shard_id in sorted(agg):
            busy, idle = agg[shard_id]
            denom_s = busy + idle
            util = busy / denom_s if denom_s > 0 else 0.0
            lines.append(
                f"{shard_id:>5} {_fmt_seconds(busy):>12} "
                f"{_fmt_seconds(idle):>12} {util:>6.1%}"
            )

    if rounds:
        lines.append("")
        lines.append("slowest rounds (top bucket in parentheses):")
        slowest = sorted(
            rounds, key=lambda r: r.get("wall", 0.0), reverse=True
        )[:5]
        for record in slowest:
            buckets = record.get("buckets", {})
            top = max(buckets, key=buckets.get) if buckets else "-"
            lines.append(
                f"  round {record.get('rnd', '?'):>4}: "
                f"{_fmt_seconds(record.get('wall', 0.0))} ({top})"
            )

    traffic = payload.get("traffic")
    if isinstance(traffic, dict):
        ratio = traffic.get("coalescing_ratio")
        extra = []
        if ratio:
            extra.append(f"coalescing {float(ratio):.1f}x")
        summary = traffic.get("summary")
        if summary:
            extra.append(str(summary))
        if extra:
            lines.append("")
            lines.append("traffic: " + "; ".join(extra))
    return "\n".join(lines)


def timing_to_collapsed(payload: Dict) -> str:
    """Collapsed-stack export (speedscope / flamegraph.pl input).

    One line per (round, bucket) with the coordinator's attribution, and
    one per (round, shard, bucket) with the worker-side breakdown,
    values in integer microseconds.
    """
    engine = payload.get("engine") or "run"
    out: List[str] = []

    def emit(frames: List[str], seconds: float) -> None:
        usec = round(float(seconds) * 1e6)
        if usec > 0:
            out.append(f"{';'.join(frames)} {usec}")

    rounds: List[dict] = payload.get("rounds", [])
    for record in rounds:
        rnd = f"round_{record.get('rnd', 0)}"
        for bucket, seconds in sorted(record.get("buckets", {}).items()):
            emit([engine, rnd, bucket], seconds)
        for shard in record.get("shards", []):
            sframe = f"shard_{shard.get('shard', 0)}"
            for bucket, seconds in sorted(shard.get("buckets", {}).items()):
                emit([engine, rnd, sframe, bucket], seconds)
            emit([engine, rnd, sframe, "idle"], shard.get("idle", 0.0))
    if not rounds:
        for bucket, seconds in sorted(payload.get("totals", {}).items()):
            emit([engine, bucket], seconds)
    return "\n".join(out) + ("\n" if out else "")


# ----------------------------------------------------------------------
# results-rows report (figure sweeps under benchmarks/results/)
# ----------------------------------------------------------------------

def _rows_and_headers(payload: Dict) -> Tuple[List[dict], List[str]]:
    rows = [r for r in payload.get("rows", []) if isinstance(r, dict)]
    headers: List[str] = []
    for row in rows:
        for key in row:
            if key not in headers:
                headers.append(key)
    return rows, headers


def _fmt_cell(value) -> str:
    if isinstance(value, dict):
        return json.dumps(value, sort_keys=True)
    if isinstance(value, float):
        return f"{value:,.3f}".rstrip("0").rstrip(".")
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)


def render_rows_report(payload: Dict, title: str = "results") -> str:
    """The CLI view of one figure-sweep results file: the sweep's rows
    as one aligned table (the same shape the benchmark prints with
    ``-s``, reproducible after the fact from the persisted file)."""
    rows, headers = _rows_and_headers(payload)
    cells = [[_fmt_cell(row.get(h, "-")) for h in headers] for row in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) if cells else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        f"results: {title}  ({len(rows)} rows, "
        f"scale={payload.get('scale', '?')})",
        "",
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
    ]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# HTML rendering (self-contained: inline CSS, no external assets)
# ----------------------------------------------------------------------

_HTML_HEAD = """<!doctype html>
<html><head><meta charset="utf-8"><title>{title}</title><style>
body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2rem auto;
       max-width: 64rem; color: #1a1a2e; }}
h1 {{ font-size: 1.4rem; }} h2 {{ font-size: 1.1rem; margin-top: 2rem; }}
table {{ border-collapse: collapse; width: 100%; }}
th, td {{ text-align: left; padding: .25rem .6rem;
          border-bottom: 1px solid #ddd; font-variant-numeric: tabular-nums; }}
th {{ border-bottom: 2px solid #888; }}
.bar {{ background: #4c72b0; height: .8rem; display: inline-block;
        border-radius: 2px; }}
.idle {{ background: #c44e52; }}
.muted {{ color: #777; }}
</style></head><body>
<h1>{title}</h1>
"""


def _esc(value) -> str:
    return _html.escape(str(value))


def render_html(kind: str, payload: Dict, title: str = "results") -> str:
    """Self-contained HTML report for either payload kind."""
    if kind == "timing":
        return _render_timing_html(payload)
    return _render_rows_html(payload, title)


def _render_rows_html(payload: Dict, title: str) -> str:
    rows, headers = _rows_and_headers(payload)
    parts = [_HTML_HEAD.format(title=f"Results — {_esc(title)}")]
    parts.append(
        f"<p class=muted>{len(rows)} rows · "
        f"scale {_esc(payload.get('scale', '?'))}</p><table><tr>"
    )
    parts.extend(f"<th>{_esc(h)}</th>" for h in headers)
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        parts.extend(
            f"<td>{_esc(_fmt_cell(row.get(h, '-')))}</td>" for h in headers
        )
        parts.append("</tr>")
    parts.append("</table></body></html>\n")
    return "".join(parts)


def _render_timing_html(payload: Dict) -> str:
    wall = float(payload.get("wall_seconds", 0.0))
    totals: Dict[str, float] = payload.get("totals", {})
    rounds: List[dict] = payload.get("rounds", [])
    bucket_sum = sum(totals.values())
    denom = wall if wall > 0 else (bucket_sum or 1.0)
    parts = [_HTML_HEAD.format(
        title=f"Timing report — {_esc(payload.get('engine') or 'run')}"
    )]
    stamp = _stamp_line(payload.get("machine"))
    meta = (
        f"wall {_esc(_fmt_seconds(wall))} · {len(rounds)} rounds · "
        f"{bucket_sum / denom:.1%} attributed"
    )
    if stamp:
        meta += f" · {_esc(stamp)}"
    parts.append(f"<p class=muted>{meta}</p>")

    parts.append("<h2>Phase breakdown</h2><table>"
                 "<tr><th>phase</th><th>seconds</th><th>share</th>"
                 "<th></th></tr>")
    for bucket in _ordered_buckets(payload):
        seconds = totals.get(bucket, 0.0)
        if seconds <= 0:
            continue
        share = seconds / denom
        parts.append(
            f"<tr><td>{_esc(bucket)}</td>"
            f"<td>{_esc(_fmt_seconds(seconds))}</td>"
            f"<td>{share:.1%}</td>"
            f"<td><span class=bar style='width:{share * 100:.1f}%'>"
            f"</span></td></tr>"
        )
    parts.append("</table>")

    shard_rounds = [r for r in rounds if r.get("shards")]
    if shard_rounds:
        agg: Dict[int, List[float]] = {}
        for record in shard_rounds:
            for shard in record["shards"]:
                entry = agg.setdefault(int(shard["shard"]), [0.0, 0.0])
                entry[0] += float(shard.get("busy", 0.0))
                entry[1] += float(shard.get("idle", 0.0))
        parts.append("<h2>Per-shard utilization</h2><table>"
                     "<tr><th>shard</th><th>busy</th><th>idle</th>"
                     "<th>utilization</th><th></th></tr>")
        for shard_id in sorted(agg):
            busy, idle = agg[shard_id]
            total = busy + idle
            util = busy / total if total > 0 else 0.0
            parts.append(
                f"<tr><td>{shard_id}</td>"
                f"<td>{_esc(_fmt_seconds(busy))}</td>"
                f"<td>{_esc(_fmt_seconds(idle))}</td>"
                f"<td>{util:.1%}</td>"
                f"<td><span class=bar style='width:{util * 60:.1f}%'></span>"
                f"<span class='bar idle' "
                f"style='width:{(1 - util) * 60:.1f}%'></span></td></tr>"
            )
        parts.append("</table>")

    if rounds:
        parts.append("<h2>Per-round wall</h2><table>"
                     "<tr><th>round</th><th>wall</th><th>top buckets</th>"
                     "</tr>")
        for record in rounds:
            buckets = record.get("buckets", {})
            top = sorted(buckets.items(), key=lambda kv: -kv[1])[:3]
            top_text = ", ".join(
                f"{name} {_fmt_seconds(seconds)}" for name, seconds in top
            )
            parts.append(
                f"<tr><td>{_esc(record.get('rnd', '?'))}</td>"
                f"<td>{_esc(_fmt_seconds(record.get('wall', 0.0)))}</td>"
                f"<td>{_esc(top_text)}</td></tr>"
            )
        parts.append("</table>")
    parts.append("</body></html>\n")
    return "".join(parts)


# ----------------------------------------------------------------------
# one-call entry point used by the CLI
# ----------------------------------------------------------------------

def render_report(path, html_out=None, flame_out=None) -> str:
    """Load ``path``, write optional HTML / collapsed-stack artifacts,
    and return the CLI table."""
    kind, payload = load_payload(path)
    title = Path(path).stem
    if html_out:
        with open(html_out, "w", encoding="utf-8") as fh:
            fh.write(render_html(kind, payload, title))
    if flame_out:
        if kind != "timing":
            raise ValueError("--flame requires a timing input")
        with open(flame_out, "w", encoding="utf-8") as fh:
            fh.write(timing_to_collapsed(payload))
    if kind == "timing":
        return render_timing_report(payload)
    return render_rows_report(payload, title)
