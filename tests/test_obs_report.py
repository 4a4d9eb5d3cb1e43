"""The report renderers: input detection, CLI tables, HTML, flame export.

``python -m repro report`` accepts three input shapes — a
``--timing-out`` sidecar, a JSONL trace containing timing events, and a
``benchmarks/results`` rows file — and every rendered artifact must be
self-contained (no external assets) and faithful to the payload.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro import SimulationConfig, run_erb
from repro.obs.report import (
    load_payload,
    render_html,
    render_report,
    render_timing_report,
    timing_to_collapsed,
)
from repro.obs.timing import TimingCollector

#: A checked-in figure-sweep rows file (the non-timing report input).
ROWS_FILE = (
    Path(__file__).parent.parent
    / "benchmarks" / "results" / "pb_erb_scaling.json"
)

#: A tiny hand-written timing payload with a parallel-style shard record
#: (values chosen so shares are easy to eyeball in failures).
TIMING_PAYLOAD = {
    "kind": "timing",
    "engine": "parallel",
    "wall_seconds": 1.0,
    "bucket_order": ["seal", "barrier", "merge", "other"],
    "totals": {"seal": 0.2, "barrier": 0.5, "merge": 0.2, "other": 0.1},
    "machine": {"git_rev": "abc1234", "cpu_count": 4, "workers": 2},
    "rounds": [
        {
            "rnd": 1,
            "wall": 1.0,
            "buckets": {"seal": 0.2, "barrier": 0.5, "merge": 0.2,
                        "other": 0.1},
            "shards": [
                {"shard": 0, "busy": 0.4, "idle": 0.1,
                 "buckets": {"seal": 0.3, "other": 0.1}},
                {"shard": 1, "busy": 0.3, "idle": 0.2,
                 "buckets": {"seal": 0.3}},
            ],
        }
    ],
    "traffic": {"summary": "8064 msgs / 0.750 MB"},
}


class TestLoadPayload:
    def test_detects_timing_sidecar(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(TIMING_PAYLOAD))
        kind, payload = load_payload(path)
        assert kind == "timing"
        assert payload["engine"] == "parallel"

    @pytest.mark.parametrize("payload", [
        {"benchmark": "engine_throughput", "history": [{"cases": {}}]},
        {"stamp": {"cpu_count": 2}, "runs": [{"workload": "cli-cold"}]},
    ], ids=["bench-history", "perfbench-out"])
    def test_benchmark_runs_point_at_compare(self, tmp_path, payload):
        path = tmp_path / "runs.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="perfbench/compare.py"):
            load_payload(path)

    def test_aggregates_timing_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        lines = [
            {"kind": "meta",
             "machine": {"git_rev": "abc", "cpu_count": 2, "workers": 1},
             "rnd": 0},
            {"kind": "phase", "rnd": 1, "phase": "begin", "count": 1},
            {"kind": "timing", "rnd": 1, "wall": 0.5,
             "buckets": {"seal": 0.3, "other": 0.2}, "shards": []},
            {"kind": "timing", "rnd": 2, "wall": 0.25,
             "buckets": {"seal": 0.25}, "shards": []},
        ]
        path.write_text("\n".join(json.dumps(x) for x in lines) + "\n")
        kind, payload = load_payload(path)
        assert kind == "timing"
        assert payload["wall_seconds"] == pytest.approx(0.75)
        assert payload["totals"]["seal"] == pytest.approx(0.55)
        assert payload["machine"]["git_rev"] == "abc"
        assert len(payload["rounds"]) == 2

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("hello\nworld\n")
        with pytest.raises(ValueError):
            load_payload(path)

    def test_rejects_trace_without_timing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"kind": "phase", "rnd": 1, "phase": "begin",
                        "count": 0}) + "\n"
        )
        with pytest.raises(ValueError):
            load_payload(path)


class TestTimingTable:
    def test_renders_phases_shards_and_stamp(self):
        text = render_timing_report(TIMING_PAYLOAD)
        assert "engine=parallel" in text
        assert "git_rev=abc1234" in text
        assert "barrier" in text and "50.0%" in text
        # shard utilization: busy/(busy+idle) = 0.4/0.5 and 0.3/0.5
        assert "80.0%" in text
        assert "60.0%" in text
        assert "traffic" in text

    def test_renders_real_run(self):
        timing = TimingCollector()
        config = SimulationConfig(n=16, seed=1, timing=timing)
        run_erb(config, initiator=0, message=b"report")
        text = render_timing_report(timing.as_dict())
        assert "engine=envelope" in text
        assert "attributed" in text
        assert "slowest rounds" in text


class TestHtml:
    @pytest.mark.parametrize("kind,payload_path", [
        ("timing", None),
        ("rows", ROWS_FILE),
    ])
    def test_html_is_self_contained(self, kind, payload_path):
        if payload_path is None:
            payload = TIMING_PAYLOAD
        else:
            with open(payload_path) as fh:
                payload = json.load(fh)
        html = render_html(kind, payload)
        assert html.startswith("<!doctype html>")
        # self-contained: no external scripts, stylesheets, or fetches
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert 'rel="stylesheet"' not in html

    def test_timing_html_contents(self):
        html = render_html("timing", TIMING_PAYLOAD)
        assert "Phase breakdown" in html
        assert "Per-shard utilization" in html
        assert "abc1234" in html


class TestCollapsedStacks:
    def test_format_and_values(self):
        text = timing_to_collapsed(TIMING_PAYLOAD)
        lines = text.strip().splitlines()
        # strict collapsed-stack grammar: frames;separated;by;semicolons
        # then a space and an integer microsecond count
        for line in lines:
            assert re.fullmatch(r"[\w;]+ \d+", line), line
        assert "parallel;round_1;barrier 500000" in lines
        assert "parallel;round_1;shard_0;seal 300000" in lines
        assert "parallel;round_1;shard_1;idle 200000" in lines

    def test_zero_buckets_are_dropped(self):
        payload = {
            "kind": "timing", "engine": "e", "wall_seconds": 1.0,
            "totals": {}, "rounds": [
                {"rnd": 1, "wall": 0.0,
                 "buckets": {"seal": 0.0}, "shards": []}
            ],
        }
        assert timing_to_collapsed(payload) == ""


class TestRenderReport:
    def test_writes_html_and_flame(self, tmp_path):
        sidecar = tmp_path / "t.json"
        sidecar.write_text(json.dumps(TIMING_PAYLOAD))
        html_out = tmp_path / "r.html"
        flame_out = tmp_path / "f.txt"
        text = render_report(sidecar, html_out=html_out, flame_out=flame_out)
        assert "engine=parallel" in text
        assert html_out.read_text().startswith("<!doctype html>")
        assert "barrier 500000" in flame_out.read_text()

    def test_flame_on_bench_input_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="flame"):
            render_report(ROWS_FILE, flame_out=tmp_path / "f.txt")
