"""CLI observability flags end-to-end: --trace-out, inspect, --verbose."""

from __future__ import annotations

import json
import logging

from repro.cli import main
from repro.obs import charged_bytes_by_round, read_trace


class TestTraceOut:
    def test_erb_trace_out_then_inspect(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        assert main(
            [
                "erb", "--n", "16", "--initiator", "0",
                "--message", "hello", "--trace-out", trace_path,
            ]
        ) == 0
        run_output = capsys.readouterr()
        assert "ERB broadcast over N=16" in run_output.out
        assert f"trace written to {trace_path}" in run_output.err

        events = read_trace(trace_path)
        assert events, "trace file is empty"
        # Per-round byte totals in the trace match the printed traffic line
        # (total bytes across rounds == the run's bytes_sent).
        per_round = charged_bytes_by_round(events)
        assert per_round and all(v > 0 for v in per_round.values())

        assert main(["inspect", trace_path]) == 0
        timeline = capsys.readouterr().out
        assert "round(s)" in timeline
        assert "begin→transmit→deliver→ack_wave→halt_check→end" in timeline
        assert "!!" not in timeline

    def test_trace_is_valid_jsonl(self, tmp_path):
        trace_path = str(tmp_path / "t.jsonl")
        main(["erb", "--n", "8", "--message", "x", "--trace-out", trace_path])
        with open(trace_path) as fh:
            kinds = {json.loads(line)["kind"] for line in fh}
        assert {"phase", "wire", "round", "decision"} <= kinds

    def test_churn_trace_includes_churn_events(self, tmp_path):
        trace_path = str(tmp_path / "c.jsonl")
        assert main(
            [
                "churn", "--n", "9", "--byzantine", "1", "--p", "1.0",
                "--instances", "2", "--trace-out", trace_path,
            ]
        ) == 0
        kinds = {e.kind for e in read_trace(trace_path)}
        assert "churn" in kinds

    def test_no_trace_by_default(self, tmp_path, capsys):
        assert main(["erb", "--n", "8", "--message", "x"]) == 0
        assert "trace written" not in capsys.readouterr().err


class TestVerbose:
    def test_verbose_raises_logger_level(self):
        logger = logging.getLogger("repro")
        previous = logger.level
        try:
            main(["erb", "--n", "8", "--message", "x", "-v"])
            assert logging.getLogger("repro").getEffectiveLevel() <= logging.INFO
            main(["erb", "--n", "8", "--message", "x", "-vv"])
            assert logging.getLogger("repro").getEffectiveLevel() <= logging.DEBUG
        finally:
            logger.setLevel(previous)
            logger.handlers.clear()

    def test_protocol_decisions_logged(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.protocol"):
            main(["erb", "--n", "8", "--message", "x"])
        accepted = [r for r in caplog.records if "accepted" in r.getMessage()]
        assert accepted, "expected accept lines on repro.protocol"


class TestTimingOut:
    def test_erb_timing_out_sidecar(self, tmp_path, capsys):
        sidecar = str(tmp_path / "tm.json")
        assert main(
            ["erb", "--n", "16", "--message", "x", "--timing-out", sidecar]
        ) == 0
        err = capsys.readouterr().err
        assert "timing written to" in err
        assert "attributed" in err
        with open(sidecar) as fh:
            payload = json.load(fh)
        assert payload["kind"] == "timing"
        assert payload["engine"] == "envelope"
        assert payload["machine"]["workers"] == 1
        assert payload["machine"]["cpu_count"] is not None
        assert "git_rev" in payload["machine"]
        assert payload["rounds"]
        assert sum(payload["totals"].values()) > 0

    def test_run_without_sidecars_builds_no_stamp(self, monkeypatch, capsys):
        """``machine_stamp()`` forks ``git``; a run that writes no file
        the stamp would go into must not pay for one."""

        def forbidden(**kwargs):
            raise AssertionError("machine_stamp() called for a plain run")

        monkeypatch.setattr("repro.cli.machine_stamp", forbidden)
        assert main(["erb", "--n", "4", "--message", "x"]) == 0
        assert "accepted value(s)" in capsys.readouterr().out

    def test_metrics_out_sidecar_is_stamped(self, tmp_path, capsys):
        sidecar = str(tmp_path / "mx.json")
        assert main(
            ["erb", "--n", "8", "--message", "x", "--metrics-out", sidecar]
        ) == 0
        assert "metrics written to" in capsys.readouterr().err
        with open(sidecar) as fh:
            payload = json.load(fh)
        assert "machine" in payload
        assert payload["machine"]["cpu_count"] is not None
        # the run's stats were published into the profiler registry
        assert payload["metrics"]["counters"]["run.rounds"] >= 1
        # and the CLI turned the profiler back off afterwards
        from repro.obs import PROFILER
        assert PROFILER.enabled is False

    def test_traced_and_timed_run_emits_timing_events(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        sidecar = str(tmp_path / "tm.json")
        assert main(
            [
                "erb", "--n", "16", "--message", "x",
                "--trace-out", trace_path, "--timing-out", sidecar,
            ]
        ) == 0
        capsys.readouterr()
        with open(trace_path) as fh:
            records = [json.loads(line) for line in fh]
        assert records[0]["kind"] == "meta"
        assert records[0]["machine"]["cpu_count"] is not None
        assert any(r["kind"] == "timing" for r in records)
        # inspect summarizes the timing events instead of failing on them
        assert main(["inspect", trace_path]) == 0
        timeline = capsys.readouterr().out
        assert "machine:" in timeline
        assert "timing (top buckets per round" in timeline
        # the trace names the back-end that ran its rounds
        assert main(["report", trace_path]) == 0
        assert "timing: engine=envelope" in capsys.readouterr().out

    def test_beacon_honours_observability_flags(self, tmp_path, capsys):
        """The beacon service threads --timing-out through its engine
        session: one collector spans every epoch's run."""
        sidecar = tmp_path / "t.json"
        assert main(
            [
                "beacon", "--n", "9", "--epochs", "2",
                "--timing-out", str(sidecar),
            ]
        ) == 0
        err = capsys.readouterr().err
        assert "not supported" not in err
        assert f"timing written to {sidecar}" in err
        payload = json.loads(sidecar.read_text())
        assert payload["rounds"]


class TestReportCommand:
    def test_report_on_timing_sidecar(self, tmp_path, capsys):
        sidecar = str(tmp_path / "tm.json")
        main(["erb", "--n", "16", "--message", "x", "--timing-out", sidecar])
        capsys.readouterr()
        html_out = str(tmp_path / "r.html")
        flame_out = str(tmp_path / "f.txt")
        assert main(
            ["report", sidecar, "--html", html_out, "--flame", flame_out]
        ) == 0
        out = capsys.readouterr().out
        assert "engine=envelope" in out
        assert "phase" in out
        with open(html_out) as fh:
            assert fh.read().startswith("<!doctype html>")
        with open(flame_out) as fh:
            assert ";" in fh.read()

    def test_report_on_garbage_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nope")
        assert main(["report", str(bad)]) == 2
        assert "error" in capsys.readouterr().err
