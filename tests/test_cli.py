"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_erb_defaults(self):
        args = build_parser().parse_args(["erb"])
        assert args.n == 16 and args.initiator == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_erb(self, capsys):
        assert main(["erb", "--n", "8", "--message", "cli"]) == 0
        out = capsys.readouterr().out
        assert "b'cli'" in out
        assert "rounds:            2" in out

    def test_erb_chain(self, capsys):
        assert main(["erb", "--n", "16", "--t", "7", "--chain", "3"]) == 0
        out = capsys.readouterr().out
        assert "rounds:            5" in out  # f+2
        assert "[0, 1, 2]" in out

    def test_erng(self, capsys):
        assert main(["erng", "--n", "6"]) == 0
        assert "ERNG" in capsys.readouterr().out

    def test_erng_opt_fixed(self, capsys):
        assert main(
            ["erng-opt", "--n", "24", "--mode", "fixed_fraction"]
        ) == 0
        assert "optimized ERNG" in capsys.readouterr().out

    def test_agreement(self, capsys):
        assert main(["agreement", "--n", "5", "--inputs", "A,B,A,A,B"]) == 0
        assert "'A'" in capsys.readouterr().out

    def test_agreement_bad_input_count(self, capsys):
        assert main(["agreement", "--n", "5", "--inputs", "A,B"]) == 2
        assert "expected 5" in capsys.readouterr().err

    def test_beacon(self, capsys):
        assert main(["beacon", "--n", "5", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "epoch 0" in out and "epoch 1" in out
        assert "chain verifies: True" in out

    def test_beacon_optimized(self, capsys):
        """``--optimized`` runs the cluster-sampled ERNG each epoch (at
        t = N // 3) and prints the library's chain."""
        from repro.apps.beacon import RandomBeacon

        assert main(["beacon", "--n", "9", "--epochs", "2", "--optimized"]) == 0
        out = capsys.readouterr().out
        beacon = RandomBeacon(n=9, t=3, optimized=True)
        for record in (beacon.next_beacon(), beacon.next_beacon()):
            assert f"epoch {record.epoch}: {record.value:#034x}" in out
        assert "chain verifies: True" in out

    def test_churn(self, capsys):
        assert main(
            ["churn", "--n", "9", "--byzantine", "1,2", "--p", "1.0",
             "--instances", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "live byzantine per instance: [0, 0]" in out

    @pytest.mark.parametrize("text", [
        "not json", '{"n": 3}', '{"node_id": 0, "n": "three"}',
        '{"node_id": 0, "n": 3, "protocol": "zab"}',
    ])
    def test_node_rejects_a_bad_config_file(self, tmp_path, text):
        path = tmp_path / "node.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SystemExit, match="bad node config"):
            main(["node", "--config", str(path)])
