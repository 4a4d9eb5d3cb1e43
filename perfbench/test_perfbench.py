"""Tests of the benchmark itself: ``pytest perfbench -q`` (under 30 s).

They run the real command with ``--smoke`` inputs, so what they check is
what the driver sees: names, exit codes, the failure path, the tracer.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import compare  # noqa: E402
import spans  # noqa: E402
from run import load_contract  # noqa: E402

CONTRACT = load_contract()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args: str):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return done.returncode, lines, result


def printed_names(lines, workload: str):
    return [line.split()[1] for line in lines if line.startswith(workload + " ")]


def test_contract_names_and_whys():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    import workloads

    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] and len(w["why"]) <= 200 for w in CONTRACT["workloads"])
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert "setup_s" in [m["name"] for m in CONTRACT["end_to_end"]]


def test_every_workload_runs_clean_and_prints_the_contract_names():
    code, lines, result = run_bench("--seconds", "0.2")
    assert code == 0 and result["correct"] and result["failed"] == 0
    expected = [m["name"] for m in CONTRACT["end_to_end"]] + ["failed_ops_share"]
    for workload in (w["name"] for w in CONTRACT["workloads"]):
        assert printed_names(lines, workload) == expected
        assert all(
            result["metrics"][f"{workload}/{name}"]["value"] > 0
            for name in expected[:-1]
        )


def test_traced_run_prints_every_per_layer_name():
    code, lines, result = run_bench(
        "--workload", "beacon-n16", "--seconds", "0.4", "--trace", "1"
    )
    assert code == 0 and result["correct"]
    expected = [m["name"] for m in CONTRACT["per_layer"]]
    assert list(result["metrics"]) == expected
    assert printed_names(lines, "beacon-n16") == expected + ["failed_ops_share"]
    assert any("not collected" in line for line in lines)
    value = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert 0.5 < value["trace.coverage"] <= 1.0
    assert value["trace.simulator.calls"] > 0 and value["trace.wire.calls"] == 0
    assert value["simulator.rounds_per_op"] == 2


def test_injected_violation_is_counted_and_flips_the_exit_code():
    code, _, result = run_bench(
        "--workload", "campaign-n16", "--seconds", "0.2", "--inject-violation"
    )
    assert code == 1
    assert not result["correct"]
    assert result["failed"] >= 2 and result["failed"] <= result["attempted"]


def test_no_program_beside_the_benchmark_means_no_result(tmp_path):
    import shutil

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "beacon-n16",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout.strip()


def test_span_self_times_sum_to_at_most_the_wall():
    from repro import SimulationConfig, run_erng

    tracer = spans.Tracer(keep_spans=True)
    with tracer:
        start = perf_counter()
        run_erng(SimulationConfig(n=8, seed=1))
        wall = perf_counter() - start
    covered = sum(tracer.self_s.values())
    assert 0 < covered <= wall
    # Recomputed from the spans: duration minus direct children.
    children = {}
    for _, _, _, begin, end, parent, _ in tracer.spans:
        children[parent] = children.get(parent, 0.0) + (end - begin)
    recomputed = sum(
        (end - begin) - children.get(span_id, 0.0)
        for span_id, _, _, begin, end, _, _ in tracer.spans
    )
    assert abs(recomputed - covered) < 1e-6
    assert {span[2] for span in tracer.spans} >= {"simulator", "core"}


def test_wrappers_uninstall_cleanly():
    import repro.apps.beacon as beacon_module
    import repro.common.serialization as serialization
    from repro.channel.peer_channel import SecureChannel
    from repro.crypto.aead import AEAD

    watched = [
        (AEAD, "seal"), (SecureChannel, "establish"),
        (serialization, "encode"), (beacon_module, "encode"),
    ]
    before = [vars(owner)[attr] for owner, attr in watched]
    tracer = spans.Tracer()
    tracer.install()
    during = [vars(owner)[attr] for owner, attr in watched]
    tracer.uninstall()
    after = [vars(owner)[attr] for owner, attr in watched]
    assert all(d is not b for d, b in zip(during, before))
    assert isinstance(during[1], staticmethod)
    assert all(a is b for a, b in zip(after, before))
    assert beacon_module.encode is serialization.encode


def test_compare_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]

    def verdict(b, better="lower", bound=0.1):
        return compare.judge(steady, b, better, bound, 10)[0]

    assert verdict([x * 1.2 for x in steady]) == "regressed"
    assert verdict([x * 0.8 for x in steady]) == "improved"
    assert verdict([x * 1.2 for x in steady], better="higher") == "improved"
    assert verdict([x * 1.01 for x in steady]) == "unchanged"
    noisy = [70.0, 130.0, 90.0, 120.0, 80.0, 110.0, 100.0, 95.0, 125.0, 75.0]
    assert verdict(noisy) == "unresolved"
    assert verdict(steady[:1]) == "unresolved"
