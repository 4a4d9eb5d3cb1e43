"""perfbench: the one benchmark every speed claim in this repo is measured with.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--workload NAME]... [--traced] [--out FILE]
    python3 perfbench/run.py --selfcheck [--runs K]

With ``--trace 0`` a run measures the end-to-end metrics of one workload,
tracing off; with ``--trace 1`` (``--traced``) it reports the per-layer
metrics instead: counts from the workload's result objects, the direct
layer drivers (``layers.py``) and the traced pass (``spans.py``).  Every
metric is printed by name with its unit, and the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is non-zero when any correctness check fails.  Names, units
and bounds come from ``BENCHMARK.json``; this file only computes values.

Each measurement runs in its own child process (``worker.py``), so a
traced pass cannot touch the untraced numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Set-up is sampled in fresh processes until three samples are in or
#: they have cost this many seconds (FULL-security set-up takes seven).
SETUP_SAMPLES = 3
SETUP_BUDGET_S = 4.0
#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def child(script: str, *args: str):
    """Start one of the benchmark's own scripts as a child process, with
    this checkout's ``src`` first on its path.  The string-hash seed is
    pinned: left random it moves every dict and set layout, and with
    them the timings, from one process to the next."""
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, script), *args],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0",
                 PYTHONPATH=os.path.join(ROOT, "src")),
    )


def run_worker(workload: str, seed: int, seconds: float, *flags: str):
    """One workload process.  Returns ``(setup_s, done)``: the wall time
    from process start to its ``ready`` line, and its ``done`` record."""
    start = perf_counter()
    proc = child(
        "worker.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), *flags,
    )
    setup_s = done = None
    try:
        for line in proc.stdout:
            if not line.startswith("{"):
                continue
            record = json.loads(line)
            if record["event"] == "ready":
                setup_s = perf_counter() - start
            elif record["event"] == "done":
                done = record
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or setup_s is None or done is None:
        raise BenchError(
            f"worker for {workload} ended with code {proc.returncode} "
            "and no result"
        )
    return setup_s, done


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def verdict(done: dict, extra_ok: bool = True) -> dict:
    """``correct/attempted/failed``: the timed ops plus the two untimed
    checks (warm-up op, end-of-run reference check)."""
    checks = [done["setup_ok"], done["finish_ok"], extra_ok]
    failed = done["failed"] + sum(1 for ok in checks if not ok)
    return {
        "correct": failed == 0 and done["ops"] > 0,
        "attempted": max(1, done["ops"] + len(checks)),
        "failed": failed,
    }


def measure(workload: str, seed: int, seconds: float, flags=()) -> dict:
    """The end-to-end metrics of one workload, tracing off."""
    setup_s, done = run_worker(workload, seed, seconds, *flags)
    setups, probes_ok = [setup_s], True
    while (
        "--smoke" not in flags
        and len(setups) < SETUP_SAMPLES
        and sum(setups) + setups[-1] <= SETUP_BUDGET_S
    ):
        setup_s, probe = run_worker(workload, seed, 0, *flags)
        setups.append(setup_s)
        probes_ok = probes_ok and probe["setup_ok"] and probe["finish_ok"]
    result = verdict(done, probes_ok)
    result["retries"] = done["retries"]
    if done["ops"]:
        latencies = done["latencies_ms"]
        slices = [
            (ops - ops0, latencies[n0:n], wall - wall0, cpu - cpu0)
            for (ops0, n0, wall0, cpu0), (ops, n, wall, cpu)
            in zip(done["marks"], done["marks"][1:])
        ]
        result["samples"] = len(latencies)
        # Each timing is taken from the quietest slice of the run: what
        # the program costs when the machine is not busy elsewhere.
        result["metrics"] = {
            "setup_s": statistics.median(setups),
            "ops_per_s": max(n / wall for n, _, wall, _ in slices),
            "op_ms_p50": min(statistics.median(lat) for _, lat, _, _ in slices),
            "cpu_ms_per_op": min(1000.0 * cpu / n for n, _, _, cpu in slices),
            "peak_rss_mb": done["peak_rss_mb"],
        }
    return result


def trace(workload: str, seed: int, seconds: float, flags=(), out=None) -> dict:
    """The per-layer metrics of one workload: an untraced reference pass
    and a traced pass of half the run each, then the direct drivers."""
    _, plain = run_worker(workload, seed, seconds / 2, *flags)
    traced_flags = ["--traced", *flags]
    if out:
        traced_flags += ["--spans-out", f"{out}.{workload}.spans.jsonl"]
    _, traced = run_worker(workload, seed, seconds / 2, *traced_flags)
    proc = child("layers.py", *(f for f in flags if f == "--smoke"))
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"layer drivers ended with code {proc.returncode}")
    metrics = json.loads(stdout.strip().splitlines()[-1])

    # Counts of the first timed op: exact at a given seed, whatever the
    # number of ops the run had time for.  A layer the op never entered
    # counts zero.
    for name in (m["name"] for m in load_contract()["per_layer"]):
        if name.endswith("_per_op") or name == "parallel.shm_plane":
            metrics.setdefault(name, float(plain["counts"].get(name, 0.0)))
    retries = plain["retries"] + traced["retries"]
    metrics["parallel.op_retries"] = float(retries)
    # The tail is reported here, unbounded: run to run it moved by more
    # than any bound allows (see README.md, Steadiness).  Only a run with
    # 200 samples leaves ten beyond its 95th percentile.
    metrics["e2e.op_ms_p95"] = (
        percentile(plain["latencies_ms"], 95)
        if len(plain["latencies_ms"]) >= 200 else 0.0
    )

    wall = traced["loop_wall_s"]
    for layer in spans.LAYERS:
        self_s, calls = traced["op_trace"][layer]
        metrics[f"trace.{layer}.self_s"] = self_s
        metrics[f"trace.{layer}.calls"] = float(calls)
        metrics[f"trace.{layer}.share"] = self_s / wall
        metrics[f"trace.{layer}.setup_self_s"] = traced["setup_trace"][layer][0]
    metrics["trace.coverage"] = (
        sum(self_s for self_s, _ in traced["op_trace"].values()) / wall
    )
    result = verdict(plain, traced["failed"] == 0 and traced["finish_ok"])
    result["retries"] = retries
    if plain["ops"] and traced["ops"]:
        metrics["trace.overhead_x"] = statistics.median(
            traced["latencies_ms"]
        ) / statistics.median(plain["latencies_ms"])
        result["samples"] = len(traced["latencies_ms"])
        result["metrics"] = metrics
    return result


def run_one(contract: dict, workload: str, seed: int, seconds: float,
            traced: bool, flags=(), out=None) -> dict:
    """Measure, check the metric names against the contract, print."""
    result = (
        trace(workload, seed, seconds, flags, out) if traced
        else measure(workload, seed, seconds, flags)
    )
    specs = contract["per_layer" if traced else "end_to_end"]
    metrics = result.pop("metrics", None)
    if metrics is None:
        raise BenchError(f"{workload}: no op completed, nothing to report")
    if set(metrics) != {spec["name"] for spec in specs}:
        raise BenchError(
            f"{workload}: metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {spec['name'] for spec in specs})}"
        )
    print(f"== {workload}  seed={seed}  seconds={seconds:g}  "
          f"{'traced' if traced else 'untraced'}  "
          f"latency samples={result.pop('samples')}")
    if traced:
        print("   (spans of forked shard workers and of CLI child "
              "processes are not collected)")
    for spec in specs:
        print(f"{workload:18s} {spec['name']:34s} "
              f"{metrics[spec['name']]:16.6f} {spec['unit']}")
    retries = result.pop("retries")
    if retries:
        print(f"{workload}: {retries} op(s) repeated after the engine broke "
              "(see README.md, Steadiness)")
    share = result["failed"] / result["attempted"]
    print(f"{workload:18s} {'failed_ops_share':34s} {share:16.6f} ratio "
          f"({result['failed']} of {result['attempted']})")
    result["metrics"] = {
        spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
        for spec in specs
    }
    return result


def stamp() -> dict:
    """Where and on what these numbers were taken."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"        # a bare checkout, as the driver makes
    return {
        "git_rev": rev,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def append_runs(path: str, runs: list) -> None:
    """Add runs to a results file that ``compare.py`` reads."""
    data = {"stamp": stamp(), "runs": []}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            data["runs"] = json.load(handle)["runs"]
    data["runs"] += runs
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(contract: dict, seed: int, runs: int) -> bool:
    """Two sets of ``runs`` runs per workload on the same code.  Every
    end-to-end metric must hold its bound twice over: the spread inside
    each set (``setup_s`` excepted, as the driver does) and the shift of
    the median between the sets.  The observed values go to
    ``perfbench/baseline.json``."""
    seconds = contract["run_seconds"]
    report, holds = {}, True
    for workload in (w["name"] for w in contract["workloads"]):
        sets = []
        for _ in range(2):
            results = [
                run_one(contract, workload, seed + j, seconds, False)
                for j in range(runs)
            ]
            holds = holds and all(r["correct"] for r in results)
            sets.append(results)
        report[workload] = {}
        for spec in contract["end_to_end"]:
            name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
            first, second = (
                [r["metrics"][name]["value"] for r in results] for results in sets
            )
            shift = sign * (statistics.median(second) / statistics.median(first) - 1)
            row = {
                "unit": spec["unit"],
                "bound": spec["bound"],
                "median_1": statistics.median(first),
                "median_2": statistics.median(second),
                "spread_1": spread(first),
                "spread_2": spread(second),
                "worsened_by": shift,
            }
            row["holds"] = shift <= spec["bound"] and (
                name == "setup_s"
                or max(row["spread_1"], row["spread_2"]) <= spec["bound"]
            )
            holds = holds and row["holds"]
            report[workload][name] = row
            print(f"selfcheck {workload:18s} {name:14s} "
                  f"spread {row['spread_1']:.4f} / {row['spread_2']:.4f}  "
                  f"worsened by {shift:+.4f} of {row['median_1']:.6g} {spec['unit']}  "
                  f"bound {spec['bound']}  {'ok' if row['holds'] else 'FAILS'}")
    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as out:
        json.dump(
            {"stamp": stamp(), "run_seconds": seconds, "runs_per_set": runs,
             "seed": seed, "workloads": report},
            out, indent=1,
        )
    return holds


def main() -> int:
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all seven")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", help="append the runs to this results file")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set for --selfcheck")
    parser.add_argument("--smoke", action="store_true",
                        help="tests only: small inputs, one set-up sample")
    parser.add_argument("--inject-violation", action="store_true",
                        help="tests only: corrupt every campaign-n16 output")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro beside BENCHMARK.json; nothing to "
              "measure", file=sys.stderr)
        return 2
    if args.selfcheck:
        return 0 if selfcheck(contract, args.seed, args.runs) else 1

    traced = bool(args.trace or args.traced)
    flags = ["--smoke"] * args.smoke + ["--inject"] * args.inject_violation
    runs, last = [], None
    for workload in args.workload or names:
        last = run_one(
            contract, workload, args.seed, args.seconds, traced, flags, args.out
        )
        runs.append({
            "workload": workload, "seed": args.seed, "seconds": args.seconds,
            "trace": int(traced), **last,
        })
    if args.out:
        append_runs(args.out, runs)
    if len(runs) > 1:
        last = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                f"{r['workload']}/{name}": value
                for r in runs for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        raise SystemExit(3)
