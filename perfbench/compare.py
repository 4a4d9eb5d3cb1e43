"""Compare two perfbench results files: parent A, change B.

    python3 perfbench/compare.py A.json B.json [--pairs N]

Both files come from ``run.py --out`` and hold several runs per workload
(run the two commits alternately, see README.md).  One row per
(end-to-end metric, workload) gives each side's median and quartiles,
the ratio B/A with its base, the pairs B won, and a verdict from the
bounds in ``BENCHMARK.json``:

* ``regressed``  — B's median is worse than A's by more than the bound;
* ``improved``   — at least ``--pairs`` pairs (default 10), B wins nine
  tenths of them (ties count for neither) and the medians differ by more
  than A's own interquartile range;
* ``unresolved`` — the run-to-run spread of either side is wider than
  the bound, and the two sides' runs overlap: the data cannot say;
* ``unchanged``  — none of the above.

Exits non-zero on any regression or any rise in the share of failed ops.
Per-layer metrics, where both files hold traced runs, are listed side by
side without a verdict: they say which layer moved, they prove nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from run import load_contract


def load(path: str) -> dict:
    """``{(workload, trace): [run, …]}`` in recorded order."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    grouped = {}
    for run in runs:
        grouped.setdefault((run["workload"], run["trace"]), []).append(run)
    return grouped


def values(runs, metric: str):
    return [run["metrics"][metric]["value"] for run in runs]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def judge(a, b, better: str, bound: float, min_pairs: int):
    """Verdict for one metric on one workload, and the pairs B won."""
    sign = 1 if better == "lower" else -1       # sign * value: lower is better
    a, b = [sign * x for x in a], [sign * x for x in b]
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if y < x)
    worse_by = (bm - am) / abs(am)
    if min(len(a), len(b)) < 2:
        return "unresolved", wins, len(pairs)    # one run has no spread
    spread = max((a3 - a1) / abs(am), (b3 - b1) / abs(bm))
    disjoint = max(b) < min(a) or min(b) > max(a)
    if spread > bound and not disjoint:
        return "unresolved", wins, len(pairs)
    if worse_by > bound:
        return "regressed", wins, len(pairs)
    gained = (
        len(pairs) >= min_pairs
        and wins >= 0.9 * len(pairs)
        and am - bm > a3 - a1
    )
    return ("improved" if gained else "unchanged"), wins, len(pairs)


def failed_share(runs) -> float:
    return sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs needed before a gain may be claimed")
    args = parser.parse_args()
    contract = load_contract()
    parent, change = load(args.parent), load(args.change)
    bad = False

    print(f"{'workload':18s} {'metric':14s} {'A median [q1, q3]':>36s} "
          f"{'B median [q1, q3]':>36s}  B/A (base: A median)   won  verdict")
    for workload in (w["name"] for w in contract["workloads"]):
        a_runs = parent.get((workload, 0), [])
        b_runs = change.get((workload, 0), [])
        if not a_runs or not b_runs:
            continue
        for spec in contract["end_to_end"]:
            a, b = values(a_runs, spec["name"]), values(b_runs, spec["name"])
            verdict, wins, pairs = judge(
                a, b, spec["better"], spec["bound"], args.pairs
            )
            bad = bad or verdict == "regressed"
            (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
            print(f"{workload:18s} {spec['name']:14s} "
                  f"{am:12.4f} [{a1:10.4f},{a3:10.4f}] "
                  f"{bm:12.4f} [{b1:10.4f},{b3:10.4f}]  "
                  f"{bm / am:6.3f} of {am:.4f} {spec['unit']:5s} "
                  f"{wins:2d}/{pairs:<2d}  {verdict}")
        a_fail, b_fail = failed_share(a_runs), failed_share(b_runs)
        rose = b_fail > a_fail
        bad = bad or rose
        print(f"{workload:18s} {'failed_ops_share':14s} {a_fail:12.6f} "
              f"{'':24s}{b_fail:12.6f} {'':24s} "
              f"{'ROSE' if rose else 'not risen'}")

    for workload in (w["name"] for w in contract["workloads"]):
        a_runs = parent.get((workload, 1), [])
        b_runs = change.get((workload, 1), [])
        if not a_runs or not b_runs:
            continue
        print(f"\nper-layer medians, {workload} (no verdict)")
        for spec in contract["per_layer"]:
            am = statistics.median(values(a_runs, spec["name"]))
            bm = statistics.median(values(b_runs, spec["name"]))
            if am or bm:
                ratio = f"{bm / am:6.3f} of {am:.6g}" if am else "   new"
                print(f"  {spec['name']:34s} {am:14.6g} {bm:14.6g} "
                      f"{spec['unit']:6s} {ratio}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
