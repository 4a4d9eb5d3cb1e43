"""The workload process: set up, warm up, run timed ops, report.

Started by ``run.py`` (which puts ``src`` on ``PYTHONPATH``) once per
measurement, and once more per extra set-up sample with ``--seconds 0``.  Prints two JSON lines on stdout:
``{"event": "ready", …}`` when set-up and the warm-up op are done — the
parent stops its ``setup_s`` clock on it — and ``{"event": "done", …}``
with the timed window's raw numbers.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import resource
import traceback
from time import perf_counter


#: The timed window is reported in slices, so that the parent can pick
#: the quietest: the sandbox's noisy stretches last one to five seconds,
#: and spoil some slices of a run but rarely all.
SLICES = 8


def tree_cpu_s() -> float:
    """User+system CPU seconds of this process, its reaped children and
    its live children (``/proc``; the shard workers of a session are not
    reaped until it closes).  A child moves from the live sum to the
    reaped sum when it is waited for, so the total never double counts."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for listing in glob.glob(f"/proc/{os.getpid()}/task/*/children"):
        try:
            with open(listing) as handle:
                pids = handle.read().split()
            for pid in pids:
                with open(f"/proc/{pid}/stat") as handle:
                    # Fields after the parenthesised command name:
                    # utime, stime, cutime, cstime are 12th to 15th.
                    stat = handle.read().rsplit(")", 1)[1].split()
                total += sum(int(v) for v in stat[11:15]) / ticks
        except (OSError, IndexError, ValueError):
            continue    # the child exited between listing and reading
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, reaped) / 1024.0


def emit(event: str, **fields) -> None:
    print(json.dumps({"event": event, **fields}), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--inject", action="store_true")
    args = parser.parse_args()

    import workloads

    tracer = None
    if args.traced:
        import spans

        tracer = spans.Tracer(keep_spans=args.spans_out is not None)
        tracer.install()

    workload = workloads.WORKLOADS[args.workload](args.smoke, args.inject)

    def checked(step, *step_args):
        """A step that raises has failed its check."""
        try:
            return step(*step_args)
        except Exception:
            traceback.print_exc()
            return None

    setup_ok = bool(checked(workload.setup, args.seed))
    emit("ready", ok=setup_ok)
    setup_trace = tracer.totals() if tracer else None
    if tracer:
        tracer.reset()

    latencies_ms = []
    ops = failed = 0
    self_wall_s = self_cpu_s = 0.0     # sums of ops that time themselves
    self_timed = False
    first_counts = {}
    loop_cpu = tree_cpu_s()
    loop_wall = perf_counter()

    def mark():
        """Running totals at a slice boundary: ops, latency samples, and
        the timed window's wall and CPU seconds."""
        if self_timed:
            return ops, len(latencies_ms), self_wall_s, self_cpu_s
        # The window is the whole loop, checks included (they are cheap
        # by construction), so ops/s is what a caller would see.
        return (ops, len(latencies_ms), perf_counter() - loop_wall,
                tree_cpu_s() - loop_cpu)

    marks = [(0, 0, 0.0, 0.0)]
    i = 0
    while perf_counter() - loop_wall < args.seconds:
        i += 1
        if tracer:
            tracer.op = i
        start = perf_counter()
        op = checked(workload.op, i)
        elapsed = perf_counter() - start
        if op is None:
            op = workloads.Op(False)
        if op.wall_s is not None:
            self_timed = True
            elapsed = op.wall_s
            self_wall_s += op.wall_s
            self_cpu_s += op.cpu_s
        ops += op.ops
        if not op.ok:
            failed += op.ops
        latencies_ms.append(elapsed / op.ops * 1000.0)
        if i == 1:
            first_counts = {k: v / op.ops for k, v in op.counts.items()}
        if perf_counter() - loop_wall >= len(marks) * args.seconds / SLICES:
            marks.append(mark())
    loop_wall_s = perf_counter() - loop_wall
    if marks[-1][0] < ops:
        marks.append(mark())
    op_trace = tracer.totals() if tracer else None
    if tracer:
        tracer.op = -1

    # A set-up sample (--seconds 0) has no timed ops to cross-check.
    finish_ok = bool(checked(workload.finish)) if args.seconds > 0 else True
    checked(workload.close)
    if tracer:
        tracer.uninstall()
        if args.spans_out:
            tracer.write_spans(args.spans_out)

    emit(
        "done",
        setup_ok=setup_ok,
        finish_ok=finish_ok,
        ops=ops,
        failed=failed,
        marks=marks,
        loop_wall_s=loop_wall_s,
        latencies_ms=latencies_ms,
        peak_rss_mb=peak_rss_mb(),
        counts=first_counts,
        retries=workload.retries,
        setup_trace=setup_trace,
        op_trace=op_trace,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
