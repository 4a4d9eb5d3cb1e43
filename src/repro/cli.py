"""Command-line interface: run the paper's protocols from a shell.

Examples::

    python -m repro erb --n 32 --initiator 0 --message hello
    python -m repro erb --n 32 --chain 6          # Fig. 2c worst case
    python -m repro erb --n 16 --trace-out /tmp/t.jsonl
    python -m repro inspect /tmp/t.jsonl          # per-round timeline
    python -m repro erb --n 64 --timing-out /tmp/timing.json
    python -m repro report /tmp/timing.json --html /tmp/report.html
    python -m repro erng --n 16
    python -m repro erng-opt --n 120 --gamma 7
    python -m repro agreement --n 9 --inputs A,A,B,A,B,A,A,B,A
    python -m repro beacon --n 9 --epochs 4
    python -m repro churn --n 17 --byzantine 1,3,5 --p 0.4 --instances 20
    python -m repro campaign --protocols erb,erng --sizes 5,8 --seeds 3
    python -m repro replay artifacts/repro-erb-n3-t0-seed....json
    python -m repro cluster --n 5 --protocol erb          # real TCP sockets
    python -m repro cluster --n 5 --protocol erng --calibrate
    python -m repro node --config node0.json              # one daemon
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from time import perf_counter
from typing import List, Optional

from repro import (
    ClusterConfig,
    SimulationConfig,
    run_erb,
    run_erng,
    run_optimized_erng,
)
from repro.adversary import chain_delay_strategy
from repro.apps.beacon import RandomBeacon
from repro.core.agreement import run_byzantine_agreement
from repro.core.churn import ChurnDriver
from repro.core.pb_erb import PbErbConfig, run_pb_erb
from repro.obs import JsonlSink, Tracer, read_trace, render_timeline
from repro.obs.events import MetaEvent
from repro.net.parallel import planned_data_plane
from repro.obs.machine import machine_stamp
from repro.obs.metrics import PROFILER
from repro.obs.timing import TimingCollector


def _configure_logging(verbosity: int) -> None:
    """Wire ``-v`` / ``-vv`` to the ``repro`` logger hierarchy.

    One ``-v`` surfaces protocol decisions (INFO on ``repro.protocol``);
    two show the engine's per-round summaries as well (DEBUG everywhere).
    """
    if verbosity <= 0:
        return
    root = logging.getLogger("repro")
    if root.handlers:  # repeated main() calls must not stack handlers
        root.setLevel(logging.DEBUG if verbosity >= 2 else logging.INFO)
        return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname).1s %(name)s: %(message)s"))
    root.addHandler(handler)
    root.setLevel(logging.DEBUG if verbosity >= 2 else logging.INFO)


def _tracer_for(args: argparse.Namespace) -> Optional[Tracer]:
    """Build a JSONL-backed tracer when ``--trace-out`` was given.

    The first record of every trace is a :class:`MetaEvent` carrying the
    machine stamp, so later timing comparisons across trace files stay
    provenance-aware.
    """
    path = getattr(args, "trace_out", None)
    if not path:
        return None
    try:
        tracer = Tracer(JsonlSink(path))
    except OSError as exc:
        raise SystemExit(f"error: cannot write trace to {path}: {exc}")
    tracer.emit(MetaEvent(machine=_stamp_for(args)))
    return tracer


def _stamp_for(args: argparse.Namespace) -> dict:
    """The machine stamp for this invocation, data plane included when
    the run shape would engage the parallel engine."""
    workers = getattr(args, "workers", None)
    return machine_stamp(
        workers=workers, data_plane=planned_data_plane(workers)
    )


def _finish_trace(tracer: Optional[Tracer], args: argparse.Namespace) -> None:
    if tracer is not None:
        tracer.close()
        print(f"trace written to {args.trace_out}", file=sys.stderr)


def _finish_obs(config: SimulationConfig, args: argparse.Namespace, result) -> None:
    """Write the ``--timing-out`` / ``--metrics-out`` sidecars.

    Both sidecars carry the machine stamp (git rev, cpu_count, workers):
    performance numbers without provenance are anecdotes.  Building the
    stamp forks ``git``, so a run that writes neither file builds none.
    """
    timing_out = getattr(args, "timing_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not (timing_out or metrics_out):
        return
    stamp = _stamp_for(args)
    if timing_out and config.timing is not None:
        payload = config.timing.as_dict()
        payload["machine"] = stamp
        if result is not None:
            payload["traffic"] = {"summary": result.traffic.summary()}
        try:
            with open(timing_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write timing to {timing_out}: {exc}",
                  file=sys.stderr)
        else:
            coverage = config.timing.coverage()
            print(
                f"timing written to {timing_out} "
                f"({coverage:.1%} of wall attributed; render with "
                f"`python -m repro report {timing_out}`)",
                file=sys.stderr,
            )
    if metrics_out and PROFILER.enabled and PROFILER.registry is not None:
        registry = PROFILER.registry
        if result is not None:
            result.stats.publish(registry)
        payload = {"machine": stamp, "metrics": registry.as_dict()}
        try:
            with open(metrics_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write metrics to {metrics_out}: {exc}",
                  file=sys.stderr)
        else:
            print(f"metrics written to {metrics_out}", file=sys.stderr)
        PROFILER.disable()


def _print_result(result, label: str) -> None:
    values = sorted({repr(v) for v in result.outputs.values()})
    print(f"{label}:")
    print(f"  accepted value(s): {', '.join(values)}")
    print(f"  rounds:            {result.rounds_executed}")
    print(f"  simulated time:    {result.termination_seconds:.2f} s")
    print(f"  ejected nodes:     {result.halted or 'none'}")
    print(f"  traffic:           {result.traffic.summary()}")


def _config_for(args: argparse.Namespace, **overrides) -> SimulationConfig:
    """The SimulationConfig shared by every protocol subcommand."""
    params = dict(
        n=args.n,
        t=args.t,
        seed=args.seed,
        tracer=_tracer_for(args),
        workers=getattr(args, "workers", 1),
    )
    if getattr(args, "timing_out", None):
        params["timing"] = TimingCollector()
    if getattr(args, "metrics_out", None):
        PROFILER.enable()
    params.update(overrides)
    return SimulationConfig(**params)


def _cmd_erb(args: argparse.Namespace) -> int:
    config = _config_for(args)
    tracer = config.tracer
    behaviors = None
    if args.chain:
        behaviors = chain_delay_strategy(
            list(range(args.chain)), honest_target=args.chain
        )
        if args.initiator >= args.chain:
            print("note: --chain forces the initiator to node 0", file=sys.stderr)
        args.initiator = 0
    result = run_erb(
        config,
        initiator=args.initiator,
        message=args.message.encode("utf-8"),
        behaviors=behaviors,
    )
    _finish_trace(tracer, args)
    _finish_obs(config, args, result)
    _print_result(result, f"ERB broadcast over N={args.n}")
    return 0


def _cmd_pb_erb(args: argparse.Namespace) -> int:
    t = args.t if args.t >= 0 else args.n // 4
    config = _config_for(args, t=t)
    tracer = config.tracer
    pb = PbErbConfig(
        fanout=args.fanout,
        echo_sample=args.echo_sample,
        threshold=args.threshold,
        epsilon=args.epsilon,
    )
    result = run_pb_erb(
        config,
        initiator=args.initiator,
        message=args.message.encode("utf-8"),
        pb=pb,
    )
    _finish_trace(tracer, args)
    _finish_obs(config, args, result)
    _print_result(result, f"pb-ERB broadcast over N={args.n}")
    print(
        f"  fanout/echo/quorum: g={pb.resolved_fanout(args.n)} "
        f"e={pb.resolved_echo_sample(args.n)} "
        f"q={pb.echo_quorum(args.n)} "
        f"(analytic failure bound {pb.failure_bound(args.n, t):.3g} "
        f"at f=t={t})"
    )
    return 0


def _cmd_erng(args: argparse.Namespace) -> int:
    config = _config_for(args)
    tracer = config.tracer
    result = run_erng(config)
    _finish_trace(tracer, args)
    _finish_obs(config, args, result)
    _print_result(result, f"unoptimized ERNG over N={args.n}")
    return 0


def _cmd_erng_opt(args: argparse.Namespace) -> int:
    t = args.t if args.t >= 0 else args.n // 3
    config = _config_for(args, t=t)
    tracer = config.tracer
    cluster = ClusterConfig(
        mode=args.mode,
        gamma=args.gamma,
    )
    result = run_optimized_erng(config, cluster=cluster)
    _finish_trace(tracer, args)
    _finish_obs(config, args, result)
    _print_result(result, f"optimized ERNG over N={args.n} ({args.mode})")
    return 0


def _cmd_agreement(args: argparse.Namespace) -> int:
    inputs_list = args.inputs.split(",")
    if len(inputs_list) != args.n:
        print(
            f"error: expected {args.n} comma-separated inputs, "
            f"got {len(inputs_list)}",
            file=sys.stderr,
        )
        return 2
    config = _config_for(args)
    tracer = config.tracer
    result = run_byzantine_agreement(
        config, {i: value for i, value in enumerate(inputs_list)}
    )
    _finish_trace(tracer, args)
    _finish_obs(config, args, result)
    _print_result(result, f"byzantine agreement over N={args.n}")
    return 0


def _cmd_beacon(args: argparse.Namespace) -> int:
    if args.pipeline and args.optimized:
        print(
            "error: --pipeline requires the unoptimized backend "
            "(the optimized protocol's rounds are seed-locked); "
            "session reuse still applies without --pipeline",
            file=sys.stderr,
        )
        return 2
    tracer = _tracer_for(args)
    timing = TimingCollector() if getattr(args, "timing_out", None) else None
    if getattr(args, "metrics_out", None):
        PROFILER.enable()
    # All epochs run on one persistent EngineSession, so the obs flags
    # scope over the whole service run: one trace, one timing collector
    # accumulating per-epoch start_run/end_run records, one metrics
    # registry — and with workers > 1 the crew forks exactly once.
    result = None
    t0 = perf_counter()
    if args.t < 0 and args.optimized:
        # Mirror the erng-opt command: the optimized backend needs the
        # t <= N/3 supermajority, not the ERB default (N-1)/2.
        args.t = args.n // 3
    with RandomBeacon(
        n=args.n, t=args.t, seed=args.seed, optimized=args.optimized,
        session=True, workers=getattr(args, "workers", 1),
        tracer=tracer, timing=timing,
    ) as beacon:
        if args.pipeline:
            records = beacon.run_pipelined(args.epochs)
        else:
            records = [beacon.next_beacon() for _ in range(args.epochs)]
        result = beacon.last_result
        for record in records:
            print(
                f"epoch {record.epoch}: {record.value:#034x}  "
                f"digest {record.digest.hex()[:16]}..."
            )
        wall = perf_counter() - t0
        if args.pipeline and result is not None:
            overlapped = sum(
                1 for s in beacon.pipeline_stats
                if s["overlaps_prev_ack_wave"]
            )
            print(
                f"pipelined: {result.rounds_executed} engine rounds for "
                f"{args.epochs} epochs; {overlapped} epoch hand-offs "
                "staged inside the previous epoch's ACK-wave round"
            )
        if args.epochs and wall > 0:
            print(f"throughput: {args.epochs / wall:.1f} epochs/s "
                  f"({wall * 1e3 / args.epochs:.2f} ms/epoch)")
    print(f"chain verifies: {RandomBeacon.verify_chain(beacon.log)}")
    _finish_trace(tracer, args)
    _finish_obs(
        SimulationConfig(n=args.n, t=args.t, timing=timing), args, result
    )
    return 0


def _parse_peer_book(spec: str) -> dict:
    """Parse ``"1=127.0.0.1:9001,2=127.0.0.1:9002"`` into an address
    book ``{node_id: (host, port)}``."""
    book = {}
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        try:
            pid, addr = entry.split("=", 1)
            host, port = addr.rsplit(":", 1)
            book[int(pid)] = (host, int(port))
        except ValueError:
            raise SystemExit(
                f"error: bad --peers entry {entry!r} "
                "(expected id=host:port)"
            )
    return book


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.common.errors import ConfigurationError
    from repro.net.wire import WireNodeConfig, run_node_daemon

    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = WireNodeConfig.from_json(fh.read())
        except OSError as exc:
            raise SystemExit(f"error: cannot read {args.config}: {exc}")
        except (ValueError, TypeError, ConfigurationError) as exc:
            raise SystemExit(f"error: bad node config {args.config}: {exc}")
    else:
        if args.node_id is None:
            raise SystemExit("error: --node-id is required without --config")
        cfg = WireNodeConfig(
            node_id=args.node_id,
            n=args.n,
            t=args.t,
            seed=args.seed,
            protocol=args.protocol,
            listen_host=args.listen_host,
            listen_port=args.listen_port,
            peers=_parse_peer_book(args.peers or ""),
            security=args.security,
            initiator=args.initiator,
            message=args.message.encode("utf-8"),
            epochs=args.epochs,
            round_timeout_s=args.round_timeout,
        )
    report = run_node_daemon(cfg)
    # The report is the daemon's machine-readable contract: one JSON
    # object on stdout (the cluster launcher and tests parse it).
    json.dump(report.to_json_dict(), sys.stdout)
    print()
    return 1 if report.crashed else 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.net.wire import (
        allocate_loopback_ports,
        calibrate_from_results,
        cluster_configs,
        run_cluster,
        run_cluster_processes,
    )

    ports = allocate_loopback_ports(args.n) if args.processes else None
    configs = cluster_configs(
        args.n,
        args.protocol,
        t=args.t,
        seed=args.seed,
        security=args.security,
        initiator=args.initiator,
        message=args.message.encode("utf-8"),
        epochs=args.epochs,
        round_timeout_s=args.round_timeout,
        ports=ports,
    )
    if args.processes:
        result = run_cluster_processes(configs)
    else:
        result = run_cluster(configs)
    values = sorted({repr(v) for v in result.outputs.values()})
    mode = "multi-process" if args.processes else "in-process"
    total_bytes = sum(
        r.stats.total_bytes_sent for r in result.reports.values()
    )
    total_frames = sum(
        sum(r.stats.frames_sent.values()) for r in result.reports.values()
    )
    print(f"{args.protocol} over real TCP (N={args.n}, {mode} loopback):")
    print(f"  accepted value(s): {', '.join(values) or 'none'}")
    print(f"  decided:           {len(result.outputs)}/{args.n} nodes")
    print(f"  rounds:            {result.rounds_executed}")
    print(f"  wall clock:        {result.wall_seconds:.3f} s")
    if total_bytes:
        print(
            f"  wire traffic:      {total_frames} frames, "
            f"{total_bytes} bytes sent"
        )
    print(f"  ejected/halted:    {result.halted or 'none'}")
    if args.protocol == "beacon":
        for record in result.records:
            print(
                f"  epoch {record.epoch}: value={record.value} "
                f"digest={record.digest.hex()[:16]}…"
            )
    if args.calibrate:
        fit = calibrate_from_results([result])
        print("calibration fit (wall = latency + bytes/bandwidth):")
        print(f"  latency:         {fit.latency_s * 1e3:.3f} ms")
        if fit.bandwidth_bytes_per_s is not None:
            print(
                f"  bandwidth:       "
                f"{fit.bandwidth_bytes_per_s / 1e6:.2f} MB/s"
            )
        else:
            print("  bandwidth:       unidentifiable "
                  "(byte counts not varied enough)")
        print(f"  RMS residual:    {fit.residual_s * 1e3:.3f} ms "
              f"over {fit.samples} rounds")
        print(f"  suggested --delta for the simulator: "
              f"{fit.suggested_delta:.6f}")
    if args.json_out:
        payload = {
            "machine": machine_stamp(transport="tcp"),
            "protocol": args.protocol,
            "n": args.n,
            "mode": mode,
            "rounds_executed": result.rounds_executed,
            "wall_seconds": result.wall_seconds,
            "reports": {
                str(nid): report.to_json_dict()
                for nid, report in sorted(result.reports.items())
            },
        }
        if args.calibrate:
            payload["calibration"] = fit.to_json_dict()
        try:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.json_out}: {exc}",
                  file=sys.stderr)
            return 1
        print(f"cluster report written to {args.json_out}", file=sys.stderr)
    return 0 if len(result.outputs) == args.n - len(result.halted) else 1


def _cmd_churn(args: argparse.Namespace) -> int:
    byzantine = [int(x) for x in args.byzantine.split(",")] if args.byzantine else []
    config = _config_for(args)
    tracer = config.tracer
    driver = ChurnDriver(
        config, byzantine=byzantine, misbehave_p=args.p, seed=args.seed
    )
    report = driver.run(args.instances)
    _finish_trace(tracer, args)
    _finish_obs(config, args, None)
    print(f"live byzantine per instance: {report.live_byzantine}")
    print(f"ejection order:              {report.ejected_order}")
    print(
        f"agreement held in            {report.agreements_held}/"
        f"{report.instances} instances"
    )
    sanitized = report.sanitized_at
    print(
        "network sanitized at instance "
        + (str(sanitized) if sanitized >= 0 else "(not yet)")
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import build_grid, run_campaign, summarize_report
    from repro.campaign.runner import (
        CHURN_PATTERNS,
        STRATEGIES,
        run_pb_erb_sweep,
        summarize_pb_erb_sweep,
    )
    from repro.campaign.spec import PROTOCOLS

    if args.pb_erb_sweep:
        cells = run_pb_erb_sweep(
            n=args.pb_erb_n,
            seeds=args.seeds,
            epsilon=args.epsilon,
            master_seed=args.seed,
        )
        print(summarize_pb_erb_sweep(cells))
        return 0 if all(cell.passed for cell in cells) else 1

    protocols = args.protocols.split(",")
    unknown = sorted(set(protocols) - set(PROTOCOLS))
    if unknown:
        print(f"error: unknown protocol(s) {unknown}", file=sys.stderr)
        return 2
    strategies = args.strategies.split(",")
    unknown = sorted(set(strategies) - set(STRATEGIES))
    if unknown:
        print(
            f"error: unknown strategy(s) {unknown}; "
            f"known: {', '.join(sorted(STRATEGIES))}",
            file=sys.stderr,
        )
        return 2
    churns = args.churn.split(",")
    unknown = sorted(set(churns) - set(CHURN_PATTERNS))
    if unknown:
        print(
            f"error: unknown churn pattern(s) {unknown}; "
            f"known: {', '.join(sorted(CHURN_PATTERNS))}",
            file=sys.stderr,
        )
        return 2

    inject = None
    if args.inject is not None:
        # Test-only violation hook (see repro.campaign.spec): corrupt the
        # named node's output after every run so the catch → shrink →
        # replay pipeline can be demonstrated end-to-end.
        inject = {
            "kind": "corrupt_output",
            "node": args.inject,
            "value": "injected-violation",
        }

    specs = build_grid(
        protocols=protocols,
        sizes=[int(x) for x in args.sizes.split(",")],
        strategies=strategies,
        churns=churns,
        seeds=list(range(args.seeds)),
        master_seed=args.seed,
        channel=args.channel,
        inject=inject,
    )
    tracer = _tracer_for(args)
    report = run_campaign(
        specs,
        tracer=tracer if tracer is not None else Tracer(),
        shrink_failures=not args.no_shrink,
        artifact_dir=args.out,
        cross_check=args.cross_check,
    )
    _finish_trace(tracer, args)
    print(summarize_report(report))
    return 0 if report.passed else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.campaign import replay_artifact
    from repro.common.errors import ConfigurationError

    try:
        outcome = replay_artifact(args.artifact)
    except OSError as exc:
        print(f"error: cannot read artifact: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError, ConfigurationError) as exc:
        print(
            f"error: {args.artifact} is not a campaign artifact: {exc}",
            file=sys.stderr,
        )
        return 2
    print(outcome.summary())
    return 0 if outcome.ok else 1


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        events = read_trace(args.trace)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, TypeError) as exc:
        print(f"error: {args.trace} is not a trace file: {exc}", file=sys.stderr)
        return 2
    print(render_timeline(events))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import render_report

    try:
        text = render_report(
            args.path, html_out=args.html, flame_out=args.flame
        )
    except OSError as exc:
        print(f"error: cannot read {args.path}: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(text)
    if args.html:
        print(f"HTML report written to {args.html}", file=sys.stderr)
    if args.flame:
        print(
            f"collapsed stacks written to {args.flame} "
            "(open with speedscope or flamegraph.pl)",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Robust P2P primitives using (simulated) SGX enclaves — "
            "ICDCS 2020 reproduction"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, default_n: int = 16) -> None:
        p.add_argument("--n", type=int, default=default_n, help="network size")
        p.add_argument(
            "--t", type=int, default=-1,
            help="byzantine bound (default: protocol maximum)",
        )
        p.add_argument("--seed", type=int, default=0, help="simulation seed")
        p.add_argument(
            "--workers", type=int, default=1, metavar="P",
            help="shard node execution across P worker processes "
            "(results are byte-identical to --workers 1)",
        )
        p.add_argument(
            "--profile-out", default=None, metavar="PATH",
            help="cProfile the run and dump pstats data to PATH "
            "(inspect with `python -m pstats PATH`)",
        )
        p.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help="write a JSONL trace of the run (inspect with "
            "`python -m repro inspect PATH`)",
        )
        p.add_argument(
            "--timing-out", default=None, metavar="PATH",
            help="attribute per-round wall clock to engine phases and "
            "write the breakdown as JSON (render with "
            "`python -m repro report PATH`)",
        )
        p.add_argument(
            "--metrics-out", default=None, metavar="PATH",
            help="enable the channel/engine profiler and write its "
            "counters and histograms as JSON",
        )
        p.add_argument(
            "-v", "--verbose", action="count", default=0,
            help="-v: protocol decisions; -vv: per-round engine detail",
        )

    p_erb = sub.add_parser("erb", help="run one reliable broadcast")
    common(p_erb)
    p_erb.add_argument("--initiator", type=int, default=0)
    p_erb.add_argument("--message", default="hello")
    p_erb.add_argument(
        "--chain", type=int, default=0,
        help="byzantine delay-chain length (Fig. 2c worst case)",
    )
    p_erb.set_defaults(func=_cmd_erb)

    p_pb = sub.add_parser(
        "pb-erb",
        help="run one sample-based probabilistic broadcast "
        "(O(N log N) messages, ε-secure)",
    )
    common(p_pb, default_n=128)
    p_pb.add_argument("--initiator", type=int, default=0)
    p_pb.add_argument("--message", default="hello")
    p_pb.add_argument(
        "--fanout", type=int, default=None, metavar="G",
        help="gossip sample size (default 3·⌈log2 N⌉)",
    )
    p_pb.add_argument(
        "--echo-sample", type=int, default=None, metavar="E",
        help="echo-vote sample size (default: fanout)",
    )
    p_pb.add_argument(
        "--threshold", type=float, default=0.5,
        help="accept quorum as a fraction of the echo sample (τ)",
    )
    p_pb.add_argument(
        "--epsilon", type=float, default=0.05,
        help="failure-probability budget the knobs are tuned against",
    )
    p_pb.set_defaults(func=_cmd_pb_erb)

    p_erng = sub.add_parser("erng", help="run the unoptimized ERNG")
    common(p_erng)
    p_erng.set_defaults(func=_cmd_erng)

    p_opt = sub.add_parser("erng-opt", help="run the optimized ERNG")
    common(p_opt, default_n=120)
    p_opt.add_argument(
        "--mode", choices=["sampled", "fixed_fraction"], default="sampled"
    )
    p_opt.add_argument("--gamma", type=int, default=None)
    p_opt.set_defaults(func=_cmd_erng_opt)

    p_ba = sub.add_parser("agreement", help="byzantine agreement over inputs")
    common(p_ba, default_n=9)
    p_ba.add_argument(
        "--inputs", required=True,
        help="comma-separated input values, one per node",
    )
    p_ba.set_defaults(func=_cmd_agreement)

    p_beacon = sub.add_parser("beacon", help="run a chained random beacon")
    common(p_beacon, default_n=9)
    p_beacon.add_argument("--epochs", type=int, default=3)
    p_beacon.add_argument(
        "--pipeline", action="store_true",
        help="run all epochs as one pipelined engine run (epoch e+1's "
             "dissemination staged inside epoch e's final ACK-wave round)",
    )
    p_beacon.add_argument(
        "--optimized", action="store_true",
        help="use the optimized ERNG backend per epoch (session mode)",
    )
    p_beacon.set_defaults(func=_cmd_beacon)

    p_churn = sub.add_parser(
        "churn", help="repeated instances sanitize the network (Appendix D)"
    )
    common(p_churn, default_n=17)
    p_churn.add_argument(
        "--byzantine", default="", help="comma-separated byzantine node ids"
    )
    p_churn.add_argument(
        "--p", type=float, default=0.3,
        help="per-instance misbehaviour probability",
    )
    p_churn.add_argument("--instances", type=int, default=20)
    p_churn.set_defaults(func=_cmd_churn)

    def wire_common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--t", type=int, default=-1,
            help="byzantine bound (default: protocol maximum)",
        )
        p.add_argument("--seed", type=int, default=0, help="shared seed")
        p.add_argument(
            "--protocol", choices=("erb", "erng", "pb-erb", "beacon"),
            default="erb", help="which protocol the cluster runs",
        )
        p.add_argument(
            "--security", choices=("modeled", "full"), default="modeled",
            help="modeled channels or full AEAD-sealed envelopes on "
            "the wire",
        )
        p.add_argument("--initiator", type=int, default=0)
        p.add_argument("--message", default="hello")
        p.add_argument(
            "--epochs", type=int, default=1,
            help="beacon epochs to chain (beacon protocol only)",
        )
        p.add_argument(
            "--round-timeout", type=float, default=10.0, metavar="S",
            help="per-barrier timeout before a silent peer is ejected",
        )
        p.add_argument(
            "-v", "--verbose", action="count", default=0,
            help="-v: wire-level INFO; -vv: per-frame DEBUG",
        )

    p_node = sub.add_parser(
        "node",
        help="host one node's enclave as a long-running TCP daemon",
    )
    p_node.add_argument(
        "--config", default=None, metavar="PATH",
        help="JSON node config (overrides all other flags)",
    )
    p_node.add_argument("--node-id", type=int, default=None)
    p_node.add_argument("--n", type=int, default=5, help="network size")
    p_node.add_argument(
        "--listen-host", default="127.0.0.1",
        help="address to bind the daemon's listener on",
    )
    p_node.add_argument(
        "--listen-port", type=int, default=0,
        help="listening port (0: let the OS pick)",
    )
    p_node.add_argument(
        "--peers", default="", metavar="BOOK",
        help="peer address book: 1=127.0.0.1:9001,2=127.0.0.1:9002,...",
    )
    wire_common(p_node)
    p_node.set_defaults(func=_cmd_node)

    p_cluster = sub.add_parser(
        "cluster",
        help="spin up an N-node loopback cluster over real TCP sockets",
    )
    p_cluster.add_argument("--n", type=int, default=5, help="cluster size")
    p_cluster.add_argument(
        "--processes", action="store_true",
        help="one OS process per node daemon (default: one event loop)",
    )
    p_cluster.add_argument(
        "--calibrate", action="store_true",
        help="fit the simulator's latency/bandwidth round model against "
        "the measured rounds and print the fit + residual",
    )
    p_cluster.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="write per-node reports (stamped transport=\"tcp\") as JSON",
    )
    wire_common(p_cluster)
    p_cluster.set_defaults(func=_cmd_cluster)

    p_inspect = sub.add_parser(
        "inspect", help="render a --trace-out JSONL file as a round timeline"
    )
    p_inspect.add_argument("trace", help="path to a trace.jsonl file")
    p_inspect.set_defaults(func=_cmd_inspect)

    p_report = sub.add_parser(
        "report",
        help="render a --timing-out sidecar, a timed trace, or a "
        "benchmarks/results rows file as a report",
    )
    p_report.add_argument(
        "path",
        help="a --timing-out JSON sidecar, a --trace-out JSONL file from "
        "a timed run, or a benchmarks/results/*.json rows file",
    )
    p_report.add_argument(
        "--html", default=None, metavar="OUT",
        help="also write a self-contained HTML report",
    )
    p_report.add_argument(
        "--flame", default=None, metavar="OUT",
        help="also export collapsed stacks (speedscope / flamegraph "
        "input; timing inputs only)",
    )
    p_report.set_defaults(func=_cmd_report)

    p_camp = sub.add_parser(
        "campaign",
        help="seeded fault-injection sweep checking the paper invariants",
        description=(
            "Sweep a (protocol, N, adversary strategy, churn pattern, seed) "
            "grid; after every run check agreement, validity, integrity, "
            "the termination bounds, sanitization and liveness, plus a "
            "cross-seed ERNG unbiasedness smoke test.  Failing cases are "
            "shrunk to a minimal reproducer and written to --out as "
            "replayable JSON (see `python -m repro replay`).  The adversary "
            "model behind the strategies is documented in docs/ADVERSARIES.md."
        ),
    )
    p_camp.add_argument(
        "--protocols", default="erb,erng,erng-opt",
        help="comma-separated subset of erb,erng,erng-opt,pb-erb",
    )
    p_camp.add_argument(
        "--sizes", default="5,8", metavar="N,N,...",
        help="comma-separated network sizes",
    )
    p_camp.add_argument(
        "--strategies", default="honest,omission,random,mute,rod,byzantine",
        help="comma-separated adversary strategies",
    )
    p_camp.add_argument(
        "--churn", default="none,intermittent,late",
        help="comma-separated fault activity windows",
    )
    p_camp.add_argument(
        "--seeds", type=int, default=2, metavar="K",
        help="seeds per grid cell (K distinct derived seeds)",
    )
    p_camp.add_argument("--seed", type=int, default=0, help="master seed")
    p_camp.add_argument(
        "--channel", choices=["full", "modeled", "none"], default="modeled"
    )
    p_camp.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory for minimal-reproducer artifacts",
    )
    p_camp.add_argument(
        "--no-shrink", action="store_true",
        help="report failures without shrinking them",
    )
    p_camp.add_argument(
        "--cross-check", action="store_true",
        help="re-run every case with --workers 2 and require byte-identical "
        "results (exercises the parallel engine and its serial fallback)",
    )
    p_camp.add_argument(
        "--pb-erb-sweep", action="store_true",
        help="run the pb-erb ε-sweep preset instead of the grid: sweep the "
        "sample-size knob against omission+byzantine schedules and check "
        "the empirical agreement-failure rate against the configured ε",
    )
    p_camp.add_argument(
        "--pb-erb-n", type=int, default=64, metavar="N",
        help="network size for --pb-erb-sweep (default: %(default)s)",
    )
    p_camp.add_argument(
        "--epsilon", type=float, default=0.05,
        help="ε budget for --pb-erb-sweep (default: %(default)s)",
    )
    p_camp.add_argument(
        "--inject", type=int, default=None, metavar="NODE",
        help="TEST ONLY: corrupt NODE's output after every run to "
        "demonstrate the catch/shrink/replay pipeline",
    )
    p_camp.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write per-case campaign events as JSONL (the sweep summary)",
    )
    p_camp.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v: per-case progress; -vv: engine detail",
    )
    p_camp.set_defaults(func=_cmd_campaign)

    p_replay = sub.add_parser(
        "replay",
        help="re-run a campaign failure artifact and verify it reproduces",
    )
    p_replay.add_argument("artifact", help="path to a reproducer .json file")
    p_replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "verbose", 0))
    profile_out = getattr(args, "profile_out", None)
    try:
        if profile_out:
            import cProfile

            profiler = cProfile.Profile()
            try:
                return profiler.runcall(args.func, args)
            finally:
                profiler.dump_stats(profile_out)
                print(f"profile written to {profile_out}", file=sys.stderr)
        return args.func(args)
    except BrokenPipeError:  # e.g. `repro inspect ... | head`
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
