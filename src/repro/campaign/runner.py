"""The campaign runner: seeded fault-injection sweeps over the stack.

:func:`run_case` executes one :class:`CaseSpec` end-to-end — compile the
schedule onto adversary behaviours, build the engine with the case seed
and a per-round liveness probe (``extra["round_hook"]``), run the
protocol, apply the test-only injection hook if present, and check every
paper invariant.  :func:`run_campaign` sweeps a grid of
``(protocol, N, strategy, churn pattern, seed)`` cells, adds the
cross-seed ERNG unbiasedness smoke, shrinks the first failing case of
each cell to a minimal reproducer, and writes replayable JSON artifacts
(see :mod:`repro.campaign.artifact`).

Strategy presets (:data:`STRATEGIES`) are deterministic functions of
``(n, t, rng)`` covering the Definition A.5 hierarchy: general omission
(identity-based starvation, random drops, mute listeners), ROD (delay +
replay), and byzantine (ciphertext tampering) — the same behaviours the
hand-written adversarial tests use, but generated and swept from data.
Churn patterns window the faults (always-on, intermittent, late-onset),
matching the Appendix D process where byzantine nodes misbehave only in
some instances.

A case runs on the simulator's round back-end, the links at a faulty
node per wire with the faults as their omission masks (Thm A.2).  The
optional engine cross-check re-runs a case at ``workers=2`` (the sharded
engine itself on honest MODELED/NONE cells, its serial fallback on the
rest) and asserts the result is identical to the case's own serial run.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.invariants import (
    Violation,
    case_round_bound,
    check_run,
    check_unbiasedness,
)
from repro.campaign.schedule import Fault, Schedule
from repro.campaign.spec import ERB_PAYLOAD, CaseSpec, derive_seed
from repro.common.config import ChannelSecurity, SimulationConfig
from repro.common.errors import ConfigurationError
from repro.common.rng import DeterministicRNG
from repro.core.erb import run_erb
from repro.core.erng import run_erng
from repro.core.erng_optimized import ClusterConfig, run_optimized_erng
from repro.core.pb_erb import PbErbConfig, run_pb_erb
from repro.net.simulator import RunResult
from repro.obs.tracer import NULL_TRACER, Tracer

_LOG = logging.getLogger("repro.campaign")

_CHANNELS = {
    "full": ChannelSecurity.FULL,
    "modeled": ChannelSecurity.MODELED,
    "none": ChannelSecurity.NONE,
}


# ----------------------------------------------------------------------
# strategy presets: (n, t, rng) -> Schedule
# ----------------------------------------------------------------------
def _strategy_honest(n: int, t: int, rng: DeterministicRNG) -> Schedule:
    return Schedule()


def _strategy_omission(n: int, t: int, rng: DeterministicRNG) -> Schedule:
    """Identity-based starvation (A3): one node P4 must eject, and — when
    the bound allows a second fault — one partial omitter that survives."""
    if t < 1:
        return Schedule()
    nodes = rng.sample(range(n), min(2, t))
    faults = [Fault(
        node=nodes[0],
        kind="omit_send",
        victims=tuple(x for x in range(n) if x != nodes[0]),
    )]
    if len(nodes) > 1:
        spare = max(0, n - 1 - t)  # keep the survivor above the threshold
        victims = tuple(sorted(rng.sample(
            [x for x in range(n) if x != nodes[1]], min(spare, 2)
        )))
        if victims:
            faults.append(Fault(node=nodes[1], kind="omit_send", victims=victims))
    return Schedule(faults=tuple(faults))


def _strategy_random(n: int, t: int, rng: DeterministicRNG) -> Schedule:
    if t < 1:
        return Schedule()
    nodes = rng.sample(range(n), min(2, t))
    return Schedule(faults=tuple(
        Fault(node=node, kind="random_omission", p=0.3) for node in nodes
    ))


def _strategy_mute(n: int, t: int, rng: DeterministicRNG) -> Schedule:
    if t < 1:
        return Schedule()
    return Schedule(faults=(Fault(node=rng.randrange(n), kind="mute_recv"),))


def _strategy_rod(n: int, t: int, rng: DeterministicRNG) -> Schedule:
    """Delay (A4) + replay (A5): both defeated by P5/P6, never by luck."""
    if t < 1:
        return Schedule()
    nodes = rng.sample(range(n), min(2, t))
    faults = [Fault(node=nodes[0], kind="delay", delay=1)]
    if len(nodes) > 1:
        faults.append(Fault(node=nodes[1], kind="replay", delay=1, burst=8))
    return Schedule(faults=tuple(faults))


def _strategy_byzantine(n: int, t: int, rng: DeterministicRNG) -> Schedule:
    """Ciphertext tampering (A2) plus replay: the full-byzantine OS that
    Theorem A.2 reduces to omission; the tamperer must be sanitized."""
    if t < 1:
        return Schedule()
    nodes = rng.sample(range(n), min(2, t))
    faults = [Fault(node=nodes[0], kind="tamper")]
    if len(nodes) > 1:
        faults.append(Fault(node=nodes[1], kind="replay", delay=1, burst=8))
    return Schedule(faults=tuple(faults))


STRATEGIES: Dict[str, Callable[[int, int, DeterministicRNG], Schedule]] = {
    "honest": _strategy_honest,
    "omission": _strategy_omission,
    "random": _strategy_random,
    "mute": _strategy_mute,
    "rod": _strategy_rod,
    "byzantine": _strategy_byzantine,
}

#: Churn patterns: fault activity windows applied over a strategy's
#: schedule.  ``(start, stop)`` with 0 meaning unbounded.
CHURN_PATTERNS: Dict[str, Tuple[int, int]] = {
    "none": (0, 0),          # faults active for the whole run
    "intermittent": (1, 2),  # misbehave in the first two rounds only
    "late": (2, 0),          # honest start, faults from round 2 on
}


def build_schedule(
    strategy: str, n: int, t: int, seed: int, churn: str = "none"
) -> Schedule:
    """The deterministic schedule for one grid cell."""
    try:
        generator = STRATEGIES[strategy]
    except KeyError:
        raise ConfigurationError(f"unknown strategy {strategy!r}") from None
    try:
        start, stop = CHURN_PATTERNS[churn]
    except KeyError:
        raise ConfigurationError(f"unknown churn pattern {churn!r}") from None
    schedule = generator(n, t, DeterministicRNG(("campaign-grid", seed)))
    if (start, stop) == (0, 0):
        return schedule
    return Schedule(faults=tuple(
        replace(fault, start=start, stop=stop) for fault in schedule.faults
    ))


# ----------------------------------------------------------------------
# single-case execution
# ----------------------------------------------------------------------
@dataclass
class CaseOutcome:
    """One executed case: the spec, its result, and the verdict."""

    spec: CaseSpec
    result: RunResult
    violations: List[Violation]
    round_log: List[Tuple[int, int]]
    #: What the engine returned, before any test-only inject: the run
    #: the engine cross-check compares.
    engine_result: Optional[RunResult] = None

    @property
    def passed(self) -> bool:
        return not self.violations

    def honest_output(self) -> Optional[object]:
        """The common honest output, if the honest nodes agree."""
        excluded = set(self.spec.schedule.faulty_nodes())
        excluded.update(self.result.halted)
        values = {
            repr(v): v
            for node, v in self.result.outputs.items()
            if node not in excluded
        }
        if len(values) == 1:
            return next(iter(values.values()))
        return None


def _apply_inject(spec: CaseSpec, result: RunResult) -> RunResult:
    """The test-only violation hook (documented in :mod:`.spec`)."""
    inject = spec.inject
    if not inject:
        return result
    kind = inject.get("kind")
    if kind == "corrupt_output":
        outputs = dict(result.outputs)
        outputs[int(inject["node"])] = inject.get("value", "corrupted")
        return replace(result, outputs=outputs)
    if kind == "ignore_halt":
        return replace(result, halted=[])
    raise ConfigurationError(f"unknown inject kind {kind!r}")


def run_case(
    spec: CaseSpec, probe_rounds: bool = True, workers: Optional[int] = None
) -> CaseOutcome:
    """Execute one case and check every per-run invariant."""
    spec.validate()
    round_log: List[Tuple[int, int]] = []
    extra: Dict[str, object] = {}
    if probe_rounds:
        def hook(network, rnd, halted_now) -> None:
            live = sum(1 for node in network.nodes.values() if node.alive)
            round_log.append((rnd, live))

        extra["round_hook"] = hook
    if spec.protocol == "erng-opt" and spec.adversarial:
        # Early stopping is a fast-path heuristic; adversarial optimized
        # runs use the full Algorithm 6 round structure (module docstring).
        extra["erng_early_stop"] = False
    config = SimulationConfig(
        n=spec.n,
        t=spec.t,
        seed=spec.seed,
        channel_security=_CHANNELS[spec.channel],
        workers=workers if workers is not None else spec.workers,
        extra=extra,
    )
    behaviors = spec.schedule.compile(spec.seed) or None
    if spec.protocol == "erb":
        result = run_erb(
            config, initiator=spec.initiator, message=ERB_PAYLOAD,
            behaviors=behaviors,
        )
    elif spec.protocol == "pb-erb":
        result = run_pb_erb(
            config, initiator=spec.initiator, message=ERB_PAYLOAD,
            behaviors=behaviors,
        )
    elif spec.protocol == "erng":
        result = run_erng(config, behaviors=behaviors)
    else:
        result = run_optimized_erng(
            config,
            cluster=ClusterConfig(mode="fixed_fraction"),
            behaviors=behaviors,
        )
    engine_result, result = result, _apply_inject(spec, result)
    violations = check_run(spec, result, round_log if probe_rounds else None)
    return CaseOutcome(
        spec=spec, result=result, violations=violations, round_log=round_log,
        engine_result=engine_result,
    )


def case_fails(spec: CaseSpec) -> bool:
    """Whether a spec still violates at least one invariant (shrink oracle)."""
    try:
        return not run_case(spec, probe_rounds=False).passed
    except ConfigurationError:
        return False  # an unrunnable shrink candidate is not a reproducer


def cross_check_engines(
    spec: CaseSpec, serial: Optional[RunResult] = None
) -> List[Violation]:
    """Differential check: serial vs ``workers=2`` must match exactly.

    Honest MODELED/NONE cells exercise the sharded parallel engine; the
    other cells exercise its fallback to the serial back-end — either way
    the outputs, halts, decided rounds, round count and the whole traffic
    ledger must be identical to the serial run's: ``serial`` when the
    caller already ran the case serially (its ``engine_result``), else a
    run made here.
    """
    if serial is None:
        serial = run_case(spec, probe_rounds=False, workers=1).engine_result
    sharded = run_case(spec, probe_rounds=False, workers=2).engine_result
    mismatches = [
        name for name, a, b in (
            ("outputs", serial.outputs, sharded.outputs),
            ("halted", serial.halted, sharded.halted),
            ("decided_rounds", serial.decided_rounds, sharded.decided_rounds),
            ("rounds", serial.rounds_executed, sharded.rounds_executed),
            ("traffic", serial.traffic, sharded.traffic),
        )
        if a != b
    ]
    if not mismatches:
        return []
    return [Violation(
        "engine_cross_check",
        f"workers=2 diverged from serial on: {', '.join(mismatches)}",
    )]


# ----------------------------------------------------------------------
# grid sweep
# ----------------------------------------------------------------------
@dataclass
class CaseRecord:
    """The summary row one case contributes to the campaign report."""

    spec: CaseSpec
    rounds: int
    halted: List[int]
    violations: List[Violation]
    artifact_path: Optional[str] = None

    @property
    def passed(self) -> bool:
        return not self.violations


@dataclass
class CampaignReport:
    """Everything one campaign sweep produced."""

    records: List[CaseRecord] = field(default_factory=list)
    cross_run_violations: List[Violation] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)

    @property
    def cases(self) -> int:
        return len(self.records)

    @property
    def failures(self) -> List[CaseRecord]:
        return [record for record in self.records if not record.passed]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.cross_run_violations


def build_grid(
    protocols: Sequence[str],
    sizes: Sequence[int],
    strategies: Sequence[str],
    churns: Sequence[str],
    seeds: Sequence[int],
    master_seed: int = 0,
    channel: str = "modeled",
    inject: Optional[Dict[str, object]] = None,
) -> List[CaseSpec]:
    """Expand the sweep dimensions into a deterministic list of cases.

    ``t`` is derived per protocol (the maximum each bound tolerates);
    churn patterns other than ``none`` are skipped for honest cells
    (windowing an empty schedule would duplicate them).
    """
    specs: List[CaseSpec] = []
    for protocol in protocols:
        for n in sizes:
            if protocol == "erng-opt":
                t = n // 3
            elif protocol == "pb-erb":
                # The sampled quorum is probabilistic, not an N-t one:
                # keep f low enough that the honest vote mass clears the
                # τ-quorum deterministically at campaign sizes.
                t = n // 4
            else:
                t = (n - 1) // 2
            for strategy in strategies:
                for churn in churns:
                    if strategy == "honest" and churn != "none":
                        continue
                    for seed_index in seeds:
                        seed = derive_seed(
                            master_seed, protocol, n, strategy, churn,
                            seed_index,
                        )
                        schedule = build_schedule(
                            strategy, n, t, seed, churn
                        )
                        specs.append(CaseSpec(
                            protocol=protocol,
                            n=n,
                            t=t,
                            seed=seed,
                            schedule=schedule,
                            strategy=(
                                strategy if churn == "none"
                                else f"{strategy}+{churn}"
                            ),
                            channel=channel,
                            inject=dict(inject) if inject else None,
                        ))
    return specs


def run_campaign(
    specs: Iterable[CaseSpec],
    tracer: Tracer = NULL_TRACER,
    shrink_failures: bool = True,
    artifact_dir: Optional[str] = None,
    cross_check: bool = False,
) -> CampaignReport:
    """Run a list of cases; check, shrink, and persist any failures.

    Progress is reported through ``tracer`` as campaign events (one per
    case — point a :class:`~repro.obs.export.JsonlSink` at it for the
    JSONL summary) and on the ``repro.campaign`` logger.
    """
    from repro.campaign.artifact import make_artifact, write_artifact
    from repro.campaign.shrink import shrink_case

    report = CampaignReport()
    erng_cells: Dict[tuple, List[Tuple[int, int]]] = {}
    for index, spec in enumerate(specs):
        outcome = run_case(spec)
        violations = list(outcome.violations)
        if cross_check:
            serial = outcome.engine_result if spec.workers <= 1 else None
            violations.extend(cross_check_engines(spec, serial))
        record = CaseRecord(
            spec=spec,
            rounds=outcome.result.rounds_executed,
            halted=list(outcome.result.halted),
            violations=violations,
        )
        if spec.protocol in ("erng", "erng-opt") and outcome.passed:
            value = outcome.honest_output()
            if isinstance(value, int):
                cell = (spec.protocol, spec.n, spec.strategy)
                erng_cells.setdefault(cell, []).append((spec.seed, value))
        if violations:
            _LOG.warning(
                "case %d (%s): %d invariant violation(s): %s",
                index, spec.label(), len(violations),
                "; ".join(v.invariant for v in violations),
            )
            if shrink_failures:
                shrunk = shrink_case(spec, case_fails)
                artifact = make_artifact(shrunk.spec, original=spec,
                                         shrink_runs=shrunk.runs)
                if artifact_dir is not None:
                    path = write_artifact(artifact, artifact_dir)
                    record.artifact_path = path
                    report.artifacts.append(path)
                    _LOG.warning("minimal reproducer written to %s", path)
        else:
            _LOG.info("case %d (%s): ok in %d rounds",
                      index, spec.label(), record.rounds)
        tracer.campaign_case(
            index=index,
            protocol=spec.protocol,
            n=spec.n,
            t=spec.t,
            strategy=spec.strategy,
            seed=spec.seed,
            rounds=record.rounds,
            halted=record.halted,
            violations=[v.invariant for v in violations],
            artifact=record.artifact_path or "",
        )
        report.records.append(record)

    for (protocol, n, strategy), samples in sorted(erng_cells.items()):
        for violation in check_unbiasedness(samples):
            report.cross_run_violations.append(Violation(
                violation.invariant,
                f"{protocol} n={n} strategy={strategy}: {violation.detail}",
            ))
    return report


# ----------------------------------------------------------------------
# pb-erb ε-sweep preset
# ----------------------------------------------------------------------
@dataclass
class PbErbSweepCell:
    """One (sample_factor, strategy) cell of the pb-erb ε-sweep.

    ``hard_violations`` are the properties that hold *surely* regardless
    of ε (integrity: outputs are the broadcast bytes or ⊥; termination:
    every live node decides within the round bound) — any count above
    zero fails the cell outright.  Agreement and delivery are the
    ε-probabilistic properties: the cell passes when the empirical
    failure rate stays within ``budget``, which is the configured ε
    opened up to the analytic :meth:`~repro.core.pb_erb.PbErbConfig.
    failure_bound` when the knobs cannot buy ε at this (n, f) — small
    samples at small n are reported, not punished, for being outside
    their analysis regime.
    """

    sample_factor: int
    strategy: str
    n: int
    runs: int
    agreement_failures: int
    delivery_failures: int
    hard_violations: List[str]
    epsilon: float
    analytic_bound: float

    @property
    def budget(self) -> float:
        return max(self.epsilon, self.analytic_bound)

    @property
    def empirical_rate(self) -> float:
        worst = max(self.agreement_failures, self.delivery_failures)
        return worst / self.runs if self.runs else 0.0

    @property
    def passed(self) -> bool:
        return not self.hard_violations and self.empirical_rate <= self.budget


def run_pb_erb_sweep(
    n: int = 64,
    seeds: int = 6,
    sample_factors: Sequence[int] = (2, 3, 6),
    epsilon: float = 0.05,
    strategies: Sequence[str] = ("omission", "byzantine"),
    master_seed: int = 0,
) -> List[PbErbSweepCell]:
    """Sweep pb-erb's sample-size knob against adversarial schedules.

    For each ``(sample_factor, strategy)`` cell the preset runs ``seeds``
    independent broadcasts under the strategy's fault schedule and counts
    how often the ε-probabilistic properties failed: *agreement* (honest
    nodes output more than one value) and *delivery* (an honest node
    output ⊥ although the initiator was honest).  The sure properties —
    integrity and bounded termination — are asserted unconditionally.
    """
    cells: List[PbErbSweepCell] = []
    t = n // 4
    for sample_factor in sample_factors:
        pb = PbErbConfig(sample_factor=sample_factor, epsilon=epsilon)
        for strategy in strategies:
            agreement_failures = 0
            delivery_failures = 0
            hard: List[str] = []
            worst_bound = 0.0
            for seed_index in range(seeds):
                seed = derive_seed(
                    master_seed, "pb-erb-sweep", n, sample_factor,
                    strategy, seed_index,
                )
                schedule = build_schedule(strategy, n, t, seed)
                config = SimulationConfig(n=n, t=t, seed=seed)
                result = run_pb_erb(
                    config, initiator=0, message=ERB_PAYLOAD,
                    behaviors=schedule.compile(seed) or None, pb=pb,
                )
                faulty = set(schedule.faulty_nodes())
                worst_bound = max(worst_bound, pb.failure_bound(n, len(faulty)))
                halted = set(result.halted)
                honest = {
                    node: value
                    for node, value in result.outputs.items()
                    if node not in faulty and node not in halted
                }
                fabricated = sorted(
                    node for node, value in honest.items()
                    if value is not None and value != ERB_PAYLOAD
                )
                if fabricated:
                    hard.append(
                        f"seed {seed_index}: fabricated outputs at {fabricated}"
                    )
                undecided = sorted(
                    node for node in range(n)
                    if node not in halted and node not in result.outputs
                )
                if undecided:
                    hard.append(
                        f"seed {seed_index}: undecided live nodes {undecided}"
                    )
                bound = pb.resolved_round_bound(n)
                if result.rounds_executed > bound:
                    hard.append(
                        f"seed {seed_index}: {result.rounds_executed} rounds "
                        f"exceed the bound {bound}"
                    )
                if len({repr(v) for v in honest.values()}) > 1:
                    agreement_failures += 1
                if 0 not in faulty and any(
                    value is None for value in honest.values()
                ):
                    delivery_failures += 1
            cells.append(PbErbSweepCell(
                sample_factor=sample_factor,
                strategy=strategy,
                n=n,
                runs=seeds,
                agreement_failures=agreement_failures,
                delivery_failures=delivery_failures,
                hard_violations=hard,
                epsilon=epsilon,
                analytic_bound=worst_bound,
            ))
    return cells


def summarize_pb_erb_sweep(cells: Sequence[PbErbSweepCell]) -> str:
    """Human-readable ε-sweep table for the CLI."""
    lines = [
        "pb-erb sweep: sample_factor x strategy, "
        "empirical failure rate vs ε budget",
    ]
    for cell in cells:
        verdict = "ok" if cell.passed else "FAIL"
        lines.append(
            f"  k={cell.sample_factor} {cell.strategy:<10} n={cell.n} "
            f"runs={cell.runs} agree_fail={cell.agreement_failures} "
            f"deliver_fail={cell.delivery_failures} "
            f"rate={cell.empirical_rate:.3f} "
            f"budget={cell.budget:.3f} "
            f"(analytic {cell.analytic_bound:.2e})  {verdict}"
        )
        for detail in cell.hard_violations:
            lines.append(f"       hard violation: {detail}")
    if all(cell.passed for cell in cells):
        lines.append("pb-erb sweep: the agreement bound held at every cell")
    return "\n".join(lines)


def summarize_report(report: CampaignReport) -> str:
    """Human-readable closing summary for the CLI."""
    lines = [
        f"campaign: {report.cases} case(s), "
        f"{len(report.failures)} failing, "
        f"{len(report.cross_run_violations)} cross-run violation(s)",
    ]
    bound_note = False
    for record in report.failures:
        lines.append(f"  FAIL {record.spec.label()}")
        for violation in record.violations:
            lines.append(f"       {violation.invariant}: {violation.detail}")
        if record.artifact_path:
            lines.append(f"       reproducer: {record.artifact_path}")
            bound_note = True
    for violation in report.cross_run_violations:
        lines.append(f"  FAIL {violation.invariant}: {violation.detail}")
    if bound_note:
        lines.append(
            "replay a reproducer with: python -m repro replay <artifact>"
        )
    if report.passed:
        maxima = {}
        for record in report.records:
            key = record.spec.protocol
            maxima[key] = max(maxima.get(key, 0), record.rounds)
        per_protocol = ", ".join(
            f"{protocol}<={rounds}r" for protocol, rounds in sorted(maxima.items())
        )
        lines.append(
            f"all paper invariants held (worst-case rounds: {per_protocol})"
        )
    return "\n".join(lines)
