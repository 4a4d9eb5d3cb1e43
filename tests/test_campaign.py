"""The fault-injection campaign harness (``repro.campaign``)."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.campaign import (
    CaseSpec,
    ERB_PAYLOAD,
    Fault,
    Schedule,
    build_grid,
    build_schedule,
    case_fails,
    check_unbiasedness,
    cross_check_engines,
    derive_seed,
    make_artifact,
    read_artifact,
    replay_artifact,
    run_campaign,
    run_case,
    shrink_case,
    write_artifact,
)
from repro.cli import main
from repro.common.errors import ConfigurationError
from repro.net.simulator import SynchronousNetwork
from repro.obs import CampaignEvent, Tracer


class TestScheduleModel:
    def test_fault_round_trips(self):
        fault = Fault(node=3, kind="omit_send", victims=(1, 2), start=2, stop=4)
        assert Fault.from_dict(fault.to_dict()) == fault

    def test_schedule_round_trips(self):
        schedule = Schedule(faults=(
            Fault(node=0, kind="tamper"),
            Fault(node=1, kind="random_omission", p=0.5),
        ))
        assert Schedule.from_dict(schedule.to_dict()) == schedule

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Fault(node=0, kind="teleport")

    def test_validate_enforces_fault_bound(self):
        schedule = Schedule(faults=(
            Fault(node=0, kind="tamper"),
            Fault(node=1, kind="tamper"),
        ))
        with pytest.raises(ConfigurationError):
            schedule.validate(n=5, t=1)

    def test_compile_is_deterministic(self):
        schedule = Schedule(faults=(
            Fault(node=2, kind="random_omission", p=0.4),
        ))
        a = schedule.compile(seed=9)
        b = schedule.compile(seed=9)
        assert set(a) == set(b) == {2}

    def test_windowed_fault_is_honest_outside_window(self):
        # A fault active only in round 99 changes nothing in a 2-round run.
        windowed = Schedule(faults=(
            Fault(node=1, kind="omit_send", victims=(0, 2, 3, 4),
                  start=99, stop=100),
        ))
        spec = CaseSpec(protocol="erb", n=5, t=2, seed=1, schedule=windowed)
        outcome = run_case(spec)
        assert outcome.passed
        assert outcome.result.halted == []
        assert all(v == ERB_PAYLOAD for v in outcome.result.outputs.values())

    def test_derive_seed_is_stable_and_mixed(self):
        assert derive_seed(0, "erb", 5) == derive_seed(0, "erb", 5)
        assert derive_seed(0, "erb", 5) != derive_seed(0, "erb", 6)

    def test_build_schedule_deterministic(self):
        a = build_schedule("byzantine", n=8, t=3, seed=5, churn="late")
        b = build_schedule("byzantine", n=8, t=3, seed=5, churn="late")
        assert a == b
        assert all(f.start == 2 for f in a.faults)


class TestInvariantsOnHealthyGrid:
    def test_default_grid_holds_all_invariants(self):
        specs = build_grid(
            protocols=["erb", "erng", "erng-opt"],
            sizes=[5],
            strategies=["honest", "omission", "mute", "rod", "byzantine"],
            churns=["none", "late"],
            seeds=[0],
            master_seed=13,
        )
        report = run_campaign(specs, shrink_failures=False)
        assert report.passed, [
            (r.spec.label(), [v.to_dict() for v in r.violations])
            for r in report.failures
        ]

    def test_full_omitter_is_sanitized(self):
        # Identity-based starvation below the ACK threshold must trip P4.
        schedule = Schedule(faults=(
            Fault(node=2, kind="omit_send", victims=(0, 1, 3, 4)),
        ))
        spec = CaseSpec(protocol="erb", n=5, t=2, seed=3, schedule=schedule)
        outcome = run_case(spec)
        assert outcome.passed
        assert outcome.result.halted == [2]

    def test_tamperer_is_sanitized(self):
        schedule = Schedule(faults=(Fault(node=1, kind="tamper"),))
        spec = CaseSpec(protocol="erng", n=5, t=2, seed=3, schedule=schedule)
        outcome = run_case(spec)
        assert outcome.passed
        assert 1 in outcome.result.halted

    def test_cross_check_agrees_across_engines(self):
        spec = CaseSpec(protocol="erb", n=5, t=2, seed=11)
        assert cross_check_engines(spec) == []
        adversarial = CaseSpec(
            protocol="erb", n=5, t=2, seed=11,
            schedule=Schedule(faults=(Fault(node=4, kind="tamper"),)),
        )
        assert cross_check_engines(adversarial) == []

    def test_cross_check_reuses_the_case_run(self, monkeypatch):
        """A cross-checked case builds two networks — its own serial run
        and the workers=2 one — and an injected violation is not
        reported as an engine divergence."""
        built = []
        init = SynchronousNetwork.__init__

        def counting(self, config, *args, **kwargs):
            built.append(config.workers)
            init(self, config, *args, **kwargs)

        monkeypatch.setattr(SynchronousNetwork, "__init__", counting)
        spec = CaseSpec(
            protocol="erb", n=5, t=2, seed=11,
            inject={"kind": "corrupt_output", "node": 0},
        )
        report = run_campaign([spec], shrink_failures=False, cross_check=True)
        assert built == [1, 2]
        (record,) = report.records
        assert record.violations
        assert "engine_cross_check" not in {
            v.invariant for v in record.violations
        }

    def test_unbiasedness_catches_constant_outputs(self):
        samples = [(seed, 0xDEAD) for seed in range(4)]
        violations = check_unbiasedness(samples)
        assert [v.invariant for v in violations] == ["unbiasedness", "unbiasedness"]

    def test_unbiasedness_accepts_distinct_outputs(self):
        specs = build_grid(
            protocols=["erng"], sizes=[5], strategies=["honest"],
            churns=["none"], seeds=[0, 1, 2], master_seed=1,
        )
        report = run_campaign(specs)
        assert report.cross_run_violations == []


class TestInjectShrinkReplay:
    """The acceptance pipeline: a deliberately-injected invariant
    violation is caught, shrunk to a minimal spec, and byte-identically
    replayable."""

    def _failing_grid(self):
        return build_grid(
            protocols=["erb"], sizes=[6], strategies=["omission"],
            churns=["intermittent"], seeds=[0], master_seed=5,
            inject={"kind": "corrupt_output", "node": 2, "value": "evil"},
        )

    def test_injected_violation_is_caught(self):
        outcome = run_case(self._failing_grid()[0])
        assert {v.invariant for v in outcome.violations} == {
            "agreement", "validity", "integrity",
        }

    def test_shrinks_to_minimal_spec(self):
        spec = self._failing_grid()[0]
        shrunk = shrink_case(spec, case_fails)
        assert shrunk.improved
        minimal = shrunk.spec
        assert minimal.n == 3  # inject node 2 must stay in the network
        assert minimal.schedule.faults == ()  # faults were irrelevant
        assert minimal.inject == spec.inject
        # Determinism: shrinking again lands on the same spec.
        assert shrink_case(spec, case_fails).spec == minimal

    def test_artifact_replays_byte_identically(self, tmp_path):
        spec = self._failing_grid()[0]
        shrunk = shrink_case(spec, case_fails)
        artifact = make_artifact(shrunk.spec, original=spec,
                                 shrink_runs=shrunk.runs)
        path = write_artifact(artifact, str(tmp_path))
        loaded = read_artifact(path)
        assert loaded.spec == shrunk.spec
        outcome = replay_artifact(path)
        assert outcome.reproduced
        assert outcome.byte_identical
        assert outcome.ok

    def test_tampered_artifact_fails_replay(self, tmp_path):
        spec = self._failing_grid()[0]
        artifact = make_artifact(shrink_case(spec, case_fails).spec)
        path = write_artifact(artifact, str(tmp_path))
        data = json.loads(open(path).read())
        data["violations"] = data["violations"][:1]
        with open(path, "w") as handle:
            handle.write(json.dumps(data, sort_keys=True,
                                    separators=(",", ":")) + "\n")
        outcome = replay_artifact(path)
        assert not outcome.reproduced
        assert not outcome.ok

    def test_campaign_emits_events_and_artifacts(self, tmp_path):
        tracer = Tracer.memory()
        report = run_campaign(
            self._failing_grid(), tracer=tracer, artifact_dir=str(tmp_path)
        )
        assert not report.passed
        assert len(report.artifacts) == 1
        events = [e for e in tracer.events if isinstance(e, CampaignEvent)]
        assert len(events) == 1
        assert events[0].violations == ["agreement", "validity", "integrity"]
        assert events[0].artifact == report.artifacts[0]

    def test_ignore_halt_inject_caught(self):
        # Suppressing a recorded ejection must break the sanitization check.
        schedule = Schedule(faults=(
            Fault(node=2, kind="omit_send", victims=(0, 1, 3, 4)),
        ))
        spec = CaseSpec(
            protocol="erb", n=5, t=2, seed=3, schedule=schedule,
            inject={"kind": "ignore_halt"},
        )
        outcome = run_case(spec)
        assert "sanitization" in {v.invariant for v in outcome.violations}


class TestShrinkerUnit:
    def test_drops_irrelevant_faults(self):
        # Failure oracle: "fails whenever node 0 tampers" — everything
        # else should shrink away.
        def fails(spec):
            return any(
                f.node == 0 and f.kind == "tamper"
                for f in spec.schedule.faults
            )

        spec = CaseSpec(
            protocol="erb", n=9, t=4, seed=1,
            schedule=Schedule(faults=(
                Fault(node=0, kind="tamper"),
                Fault(node=1, kind="delay", delay=1),
                Fault(node=2, kind="omit_send", victims=(3, 4, 5)),
            )),
        )
        result = shrink_case(spec, fails)
        assert result.improved
        assert [f.kind for f in result.spec.schedule.faults] == ["tamper"]
        assert result.spec.n < spec.n

    def test_non_failing_spec_returned_unchanged(self):
        spec = CaseSpec(protocol="erb", n=5, t=2, seed=1)
        result = shrink_case(spec, lambda s: False)
        assert result.spec == spec
        assert not result.improved

    def test_run_budget_caps_work(self):
        calls = []

        def fails(spec):
            calls.append(1)
            return True

        spec = CaseSpec(
            protocol="erb", n=64, t=31, seed=1,
            schedule=Schedule(faults=tuple(
                Fault(node=i, kind="delay") for i in range(20)
            )),
        )
        shrink_case(spec, fails, max_runs=25)
        assert len(calls) <= 25


class TestCampaignCli:
    def test_campaign_happy_path(self, capsys):
        assert main([
            "campaign", "--protocols", "erb,erng", "--sizes", "5",
            "--strategies", "honest,omission", "--churn", "none",
            "--seeds", "1", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "all paper invariants held" in out

    def test_campaign_rejects_unknown_strategy(self, capsys):
        assert main([
            "campaign", "--strategies", "quantum",
        ]) == 2
        assert "unknown strategy" in capsys.readouterr().err

    def test_campaign_inject_then_replay(self, tmp_path, capsys):
        out_dir = str(tmp_path)
        assert main([
            "campaign", "--protocols", "erb", "--sizes", "6",
            "--strategies", "omission", "--churn", "none",
            "--seeds", "1", "--seed", "5", "--inject", "2",
            "--out", out_dir,
        ]) == 1
        out = capsys.readouterr().out
        assert "reproducer:" in out
        artifacts = sorted(tmp_path.glob("repro-*.json"))
        assert len(artifacts) == 1
        assert main(["replay", str(artifacts[0])]) == 0
        out = capsys.readouterr().out
        assert "reproduced exactly" in out
        assert "byte-identical" in out

    def test_replay_rejects_garbage(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text("{}")
        assert main(["replay", str(bogus)]) == 2
        assert "not a campaign artifact" in capsys.readouterr().err


class TestEngineRoundHook:
    def test_hook_sees_every_round(self):
        spec = CaseSpec(protocol="erb", n=5, t=2, seed=1)
        outcome = run_case(spec)
        assert [rnd for rnd, _ in outcome.round_log] == list(
            range(1, outcome.result.rounds_executed + 1)
        )

    def test_hook_fires_on_parallel_path(self):
        spec = CaseSpec(protocol="erb", n=6, t=2, seed=1)
        serial = run_case(spec, workers=1)
        sharded = run_case(spec, workers=2)
        assert sharded.round_log == serial.round_log

    def test_inject_mutation_does_not_leak(self):
        # replace()-based injection must not mutate shared state between
        # the serial and cross-check legs.
        spec = CaseSpec(
            protocol="erb", n=5, t=2, seed=1,
            inject={"kind": "corrupt_output", "node": 1, "value": "x"},
        )
        first = run_case(spec)
        second = run_case(replace(spec, inject=None))
        assert second.passed
        assert first.result.outputs[1] == "x"
