"""The tracer against real runs: phase ordering, byte parity with the
traffic statistics, halts/decisions, and the ActionTrace view."""

from __future__ import annotations

from repro.adversary import (
    DelayAdversary,
    RandomOmission,
    ReceiveOmission,
    SelectiveOmission,
    TamperAdversary,
)
from repro.adversary.classification import classify_node, trace_from_wire_events
from repro.common.config import AdversaryModel, SimulationConfig
from repro.common.rng import DeterministicRNG
from repro.core.erb import ErbProgram, run_erb
from repro.net.simulator import SynchronousNetwork
from repro.obs import (
    DecisionEvent,
    HaltEvent,
    NULL_TRACER,
    NullSink,
    PhaseEvent,
    ROUND_PHASES,
    RoundSpan,
    Tracer,
    WireEvent,
    charged_bytes_by_round,
    render_timeline,
)

from tests.conftest import small_config


def _traced_erb(n, seed=0, behaviors=None, initiator=0, message=b"m"):
    tracer = Tracer.memory()
    config = small_config(n, seed=seed, tracer=tracer)
    result = run_erb(
        config, initiator=initiator, message=message, behaviors=behaviors
    )
    return tracer, result


class TestPhaseOrdering:
    def test_each_round_emits_the_six_phases_in_order(self):
        tracer, result = _traced_erb(8, seed=1)
        by_round = {}
        for event in tracer.events:
            if isinstance(event, PhaseEvent):
                by_round.setdefault(event.rnd, []).append(event.phase)
        assert set(by_round) == set(range(1, result.rounds_executed + 1))
        for phases in by_round.values():
            assert phases == list(ROUND_PHASES)

    def test_round_span_closes_each_round(self):
        tracer, result = _traced_erb(8, seed=1)
        spans = [e for e in tracer.events if isinstance(e, RoundSpan)]
        assert [s.rnd for s in spans] == list(
            range(1, result.rounds_executed + 1)
        )
        assert sum(s.bytes for s in spans) == result.traffic.bytes_sent
        assert spans[-1].decided == 8  # everyone accepted by the last round


class TestBytesParity:
    def test_charged_wire_events_match_traffic_stats(self):
        tracer, result = _traced_erb(16, seed=2)
        assert charged_bytes_by_round(tracer.events) == dict(
            result.traffic.bytes_by_round
        )

    def test_parity_holds_under_adversaries(self):
        behaviors = {
            1: RandomOmission(DeterministicRNG("p"), send_drop_p=0.5),
            2: DelayAdversary(1),
            3: TamperAdversary(),
        }
        tracer, result = _traced_erb(9, seed=3, behaviors=behaviors)
        assert charged_bytes_by_round(tracer.events) == dict(
            result.traffic.bytes_by_round
        )


class TestHaltAndDecisionEvents:
    def test_halt_on_divergence_emits_halt_event(self):
        # Initiator omits its INIT to 6 of 8 peers: too few ACKs, halts.
        behaviors = {0: SelectiveOmission(victims=set(range(3, 9)))}
        tracer, result = _traced_erb(9, seed=2, behaviors=behaviors)
        assert 0 in result.halted
        halts = [e for e in tracer.events if isinstance(e, HaltEvent)]
        assert any(h.node == 0 for h in halts)
        halt = next(h for h in halts if h.node == 0)
        assert halt.acks < halt.threshold
        assert halt.reason == "divergence"

    def test_every_accepting_node_emits_a_decision(self):
        tracer, result = _traced_erb(8, seed=4)
        decisions = [e for e in tracer.events if isinstance(e, DecisionEvent)]
        assert {d.node for d in decisions} == set(result.outputs)
        assert all(d.program == "erb" for d in decisions)
        assert all(d.value for d in decisions)


class TestDisabledByDefault:
    def test_default_run_uses_the_null_tracer(self):
        config = small_config(6, seed=5)
        network = SynchronousNetwork(
            config,
            lambda i: ErbProgram(
                i, 0, 6, config.t, message=b"m" if i == 0 else None
            ),
        )
        assert network.tracer is NULL_TRACER
        assert network.tracer.enabled is False
        network.run(max_rounds=config.t + 2)
        assert network.tracer.events is None
        assert network.action_trace is None

    def test_null_sink_tracer_stays_disabled(self):
        tracer = Tracer(NullSink())
        assert tracer.enabled is False
        tracer.phase(1, "begin", 3)  # all helpers must be no-ops
        tracer.halt(1, 0, 2, 5)
        assert tracer.events is None


class TestActionTraceView:
    """`classify_node` over the tracer-backed view must match the known
    Definition A.5 classes (identical to the pre-tracer ActionTrace)."""

    BEHAVIORS = staticmethod(
        lambda: {
            1: RandomOmission(DeterministicRNG("c"), send_drop_p=0.7),
            2: SelectiveOmission(victims={0, 3, 4}),
            3: DelayAdversary(1),
            4: TamperAdversary(),
            5: ReceiveOmission(),
        }
    )

    EXPECTED = {
        0: AdversaryModel.HONEST,
        1: AdversaryModel.GENERAL_OMISSION,
        2: AdversaryModel.GENERAL_OMISSION,
        3: AdversaryModel.ROD,
        4: AdversaryModel.BYZANTINE,
        5: AdversaryModel.GENERAL_OMISSION,
    }

    def _network(self, config):
        return SynchronousNetwork(
            config,
            lambda i: ErbProgram(
                i, 0, config.n, config.t,
                message=b"m" if i == 0 else None,
            ),
            self.BEHAVIORS(),
        )

    def test_view_classifies_identically_to_legacy_flag(self):
        # The network's action_trace view and the standalone builder over
        # the same memory tracer.
        network = self._network(
            SimulationConfig(n=11, seed=2, tracer=Tracer.memory())
        )
        network.run(max_rounds=network.config.t + 2)
        view = trace_from_wire_events(network.tracer.wire_events())

        assert network.action_trace.records == view.records
        for node, expected in self.EXPECTED.items():
            assert classify_node(network.action_trace, node) is expected
            assert classify_node(view, node) is expected

    def test_view_skips_engine_bookkeeping_actions(self):
        tracer, _ = _traced_erb(9, seed=2, behaviors=self.BEHAVIORS())
        actions = {e.action for e in tracer.wire_events()}
        assert "send" in actions  # honest transmissions are traced ...
        view = trace_from_wire_events(tracer.wire_events())
        # ... but only the Definition A.5 OS actions enter the view.
        assert all(
            r.action.value in
            {"deliver", "drop_send", "drop_recv", "delay", "replay", "modify"}
            for r in view.records
        )


class TestTimeline:
    def test_render_timeline_shows_rounds_and_parity(self):
        tracer, result = _traced_erb(8, seed=6)
        text = render_timeline(tracer.events)
        assert f"{result.rounds_executed} round(s)" in text
        assert "begin→transmit→deliver→ack_wave→halt_check→end" in text
        assert "!!" not in text  # wire/span byte totals agree

    def test_render_timeline_reports_halts(self):
        behaviors = {0: SelectiveOmission(victims=set(range(3, 9)))}
        tracer, _ = _traced_erb(9, seed=2, behaviors=behaviors)
        text = render_timeline(tracer.events)
        assert "halts:" in text
        assert "node 0" in text
