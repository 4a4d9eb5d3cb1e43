"""Definition A.5 classification and the operational reduction theorem."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary import (
    DelayAdversary,
    RandomOmission,
    ReceiveOmission,
    ReplayAdversary,
    SelectiveOmission,
    TamperAdversary,
)
from repro.adversary.classification import (
    ActionTrace,
    WireAction,
    classify_actions,
    classify_all,
    classify_node,
)
from repro.common.config import AdversaryModel, SimulationConfig
from repro.common.rng import DeterministicRNG
from repro.core.erb import ErbProgram, run_erb
from repro.net.simulator import SynchronousNetwork
from repro.obs.tracer import Tracer


def _traced_run(n, behaviors, seed=0, initiator=0):
    config = SimulationConfig(n=n, seed=seed, tracer=Tracer.memory())
    network = SynchronousNetwork(
        config,
        lambda i: ErbProgram(
            i, initiator, n, config.t,
            message=b"m" if i == initiator else None,
        ),
        behaviors,
    )
    result = network.run(max_rounds=config.t + 2)
    return network, result


class TestClassifyActions:
    def test_empty_is_honest(self):
        assert classify_actions([]) is AdversaryModel.HONEST

    def test_deliver_only_is_honest(self):
        assert (
            classify_actions([WireAction.DELIVER] * 10)
            is AdversaryModel.HONEST
        )

    def test_drops_are_general_omission(self):
        assert (
            classify_actions([WireAction.DELIVER, WireAction.DROP_SEND])
            is AdversaryModel.GENERAL_OMISSION
        )
        assert (
            classify_actions([WireAction.DROP_RECV])
            is AdversaryModel.GENERAL_OMISSION
        )

    def test_delay_and_replay_are_rod(self):
        assert classify_actions([WireAction.DELAY]) is AdversaryModel.ROD
        assert (
            classify_actions([WireAction.DROP_SEND, WireAction.REPLAY])
            is AdversaryModel.ROD
        )

    def test_modify_is_byzantine(self):
        assert (
            classify_actions(
                [WireAction.DELIVER, WireAction.DELAY, WireAction.MODIFY]
            )
            is AdversaryModel.BYZANTINE
        )

    @given(
        st.lists(st.sampled_from(list(WireAction)), max_size=30)
    )
    @settings(max_examples=100)
    def test_classification_is_order_invariant_and_monotone(self, actions):
        forward = classify_actions(actions)
        backward = classify_actions(list(reversed(actions)))
        assert forward == backward
        # Adding actions can only move the class up the hierarchy.
        order = [
            AdversaryModel.HONEST,
            AdversaryModel.GENERAL_OMISSION,
            AdversaryModel.ROD,
            AdversaryModel.BYZANTINE,
        ]
        extended = classify_actions(actions + [WireAction.DELIVER])
        assert order.index(extended) >= order.index(forward) or extended == forward
        assert order.index(
            classify_actions(actions + [WireAction.MODIFY])
        ) == order.index(AdversaryModel.BYZANTINE)


class TestTracedRuns:
    def test_honest_network_all_honest(self):
        network, _ = _traced_run(5, behaviors=None, seed=1)
        classes = classify_all(network.action_trace, 5)
        assert set(classes.values()) == {AdversaryModel.HONEST}

    def test_each_behavior_classified_correctly(self):
        behaviors = {
            1: RandomOmission(DeterministicRNG("c"), send_drop_p=0.7),
            2: SelectiveOmission(victims={0, 3, 4}),
            3: DelayAdversary(1),
            4: TamperAdversary(),
            5: ReceiveOmission(),
        }
        network, _ = _traced_run(11, behaviors, seed=2)
        trace = network.action_trace
        assert classify_node(trace, 1) is AdversaryModel.GENERAL_OMISSION
        assert classify_node(trace, 2) is AdversaryModel.GENERAL_OMISSION
        assert classify_node(trace, 3) is AdversaryModel.ROD
        assert classify_node(trace, 4) is AdversaryModel.BYZANTINE
        assert classify_node(trace, 5) is AdversaryModel.GENERAL_OMISSION
        assert classify_node(trace, 0) is AdversaryModel.HONEST

    def test_replayer_classified_rod(self):
        behaviors = {2: ReplayAdversary(replay_after_rounds=1, burst=4)}
        network, _ = _traced_run(7, behaviors, seed=3)
        assert (
            classify_node(network.action_trace, 2) is AdversaryModel.ROD
        )

    def test_trace_counts(self):
        behaviors = {1: SelectiveOmission(victims={2, 3})}
        network, _ = _traced_run(7, behaviors, seed=4)
        counts = network.action_trace.counts_of(1)
        assert counts.get(WireAction.DROP_SEND, 0) > 0
        assert counts.get(WireAction.DELIVER, 0) > 0

    def test_trace_disabled_by_default(self):
        config = SimulationConfig(n=4, seed=5)
        network = SynchronousNetwork(
            config,
            lambda i: ErbProgram(
                i, 0, 4, config.t, message=b"x" if i == 0 else None
            ),
        )
        network.run(max_rounds=config.t + 2)
        assert config.tracer is None and network.action_trace is None


class TestOperationalReduction:
    """Theorem A.2, observable form: under blinded channels a byzantine
    (MODIFY-class) node's effect on honest outputs equals a ROD node's."""

    def test_tamperer_effect_equals_silent_node(self):
        n, seed = 9, 6
        tampered = run_erb(
            SimulationConfig(n=n, seed=seed), 0, b"m",
            behaviors={0: TamperAdversary()},
        )
        silent = run_erb(
            SimulationConfig(n=n, seed=seed), 0, b"m",
            behaviors={0: SelectiveOmission(victims=set(range(n)))},
        )
        assert tampered.honest_outputs({0}) == silent.honest_outputs({0})
        assert tampered.rounds_executed == silent.rounds_executed

    def test_delayer_effect_equals_omitter(self):
        n, seed = 9, 7
        delayed = run_erb(
            SimulationConfig(n=n, seed=seed), 0, b"m",
            behaviors={0: DelayAdversary(3)},
        )
        omitted = run_erb(
            SimulationConfig(n=n, seed=seed), 0, b"m",
            behaviors={0: SelectiveOmission(victims=set(range(n)))},
        )
        assert delayed.honest_outputs({0}) == omitted.honest_outputs({0})
