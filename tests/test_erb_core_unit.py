"""Direct unit tests of the ErbCore state machine (no engine).

A fake context drives the core through hand-crafted message sequences so
every guard of Algorithm 2 is exercised in isolation: round validity
(P5), sequence validity (P6), initiator binding, duplicate counting,
quorum edges, and the ⊥ deadline.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import MessageType, ProtocolMessage
from repro.core.erb import BOTTOM, ErbCore
from repro.core.erng import ErngProgram


class FakeContext:
    """Minimal stand-in for EnclaveContext."""

    def __init__(self, node_id: int, rnd: int = 1) -> None:
        self.node_id = node_id
        self.round = rnd
        self.acks = []        # (dest, message)
        self.multicasts = []  # (message, targets, threshold)

    def acknowledge(self, dest, message):
        self.acks.append((dest, message))

    def acknowledge_all(self, pairs):
        self.acks.extend(pairs)

    def multicast(self, message, targets=None, expect_acks=True, threshold=None):
        self.multicasts.append((message, targets, threshold))


def _core(node=5, initiator=0, n=9, t=4, seq=1):
    return ErbCore(
        instance="unit",
        initiator=initiator,
        expected_seq=seq,
        group_size=n,
        fault_bound=t,
    )


def _init(payload=b"m", rnd=1, seq=1, initiator=0, instance="unit"):
    return ProtocolMessage(
        MessageType.INIT, initiator, seq, payload, rnd, instance
    )


def _echo(payload=b"m", rnd=2, seq=1, initiator=0, instance="unit"):
    return ProtocolMessage(
        MessageType.ECHO, initiator, seq, payload, rnd, instance
    )


class TestValidityGuards:
    def test_valid_init_acked_and_staged(self):
        core, ctx = _core(), FakeContext(5)
        assert core.handle_message(ctx, 0, _init())
        assert len(ctx.acks) == 1
        assert len(ctx.multicasts) == 1  # the staged ECHO
        assert core.m_hat == b"m"
        assert core.s_echo == {0, 5}

    def test_stale_round_ignored_no_ack(self):
        """Lockstep (P5): a round-1 INIT arriving in round 2 is omitted."""
        core, ctx = _core(), FakeContext(5, rnd=2)
        core.handle_message(ctx, 0, _init(rnd=1))
        assert ctx.acks == []
        assert core.m_hat != b"m"  # still the <unset> sentinel
        assert core.s_echo == set()

    def test_wrong_seq_ignored(self):
        """Freshness (P6): a replayed past-instance seq is omitted."""
        core, ctx = _core(), FakeContext(5)
        core.handle_message(ctx, 0, _init(seq=99))
        assert ctx.acks == []

    def test_init_from_non_initiator_ignored(self):
        core, ctx = _core(), FakeContext(5)
        core.handle_message(ctx, 3, _init())
        assert ctx.acks == []
        assert core.s_echo == set()

    def test_wrong_instance_not_consumed(self):
        core, ctx = _core(), FakeContext(5)
        assert not core.handle_message(ctx, 0, _init(instance="other"))

    def test_echo_value_mismatch_ignored(self):
        core, ctx = _core(), FakeContext(5)
        core.handle_message(ctx, 0, _init(b"m"))
        before = set(core.s_echo)
        ctx.round = 2
        core.handle_message(ctx, 3, _echo(b"DIFFERENT"))
        assert core.s_echo == before  # not counted, not acked twice


class TestQuorumCounting:
    def test_duplicate_echo_sender_counted_once(self):
        core, ctx = _core(), FakeContext(5)
        ctx.round = 2
        core.handle_message(ctx, 3, _echo())
        core.handle_message(ctx, 3, _echo())
        # sender 3 + self 5: {3, 5}
        assert core.s_echo == {3, 5}

    def test_accept_at_exactly_n_minus_t(self):
        core, ctx = _core(n=9, t=4), FakeContext(5)
        ctx.round = 2
        # quorum = 5 distinct members of S_echo
        senders = [1, 2, 3]
        for sender in senders:
            core.handle_message(ctx, sender, _echo())
            assert not core.decided  # 2..4 entries: below quorum
        core.handle_message(ctx, 4, _echo())
        # {1,2,3,4,5(self)} = 5 = N - t: accept
        assert core.decided
        assert core.output == b"m"
        assert core.decided_round == 2

    def test_first_echo_stages_own_echo(self):
        core, ctx = _core(), FakeContext(5)
        ctx.round = 2
        core.handle_message(ctx, 3, _echo())
        assert len(ctx.multicasts) == 1
        staged, _, _ = ctx.multicasts[0]
        assert staged.type is MessageType.ECHO
        assert staged.payload == b"m"

    def test_second_echo_does_not_restage(self):
        core, ctx = _core(), FakeContext(5)
        ctx.round = 2
        core.handle_message(ctx, 3, _echo())
        core.handle_message(ctx, 4, _echo())
        assert len(ctx.multicasts) == 1


class TestInitiatorPath:
    def test_begin_multicasts_init(self):
        core, ctx = _core(node=0), FakeContext(0)
        core.begin(ctx, b"value")
        assert core.m_hat == b"value"
        assert core.s_echo == {0}
        message, targets, threshold = ctx.multicasts[0]
        assert message.type is MessageType.INIT
        assert targets is None  # whole network

    def test_begin_by_non_initiator_rejected(self):
        core, ctx = _core(), FakeContext(5)
        with pytest.raises(ValueError):
            core.begin(ctx, b"x")

    def test_single_node_group_accepts_immediately(self):
        core = ErbCore("solo", 0, 1, 1, 0)
        ctx = FakeContext(0)
        core.begin(ctx, "v")
        assert core.decided and core.output == "v"


class TestDeadline:
    def test_finish_without_quorum_yields_bottom(self):
        core, ctx = _core(), FakeContext(5)
        ctx.round = 2
        core.handle_message(ctx, 3, _echo())
        ctx.round = 6
        core.finish(ctx)
        assert core.decided
        assert core.output is BOTTOM

    def test_finish_after_accept_keeps_value(self):
        core, ctx = _core(n=3, t=1), FakeContext(2)
        ctx.round = 2
        core.handle_message(ctx, 1, _echo())
        assert core.decided and core.output == b"m"
        core.finish(ctx)
        assert core.output == b"m"

    def test_broadcasting_bottom_payload_is_distinguishable(self):
        """A legitimately broadcast None payload must not be confused
        with the timeout ⊥ — the sentinel keeps them apart."""
        core, ctx = _core(n=3, t=1), FakeContext(2)
        ctx.round = 2
        core.handle_message(ctx, 1, _echo(payload=None))
        assert core.decided
        assert core.output is None
        assert core.decided_round == 2  # accepted, not timed out


class TestClusterParameters:
    def test_participants_restrict_targets(self):
        core = ErbCore(
            "cluster", 0, 1, group_size=4, fault_bound=1,
            participants=[0, 2, 4, 6], ack_threshold=1,
        )
        ctx = FakeContext(0)
        core.begin(ctx, b"v")
        _, targets, threshold = ctx.multicasts[0]
        assert targets == (0, 2, 4, 6)
        assert threshold == 1

    def test_cluster_quorum(self):
        core = ErbCore("cluster", 0, 1, group_size=4, fault_bound=1)
        assert core.accept_quorum == 3


# ----------------------------------------------------------------------
# the batch verb: one receiver's wave at once
# ----------------------------------------------------------------------
_NODE, _N, _T = 5, 9, 2


def _erng():
    return ErngProgram(node_id=_NODE, n=_N, t=_T)


def _erng_echo(initiator, payload=b"m", rnd=2, seq=1, at=None):
    """An ECHO of ERNG instance ``at`` (default: the initiator's own)."""
    return ProtocolMessage(
        MessageType.ECHO, initiator, seq, payload, rnd,
        f"rng-{initiator if at is None else at}",
    )


def _erng_init(initiator, payload=b"m", rnd=1, seq=1):
    return ProtocolMessage(
        MessageType.INIT, initiator, seq, payload, rnd, f"rng-{initiator}"
    )


def _state(program):
    return [
        (core.m_hat, core.s_echo, core.output, core.decided_round)
        for core in program.cores.values()
    ]


def _both_ways(make, batch, rnd, prior=()):
    """Hand ``batch`` to one fresh program member by member and to
    another at once (after the same ``prior`` members, per member);
    returns what each left: state, staged multicasts, ACK multiset."""
    left = []
    for batched in (False, True):
        program, ctx = make(), FakeContext(_NODE, rnd=rnd)
        for sender, message in prior:
            ctx.round = message.rnd
            program.on_message(ctx, sender, message)
        ctx.round = rnd
        ctx.acks, ctx.multicasts = [], []
        if batched:
            assert program.on_messages(ctx, list(batch)) == len(batch)
        else:
            for sender, message in batch:
                program.on_message(ctx, sender, message)
        left.append((_state(program), ctx.multicasts, Counter(ctx.acks)))
    return left


_CASES = {
    "stale round": [(1, _erng_echo(1, rnd=1)), (2, _erng_echo(1))],
    "wrong seq": [(1, _erng_echo(1, seq=9)), (2, _erng_echo(1))],
    "wrong initiator": [(1, _erng_echo(3, at=1)), (2, _erng_echo(1))],
    "payload differs from m_hat": [
        (1, _erng_echo(1, b"a")), (2, _erng_echo(1, b"b")),
        (3, _erng_echo(1, b"a")),
    ],
    "INIT from a non-initiator": [
        (3, _erng_init(1, rnd=2)), (1, _erng_init(1, rnd=2)),
    ],
    "duplicate sender": [
        (1, _erng_echo(1)), (1, _erng_echo(1)), (2, _erng_echo(1)),
    ],
    "ECHO before INIT": [(3, _erng_echo(1)), (1, _erng_init(1, rnd=2))],
    "instance whose first member is invalid": [
        (1, _erng_echo(1, rnd=1)), (2, _erng_echo(2)), (1, _erng_echo(1)),
        (3, _erng_echo(3)),
    ],
    "interleaved instances": [
        (sender, _erng_echo(initiator, payload=bytes([initiator])))
        for sender in (1, 2, 3, 4, 6, 7) for initiator in (8, 0, 3, 6)
    ],
}


class TestBatchVerb:
    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_erng_batch_equals_member_by_member(self, case):
        per_member, batched = _both_ways(_erng, _CASES[case], rnd=2)
        assert batched == per_member

    def test_erng_batch_after_adoption(self):
        """Cores that adopted a value last round see ECHOs, a mismatch
        and a stale copy in one wave, and the quorum closes inside it."""
        prior = [(j, _erng_init(j, bytes([j]))) for j in range(_N)]
        batch = [
            (sender, _erng_echo(j, bytes([j])))
            for sender in (0, 1, 2, 3, 4, 6) for j in range(_N)
        ] + [(7, _erng_echo(2, b"x")), (8, _erng_echo(2, bytes([2]), rnd=1))]
        per_member, batched = _both_ways(_erng, batch, rnd=2, prior=prior)
        assert batched == per_member
        assert all(state[3] == 2 for state in batched[0])  # all decided

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_core_batch_equals_member_by_member(self, case):
        """One core, fed the members of every instance: what is not
        its own is skipped, as ``handle_message`` declines it."""
        left = []
        for batched in (False, True):
            core = ErbCore("rng-1", 1, 1, group_size=_N, fault_bound=_T)
            ctx = FakeContext(_NODE, rnd=2)
            if batched:
                if core.handle_batch(ctx, _CASES[case]) >= 0:
                    core.stage_echo(ctx)
            else:
                for sender, message in _CASES[case]:
                    core.handle_message(ctx, sender, message)
            left.append((
                core.m_hat, core.s_echo, core.output, core.decided_round,
                ctx.multicasts, Counter(ctx.acks),
            ))
        assert left[1] == left[0]

    def test_core_batch_reports_the_adopting_member(self):
        core, ctx = _core(), FakeContext(5, rnd=2)
        batch = [(3, _echo(rnd=1)), (3, _echo(seq=4)), (4, _echo())]
        assert core.handle_batch(ctx, batch) == 2
        assert ctx.multicasts == []  # staging is the caller's
        assert ctx.acks == [batch[2]]
        assert core.s_echo == {4, 5}
        assert core.handle_batch(ctx, [(6, _echo())]) == -1

    @settings(max_examples=300, deadline=None)
    @given(
        prior=st.lists(st.tuples(
            st.integers(0, _N - 1), st.integers(0, 3), st.booleans(),
            st.sampled_from([b"a", b"b"]),
        ), max_size=6),
        members=st.lists(st.tuples(
            st.integers(0, 3),                      # initiator
            st.one_of(st.none(), st.integers(0, _N - 1)),  # sender (None:
                                                    # the initiator)
            st.sampled_from([None, None, 0, 1]),    # instance (None: ours)
            st.booleans(),                          # INIT?
            st.sampled_from([b"a", b"b"]),          # payload
            st.sampled_from([2, 2, 1]),             # round
            st.sampled_from([1, 1, 2]),             # seq
        ), max_size=40),
    )
    def test_random_batches_equal_member_by_member(self, prior, members):
        def message(initiator, instance, init, payload, rnd, seq):
            return ProtocolMessage(
                MessageType.INIT if init else MessageType.ECHO,
                initiator, seq, payload, rnd,
                f"rng-{initiator if instance is None else instance}",
            )

        before = [
            (sender, message(j, None, init, payload, 1, 1))
            for sender, j, init, payload in prior
        ]
        batch = [
            (initiator if sender is None else sender,
             message(initiator, *fields))
            for initiator, sender, *fields in members
        ]
        per_member, batched = _both_ways(_erng, batch, rnd=2, prior=before)
        assert batched == per_member
