"""Skipping idle nodes must be invisible in every observable.

There is one round loop (:mod:`repro.net.activeset`): it visits the
always-due nodes plus the ones woken or delivered to.  A population of
``SPARSE_AWARE`` programs is therefore mostly *skipped*, and that must
not show: ``RunResult`` snapshots, logical *and* physical traffic ledgers
and traced event streams have to be byte-identical to a reference run of
the same loop in which nothing is skipped — the same program classes
with their ``SPARSE_AWARE`` promise withdrawn, so every node is due every
round ("dense").  Pinned on the serial engine and the sharded one, by a
hypothesis property across ERB / ERNG /
optimized-ERNG, plus the contract around it: the ``sparse_aware``
subclass-voiding rule, the visit counters, the :class:`ActiveSet`
bookkeeping itself, and the active-set cache eviction (neighbour tuples
+ ACK-digest LRU) on halts.
"""

from __future__ import annotations

from contextlib import contextmanager
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationConfig, run_erb, run_erng
from repro.common.types import MessageType, ProtocolMessage
from repro.core.erb import ErbProgram
from repro.core.erng import ErngProgram
from repro.core.erng_optimized import OptimizedErngProgram, run_optimized_erng
from repro.net.activeset import ActiveSet
from repro.net.simulator import SynchronousNetwork
from repro.obs.tracer import Tracer
from repro.sgx.program import EnclaveProgram, sparse_aware

from tests.test_parallel_engine import _snapshot


@contextmanager
def _everyone_always_due():
    """Withdraw the protocol classes' SPARSE_AWARE promise: the same loop,
    nothing skipped.  (Forked shard workers inherit the patched classes.)"""
    classes = (ErbProgram, ErngProgram, OptimizedErngProgram)
    for cls in classes:
        cls.SPARSE_AWARE = False
    try:
        yield
    finally:
        for cls in classes:
            cls.SPARSE_AWARE = True


def _run(protocol, n, seed, workers, traced=False):
    """One run; returns (result, tracer events, the network's visit
    counters — captured through the per-round observation hook)."""
    seen = {}
    extra = {"round_hook": lambda net, rnd, halted: seen.update(
        counters=net.sched_counters
    )}
    tracer = Tracer.memory() if traced else None
    config = SimulationConfig(
        n=n, seed=seed, workers=workers, extra=extra, tracer=tracer,
        **({"t": n // 3} if protocol == "erng-opt" else {}),
    )
    if protocol == "erb":
        result = run_erb(config, initiator=0, message=b"sparse-eq")
    elif protocol == "erng":
        result = run_erng(config)
    else:
        result = run_optimized_erng(config)
    counters = seen["counters"]
    node_rounds = n * result.rounds_executed
    for hook in ("begin", "end"):
        assert counters[f"{hook}_visited"] + counters[f"{hook}_skipped"] \
            == node_rounds
    return result, tracer.events if traced else None, counters


# ---------------------------------------------------------------------------
# the equivalence property: sparse == dense, byte for byte
# ---------------------------------------------------------------------------

@st.composite
def _equivalence_case(draw):
    protocol = draw(st.sampled_from(["erb", "erng", "erng-opt"]))
    n = draw(st.integers(min_value=8, max_value=14))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    workers = draw(st.sampled_from([1, 2]))
    return protocol, n, seed, workers


@given(_equivalence_case())
@settings(max_examples=25, deadline=None)
def test_sparse_equals_dense_byte_identical(case):
    """Snapshots, both traffic ledgers and the traced event stream agree
    between the skipping run and the everyone-always-due reference, on
    every engine path."""
    sparse, sparse_events, _ = _run(*case, traced=True)
    with _everyone_always_due():
        dense, dense_events, full = _run(*case, traced=True)
    assert _snapshot(sparse) == _snapshot(dense)
    assert sparse_events == dense_events
    assert full["begin_skipped"] == full["end_skipped"] == 0


@pytest.mark.parametrize("protocol", ["erb", "erng", "erng-opt"])
@pytest.mark.parametrize("workers", [1, 2])
def test_sparse_equals_dense_pinned_seed(protocol, workers):
    """The deterministic anchor of the property above (fast to bisect)."""
    sparse, _, _ = _run(protocol, 12, 7, workers)
    with _everyone_always_due():
        dense, _, full = _run(protocol, 12, 7, workers)
    assert _snapshot(sparse) == _snapshot(dense)
    assert full["begin_skipped"] == full["end_skipped"] == 0


# ---------------------------------------------------------------------------
# the contract: declarations and counters
# ---------------------------------------------------------------------------

class _Aware(EnclaveProgram):
    PROGRAM_NAME = "sparse-aware"
    SPARSE_AWARE = True

    def on_round_end(self, ctx) -> None:
        if ctx.round >= 3 and not self.has_output:
            self._accept(ctx, b"done")

    def sparse_wake_round(self, rnd):
        return None if self.has_output else max(rnd + 1, 3)


class _VoidedByOverride(_Aware):
    """Overrides a vouched-for hook below the declaring class: the
    inherited promise no longer covers the new spontaneous behaviour."""

    def on_round_begin(self, ctx) -> None:
        pass


class _Redeclared(_VoidedByOverride):
    """Re-declaring SPARSE_AWARE in the overriding class renews the
    promise for the full override set."""

    SPARSE_AWARE = True


class _OptedOut(_Aware):
    SPARSE_AWARE = False


class _Plain(EnclaveProgram):
    PROGRAM_NAME = "sparse-plain"

    def on_round_end(self, ctx) -> None:
        if ctx.round >= 3 and not self.has_output:
            self._accept(ctx, b"done")


def test_sparse_aware_subclass_voiding_rule():
    assert sparse_aware(_Aware()) is True
    assert sparse_aware(_VoidedByOverride()) is False
    assert sparse_aware(_Redeclared()) is True
    assert sparse_aware(_OptedOut()) is False
    assert sparse_aware(_Plain()) is False


def _counters(factory, n=6):
    net = SynchronousNetwork(SimulationConfig(n=n, seed=3), factory)
    result = net.run(max_rounds=5)
    assert result.rounds_executed == 3 and len(result.outputs) == n
    return result, net.sched_counters


def test_sched_counters_account_for_every_node_round():
    """An aware population skips its idle round: round 1 visits everyone
    (initial wake), round 3 is the hinted deadline, nobody is due in
    round 2 — and visited + skipped covers all 6 x 3 node-rounds."""
    _, counters = _counters(lambda i: _Aware())
    assert counters == {
        "begin_visited": 12, "begin_skipped": 6,
        "end_visited": 12, "end_skipped": 6,
    }


@pytest.mark.parametrize(
    "program", [_Plain, _VoidedByOverride, _OptedOut],
    ids=lambda cls: cls.__name__.strip("_"),
)
def test_plain_population_skips_nothing(program):
    """No promise (or a voided one): always due, every round."""
    _, counters = _counters(lambda i: program())
    assert counters == {
        "begin_visited": 18, "begin_skipped": 0,
        "end_visited": 18, "end_skipped": 0,
    }


def test_mixed_population_pins_plain_programs_into_every_visit():
    mixed, counters = _counters(lambda i: _Plain() if i % 2 else _Aware())
    assert counters["begin_skipped"] == counters["end_skipped"] == 3
    plain, _ = _counters(lambda i: _Plain())
    assert _snapshot(mixed) == _snapshot(plain)


# ---------------------------------------------------------------------------
# ActiveSet bookkeeping, driven directly
# ---------------------------------------------------------------------------

class _Hinted(EnclaveProgram):
    """Aware program whose next wake round the test sets by hand."""

    SPARSE_AWARE = True
    hint = None

    def sparse_wake_round(self, rnd):
        return self.hint


def _stub_nodes(*programs):
    return {
        i: SimpleNamespace(alive=True, program=program)
        for i, program in enumerate(programs)
    }


def _round(active, rnd, delivered=(), halted_now=()):
    """One scheduler round; returns (begin visits, end visits)."""
    begin = list(active.begin(rnd))
    active.delivered.update(delivered)
    end = list(active.end())
    active.after_end(rnd, end, halted_now)
    return begin, end


def test_stale_bucket_entries_and_rehint_duplicates_are_dropped():
    nodes = _stub_nodes(_Hinted(), _Hinted())
    mover, sleeper = nodes[0].program, nodes[1].program
    active = ActiveSet(nodes, nodes)
    mover.hint = 5
    assert _round(active, 1) == ([0, 1], [0, 1])  # everyone starts woken
    # A delivery re-wakes for the end hook only; the re-queried hint moves
    # node 0's wake from round 5 to round 3 and leaves bucket 5 stale.
    mover.hint = 3
    assert _round(active, 2, delivered=[0]) == ([], [0])
    # Hint 5 again: a second entry for node 0 lands in bucket 5.
    mover.hint = 5
    assert _round(active, 3) == ([0], [0])
    assert _round(active, 4) == ([], [])
    mover.hint = None
    assert _round(active, 5) == ([0], [0])  # once, not once per entry
    assert _round(active, 6) == ([], [])
    assert sleeper.hint is None and not active.all_done


def test_hints_at_or_before_the_current_round_mean_next_round():
    nodes = _stub_nodes(_Hinted())
    nodes[0].program.hint = 1
    active = ActiveSet(nodes, nodes)
    assert _round(active, 1) == ([0], [0])
    assert _round(active, 2) == ([0], [0])


def test_halted_and_ejected_nodes_leave_the_set():
    nodes = _stub_nodes(_Hinted(), _Hinted(), _Plain(), _Hinted())
    for node in nodes.values():
        node.program.hint = 2
    active = ActiveSet(nodes, nodes)
    nodes[0].alive = False              # voluntary halt inside a hook
    nodes[1].alive = False              # P4 halt, reported by phase 5
    assert _round(active, 1, halted_now=[1]) == ([0, 1, 2, 3], [0, 1, 2, 3])
    # Neither departed aware node is woken again; the dead plain node
    # would stay on the always-due list (visits check liveness).
    assert _round(active, 2) == ([2, 3], [2, 3])
    assert not active.all_done and active.decided == 0
    nodes[3].program._output = b"decided"
    nodes[2].alive = False
    _round(active, 3, delivered=[3])
    assert active.all_done and active.decided == 1


def test_a_shard_only_schedules_and_counts_the_nodes_it_owns():
    nodes = _stub_nodes(_Hinted(), _Hinted(), _Hinted(), _Plain())
    nodes[1].program._output = b"decided before the run"
    active = ActiveSet(nodes, [3, 1])
    assert active.owned == [1, 3] and active.decided == 1
    del nodes[0], nodes[2]              # never looked at
    # Divergence halts arrive for every shard's nodes; foreign ones are
    # not this set's business.
    assert _round(active, 1, halted_now=[0, 2]) == ([1, 3], [1, 3])
    assert _round(active, 2) == ([3], [3])
    nodes[3].alive = False
    _round(active, 3)
    assert active.all_done and active.decided == 1


# ---------------------------------------------------------------------------
# active-set cache eviction on halts / churn
# ---------------------------------------------------------------------------

class _HaltSecond(EnclaveProgram):
    """Node 1 voluntarily halts in round 2 after multicasting in round 1
    — the mid-run active-set change the caches must survive."""

    PROGRAM_NAME = "halt-second"

    def on_round_begin(self, ctx) -> None:
        if ctx.round == 1:
            ctx.multicast(
                ProtocolMessage(
                    MessageType.ECHO, ctx.node_id, 1, b"pre-halt", 0,
                    "halt-second",
                ),
                expect_acks=False,
            )

    def on_round_end(self, ctx) -> None:
        if ctx.round == 2 and ctx.node_id == 1:
            ctx.halt()
        if ctx.round >= 3 and not self.has_output:
            self._accept(ctx, b"done")


def test_halt_evicts_departed_node_from_caches():
    net = SynchronousNetwork(
        SimulationConfig(n=5, seed=9), lambda i: _HaltSecond()
    )
    # Prime the caches the way a running protocol would: neighbour
    # tuples for the fan-outs, digest-LRU entries keyed by sender
    # (key[2] is the sender in the ACK-digest LRU).
    for node in range(5):
        net.neighbour_tuple(node)
    net._digest_cache[("halt-second", 1, 1, 1)] = b"from-node-1"
    net._digest_cache[("halt-second", 1, 0, 1)] = b"from-node-0"
    result = net.run(max_rounds=5)
    assert result.halted == [1]
    # The departed node's cached views are gone; survivors' remain —
    # eviction is per-node, not a flush.
    assert 1 not in net._neighbour_cache
    assert all(key[2] != 1 for key in net._digest_cache)
    assert ("halt-second", 1, 0, 1) in net._digest_cache
    assert result.outputs.keys() == {0, 2, 3, 4}


def test_evict_departed_node_is_selective():
    net = SynchronousNetwork(
        SimulationConfig(n=4, seed=2), lambda i: _Plain()
    )
    # Prime the neighbour cache for two nodes, then evict one.
    net.neighbour_tuple(0)
    net.neighbour_tuple(1)
    net.evict_departed_node(1)
    assert 1 not in net._neighbour_cache
    assert 0 in net._neighbour_cache
