"""Unoptimized ERNG (Algorithm 3): N concurrent ERB instances + XOR.

Every node draws ``m_i <- {0,1}^k`` from enclave randomness (F2) and
reliably broadcasts it; after all instances settle, each node XORs the
agreed set ``S_final`` into the common output ``r``.

Why the output is unbiased (Theorem 5.1 / Appendix E):

* a byzantine node cannot *choose* its contribution — the value comes from
  RDRAND inside the enclave (P1 blocks re-rolling, F2 blocks biasing);
* it cannot *see* other contributions in flight (blind-box computation,
  P3), so content-based selective omission is impossible;
* it cannot *wait out* the honest contributions and then decide whether to
  join (the A4 look-ahead attack): lockstep execution (P5) means a
  contribution released after its round is stamped stale and ignored.

What remains is identity-oblivious omission, which can only replace a
contribution by ⊥ *consistently for everyone* — and XOR of any set that
contains at least one uniform honest value is uniform.

Early stopping: all N instance tags are known up front (one per peer), so
a node may accept as soon as every one of its N cores has decided — in a
fully honest network that is round 2.  With silent byzantine initiators
their cores only decide ⊥ at the round-``t+2`` deadline, giving the
``O(N)`` worst-case round complexity of Table 2.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.common.config import SimulationConfig
from repro.common.types import NodeId, ProtocolMessage
from repro.core.erb import ErbCore
from repro.net.simulator import RunResult, SynchronousNetwork
from repro.sgx.program import EnclaveProgram


def xor_fold(values) -> int:
    """XOR-combine an iterable of ints (the ⊕ over ``S_final``)."""
    result = 0
    for value in values:
        result ^= value
    return result


class ErngProgram(EnclaveProgram):
    """Algorithm 3 at one node: N multiplexed ERB cores."""

    PROGRAM_NAME = "erng-unoptimized"
    PROGRAM_VERSION = "1"

    #: Spontaneous activity is round 1 (the RDRAND draw + own INIT) and
    #: the round-``t+2`` deadline; core decisions in between only happen
    #: inside ``on_message``, which re-wakes the node for round end.
    SPARSE_AWARE = True

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        t: int,
        random_bits: int = 128,
        seq: int = 1,
    ) -> None:
        super().__init__()
        self.node_id = node_id
        self.n = n
        self.t = t
        self.random_bits = random_bits
        # One core per initiator; every instance tag is known up front.
        self.cores: Dict[str, ErbCore] = {
            self._instance(j): ErbCore(
                instance=self._instance(j),
                initiator=j,
                expected_seq=seq,
                group_size=n,
                fault_bound=t,
            )
            for j in range(n)
        }
        self.contribution: Optional[int] = None
        self.final_set: Dict[NodeId, int] = {}

    @staticmethod
    def _instance(initiator: NodeId) -> str:
        return f"rng-{initiator}"

    @property
    def round_bound(self) -> int:
        return self.t + 2

    # ------------------------------------------------------------------
    def on_round_begin(self, ctx) -> None:
        if ctx.round == 1:
            self.contribution = ctx.rdrand.random_bits(self.random_bits)
            self.cores[self._instance(ctx.node_id)].begin(ctx, self.contribution)

    def on_message(self, ctx, sender: NodeId, message: ProtocolMessage) -> None:
        core = self.cores.get(message.instance)
        if core is not None:
            core.handle_message(ctx, sender, message)

    def on_messages(self, ctx, batch) -> int:
        """The batch by instance, each group through its core's
        :meth:`ErbCore.handle_batch`, then the adopted values' ECHOs."""
        groups: Dict[str, list] = {}
        for member in batch:
            instance = member[1].instance
            group = groups.get(instance)
            if group is None:
                groups[instance] = [member]
            else:
                group.append(member)
        cores = self.cores
        adopted = []
        for instance, members in groups.items():
            core = cores.get(instance)
            if core is not None:
                index = core.handle_batch(ctx, members)
                if index >= 0:
                    adopted.append((index, members[index], core))
        if adopted:
            self._stage_echoes(ctx, batch, adopted)
        return len(batch)

    @staticmethod
    def _stage_echoes(ctx, batch, adopted) -> None:
        """Stage the cores' ECHOs in the order per-member delivery would:
        that of the members whose values they adopted.  The groups ran in
        the order of their first members, which is that order unless some
        core adopted past its group's first member."""
        if any(index for index, _member, _core in adopted):
            position: Dict[int, int] = {}
            for index, member in enumerate(batch):
                position.setdefault(id(member), index)
            adopted.sort(key=lambda entry: position[id(entry[1])])
        for _index, _member, core in adopted:
            core.stage_echo(ctx)

    def on_round_end(self, ctx) -> None:
        if ctx.round >= self.round_bound:
            for core in self.cores.values():
                core.finish(ctx)
        if all(core.decided for core in self.cores.values()):
            self._decide(ctx)

    def on_protocol_end(self, ctx) -> None:
        for core in self.cores.values():
            core.finish(ctx)
        self._decide(ctx)

    def sparse_wake_round(self, rnd: int):
        if self.has_output:
            return None
        return max(rnd + 1, self.round_bound)

    # ------------------------------------------------------------------
    def _decide(self, ctx) -> None:
        if self.has_output:
            return
        self.final_set = {
            core.initiator: core.output
            for core in self.cores.values()
            if core.output is not None
        }
        tracer = getattr(ctx, "tracer", None)
        if tracer is not None and tracer.enabled:
            tracer.protocol(
                "erng_final_set",
                node=ctx.node_id,
                rnd=ctx.round,
                contributors=sorted(self.final_set),
                dropped=self.n - len(self.final_set),
            )
        self._accept(ctx, xor_fold(self.final_set.values()))


def run_erng(
    config: SimulationConfig,
    behaviors: Optional[Dict[NodeId, object]] = None,
    topology=None,
) -> RunResult:
    """Build a network and execute one unoptimized-ERNG run."""
    config.require_erb_bound()

    def factory(node_id: NodeId) -> ErngProgram:
        return ErngProgram(
            node_id=node_id,
            n=config.n,
            t=config.t,
            random_bits=config.random_bits,
        )

    network = SynchronousNetwork(
        config, factory, behaviors=behaviors, topology=topology
    )
    return network.run(max_rounds=config.t + 2)
