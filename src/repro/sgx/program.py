"""The formal program model of Appendix A, plus the runtime program base class.

Two layers live here:

1. The **formal model** (Definitions A.1-A.3): a :class:`Program` is a
   sequence of :class:`Instruction` steps ``(st_{i+1}, m_{i+1}) =
   pi_i(st_i, m_i)``; running it yields a transcript whose validity is
   whether any state ever became ``BOTTOM``.  The test-suite uses this
   machinery to check halt-on-divergence (Definition A.7) and the
   reduction proofs' bookkeeping directly against the definitions.

2. The **runtime base class** :class:`EnclaveProgram`, which every
   protocol in :mod:`repro.core` and :mod:`repro.baselines` subclasses.
   An instance runs inside an :class:`repro.sgx.enclave.Enclave` and is
   driven by the synchronous simulator through four hooks
   (setup / round begin / message / round end); messages may also come
   as one receiver's whole wave (:meth:`EnclaveProgram.on_messages`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

_PROTOCOL_LOG = logging.getLogger("repro.protocol")

#: The distinguished bottom state (the paper's ``⊥``).
BOTTOM = None

State = object
Message = object
StepFn = Callable[[State, Message], Tuple[State, Message]]


@dataclass(frozen=True)
class Instruction:
    """One instruction ``pi_i`` of a program (Definition A.1)."""

    name: str
    step: StepFn

    def __call__(self, state: State, message: Message) -> Tuple[State, Message]:
        # An instruction with BOTTOM input state always outputs BOTTOM
        # (Definition A.1's convention) — this is what makes Halt sticky.
        if state is BOTTOM:
            return BOTTOM, BOTTOM
        return self.step(state, message)


@dataclass(frozen=True)
class Program:
    """A finite sequence of instructions (Definition A.1)."""

    name: str
    instructions: Tuple[Instruction, ...]

    @staticmethod
    def from_steps(name: str, steps: Sequence[Tuple[str, StepFn]]) -> "Program":
        return Program(
            name=name,
            instructions=tuple(Instruction(n, fn) for n, fn in steps),
        )

    def __len__(self) -> int:
        return len(self.instructions)


def run_program(
    program: Program, initial_state: State, messages: Sequence[Message]
) -> List[Tuple[State, Message]]:
    """Execute ``program`` and return its transcript (Definition A.2).

    The transcript is the list of ``(st_{i+1}, m_{i+1})`` outputs, one per
    instruction.  ``messages`` supplies the per-instruction inputs ``m_i``.
    """
    if len(messages) != len(program):
        raise ValueError(
            f"program {program.name} has {len(program)} instructions "
            f"but got {len(messages)} input messages"
        )
    transcript: List[Tuple[State, Message]] = []
    state = initial_state
    for instruction, incoming in zip(program.instructions, messages):
        state, outgoing = instruction(state, incoming)
        transcript.append((state, outgoing))
    return transcript


def is_valid_transcript(transcript: Sequence[Tuple[State, Message]]) -> bool:
    """Definition A.3: valid iff no intermediate state is ``⊥``."""
    return all(state is not BOTTOM for state, _ in transcript)


class EnclaveProgram:
    """Base class for protocol logic executed inside an enclave (F1).

    Subclasses implement the four driver hooks.  The ``ctx`` argument is an
    :class:`repro.net.simulator.EnclaveContext` giving access to the
    enclave-visible world: node id, current round, RDRAND, multicast/send,
    and ``halt()``.  State kept on ``self`` is enclave-private — the
    simulator never exposes it to adversarial OS behaviours.

    ``PROGRAM_NAME`` and ``PROGRAM_VERSION`` feed the measurement
    (MRENCLAVE); two peers attest each other's measurements during channel
    setup, so running a *different* program (attack A1 via code swap) is
    caught before any protocol message flows.
    """

    PROGRAM_NAME = "enclave-program"
    PROGRAM_VERSION = "1"

    #: Opt-in to the engine's sparse round scheduler.  A program that sets
    #: this True promises that ``on_round_begin`` / ``on_round_end`` are
    #: exact no-ops (no state change, no RNG draw, no ``ctx`` call, no
    #: tracer emission) in every round ``r`` where the node received no
    #: delivery in ``r`` and ``r`` is earlier than the last wake round the
    #: program hinted via :meth:`sparse_wake_round`.  The engine may then
    #: skip those hook calls entirely; skipping must be observationally
    #: invisible (byte-identical results, ledgers and traces).  Programs
    #: that do not declare this stay on the always-visited list.
    #:
    #: The declaration covers the *declaring class's* hooks only: a
    #: subclass that overrides ``on_round_begin`` / ``on_round_end`` /
    #: ``sparse_wake_round`` without re-declaring ``SPARSE_AWARE = True``
    #: in its own body silently falls back to the always-visited list
    #: (see :func:`sparse_aware`) — new spontaneous activity in an
    #: override can never be skipped by an inherited promise.
    SPARSE_AWARE = False

    def __init__(self) -> None:
        self._output: object = _UNSET
        self._decided_round: Optional[int] = None

    # ---- driver hooks -------------------------------------------------
    def on_setup(self, ctx) -> None:
        """Called once before round 1, after channels are established."""

    def on_round_begin(self, ctx) -> None:
        """Called at the start of every round, before deliveries."""

    def on_message(self, ctx, sender: int, message) -> None:
        """Called once per valid delivered protocol message."""

    def on_messages(self, ctx, batch: Sequence[Tuple[int, object]]) -> int:
        """Called once per receiver per wave, instead of :meth:`on_message`
        per member, when the engine delivers receiver-major (an untraced
        run whose links all coalesce): ``batch`` is this node's members as
        ``(sender, message)`` pairs in plan order.  Returns how many were
        handled; the rest are omissions.

        The default hands them to :meth:`on_message` one by one and stops
        after the one during which the program halted (``ctx.halt()``),
        as per-member delivery omits what a halted receiver is sent.  An
        override must leave what this loop leaves: the same program
        state, the same staged multicasts in the same order and the same
        multiset of ACKs.
        """
        on_message = self.on_message
        for handled, (sender, message) in enumerate(batch, 1):
            on_message(ctx, sender, message)
            if ctx.halted:
                return handled
        return len(batch)

    def on_round_end(self, ctx) -> None:
        """Called at the end of every round, after all deliveries."""

    def on_protocol_end(self, ctx) -> None:
        """Called once after the final round; undecided programs accept ⊥."""

    # ---- sparse scheduling (see docs/PERFORMANCE.md) -------------------
    def sparse_wake_round(self, rnd: int) -> Optional[int]:
        """The earliest round ``> rnd`` at which this program may act
        *spontaneously* (its begin/end hooks do something without a
        delivery having arrived), or ``None`` when the program is purely
        reactive from here on.

        Only consulted when :data:`SPARSE_AWARE` is True, after the node
        was visited or delivered to in round ``rnd``.  A delivery always
        re-wakes the node for that round's end hook regardless of the
        hint, so reactive work never needs to be declared — only
        round-number-triggered work (deadlines, per-round bookkeeping)
        does.  Returning an earlier round than necessary is safe (the
        hooks run and no-op); returning a *later* one breaks the run.
        """
        return rnd + 1

    # ---- output handling ----------------------------------------------
    @property
    def has_output(self) -> bool:
        return self._output is not _UNSET

    @property
    def output(self) -> object:
        if self._output is _UNSET:
            raise LookupError(
                f"{type(self).__name__} has not produced an output yet"
            )
        return self._output

    @property
    def decided_round(self) -> Optional[int]:
        """Round in which the output was accepted (for round-count stats)."""
        return self._decided_round

    def _accept(self, ctx, value: object) -> None:
        """Record the protocol output ('accept' in the paper's pseudocode).

        Emits a :class:`repro.obs.events.DecisionEvent` when the run is
        traced (``ctx`` is duck-typed: anything without a ``tracer``
        attribute — unit-test stubs, the formal model — skips emission).
        """
        if self._output is _UNSET:
            self._output = value
            self._decided_round = ctx.round
            node_id = getattr(ctx, "node_id", -1)
            tracer = getattr(ctx, "tracer", None)
            if tracer is not None and tracer.enabled:
                tracer.decision(
                    rnd=ctx.round,
                    node=node_id,
                    program=self.PROGRAM_NAME,
                    value=value,
                )
            _PROTOCOL_LOG.info(
                "node %s (%s) accepted in round %s: %.120r",
                node_id, self.PROGRAM_NAME, ctx.round, value,
            )

    def measurement_material(self) -> bytes:
        """Bytes fed into the MRENCLAVE measurement for this program."""
        return (
            f"{self.PROGRAM_NAME}:{self.PROGRAM_VERSION}".encode("utf-8")
        )


#: The scheduling-relevant hooks a SPARSE_AWARE declaration vouches for.
_SPARSE_HOOKS = ("on_round_begin", "on_round_end", "sparse_wake_round")


def sparse_aware(program: EnclaveProgram) -> bool:
    """Whether the sparse scheduler may trust ``program``'s declaration.

    True iff the most-derived class declaring ``SPARSE_AWARE`` sets it
    True *and* none of the round hooks it vouches for is overridden by a
    class more derived than that declaration.  This makes subclassing
    safe by default: a test double or variant protocol that overrides
    ``on_round_begin`` with new spontaneous behaviour (e.g. a scheduled
    voluntary halt) drops back to the always-visited list instead of
    inheriting a promise its override no longer keeps.
    """
    mro = type(program).__mro__
    declaring = next((k for k in mro if "SPARSE_AWARE" in vars(k)), None)
    if declaring is None or not vars(declaring)["SPARSE_AWARE"]:
        return False
    declaring_index = mro.index(declaring)
    for hook in _SPARSE_HOOKS:
        hook_cls = next((k for k in mro if hook in vars(k)), None)
        if hook_cls is not None and mro.index(hook_cls) < declaring_index:
            return False
    return True


def batch_verb(program: EnclaveProgram) -> Callable:
    """The batch verb the engine calls for ``program``: its own
    ``on_messages``, unless a class more derived than the one defining it
    overrides ``on_message`` — then the default loop over that override.
    As with :func:`sparse_aware`, an inherited batch path never bypasses
    a subclass's per-member handler."""
    mro = type(program).__mro__

    def owner(name: str) -> int:
        return next(i for i, k in enumerate(mro) if name in vars(k))

    if owner("on_message") < owner("on_messages"):
        return EnclaveProgram.on_messages.__get__(program)
    return program.on_messages


class _Unset:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<unset>"


_UNSET = _Unset()
