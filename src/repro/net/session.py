"""Persistent engine sessions: build the network once, run many times.

One-shot drivers (``run_erng`` et al.) rebuild the whole world per run —
network, channels, caches, and with ``workers > 1`` a fresh fork of every
worker shard.  For a long-lived service shape (the random beacon, soak
tests, campaigns that sweep seeds over one population) that setup cost
dominates: an unoptimized ERNG epoch at N=9 costs ~4 ms of protocol work
but ~30-40 ms of per-run worker forking.

:class:`EngineSession` keeps the expensive state alive across runs:

* the :class:`~repro.net.simulator.SynchronousNetwork` itself — topology,
  transport, and (under FULL security) every established secure channel;
* the parallel engine's forked worker shards (fork once, run many — see
  ``run_parallel``'s session-crew reuse);
* the warm per-network caches that are *safe* to keep (neighbour tuples
  are rebuilt lazily, channel freshness counters stay monotone).

Between runs, :meth:`~repro.net.simulator.RoundHost.begin_session_run`
(the re-arm a wire beacon daemon also runs per epoch) performs the
explicit cross-run hygiene: enclaves are relaunched with fresh programs
and RDRAND forks off a re-seeded master RNG, the ACK digest LRU /
ack-size / neighbour-tuple / dispatch caches are invalidated, staged
queues are dropped, and traffic stats are rescoped.  Because RNG forks
are label-derived, and every channel draws from its own link streams
(kept with the channel, never re-forked by a relaunch), a session run is
**bit-identical** to the same run on a freshly built network at every
channel security — reuse is purely a performance property, and the
equivalence is pinned by tests.

Observability scoping: ``config.tracer`` and ``config.timing`` belong to
the *session* — one tracer sees every run's events (with per-run round
numbering restarting at 1), and one TimingCollector accumulates
`start_run`/`end_run` records per run, which is exactly what a sustained
-load service wants (the `setup` bucket shows fork cost collapsing to a
recycle handshake after the first run).  Per-run traffic/round stats stay
per-run via ``RunResult.stats``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.config import SimulationConfig
from repro.common.errors import ConfigurationError
from repro.net.simulator import RunResult, SynchronousNetwork
from repro.net.topology import Topology
from repro.sgx.program import EnclaveProgram


class EngineSession:
    """A long-lived network serving many independent protocol runs.

    Usage::

        with EngineSession(config, factory) as session:
            first = session.run(max_rounds=4)
            second = session.run(max_rounds=4, seed=123)   # fresh run
            third = session.run(max_rounds=6, program_factory=other)

    Every :meth:`run` after the first recycles the network via
    :meth:`~repro.net.simulator.RoundHost.begin_session_run`
    (fresh programs, re-seeded RNG, invalidated caches) and — when the
    run executes on the parallel engine — hands the persistent worker
    crew a recycle frame instead of reforking it.
    """

    def __init__(
        self,
        config: SimulationConfig,
        program_factory: Callable[[int], EnclaveProgram],
        behaviors: Optional[Dict[int, object]] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        self._factory = program_factory
        self.network = SynchronousNetwork(
            config, program_factory, behaviors=behaviors, topology=topology
        )
        # Marks the network so run_parallel stores (and keeps) its crew.
        self.network._session_persistent = True
        self._runs = 0
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def config(self) -> SimulationConfig:
        return self.network.config

    @property
    def runs_started(self) -> int:
        return self._runs

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: int,
        *,
        program_factory: Optional[Callable[[int], EnclaveProgram]] = None,
        seed: Optional[int] = None,
    ) -> RunResult:
        """Execute one fresh protocol run on the shared network.

        ``program_factory`` overrides the session's factory for this run
        (and becomes the default for later ones); ``seed`` re-seeds the
        run (the session keeps the last seed otherwise).
        """
        if self._closed:
            raise ConfigurationError("engine session is closed")
        factory = (
            program_factory if program_factory is not None else self._factory
        )
        needs_recycle = (
            self._runs > 0
            or factory is not self._factory
            or (seed is not None and seed != self.network.config.seed)
        )
        self._factory = factory
        if needs_recycle:
            self.network.begin_session_run(factory, seed=seed)
            self._stash_worker_reset(factory)
        self._runs += 1
        return self.network.run(max_rounds)

    def _stash_worker_reset(self, factory) -> None:
        """Prepare the recycle frame for a live persistent worker crew.

        ``run_parallel`` consumes it; a crew found *without* a prepared
        frame (someone ran the network outside the session) is reforked
        defensively, so this is an optimisation hint, never a
        correctness requirement.
        """
        net = self.network
        if net._session_crew is None:
            return
        net._session_worker_reset = (
            net.config.seed,
            factory,
            net.tracer.enabled,
            net._timing is not None,
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Join the persistent worker crew (if any) and retire the
        session.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        net = self.network
        if net._session_crew is not None:
            net._session_crew.shutdown()
            net._session_crew = None
        net._session_worker_reset = None

    def __enter__(self) -> "EngineSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
