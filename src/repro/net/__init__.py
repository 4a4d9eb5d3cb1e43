"""Synchronous P2P network simulation substrate.

This package replaces the paper's DeterLab testbed (40 machines behind a
shared 128 MB/s link running up to 1000 peers):

* :mod:`repro.net.simulator` — the round-based synchronous engine that
  drives enclave programs, applies adversarial OS behaviours, and enforces
  the Multicast/ACK/Halt semantics of Algorithm 2;
* :mod:`repro.net.transport` — the delivery layer (FULL crypto, MODELED
  sizes, or NONE for strawman attack demos) that every back-end, the TCP
  wire included, seals and opens through;
* :mod:`repro.net.topology` — full mesh (assumption S5) and the sparse
  expander relaxation of Appendix G;
* :mod:`repro.net.stats` — per-run traffic and round accounting, the raw
  material behind every figure reproduction.
"""

from repro.net.simulator import EnclaveContext, Node, RunResult, SynchronousNetwork
from repro.net.stats import TrafficStats
from repro.net.topology import Topology

__all__ = [
    "EnclaveContext",
    "Node",
    "RunResult",
    "SynchronousNetwork",
    "Topology",
    "TrafficStats",
]
