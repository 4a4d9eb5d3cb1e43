"""Traffic and round accounting.

Every delivered-or-attempted message is recorded here; the figure
benchmarks read these counters.  Conventions match the paper's evaluation:

* *traffic size* counts bytes of every message handed to the network by a
  sender's OS (Fig. 3 measures network bandwidth, so dropped-at-sender
  messages don't count, but messages dropped by the *receiver* do — they
  crossed the wire);
* *termination time* is simulated seconds until the last honest node
  accepts, where each round lasts ``max(2*delta, round_bytes/bandwidth)``
  under the shared-link model.

Since the round-envelope layer the counters form a *dual ledger*:

* the **logical** ledger (``messages_sent``, ``bytes_sent``, per-type and
  per-round counters) counts protocol messages exactly as the paper's
  Fig. 3 does, regardless of how they were batched on the wire;
* the **physical** ledger (``envelopes_sent``, ``envelope_bytes_sent``)
  counts what actually crossed each link — one envelope per
  ``(sender, receiver, round)`` triple, weighing its coalesced bytes in
  a run whose links all coalesce and its members' logical bytes in a
  run with a per-wire link.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import List

from repro.common.types import MessageType


@dataclass
class TrafficStats:
    """Mutable counters for one protocol run."""

    messages_sent: int = 0
    bytes_sent: int = 0
    messages_by_type: Counter = field(default_factory=Counter)
    bytes_by_type: Counter = field(default_factory=Counter)
    omissions: int = 0            # messages dropped (by adversary or checks)
    rejections: int = 0           # messages rejected by channel verification
    bytes_by_round: Counter = field(default_factory=Counter)
    # Physical ledger: actual link crossings, charged by the engine via
    # record_envelope(s); a message charged with physical=True is its
    # own crossing (the ledgers mirror).
    envelopes_sent: int = 0
    envelope_bytes_sent: int = 0

    def record_send(
        self, mtype: MessageType, size: int, rnd: int, physical: bool = True
    ) -> None:
        """Charge one logical message; ``physical=False`` leaves the
        physical ledger to a separate :meth:`record_envelope` call (the
        envelope path charges link crossings, not messages)."""
        if size < 0:
            raise ValueError(f"message size must be non-negative, got {size}")
        self.messages_sent += 1
        self.bytes_sent += size
        self.messages_by_type[mtype] += 1
        self.bytes_by_type[mtype] += size
        self.bytes_by_round[rnd] += size
        if physical:
            self.envelopes_sent += 1
            self.envelope_bytes_sent += size

    def record_send_bulk(
        self,
        mtype: MessageType,
        total_bytes: int,
        rnd: int,
        count: int,
        physical: bool = True,
    ) -> None:
        """Charge ``count`` same-type messages totalling ``total_bytes``.

        One call is arithmetically identical to ``count`` calls of
        :meth:`record_send` — the envelope path uses it to record a
        whole multicast (or ACK wave) without per-wire Counter updates.
        """
        if count < 0 or total_bytes < 0:
            raise ValueError(
                f"bulk send must be non-negative, got count={count} "
                f"bytes={total_bytes}"
            )
        if count == 0:
            return
        self.messages_sent += count
        self.bytes_sent += total_bytes
        self.messages_by_type[mtype] += count
        self.bytes_by_type[mtype] += total_bytes
        self.bytes_by_round[rnd] += total_bytes
        if physical:
            self.envelopes_sent += count
            self.envelope_bytes_sent += total_bytes

    def record_envelope(self, members: int, size: int) -> None:
        """Charge one physical link crossing carrying ``members`` messages."""
        if members < 1 or size < 0:
            raise ValueError(
                f"envelope must carry >=1 members with non-negative size, "
                f"got members={members} size={size}"
            )
        self.envelopes_sent += 1
        self.envelope_bytes_sent += size

    def record_envelopes(self, count: int, total_bytes: int) -> None:
        """Charge ``count`` link crossings totalling ``total_bytes``."""
        if count < 0 or total_bytes < 0:
            raise ValueError(
                f"bulk envelopes must be non-negative, got count={count} "
                f"bytes={total_bytes}"
            )
        self.envelopes_sent += count
        self.envelope_bytes_sent += total_bytes

    def merge(self, other: "TrafficStats") -> None:
        """Fold another ledger into this one — logical *and* physical.

        Used to combine per-shard ledgers from the parallel engine (and
        generally any disjoint sub-run accounting) into one run total:
        every counter adds, so merging the shards of one round is
        arithmetically identical to recording every event on a single
        ledger.
        """
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.messages_by_type.update(other.messages_by_type)
        self.bytes_by_type.update(other.bytes_by_type)
        self.bytes_by_round.update(other.bytes_by_round)
        self.omissions += other.omissions
        self.rejections += other.rejections
        self.envelopes_sent += other.envelopes_sent
        self.envelope_bytes_sent += other.envelope_bytes_sent

    def record_omission(self) -> None:
        self.omissions += 1

    def record_omissions(self, count: int) -> None:
        """Record ``count`` omissions at once (bulk fast-path variant)."""
        if count < 0:
            raise ValueError(f"omission count must be non-negative, got {count}")
        self.omissions += count

    def record_rejection(self) -> None:
        self.rejections += 1

    @property
    def megabytes_sent(self) -> float:
        return self.bytes_sent / (1024.0 * 1024.0)

    @property
    def physical_megabytes_sent(self) -> float:
        return self.envelope_bytes_sent / (1024.0 * 1024.0)

    @property
    def coalescing_ratio(self) -> float:
        """Logical messages per physical crossing."""
        if self.envelopes_sent == 0:
            return 1.0
        return self.messages_sent / self.envelopes_sent

    def round_bytes(self, rnd: int) -> int:
        return self.bytes_by_round[rnd]

    def publish(self, registry, prefix: str = "traffic") -> None:
        """Feed this run's totals into a metrics registry.

        ``registry`` is duck-typed (``repro.obs.metrics.MetricsRegistry``
        or anything with the same ``counter``/``histogram`` surface).
        Counters accumulate across runs published into the same registry.
        """
        registry.counter(f"{prefix}.messages_sent").inc(self.messages_sent)
        registry.counter(f"{prefix}.bytes_sent").inc(self.bytes_sent)
        registry.counter(f"{prefix}.envelopes_sent").inc(self.envelopes_sent)
        registry.counter(f"{prefix}.envelope_bytes_sent").inc(
            self.envelope_bytes_sent
        )
        registry.counter(f"{prefix}.omissions").inc(self.omissions)
        registry.counter(f"{prefix}.rejections").inc(self.rejections)
        for mtype, count in self.messages_by_type.items():
            registry.counter(f"{prefix}.messages.{mtype.value}").inc(count)
        histogram = registry.histogram(f"{prefix}.bytes_per_round")
        for rnd in sorted(self.bytes_by_round):
            histogram.observe(self.bytes_by_round[rnd])

    def summary(self) -> str:
        per_type = ", ".join(
            f"{mtype.value}={count}"
            for mtype, count in sorted(
                self.messages_by_type.items(), key=lambda kv: kv[0].value
            )
        )
        text = (
            f"{self.messages_sent} msgs / {self.megabytes_sent:.3f} MB "
            f"({per_type}); omissions={self.omissions}, "
            f"rejections={self.rejections}"
        )
        if self.envelopes_sent and self.envelopes_sent != self.messages_sent:
            text += (
                f"; envelopes={self.envelopes_sent} / "
                f"{self.physical_megabytes_sent:.3f} MB physical "
                f"({self.coalescing_ratio:.1f}x coalesced)"
            )
        return text


@dataclass
class RoundRecord:
    """Timing record of one executed round."""

    rnd: int
    bytes: int
    seconds: float


@dataclass
class RunStats:
    """Aggregated result of one simulation run."""

    rounds: List[RoundRecord] = field(default_factory=list)
    traffic: TrafficStats = field(default_factory=TrafficStats)

    @property
    def rounds_executed(self) -> int:
        return len(self.rounds)

    @property
    def termination_seconds(self) -> float:
        return sum(record.seconds for record in self.rounds)

    def publish(self, registry, prefix: str = "run") -> None:
        """Feed round timings and traffic totals into a metrics registry."""
        registry.counter(f"{prefix}.rounds").inc(self.rounds_executed)
        seconds = registry.histogram(f"{prefix}.round_seconds")
        for record in self.rounds:
            seconds.observe(record.seconds)
        self.traffic.publish(registry, prefix=f"{prefix}.traffic")
