"""repro.obs — unified tracing, metrics and performance reporting.

Six pieces:

* :mod:`repro.obs.events` — the typed event vocabulary (round spans,
  wire actions, halts, decisions, churn, timing, provenance);
* :mod:`repro.obs.tracer` — the :class:`Tracer` the engine and protocols
  emit into (disabled by default, zero overhead when off);
* :mod:`repro.obs.metrics` — counters / gauges / histograms plus the
  wall-clock :data:`PROFILER` hooks around crypto and serialization;
* :mod:`repro.obs.timing` — the :class:`TimingCollector` that attributes
  per-round wall clock to the round kernel's phases (``--timing-out``)
  on every back-end, including per-shard busy/idle on the sharded one;
* :mod:`repro.obs.machine` — machine provenance stamps (git rev, CPU
  count, workers) attached to every persisted measurement;
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — JSONL persistence,
  the ``inspect`` timeline, and the ``report`` renderers (CLI table,
  self-contained HTML, collapsed-stack flame export).

Typical use::

    from repro.obs import JsonlSink, Tracer, TimingCollector

    config = SimulationConfig(
        n=16,
        tracer=Tracer(JsonlSink("t.jsonl")),
        timing=TimingCollector(),
    )
    result = run_erb(config, initiator=0, message=b"hello")
    config.tracer.close()
    print(config.timing.coverage())   # fraction of wall attributed
"""

from repro.obs.events import (
    ROUND_PHASES,
    CampaignEvent,
    ChurnEvent,
    DecisionEvent,
    EnvelopeEvent,
    HaltEvent,
    MetaEvent,
    PhaseEvent,
    ProtocolEvent,
    RoundSpan,
    TimingEvent,
    WireEvent,
    event_from_dict,
    event_to_dict,
)
from repro.obs.export import (
    JsonlSink,
    charged_bytes_by_round,
    read_trace,
    render_timeline,
    write_trace,
)
from repro.obs.machine import git_revision, machine_stamp
from repro.obs.metrics import (
    PROFILER,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Profiler,
)
from repro.obs.report import render_report, timing_to_collapsed
from repro.obs.timing import PHASE_BUCKETS, TimingCollector
from repro.obs.tracer import NULL_TRACER, MemorySink, NullSink, Tracer

__all__ = [
    "CampaignEvent",
    "ChurnEvent",
    "Counter",
    "DecisionEvent",
    "EnvelopeEvent",
    "Gauge",
    "HaltEvent",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetaEvent",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullSink",
    "PHASE_BUCKETS",
    "PROFILER",
    "PhaseEvent",
    "Profiler",
    "ProtocolEvent",
    "ROUND_PHASES",
    "RoundSpan",
    "TimingCollector",
    "TimingEvent",
    "Tracer",
    "WireEvent",
    "charged_bytes_by_round",
    "event_from_dict",
    "event_to_dict",
    "git_revision",
    "machine_stamp",
    "read_trace",
    "render_report",
    "render_timeline",
    "timing_to_collapsed",
    "write_trace",
]
