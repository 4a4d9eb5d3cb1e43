"""Metrics registry: counters, gauges, histograms, and wall-clock timers.

The registry is deliberately dependency-free and duck-typed: anything
with ``counter`` / ``gauge`` / ``histogram`` getters can stand in for a
:class:`MetricsRegistry` (``TrafficStats.publish`` and the
``--metrics-out`` sidecar both rely only on that surface).

Profiling hooks (the crypto / serialization timers in
:mod:`repro.channel.peer_channel`) go through the module-level
:data:`PROFILER` so the hot path pays a single attribute check when
profiling is off.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


class Gauge:
    """A point-in-time value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A distribution with p50/p95/max summaries.

    Samples are kept verbatim up to ``max_samples``; past that the stream
    is decimated 2:1 (every other new sample kept), which preserves the
    quantile estimates well enough for benchmark-scale inputs without
    unbounded memory.
    """

    __slots__ = ("_samples", "_sorted", "count", "total", "max_samples", "_skip")

    def __init__(self, max_samples: int = 65536) -> None:
        self._samples: List[float] = []
        self._sorted = False
        self.count = 0
        self.total = 0.0
        self.max_samples = max_samples
        self._skip = False

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if len(self._samples) >= self.max_samples:
            self._skip = not self._skip
            if self._skip:
                return
            del self._samples[::2]
        self._samples.append(value)
        self._sorted = False

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def max(self) -> float:
        return max(self._samples) if self._samples else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``p`` in [0, 100]."""
        if not self._samples:
            return 0.0
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        rank = max(1, math.ceil(p / 100.0 * len(self._samples)))
        return self._samples[rank - 1]

    @property
    def p50(self) -> float:
        return self.percentile(50)

    @property
    def p95(self) -> float:
        return self.percentile(95)

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "max": self.max,
        }

    def dump(self) -> Dict[str, object]:
        """Lossless-enough export for cross-process merging: exact count
        and total, plus the retained (possibly decimated) samples."""
        return {
            "count": self.count,
            "total": self.total,
            "samples": list(self._samples),
        }

    def merge_dump(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`dump` from another process into this histogram.

        Counts and totals add exactly (the invariant the parallel-engine
        profiler test pins); samples concatenate and re-decimate, so the
        quantile estimates stay benchmark-grade, not byte-exact.
        """
        self.count += int(data["count"])
        self.total += float(data["total"])
        self._samples.extend(data["samples"])
        self._sorted = False
        while len(self._samples) > self.max_samples:
            del self._samples[::2]


class _Timer:
    """Context manager feeding wall-clock seconds into a histogram."""

    __slots__ = ("_histogram", "_start")

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._start = 0.0

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._histogram.observe(time.perf_counter() - self._start)


class MetricsRegistry:
    """Named counters, gauges and histograms for one measurement scope."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter()
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge()
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram()
        return metric

    def timer(self, name: str) -> _Timer:
        """``with registry.timer("channel.write_s"): ...``"""
        return _Timer(self.histogram(name))

    def as_dict(self) -> Dict[str, Dict[str, object]]:
        """Snapshot every metric (the ``--metrics-out`` sidecar format)."""
        return {
            "counters": {
                name: metric.value for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value for name, metric in sorted(self._gauges.items())
            },
            "histograms": {
                name: metric.snapshot()
                for name, metric in sorted(self._histograms.items())
            },
        }

    def dump(self) -> Dict[str, Dict[str, object]]:
        """Exact-valued export for cross-process merging (histograms keep
        their samples, unlike the summary-only :meth:`as_dict`)."""
        return {
            "counters": {
                name: metric.value for name, metric in self._counters.items()
            },
            "gauges": {
                name: metric.value for name, metric in self._gauges.items()
            },
            "histograms": {
                name: metric.dump()
                for name, metric in self._histograms.items()
            },
        }

    def merge_dump(self, data: Dict[str, Dict[str, object]]) -> None:
        """Fold another process's :meth:`dump` into this registry.

        Counters and histogram counts/totals add exactly; gauges take the
        incoming value (point-in-time semantics — last write wins).  This
        is how the parallel engine's coordinator re-absorbs worker-side
        PROFILER observations that would otherwise die with the fork.
        """
        for name, value in data.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, value in data.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, hist in data.get("histograms", {}).items():
            self.histogram(name).merge_dump(hist)

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)


class Profiler:
    """Process-wide wall-clock profiling switch.

    Disabled by default: instrumented call sites pay one ``enabled``
    check and nothing else.  ``enable()`` attaches a registry; every
    ``observe`` feeds a histogram in it.
    """

    __slots__ = ("enabled", "registry")

    def __init__(self) -> None:
        self.enabled = False
        self.registry: Optional[MetricsRegistry] = None

    def enable(self, registry: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.enabled = True
        return self.registry

    def disable(self) -> None:
        self.enabled = False
        self.registry = None

    def observe(self, name: str, seconds: float) -> None:
        if self.registry is not None:
            self.registry.histogram(name).observe(seconds)

    def time(self, name: str) -> _Timer:
        assert self.registry is not None, "enable() the profiler first"
        return self.registry.timer(name)


#: The singleton the instrumented hot paths check.
PROFILER = Profiler()
