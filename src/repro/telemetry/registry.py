"""Named counters, gauges, and fixed-bucket histograms.

The registry is the single namespace for every quantitative signal the
system emits: scheduler counters and histograms (``sched.*``), the
parallel-read width histogram (``io.read_width``), data-plane
histograms (``merge.*``, ``writer.*``), fault counters (``faults.*``),
and overlap-engine metrics (``overlap.*``).  Canonical names live in
:mod:`repro.telemetry.schema` so every producer and ``repro inspect``
report the same quantities under the same keys.

Instrumented code holds direct references to metric objects (fetched
once, outside hot loops) and calls ``inc``/``set``/``observe`` on them.
When telemetry is disabled those references are the shared
:data:`NULL_METRIC` singleton whose methods are empty — the disabled
fast path allocates nothing and does no bookkeeping.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from ..errors import ConfigError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value with a tracked maximum."""

    __slots__ = ("name", "value", "max_value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.max_value = 0.0

    def set(self, v: float) -> None:
        self.value = v
        if v > self.max_value:
            self.max_value = v

    def snapshot(self) -> dict:
        return {"kind": self.kind, "value": self.value, "max": self.max_value}


class Histogram:
    """A fixed-bucket histogram with ``<=``-edge semantics.

    ``edges = (e_0, ..., e_{m-1})`` defines ``m + 1`` buckets: bucket
    ``i < m`` counts observations ``v`` with ``e_{i-1} < v <= e_i``, and
    the final bucket is the overflow (``v > e_{m-1}``).  Edges are fixed
    at creation so two processes observing the same metric bucket
    identically — the property the JSONL round-trip relies on.
    """

    __slots__ = ("name", "edges", "_edge_array", "counts", "total", "n")

    kind = "histogram"

    def __init__(self, name: str, edges: tuple[float, ...]) -> None:
        if not edges or list(edges) != sorted(set(edges)):
            raise ConfigError(
                f"histogram {name!r} needs strictly increasing edges, got {edges}"
            )
        self.name = name
        self.edges = tuple(edges)
        self._edge_array = np.asarray(self.edges, dtype=np.float64)
        self.counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.n = 0

    def observe(self, v: float) -> None:
        self.counts[bisect_left(self.edges, v)] += 1
        self.total += v
        self.n += 1

    def observe_many(self, values) -> None:
        """Observe each of *values* in order, as repeated :meth:`observe` would."""
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            return
        bins = np.bincount(
            self._edge_array.searchsorted(v, side="left"), minlength=len(self.counts)
        )
        for i in np.flatnonzero(bins).tolist():
            self.counts[i] += int(bins[i])
        # cumsum adds in order, so the total matches observe() bit for bit.
        self.total = float(np.cumsum(np.append(self.total, v))[-1])
        self.n += v.size

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "edges": list(self.edges),
            "counts": list(self.counts),
            "total": self.total,
            "n": self.n,
        }


class _NullMetric:
    """Shared do-nothing stand-in for every metric type.

    All mutating methods are empty so disabled-mode instrumentation
    costs one no-op method call and zero allocation.
    """

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, v: float) -> None:
        pass

    def observe(self, v: float) -> None:
        pass

    def observe_many(self, values) -> None:
        pass


#: The singleton every disabled telemetry handle returns.
NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """A name → metric map with memoizing constructors.

    Asking for an existing name returns the same object (so separate
    subsystems accumulate into one metric); asking with a conflicting
    kind or bucket layout raises :class:`~repro.errors.ConfigError`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, edges: tuple[float, ...]) -> Histogram:
        h = self._get(name, Histogram, lambda: Histogram(name, edges))
        if h.edges != tuple(edges):
            raise ConfigError(
                f"histogram {name!r} re-registered with edges {edges}, "
                f"already has {h.edges}"
            )
        return h

    def _get(self, name, cls, make):
        m = self._metrics.get(name)
        if m is None:
            m = self._metrics[name] = make()
        elif not isinstance(m, cls):
            raise ConfigError(
                f"metric {name!r} already registered as {type(m).__name__}, "
                f"requested {cls.__name__}"
            )
        return m

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def get(self, name: str):
        return self._metrics.get(name)

    def snapshot(self) -> dict:
        """JSON-ready ``{name: {kind, ...}}`` of every registered metric."""
        return {
            name: m.snapshot() for name, m in sorted(self._metrics.items())
        }
