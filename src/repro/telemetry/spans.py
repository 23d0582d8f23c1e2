"""Phase-scoped spans and the :class:`Telemetry` event stream.

A :class:`Telemetry` object is the one handle instrumented code needs:
it owns a :class:`~repro.telemetry.registry.MetricsRegistry`, an
append-only event list, and a span stack.  Spans nest (``sort`` >
``run_formation`` / ``merge_pass`` > ``merge``), carry wall-clock
duration plus arbitrary attributes (simulated time, schedule counters),
and — when opened with a disk system attached — record the I/O-counter
delta across their lifetime.

Disabled mode is the singleton :data:`TELEMETRY_OFF`: every accessor
returns a shared no-op object, so instrumentation left in hot paths
costs one empty method call and zero allocation.
"""

from __future__ import annotations

import json
import time
from typing import Any

from ..errors import ScheduleError
from .registry import NULL_METRIC, MetricsRegistry
from .schema import SCHEMA_VERSION

__all__ = ["Span", "Telemetry", "NullTelemetry", "TELEMETRY_OFF"]


class Span:
    """One phase scope; use as a context manager.

    The span event is appended to the stream when the scope *closes*
    (so ``seq`` reflects completion order); ``start_seq`` preserves the
    opening order for reconstruction.
    """

    __slots__ = (
        "_tel", "name", "span_id", "parent_id", "depth",
        "start_seq", "attrs", "_t0", "_system", "_io_before",
    )

    def __init__(self, tel: "Telemetry", name: str, system, attrs: dict) -> None:
        self._tel = tel
        self.name = name
        self.span_id = tel._next_span_id()
        parent = tel._stack[-1] if tel._stack else None
        self.parent_id = parent.span_id if parent is not None else None
        self.depth = parent.depth + 1 if parent is not None else 0
        self.start_seq = tel._next_seq()
        self.attrs = attrs
        self._system = system
        self._io_before = system.stats.snapshot() if system is not None else None
        self._t0 = time.perf_counter()
        tel._stack.append(self)

    def set(self, **attrs: Any) -> None:
        """Attach attributes (schedule counters, simulated timings, ...)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        tel = self._tel
        if not tel._stack or tel._stack[-1] is not self:
            raise ScheduleError(
                f"span {self.name!r} closed out of order; "
                f"open stack: {[s.name for s in tel._stack]}"
            )
        tel._stack.pop()
        ev = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "seq": tel._next_seq(),
            "start_seq": self.start_seq,
            "wall_s": time.perf_counter() - self._t0,
            "attrs": self.attrs,
        }
        if self._io_before is not None:
            delta = self._system.stats.since(self._io_before)
            ev["io"] = {
                "parallel_reads": delta.parallel_reads,
                "parallel_writes": delta.parallel_writes,
                "blocks_read": delta.blocks_read,
                "blocks_written": delta.blocks_written,
                "reads_per_disk": [int(x) for x in delta.reads_per_disk],
                "writes_per_disk": [int(x) for x in delta.writes_per_disk],
            }
        tel.events.append(ev)


class Telemetry:
    """Enabled telemetry: a metrics registry plus a span/event stream."""

    enabled = True

    def __init__(self, **meta: Any) -> None:
        self.registry = MetricsRegistry()
        self.events: list[dict] = []
        self._stack: list[Span] = []
        self._span_counter = 0
        self._seq = 0
        self._finished = False
        #: Optional causal-trace ring (:mod:`repro.telemetry.trace`);
        #: armed via :meth:`attach_trace`, flushed by :meth:`finish`.
        self.trace = None
        self.events.append(
            {"type": "meta", "schema": SCHEMA_VERSION, **meta}
        )

    # -- internals -------------------------------------------------------

    def _next_span_id(self) -> int:
        self._span_counter += 1
        return self._span_counter

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    # -- metric accessors (delegate to the registry) ---------------------

    def counter(self, name: str):
        return self.registry.counter(name)

    def gauge(self, name: str):
        return self.registry.gauge(name)

    def histogram(self, name: str, edges: tuple[float, ...]):
        return self.registry.histogram(name, edges)

    # -- stream ----------------------------------------------------------

    def set_meta(self, **meta: Any) -> None:
        """Add run-configuration fields to the meta event after the fact."""
        self.events[0].update(meta)

    def span(self, name: str, system=None, **attrs: Any) -> Span:
        """Open a nested phase scope (closed via ``with`` or ``close()``)."""
        return Span(self, name, system, attrs)

    def event(self, name: str, **attrs: Any) -> None:
        """Append a point event."""
        self.events.append(
            {"type": "event", "name": name, "seq": self._next_seq(),
             "attrs": attrs}
        )

    def attach_trace(self, collector=None):
        """Arm causal tracing; returns the (shared) trace collector.

        Producers discover the ring via ``getattr(telemetry, "trace",
        None)``; its records and per-domain summaries are flushed into
        the event stream by :meth:`finish`, just before the metrics
        snapshot.
        """
        if self.trace is None:
            if collector is None:
                from .trace import TraceCollector

                collector = TraceCollector()
            self.trace = collector
        return self.trace

    def finish(self) -> list[dict]:
        """Close the stream: append the metrics snapshot exactly once."""
        if self._stack:
            raise ScheduleError(
                f"finish with open spans: {[s.name for s in self._stack]}"
            )
        if not self._finished:
            self._finished = True
            if self.trace is not None:
                self.events.extend(self.trace.to_events())
            self.events.append(
                {"type": "metrics", "metrics": self.registry.snapshot()}
            )
        return self.events

    def write_jsonl(self, path: str) -> None:
        """Finish the stream and write one JSON object per line."""
        events = self.finish()
        with open(path, "w") as fh:
            for ev in events:
                fh.write(json.dumps(ev, sort_keys=False))
                fh.write("\n")


class _NullSpan:
    """Shared no-op span; context-manager compatible."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def close(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """Disabled telemetry: every accessor returns a shared no-op object."""

    enabled = False
    #: Disabled mode never owns a trace ring; producers that probe
    #: ``getattr(telemetry, "trace", None)`` see None and skip tracing.
    trace = None
    __slots__ = ()

    def counter(self, name: str):
        return NULL_METRIC

    def gauge(self, name: str):
        return NULL_METRIC

    def histogram(self, name: str, edges: tuple[float, ...]):
        return NULL_METRIC

    def set_meta(self, **meta: Any) -> None:
        pass

    def span(self, name: str, system=None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **attrs: Any) -> None:
        pass


#: The process-wide disabled-telemetry singleton.  Code that takes an
#: optional ``telemetry`` argument defaults to this, so instrumentation
#: never needs a None check.
TELEMETRY_OFF = NullTelemetry()
