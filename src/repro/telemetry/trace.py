"""Causal trace records and the bounded trace ring.

Counters and spans (PR 3) say *how much* I/O a run paid; this module
records *when* every simulated operation ran and *what it waited on*,
so the makespan can be decomposed into a causal chain
(:mod:`repro.analysis.critical_path`) instead of a pile of totals.

Every traced operation becomes one :class:`TraceRecord` with

* ``queue_ms`` / ``start_ms`` / ``end_ms`` — simulated-clock timestamps
  (when the request was issued, when service began, when it completed);
* a ``lane`` (``disk3``, ``cpu``, ``channel``, ``worker1``) and a
  ``domain`` grouping one timeline (``merge:1``, ``demand:0``,
  ``wall:0``);
* a ``cat`` in ``{read, write, compute, stall, recovery}`` — the
  attribution bucket the record charges time to;
* a causal predecessor ``dep`` — the index of the record whose
  completion *bound* this record's start (the queue predecessor on a
  busy disk, the issuing CPU batch, the stall's awaited arrival).
  Producers choose the dep so that
  ``dep.end_ms >= start_ms`` holds bit-exactly; that invariant is what
  lets the critical-path walk tile the makespan with no float slack.

Records carry only simulated-clock floats and small ints/strings, so a
seeded run exports a byte-identical trace JSONL (asserted by the
determinism tests).  Wall-clock lanes (parallel-merge workers) are
segregated under the ``wall`` domain and never mix with simulated time.

The :class:`TraceCollector` is a bounded ring: overflow evicts the
oldest records and counts them in ``dropped`` (surfaced by ``repro
inspect``); a critical-path walk that runs into an evicted dep reports
itself ``truncated`` rather than wrong.

:func:`chrome_trace` converts the exported events to Chrome
trace-event JSON (the ``{"traceEvents": [...]}`` shape), viewable in
Perfetto / ``chrome://tracing``: domains become processes, lanes become
threads, cross-lane deps become flow arrows.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Iterable, Iterator

__all__ = [
    "TRACE_CATEGORIES",
    "TraceRecord",
    "TraceSummary",
    "TraceCollector",
    "NetTracer",
    "SystemTracer",
    "chrome_trace",
    "write_chrome_trace",
    "trace_events_from_stream",
]

#: The attribution buckets every record charges into.
TRACE_CATEGORIES = ("read", "write", "compute", "stall", "recovery")

#: Map a producer ``kind`` to its attribution category.
KIND_CATEGORY = {
    "read": "read",
    "write": "write",
    "parity": "write",
    "compute": "compute",
    "read_stall": "stall",
    "write_stall": "stall",
    "fault_stall": "stall",
    "recovery": "recovery",
    "backoff": "recovery",
}


class TraceRecord:
    """One traced operation on the simulated (or wall) timeline."""

    __slots__ = (
        "index", "kind", "cat", "lane", "domain",
        "queue_ms", "start_ms", "end_ms", "dep", "attrs",
    )

    def __init__(
        self,
        index: int,
        kind: str,
        cat: str,
        lane: str,
        domain: str,
        queue_ms: float,
        start_ms: float,
        end_ms: float,
        dep: int | None,
        attrs: dict | None,
    ) -> None:
        self.index = index
        self.kind = kind
        self.cat = cat
        self.lane = lane
        self.domain = domain
        self.queue_ms = queue_ms
        self.start_ms = start_ms
        self.end_ms = end_ms
        self.dep = dep
        self.attrs = attrs

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms

    def to_event(self) -> dict:
        ev = {
            "type": "trace",
            "i": self.index,
            "kind": self.kind,
            "cat": self.cat,
            "lane": self.lane,
            "dom": self.domain,
            "tq": self.queue_ms,
            "ts": self.start_ms,
            "te": self.end_ms,
            "dep": self.dep,
        }
        if self.attrs:
            ev["attrs"] = self.attrs
        return ev

    @classmethod
    def from_event(cls, ev: dict) -> "TraceRecord":
        return cls(
            ev["i"], ev["kind"], ev["cat"], ev["lane"], ev["dom"],
            ev["tq"], ev["ts"], ev["te"], ev.get("dep"),
            ev.get("attrs") or None,
        )


class TraceSummary:
    """Producer-declared closing line for one domain's timeline."""

    __slots__ = ("domain", "makespan_ms", "exact")

    def __init__(self, domain: str, makespan_ms: float, exact: bool) -> None:
        self.domain = domain
        self.makespan_ms = makespan_ms
        self.exact = exact


class TraceCollector:
    """Bounded ring of :class:`TraceRecord` plus per-domain summaries.

    ``add`` returns a *global* record index (monotone, never reused) so
    dep edges stay meaningful after the ring evicts old records; the
    eviction count is ``dropped``.
    """

    def __init__(self, max_records: int = 500_000) -> None:
        if max_records < 1:
            raise ValueError(f"max_records must be >= 1, got {max_records}")
        self.max_records = max_records
        self.records: deque[TraceRecord] = deque(maxlen=max_records)
        self.summaries: list[TraceSummary] = []
        self.emitted = 0
        self.dropped = 0
        self._domain_counts: dict[str, int] = {}

    # -- production ------------------------------------------------------

    def new_domain(self, prefix: str) -> str:
        """Allocate a deterministic domain name, ``prefix:N``."""
        n = self._domain_counts.get(prefix, 0)
        self._domain_counts[prefix] = n + 1
        return f"{prefix}:{n}"

    def add(
        self,
        kind: str,
        lane: str,
        domain: str,
        queue_ms: float,
        start_ms: float,
        end_ms: float,
        dep: int | None = None,
        cat: str | None = None,
        attrs: dict | None = None,
    ) -> int:
        """Append a record; returns its global index."""
        index = self.emitted
        self.emitted += 1
        if len(self.records) == self.max_records:
            self.dropped += 1
        self.records.append(
            TraceRecord(
                index, kind, cat if cat is not None else KIND_CATEGORY[kind],
                lane, domain, queue_ms, start_ms, end_ms, dep, attrs,
            )
        )
        return index

    def summary(self, domain: str, makespan_ms: float, exact: bool = True) -> None:
        """Close *domain*'s timeline at *makespan_ms*."""
        self.summaries.append(TraceSummary(domain, float(makespan_ms), exact))

    # -- export ----------------------------------------------------------

    def to_events(self) -> Iterator[dict]:
        """Yield the JSONL-ready event dicts (records, then summaries)."""
        counts: dict[str, int] = {}
        for rec in self.records:
            counts[rec.domain] = counts.get(rec.domain, 0) + 1
            yield rec.to_event()
        for s in self.summaries:
            yield {
                "type": "trace_summary",
                "dom": s.domain,
                "makespan_ms": s.makespan_ms,
                "exact": s.exact,
                "records": counts.get(s.domain, 0),
                "emitted": self.emitted,
                "dropped": self.dropped,
            }


# ---------------------------------------------------------------------------
# Producers.
# ---------------------------------------------------------------------------


class NetTracer:
    """Traces :class:`~repro.disks.service.ServiceNetwork` requests.

    The network calls :meth:`disk_op` once per accepted request, passing
    the pieces ``DiskService.submit`` used, *plus* the pre-submit
    ``free_at`` so the tracer can replay the exact
    ``max(issue, free_at, not_before)`` start and pick the **binding**
    predecessor: the disk's previous request when the queue bound the
    start, else ``issuer_dep`` (set by the engine to the CPU record that
    issued the batch).  Fault stall windows and recovery/penalty tails
    become their own ``stall`` / ``recovery`` records so the critical
    path names the fault, not just a longer read.
    """

    __slots__ = ("collector", "domain", "issuer_dep", "last_batch", "_tail")

    def __init__(self, collector: TraceCollector, domain: str) -> None:
        self.collector = collector
        self.domain = domain
        #: Set by the issuing side before each ``ServiceNetwork.submit``.
        self.issuer_dep: int | None = None
        #: Record index of the final record of each op in the last batch,
        #: positionally matching the submitted ``disk_ids``.
        self.last_batch: list[int] = []
        self._tail: dict[int, int] = {}

    def begin_batch(self) -> None:
        self.last_batch = []

    def disk_op(
        self,
        disk: int,
        kind: str,
        issue_ms: float,
        free_at: float,
        not_before: float,
        core_ms: float,
        service_ms: float,
        complete_ms: float,
    ) -> None:
        col = self.collector
        lane = f"disk{disk}"
        start = max(issue_ms, free_at, not_before)
        if free_at >= issue_ms and disk in self._tail:
            dep = self._tail[disk]  # queued behind this disk's previous op
        else:
            dep = self.issuer_dep
        candidate = max(issue_ms, free_at)
        if not_before > candidate:
            # Fault-plan stall window held the head off the platter.
            dep = col.add(
                "fault_stall", lane, self.domain,
                issue_ms, candidate, not_before, dep=dep,
            )
        mid = start + core_ms
        rec = col.add(kind, lane, self.domain, issue_ms, start, mid, dep=dep)
        if service_ms != core_ms:
            # Retry penalties + charged recovery block-ops tail the op.
            rec = col.add(
                "recovery", lane, self.domain, issue_ms, mid, complete_ms,
                dep=rec,
            )
        self._tail[disk] = rec
        self.last_batch.append(rec)

    def residual(self, disk: int, free_at: float, complete_ms: float) -> None:
        """A drained end-of-run residual (recovery/backoff tail)."""
        rec = self.collector.add(
            "recovery", f"disk{disk}", self.domain,
            free_at, free_at, complete_ms, dep=self._tail.get(disk),
        )
        self._tail[disk] = rec

    def tail(self, disk: int) -> int | None:
        return self._tail.get(disk)


class SystemTracer:
    """Traces the demand-paced system clock (no overlap engine).

    ``ParallelDiskSystem`` advances ``elapsed_ms`` serially — every
    charged stripe op, parity write, and backoff extends one global
    timeline — so the trace is a single ``channel`` lane whose records
    tile ``[0, elapsed_ms]`` exactly, each depending on the previous.
    """

    __slots__ = ("collector", "domain", "_tail")

    def __init__(self, collector: TraceCollector, domain: str) -> None:
        self.collector = collector
        self.domain = domain
        self._tail: int | None = None

    def op(self, kind: str, n_disks: int, t0: float, t1: float) -> None:
        if t1 == t0:
            return
        self._tail = self.collector.add(
            kind, "channel", self.domain, t0, t0, t1, dep=self._tail,
            attrs={"disks": n_disks} if n_disks else None,
        )

    def finish(self, makespan_ms: float, exact: bool = True) -> None:
        self.collector.summary(self.domain, makespan_ms, exact)


# ---------------------------------------------------------------------------
# Chrome trace-event export.
# ---------------------------------------------------------------------------


def trace_events_from_stream(events: Iterable[dict]) -> tuple[list[dict], list[dict]]:
    """Split a decoded telemetry stream into (trace, trace_summary) events."""
    recs = [ev for ev in events if ev.get("type") == "trace"]
    sums = [ev for ev in events if ev.get("type") == "trace_summary"]
    return recs, sums


def chrome_trace(events: Iterable[dict]) -> dict:
    """Convert telemetry events to Chrome trace-event JSON.

    Domains map to processes, lanes to threads; every record becomes a
    complete (``ph="X"``) event with microsecond timestamps, and each
    cross-lane dep becomes a flow arrow (``ph="s"``/``ph="f"``).  The
    result loads in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
    """
    recs, sums = trace_events_from_stream(events)
    out: list[dict] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    by_index: dict[int, dict] = {r["i"]: r for r in recs}
    for r in recs:
        dom, lane = r["dom"], r["lane"]
        if dom not in pids:
            pid = pids[dom] = len(pids) + 1
            out.append({
                "ph": "M", "name": "process_name", "pid": pid, "tid": 0,
                "args": {"name": dom},
            })
        pid = pids[dom]
        key = (dom, lane)
        if key not in tids:
            tid = tids[key] = len(tids) + 1
            out.append({
                "ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
                "args": {"name": lane},
            })
    for r in recs:
        pid = pids[r["dom"]]
        tid = tids[(r["dom"], r["lane"])]
        ts = r["ts"] * 1000.0
        ev = {
            "ph": "X", "name": r["kind"], "cat": r["cat"],
            "pid": pid, "tid": tid,
            "ts": ts, "dur": (r["te"] - r["ts"]) * 1000.0,
            "args": {"i": r["i"], "queue_ms": r["tq"], "dep": r["dep"]},
        }
        if r.get("attrs"):
            ev["args"].update(r["attrs"])
        out.append(ev)
        dep = r.get("dep")
        if dep is not None:
            d = by_index.get(dep)
            if d is not None and d["lane"] != r["lane"]:
                out.append({
                    "ph": "s", "id": r["i"], "name": "dep", "cat": "dep",
                    "pid": pids[d["dom"]], "tid": tids[(d["dom"], d["lane"])],
                    "ts": d["te"] * 1000.0,
                })
                out.append({
                    "ph": "f", "bp": "e", "id": r["i"], "name": "dep",
                    "cat": "dep", "pid": pid, "tid": tid, "ts": ts,
                })
    meta: dict[str, Any] = {
        "domains": {
            s["dom"]: {"makespan_ms": s["makespan_ms"], "exact": s["exact"]}
            for s in sums
        },
    }
    if sums:
        meta["dropped"] = sums[-1].get("dropped", 0)
        meta["emitted"] = sums[-1].get("emitted", len(recs))
    return {"traceEvents": out, "displayTimeUnit": "ms", "otherData": meta}


def write_chrome_trace(path: str, events: Iterable[dict]) -> dict:
    """Write :func:`chrome_trace` output to *path*; returns the dict."""
    doc = chrome_trace(events)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
    return doc
