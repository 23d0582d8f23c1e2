"""Critical-path extraction and makespan attribution over a trace.

Input is the causal trace of :mod:`repro.telemetry.trace`: records with
``[start, end]`` intervals on lanes, grouped into domains (one domain =
one timeline with one makespan), each carrying a *binding* predecessor
``dep`` — the record whose completion set this record's start.

The critical path is found backwards: start at the record with the
latest completion (its end *is* the makespan — the engine guarantees
every clock advance leaves a record ending at the new time) and follow
deps toward time zero.  A **frontier** sweeps from the terminal end
toward zero; each visited record charges ``frontier - start`` (clipped
at zero) to its category and pulls the frontier down to its start.
Because producers pick deps with ``dep.end >= start`` bit-exactly, the
walk tiles ``[0, makespan]`` with no float slack, and

``total_ms == makespan_ms`` **exactly** (same float), with
``exact=True`` certifying the chain reached time zero.

A walk that dereferences a ring-evicted dep reports ``truncated=True``
and gives up exactness instead of inventing numbers.

Per-lane utilization, idle-gap histograms, and straggler flags ride
along so ``repro inspect --attribution`` can answer *which* disk made
the run slow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..telemetry.trace import (
    TRACE_CATEGORIES,
    TraceCollector,
    trace_events_from_stream,
)

__all__ = [
    "IDLE_GAP_EDGES",
    "PathSegment",
    "LaneStats",
    "DomainAttribution",
    "analyze_events",
    "analyze_collector",
    "combine_attribution",
]

#: Fixed idle-gap bucket edges (ms) so histograms compare across runs.
IDLE_GAP_EDGES = (0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0)

#: A lane on the critical path longer than this fraction flags as the
#: dominant lane; a lane busier than STRAGGLER_FACTOR x its peer median
#: flags as a straggler.
STRAGGLER_FACTOR = 1.5


@dataclass(frozen=True, slots=True)
class PathSegment:
    """One record's contribution to the critical path."""

    index: int
    kind: str
    cat: str
    lane: str
    start_ms: float
    end_ms: float
    contrib_ms: float


@dataclass(frozen=True, slots=True)
class LaneStats:
    """Busy/utilization summary of one lane within a domain."""

    lane: str
    ops: int
    busy_ms: float
    utilization: float
    idle_gap_counts: tuple[int, ...]  # len(IDLE_GAP_EDGES) + 1 buckets
    straggler: bool


@dataclass(slots=True)
class DomainAttribution:
    """Makespan decomposition of one domain's timeline."""

    domain: str
    makespan_ms: float
    total_ms: float
    exact: bool
    truncated: bool
    attribution: dict[str, float]
    path: list[PathSegment]
    lanes: list[LaneStats] = field(default_factory=list)
    stragglers: list[str] = field(default_factory=list)
    records: int = 0
    dropped: int = 0

    @property
    def path_by_category(self) -> dict[str, float]:
        return dict(self.attribution)

    def fraction(self, cat: str) -> float:
        if self.makespan_ms <= 0.0:
            return 0.0
        return self.attribution.get(cat, 0.0) / self.makespan_ms


def _lane_group(lane: str) -> str:
    """Peer group of a lane: its name with trailing digits stripped."""
    return lane.rstrip("0123456789")


def _median(values: list[float]) -> float:
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def _walk_critical_path(
    recs: list[dict],
) -> tuple[float, dict[str, float], list[PathSegment], bool, bool]:
    """Backward frontier walk; returns (total, attribution, path,
    reached_zero, truncated)."""
    by_index = {r["i"]: r for r in recs}
    terminal = max(recs, key=lambda r: (r["te"], r["i"]))
    total = terminal["te"]
    frontier = total
    attribution = {cat: 0.0 for cat in TRACE_CATEGORIES}
    path: list[PathSegment] = []
    truncated = False
    seen: set[int] = set()
    cur: dict | None = terminal
    while cur is not None:
        i = cur["i"]
        if i in seen:  # defensive: malformed cyclic deps
            truncated = True
            break
        seen.add(i)
        contrib = frontier - cur["ts"]
        if contrib > 0.0:
            attribution[cur["cat"]] = attribution.get(cur["cat"], 0.0) + contrib
            path.append(
                PathSegment(
                    i, cur["kind"], cur["cat"], cur["lane"],
                    cur["ts"], cur["te"], contrib,
                )
            )
            frontier = cur["ts"]
        dep = cur.get("dep")
        if dep is None:
            cur = None
        else:
            cur = by_index.get(dep)
            if cur is None:
                truncated = True
                break
    path.reverse()
    return total, attribution, path, (frontier == 0.0), truncated


def _lane_stats(recs: list[dict], makespan_ms: float) -> list[LaneStats]:
    lanes: dict[str, list[dict]] = {}
    for r in recs:
        lanes.setdefault(r["lane"], []).append(r)
    busy = {
        lane: sum(r["te"] - r["ts"] for r in rs) for lane, rs in lanes.items()
    }
    groups: dict[str, list[str]] = {}
    for lane in lanes:
        groups.setdefault(_lane_group(lane), []).append(lane)
    straggle: set[str] = set()
    for members in groups.values():
        if len(members) < 2:
            continue
        med = _median([busy[m] for m in members])
        if med <= 0.0:
            continue
        for m in members:
            if busy[m] > STRAGGLER_FACTOR * med:
                straggle.add(m)
    out: list[LaneStats] = []
    for lane in sorted(lanes):
        rs = sorted(lanes[lane], key=lambda r: (r["ts"], r["i"]))
        counts = [0] * (len(IDLE_GAP_EDGES) + 1)
        for a, b in zip(rs, rs[1:]):
            gap = b["ts"] - a["te"]
            if gap <= 0.0:
                continue
            k = 0
            while k < len(IDLE_GAP_EDGES) and gap > IDLE_GAP_EDGES[k]:
                k += 1
            counts[k] += 1
        util = busy[lane] / makespan_ms if makespan_ms > 0.0 else 0.0
        out.append(
            LaneStats(
                lane, len(rs), busy[lane], util, tuple(counts),
                lane in straggle,
            )
        )
    return out


def analyze_events(events: Iterable[dict]) -> dict[str, DomainAttribution]:
    """Attribute every traced domain in a decoded telemetry stream."""
    recs, sums = trace_events_from_stream(events)
    by_dom: dict[str, list[dict]] = {}
    for r in recs:
        by_dom.setdefault(r["dom"], []).append(r)
    declared = {s["dom"]: s for s in sums}
    out: dict[str, DomainAttribution] = {}
    for dom in list(by_dom) + [d for d in declared if d not in by_dom]:
        if dom in out:
            continue
        drecs = by_dom.get(dom, [])
        s = declared.get(dom)
        dropped = s.get("dropped", 0) if s else 0
        if not drecs:
            out[dom] = DomainAttribution(
                dom, s["makespan_ms"] if s else 0.0, 0.0,
                exact=False, truncated=False,
                attribution={cat: 0.0 for cat in TRACE_CATEGORIES},
                path=[], records=0, dropped=dropped,
            )
            continue
        total, attribution, path, reached_zero, truncated = (
            _walk_critical_path(drecs)
        )
        makespan = s["makespan_ms"] if s else total
        exact = (
            reached_zero
            and not truncated
            and total == makespan
            and (s is None or bool(s.get("exact", True)))
        )
        lanes = _lane_stats(drecs, makespan)
        out[dom] = DomainAttribution(
            dom, makespan, total, exact, truncated, attribution, path,
            lanes=lanes,
            stragglers=[l.lane for l in lanes if l.straggler],
            records=len(drecs), dropped=dropped,
        )
    return out


def analyze_collector(
    collector: TraceCollector,
) -> dict[str, DomainAttribution]:
    """Attribute the domains of an in-memory :class:`TraceCollector`."""
    return analyze_events(list(collector.to_events()))


def combine_attribution(
    analyses: Iterable[DomainAttribution],
) -> dict[str, float]:
    """Sum per-category attribution across domains (e.g. all merges)."""
    out = {cat: 0.0 for cat in TRACE_CATEGORIES}
    for a in analyses:
        for cat, ms in a.attribution.items():
            out[cat] = out.get(cat, 0.0) + ms
    return out
