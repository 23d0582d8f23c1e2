"""``repro inspect``: turn a captured JSONL stream into a run report.

The renderer connects each measured quantity back to the paper:

* **ParReads vs the Theorem-1 bound** — each SRM merge span carries
  ``n_blocks``, ``R``, ``D`` and its read counts; the rigorous
  finite-parameter expectation bound is ``v <= D ·
  gf_expected_max_bound(R, D) / R`` (§7.3), rendered next to the
  measured per-merge overhead ``v = total_reads · D / n_blocks``.
* **Flushing vs occupancy theory (§5)** — the flush-time M_R occupancy
  histogram must sit in ``(R, R + D]`` (§5.4's buffer bound), and the
  re-read fraction ``blocks_flushed / n_blocks`` is compared with the
  occupancy bound's prediction ``v_bound - 1``.
* **Overlap gap** — engine-driven merges report CPU stall, disk
  utilization, and the per-disk busy/idle split (post-Lemma-1 claim).
* **Per-disk skew** — max/mean participation per disk from the span's
  I/O delta (the §3 adversary drives this to D; SRM keeps it near 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from ..errors import DataError
from ..occupancy.bounds import gf_expected_max_bound
from .schema import (
    EV_OVERLAP_DISKS,
    H_FLUSH_OCCUPANCY,
    SPAN_MERGE,
    SPAN_MERGE_PASS,
    SPAN_RUN_FORMATION,
    SPAN_SORT,
    validate_events,
)

__all__ = ["RunReport", "load_events"]

#: Multiplier on the expectation bound before a --check failure: a
#: single merge is one sample of the random layout, so small merges can
#: exceed their *expected*-value bound; the GF bound's slack plus this
#: margin keeps the assertion meaningful without flaking.
CHECK_SLACK = 1.25


def load_events(path: str) -> list[dict]:
    """Decode a JSONL telemetry stream."""
    events: list[dict] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                ev = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataError(f"{path}:{lineno}: not valid JSON ({e})") from e
            if not isinstance(ev, dict):
                raise DataError(f"{path}:{lineno}: event is not an object")
            events.append(ev)
    return events


def _skew(per_disk: list[int]) -> float:
    """Max/mean participation (1.0 = perfectly balanced)."""
    if not per_disk or sum(per_disk) == 0:
        return 1.0
    mean = sum(per_disk) / len(per_disk)
    return max(per_disk) / mean


@dataclass
class RunReport:
    """A parsed telemetry stream plus the paper-facing analyses."""

    meta: dict
    spans: list[dict]
    events: list[dict]
    metrics: dict = field(default_factory=dict)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_events(cls, events: list[dict]) -> "RunReport":
        errors = validate_events(events)
        if errors:
            raise DataError(
                "invalid telemetry stream:\n  " + "\n  ".join(errors)
            )
        meta = events[0]
        spans = [ev for ev in events if ev.get("type") == "span"]
        metrics = events[-1]["metrics"]
        return cls(meta=meta, spans=spans, events=events, metrics=metrics)

    @classmethod
    def from_jsonl(cls, path: str) -> "RunReport":
        return cls.from_events(load_events(path))

    # -- span queries ----------------------------------------------------

    def spans_named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    @property
    def algo(self) -> str:
        return str(self.meta.get("algo", "?"))

    # -- per-merge Theorem-1 accounting ----------------------------------

    def merge_rows(self) -> list[dict]:
        """One row per merge span: measured reads vs the §7.3 bound.

        ``v`` is the per-merge read overhead ``total_reads · D /
        n_blocks`` (1.0 = perfect parallelism); ``v_bound`` is the
        rigorous expectation bound ``D · gf_expected_max_bound(R, D) /
        R`` where available (SRM; DSM's striped reads are perfect by
        construction and carry no bound).
        """
        rows = []
        for s in self.spans_named(SPAN_MERGE):
            a = s["attrs"]
            if "n_blocks" not in a:
                continue
            n_blocks = a["n_blocks"]
            d = a["n_disks"]
            total_reads = a.get("initial_reads", 0) + a.get("merge_parreads", 0)
            row = {
                "span_id": s["span_id"],
                "parent_id": s["parent_id"],
                "n_runs": a.get("n_runs"),
                "n_blocks": n_blocks,
                "total_reads": total_reads,
                "perfect_reads": -(-n_blocks // d),
                "v": total_reads * d / n_blocks if n_blocks else 0.0,
                "flush_ops": a.get("flush_ops", 0),
                "blocks_flushed": a.get("blocks_flushed", 0),
                "v_bound": None,
            }
            r = a.get("n_runs")
            if self.algo == "srm" and r and r > 1:
                row["v_bound"] = d * gf_expected_max_bound(r, d) / r
            rows.append(row)
        return rows

    # -- per-phase table -------------------------------------------------

    def phase_rows(self) -> list[dict]:
        """One row per top-level phase (run formation, each merge pass)."""
        rows = []
        for s in self.spans:
            if s["name"] not in (SPAN_RUN_FORMATION, SPAN_MERGE_PASS):
                continue
            a = s["attrs"]
            io = s.get("io", {})
            label = s["name"]
            if s["name"] == SPAN_MERGE_PASS:
                label = f"merge_pass {a.get('pass_index', '?')}"
            rows.append({
                "phase": label,
                "span_id": s["span_id"],
                "wall_s": s["wall_s"],
                "reads": io.get("parallel_reads", 0),
                "writes": io.get("parallel_writes", 0),
                "blocks_read": io.get("blocks_read", 0),
                "blocks_written": io.get("blocks_written", 0),
                "read_skew": _skew(io.get("reads_per_disk", [])),
                "write_skew": _skew(io.get("writes_per_disk", [])),
                "attrs": a,
            })
        return rows

    def overlap_rows(self) -> list[dict]:
        """Engine-driven merges: stall / utilization / overlap gap."""
        rows = []
        for s in self.spans_named(SPAN_MERGE):
            a = s["attrs"]
            if "makespan_ms" not in a:
                continue
            makespan = a["makespan_ms"]
            stall = a.get("read_stall_ms", 0.0) + a.get("write_stall_ms", 0.0)
            rows.append({
                "span_id": s["span_id"],
                "makespan_ms": makespan,
                "cpu_busy_ms": a.get("cpu_busy_ms", 0.0),
                "stall_ms": stall,
                "overlap_gap": stall / makespan if makespan else 0.0,
                "disk_utilization": a.get("disk_utilization", 0.0),
                "eager_reads": a.get("eager_reads", 0),
                "demand_reads": a.get("demand_reads", 0),
            })
        return rows

    def disk_idle_events(self) -> list[dict]:
        return [
            ev for ev in self.events
            if ev.get("type") == "event" and ev.get("name") == EV_OVERLAP_DISKS
        ]

    # -- causal trace ----------------------------------------------------

    def trace_records(self) -> list[dict]:
        return [ev for ev in self.events if ev.get("type") == "trace"]

    def trace_summaries(self) -> list[dict]:
        return [ev for ev in self.events if ev.get("type") == "trace_summary"]

    @property
    def trace_dropped(self) -> int:
        """Ring-overflow eviction count (0 when nothing was dropped)."""
        sums = self.trace_summaries()
        return max((s.get("dropped", 0) for s in sums), default=0)

    def attribution(self):
        """Critical-path attribution per traced domain.

        Returns ``{domain: DomainAttribution}`` (empty when the stream
        carries no trace records).
        """
        from ..analysis.critical_path import analyze_events

        if not self.trace_records() and not self.trace_summaries():
            return {}
        return analyze_events(self.events)

    # -- checks ----------------------------------------------------------

    def check(self, slack: float = CHECK_SLACK) -> list[str]:
        """Assertions for CI: bound violations and schema drift.

        Returns a list of failures (empty = pass).  Schema validity is
        already guaranteed by construction; this adds the quantitative
        checks: every SRM merge's measured ``v`` within *slack* of its
        expectation bound, flush-time occupancies inside ``(R, R + D]``,
        and a sane span tree (a sort span exists and encloses a run
        formation phase).
        """
        failures: list[str] = []
        if not self.spans_named(SPAN_SORT):
            failures.append("no sort span in stream")
        if not self.spans_named(SPAN_RUN_FORMATION):
            failures.append("no run_formation span in stream")
        for row in self.merge_rows():
            bound = row["v_bound"]
            if bound is None:
                continue
            if row["v"] > bound * slack:
                failures.append(
                    f"merge span {row['span_id']}: measured v {row['v']:.3f} "
                    f"exceeds Theorem-1/GF bound {bound:.3f} x {slack}"
                )
        hist = self.metrics.get(H_FLUSH_OCCUPANCY)
        if hist and hist.get("n") and self.algo == "srm":
            # Every flush fires with M_R occupancy in (R, R + D]: the
            # recorded excess over R must land in [1, D], i.e. never in
            # the histogram's overflow bucket (edges run 1..D).
            if hist["counts"][-1]:
                failures.append(
                    f"{hist['counts'][-1]} flushes with occupancy excess "
                    f"beyond D (edges {hist['edges']}) — violates §5.4"
                )
        for dom, a in self.attribution().items():
            # A domain whose producer declared its timeline exact must
            # decompose exactly: same float, not approximately.
            declared = [
                s for s in self.trace_summaries() if s["dom"] == dom
            ]
            if declared and declared[-1].get("exact") and not a.truncated:
                if a.total_ms != a.makespan_ms:
                    failures.append(
                        f"trace domain {dom}: critical path "
                        f"{a.total_ms!r} ms != makespan "
                        f"{a.makespan_ms!r} ms"
                    )
                if not a.exact:
                    failures.append(
                        f"trace domain {dom}: walk did not certify "
                        f"exactness (reached_zero/truncation)"
                    )
        return failures

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """The human-facing per-phase report."""
        m = self.meta
        lines = [
            f"telemetry report — algo={self.algo} schema={m.get('schema')}",
            "  " + " ".join(
                f"{k}={m[k]}" for k in
                ("n_records", "n_disks", "block_size", "merge_order", "seed")
                if k in m
            ),
            "",
            "per-phase I/O "
            "(skew = max/mean per-disk participation; 1.0 = balanced)",
            f"  {'phase':<16} {'wall_s':>8} {'reads':>7} {'writes':>7} "
            f"{'r.skew':>7} {'w.skew':>7}",
        ]
        for row in self.phase_rows():
            lines.append(
                f"  {row['phase']:<16} {row['wall_s']:>8.3f} "
                f"{row['reads']:>7} {row['writes']:>7} "
                f"{row['read_skew']:>7.3f} {row['write_skew']:>7.3f}"
            )
        merges = self.merge_rows()
        if merges:
            lines += [
                "",
                "per-merge reads vs Theorem 1 "
                "(v = reads*D/blocks; bound = D*E[max occupancy]/R, §7.3)",
                f"  {'merge':>6} {'runs':>5} {'blocks':>7} {'reads':>7} "
                f"{'perfect':>8} {'v':>7} {'v_bound':>8} {'flushed':>8}",
            ]
            for row in merges:
                vb = f"{row['v_bound']:.3f}" if row["v_bound"] else "—"
                lines.append(
                    f"  {row['span_id']:>6} {row['n_runs']:>5} "
                    f"{row['n_blocks']:>7} {row['total_reads']:>7} "
                    f"{row['perfect_reads']:>8} {row['v']:>7.3f} "
                    f"{vb:>8} {row['blocks_flushed']:>8}"
                )
            tot_blocks = sum(r["n_blocks"] for r in merges)
            tot_flushed = sum(r["blocks_flushed"] for r in merges)
            bounds = [r["v_bound"] for r in merges if r["v_bound"]]
            lines.append(
                f"  re-read fraction (§5 flushing): "
                f"{tot_flushed / tot_blocks if tot_blocks else 0.0:.4f}"
                + (
                    f"  (occupancy-bound prediction <= "
                    f"{max(bounds) - 1.0:.4f})" if bounds else ""
                )
            )
        hist = self.metrics.get(H_FLUSH_OCCUPANCY)
        if hist and hist.get("n"):
            lines += [
                "",
                "flush-time M_R occupancy excess over R "
                "(§5.4 bounds it by D)",
            ]
            lines.append("  " + _render_hist(hist))
        overlaps = self.overlap_rows()
        if overlaps:
            lines += [
                "",
                "overlap engine (gap = cpu stall / makespan; 0 = fully hidden I/O)",
                f"  {'merge':>6} {'makespan':>10} {'stall_ms':>9} "
                f"{'gap':>6} {'disk util':>9} {'eager':>6} {'demand':>7}",
            ]
            for row in overlaps:
                lines.append(
                    f"  {row['span_id']:>6} {row['makespan_ms']:>10.1f} "
                    f"{row['stall_ms']:>9.1f} {row['overlap_gap']:>6.3f} "
                    f"{row['disk_utilization']:>9.3f} {row['eager_reads']:>6} "
                    f"{row['demand_reads']:>7}"
                )
        return "\n".join(lines)

    def render_attribution(self) -> str:
        """Makespan attribution: critical path, lanes, stragglers."""
        from ..analysis.critical_path import IDLE_GAP_EDGES, TRACE_CATEGORIES

        analyses = self.attribution()
        if not analyses:
            return "no trace records in stream (run with --trace)"
        lines: list[str] = ["makespan attribution (critical-path walk)"]
        for dom in sorted(analyses):
            a = analyses[dom]
            tag = "exact" if a.exact else (
                "truncated" if a.truncated else "inexact"
            )
            lines += [
                "",
                f"domain {dom}: makespan {a.makespan_ms:.3f} ms, "
                f"critical path {a.total_ms:.3f} ms [{tag}] "
                f"({a.records} records)",
            ]
            parts = [
                f"{cat} {a.attribution[cat]:.1f} ms "
                f"({100.0 * a.fraction(cat):.1f}%)"
                for cat in TRACE_CATEGORIES
                if a.attribution.get(cat)
            ]
            if parts:
                lines.append("  attribution: " + ", ".join(parts))
            if a.lanes:
                lines.append(
                    f"  {'lane':<14} {'ops':>6} {'busy_ms':>10} "
                    f"{'util':>6}  idle gaps (> {IDLE_GAP_EDGES[0]} ms)"
                )
                for l in a.lanes:
                    gaps = sum(l.idle_gap_counts[1:])
                    mark = "  << straggler" if l.straggler else ""
                    lines.append(
                        f"  {l.lane:<14} {l.ops:>6} {l.busy_ms:>10.1f} "
                        f"{l.utilization:>6.2f}  {gaps}{mark}"
                    )
            if a.stragglers:
                lines.append(
                    "  stragglers: " + ", ".join(a.stragglers)
                )
        dropped = self.trace_dropped
        if dropped:
            lines += [
                "",
                f"WARNING: trace ring overflowed — {dropped} oldest "
                "records dropped; walks touching them report truncated",
            ]
        return "\n".join(lines)


def _render_hist(snapshot: dict, width: int = 40) -> str:
    """One-line bucket sketch: ``(lo, hi]:count`` for populated buckets."""
    edges, counts = snapshot["edges"], snapshot["counts"]
    parts = []
    for i, c in enumerate(counts):
        if not c:
            continue
        lo = edges[i - 1] if i > 0 else "-inf"
        hi = edges[i] if i < len(edges) else "inf"
        parts.append(f"({lo}, {hi}]:{c}")
    return "  ".join(parts) if parts else "(empty)"
