"""Mapping the makespan cliff: where overlap stops hiding latency.

SRM's §5.5 schedule plus the overlap engine hide disk latency behind
merge compute — until a straggler gets slow enough (or stalls often
enough) that no legal read-ahead keeps the merge fed.  Past that point
the makespan walks away from its lower bound and the critical path
flips from compute-dominated to read/stall-dominated: the *cliff*.

This module sweeps straggler multipliers (``latency_factors``) and
stall densities across overlap modes and prefetch depths, one traced
:func:`~repro.core.mergesort.srm_sort` per grid point, and uses the
critical-path attribution (:mod:`repro.analysis.critical_path`) to
record, per point:

* the simulated merge makespan and its busy components;
* the **overlap gap** — makespan minus the busiest-lane lower bound
  ``sum over merges of max(cpu busy, busiest disk busy)``, i.e. the
  latency the schedule failed to hide;
* the critical-path category (read/write/compute/stall/...) that
  dominates, locating which resource the cliff hands the makespan to.

``repro cliff --check`` gates every point on sorted output and an exact
critical path (the ``cliff-smoke`` CI job runs the quick grid).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from ..core.config import OverlapConfig, SRMConfig
from ..core.mergesort import srm_sort
from ..faults.plan import FaultPlan, StallWindow
from ..telemetry import Telemetry
from .critical_path import analyze_collector, combine_attribution

#: Default straggler multipliers swept (1.0 = fault-free point).
DEFAULT_FACTORS = (1.0, 2.0, 4.0, 8.0)
#: Default stall densities (count of stall windows on the victim disk).
DEFAULT_STALLS = (0, 4)
#: Default overlap modes: demand-paced reference and full overlap.
DEFAULT_MODES = ("none", "full")
#: Default read-ahead depths.
DEFAULT_DEPTHS = (0, 1, 2)


@dataclass(frozen=True, slots=True)
class CliffSweepConfig:
    """Geometry and axes of one cliff sweep."""

    n_records: int = 20_000
    n_disks: int = 4
    k: int = 2
    block_size: int = 16
    seed: int = 1996
    #: Per-record merge cost; the default puts compute and a fast
    #: disk's block service in the same regime, so overlap has
    #: something to hide and the cliff is visible inside the sweep.
    cpu_us_per_record: float = 1000.0
    modes: tuple[str, ...] = DEFAULT_MODES
    depths: tuple[int, ...] = DEFAULT_DEPTHS
    factors: tuple[float, ...] = DEFAULT_FACTORS
    stalls: tuple[int, ...] = DEFAULT_STALLS
    #: Disk receiving the straggler factor / stall windows.
    victim_disk: int = 1

    @classmethod
    def quick(cls, **overrides) -> "CliffSweepConfig":
        """The CI-sized grid (8 points): one mode, two depths."""
        defaults = dict(
            modes=("full",), depths=(0, 2), factors=(1.0, 4.0), stalls=(0, 2)
        )
        defaults.update(overrides)
        return cls(**defaults)


@dataclass(slots=True)
class CliffPoint:
    """One swept grid point."""

    mode: str
    prefetch_depth: int
    latency_factor: float
    n_stalls: int
    makespan_ms: float
    cpu_busy_ms: float
    read_stall_ms: float
    write_stall_ms: float
    io_busy_ms: float
    disk_utilization: float
    #: Busiest-lane lower bound: per merge, the slower of CPU busy and
    #: the busiest disk's busy time, summed across merges.
    bound_ms: float
    #: makespan - bound: simulated latency the schedule failed to hide.
    overlap_gap_ms: float
    #: Critical-path category with the largest share of the makespan.
    dominant: str
    #: Critical-path attribution (category -> ms on the path).
    attribution: dict = field(default_factory=dict)
    #: Critical path tiles the makespan bit-exactly in every domain.
    exact: bool = True
    #: Output matched the fault-free sorted reference.
    sorted_ok: bool = True

    @property
    def gap_pct(self) -> float:
        """Overlap gap as a fraction of the makespan (percent)."""
        if self.makespan_ms <= 0.0:
            return 0.0
        return 100.0 * self.overlap_gap_ms / self.makespan_ms

    def row(self) -> dict:
        """JSONL-serializable record of this point."""
        d = asdict(self)
        d["gap_pct"] = round(self.gap_pct, 3)
        return d


@dataclass(slots=True)
class CliffReport:
    """All points of one sweep plus the geometry that produced them."""

    config: CliffSweepConfig
    points: list[CliffPoint] = field(default_factory=list)

    def failures(self) -> list[str]:
        """Gate violations across the grid (empty means all pass).

        Every point must sort identically to the fault-free reference,
        and its critical path must tile the makespan exactly.
        """
        bad = []
        for p in self.points:
            tag = (
                f"mode={p.mode} depth={p.prefetch_depth}"
                f" factor={p.latency_factor} stalls={p.n_stalls}"
            )
            if not p.sorted_ok:
                bad.append(f"{tag}: output not sorted-identical to reference")
            if not p.exact:
                bad.append(f"{tag}: critical path does not tile the makespan")
        return bad

    def write_jsonl(self, path) -> None:
        """One meta line plus one line per grid point."""
        with open(path, "w", encoding="utf-8") as fh:
            meta = {"type": "meta", **asdict(self.config)}
            fh.write(json.dumps(meta) + "\n")
            for p in self.points:
                fh.write(json.dumps({"type": "point", **p.row()}) + "\n")


def _plan(cfg: CliffSweepConfig, factor: float, n_stalls: int, salt: int):
    """The deterministic fault plan of one grid point (None = clean)."""
    factors = {cfg.victim_disk: factor} if factor != 1.0 else {}
    stalls = tuple(
        # Recurring windows early in the merge: long enough to bite
        # (a window covers several block services), spaced so the
        # disk recovers in between.
        StallWindow(cfg.victim_disk, 1_000.0 + 3_000.0 * i, 500.0)
        for i in range(n_stalls)
    )
    if not factors and not stalls:
        return None
    return FaultPlan(
        seed=cfg.seed + salt, latency_factors=factors, stalls=stalls
    )


def _traced_sort(keys, srm, cfg, overlap, plan):
    """One traced sort; returns (output, result, analyses)."""
    tel = Telemetry(harness="cliff", mode=overlap.mode)
    col = tel.attach_trace()
    out, res = srm_sort(
        keys, srm, rng=cfg.seed + 17, overlap=overlap,
        telemetry=tel, faults=plan,
    )
    tel.finish()
    return out, res, analyze_collector(col)


def _bound_ms(analyses) -> float:
    """Busiest-lane lower bound, summed over the merge domains."""
    total = 0.0
    for a in analyses.values():
        busiest = max((lane.busy_ms for lane in a.lanes), default=0.0)
        total += busiest
    return total


def run_cliff(cfg: CliffSweepConfig) -> CliffReport:
    """Execute the sweep: one seeded sort per grid point."""
    srm = SRMConfig.from_k(cfg.k, cfg.n_disks, cfg.block_size)
    rng = np.random.default_rng(cfg.seed)
    keys = rng.integers(0, 2**48, size=cfg.n_records, dtype=np.int64)
    reference = np.sort(keys)
    report = CliffReport(config=cfg)

    salt = 0
    for mode in cfg.modes:
        for depth in cfg.depths:
            for factor in cfg.factors:
                for n_stalls in cfg.stalls:
                    # Deterministic per-point fault seed (str hashing is
                    # process-randomized, so enumerate instead).
                    salt += 1
                    plan = _plan(cfg, factor, n_stalls, salt)
                    overlap = OverlapConfig(
                        mode=mode,
                        prefetch_depth=depth,
                        cpu_us_per_record=cfg.cpu_us_per_record,
                    )
                    out, res, analyses = _traced_sort(
                        keys, srm, cfg, overlap, plan
                    )
                    attr = combine_attribution(analyses.values())
                    attr = {c: round(v, 3) for c, v in attr.items() if v}
                    makespan = res.simulated_merge_ms
                    bound = _bound_ms(analyses)
                    point = CliffPoint(
                        mode=mode,
                        prefetch_depth=depth,
                        latency_factor=factor,
                        n_stalls=n_stalls,
                        makespan_ms=makespan,
                        cpu_busy_ms=sum(
                            r.cpu_busy_ms for r in res.overlap_reports
                        ),
                        read_stall_ms=sum(
                            r.read_stall_ms for r in res.overlap_reports
                        ),
                        write_stall_ms=sum(
                            r.write_stall_ms for r in res.overlap_reports
                        ),
                        io_busy_ms=sum(
                            r.io_busy_ms for r in res.overlap_reports
                        ),
                        disk_utilization=(
                            sum(
                                r.disk_utilization * r.makespan_ms
                                for r in res.overlap_reports
                            )
                            / makespan
                            if makespan
                            else 0.0
                        ),
                        bound_ms=bound,
                        overlap_gap_ms=makespan - bound,
                        dominant=max(attr, key=attr.get) if attr else "none",
                        attribution=attr,
                        exact=all(a.exact for a in analyses.values()),
                        sorted_ok=bool(np.array_equal(out, reference)),
                    )
                    report.points.append(point)
    return report


def render_cliff(report: CliffReport) -> str:
    """The human-readable grid: one row per point, gap and verdicts."""
    lines = [
        "cliff map: makespan vs straggler factor / stall density",
        f"  n={report.config.n_records} D={report.config.n_disks}"
        f" k={report.config.k} B={report.config.block_size}"
        f" cpu={report.config.cpu_us_per_record}us/rec"
        f" victim=disk{report.config.victim_disk}",
        "",
        f"{'mode':8s} {'depth':>5s} {'factor':>6s} {'stalls':>6s}"
        f" {'makespan':>12s} {'gap%':>6s} {'dominant':>9s}",
    ]
    for p in report.points:
        lines.append(
            f"{p.mode:8s} {p.prefetch_depth:5d} {p.latency_factor:6.1f}"
            f" {p.n_stalls:6d} {p.makespan_ms:12.1f} {p.gap_pct:6.1f}"
            f" {p.dominant:>9s}"
        )
    fails = report.failures()
    lines.append("")
    if fails:
        lines.append(f"FAIL ({len(fails)}):")
        lines.extend(f"  {f}" for f in fails)
    else:
        lines.append("all points: output identical, attribution exact")
    return "\n".join(lines)
