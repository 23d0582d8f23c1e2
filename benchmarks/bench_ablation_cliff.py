"""Ablation: the makespan cliff, where overlap stops hiding latency.

SRM's §5.5 schedule plus the overlap engine hide disk latency behind
merge compute (the practical claim after Lemma 1) until a straggler
gets slow enough, or stalls often enough, that no legal read-ahead
keeps the merge fed.  Past that point the makespan walks away from its
busiest-lane lower bound and the critical path flips from compute to
read or stall: the *cliff*.

One traced ``srm_sort`` per grid point: demand-paced mode once (it
ignores the read-ahead depth), full overlap at depths 0 and 2, across
straggler factors on one disk and recurring stall windows on it.  Per
point the table gives the simulated merge makespan, the overlap gap
(makespan minus the busiest-lane lower bound ``sum over merges of
max(CPU busy, busiest disk's busy time)``, as a share of the makespan)
and the critical-path category that dominates.  ``repro chaos`` gates
the same kind of plan as its ``cliff_*`` scenarios; this table is the
map.
"""

from __future__ import annotations

import numpy as np

from repro import SRMConfig, srm_sort
from repro.analysis import analyze_collector, combine_attribution
from repro.core import OverlapConfig
from repro.faults import FaultPlan, StallWindow
from repro.telemetry import Telemetry

N, D, K, B = 20_000, 4, 2, 16
SEED = 1996
#: Merge cost per record: compute and a fast disk's block service in
#: the same regime, so overlap has latency to hide.
CPU_US = 1000.0
SLOW = 1
ENGINES = [("none", 0), ("full", 0), ("full", 2)]
FACTORS = (1.0, 2.0, 4.0, 8.0)
STALLS = (0, 4)


def _plan(factor: float, n_stalls: int, salt: int) -> FaultPlan | None:
    if factor == 1.0 and n_stalls == 0:
        return None
    return FaultPlan(
        seed=SEED + salt,
        latency_factors={SLOW: factor} if factor != 1.0 else {},
        # Windows early in the merge, each covering several block
        # services, spaced so the disk recovers between them.
        stalls=tuple(
            StallWindow(SLOW, 1_000.0 + 3_000.0 * i, 500.0)
            for i in range(n_stalls)
        ),
    )


def _point(keys, cfg, overlap, plan):
    tel = Telemetry()
    col = tel.attach_trace()
    out, res = srm_sort(
        keys, cfg, rng=SEED + 17, overlap=overlap, telemetry=tel, faults=plan
    )
    analyses = list(analyze_collector(col).values())
    attr = combine_attribution(analyses)
    makespan = res.simulated_merge_ms
    # One trace domain per merge, in merge order.  The trace's cpu lane
    # also holds the merge's stalls, so CPU busy comes from the report.
    assert len(analyses) == len(res.overlap_reports)
    bound = sum(
        max(r.cpu_busy_ms, *(lane.busy_ms for lane in a.lanes
                             if lane.lane.startswith("disk")))
        for a, r in zip(analyses, res.overlap_reports)
    )
    return {
        "out": out,
        "makespan": makespan,
        "gap_pct": 100.0 * (makespan - bound) / makespan,
        "dominant": max(attr, key=attr.get),
        "exact": all(a.exact for a in analyses),
    }


def test_makespan_cliff(benchmark, report):
    keys = np.random.default_rng(SEED).integers(0, 2**48, size=N, dtype=np.int64)
    cfg = SRMConfig.from_k(K, D, B)

    def run():
        grid = {}
        salt = 0
        for mode, depth in ENGINES:
            overlap = OverlapConfig(
                mode=mode, prefetch_depth=depth, cpu_us_per_record=CPU_US
            )
            for factor in FACTORS:
                for n_stalls in STALLS:
                    salt += 1
                    plan = _plan(factor, n_stalls, salt)
                    grid[mode, depth, factor, n_stalls] = _point(
                        keys, cfg, overlap, plan
                    )
        return grid

    grid = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "makespan cliff: merge makespan vs straggler factor / stall windows",
        f"n={N} D={D} k={K} B={B} cpu={CPU_US:g}us/record slow disk={SLOW}",
        "(demand mode 'none' ignores the read-ahead depth)",
        "",
        f"{'mode':<6} {'depth':>5} {'factor':>6} {'stalls':>6} "
        f"{'makespan ms':>12} {'gap%':>6} {'dominant':>9}",
    ]
    for (mode, depth, factor, n_stalls), p in grid.items():
        shown = "-" if mode == "none" else str(depth)
        lines.append(
            f"{mode:<6} {shown:>5} {factor:>6.1f} {n_stalls:>6d} "
            f"{p['makespan']:>12.1f} {p['gap_pct']:>6.1f} {p['dominant']:>9}"
        )
    report("ablation_cliff", "\n".join(lines))

    expected = np.sort(keys)
    for key, p in grid.items():
        assert np.array_equal(p["out"], expected), key
        assert p["exact"], key
        assert p["gap_pct"] >= 0.0, key
    # A slower straggler never shortens the merge.
    for mode, depth in ENGINES:
        for n_stalls in STALLS:
            spans = [grid[mode, depth, f, n_stalls]["makespan"] for f in FACTORS]
            assert spans == sorted(spans), (mode, depth, n_stalls)
