"""Chaos harness: sweep deterministic fault plans over full sorts.

Each scenario arms one :class:`~repro.faults.plan.FaultPlan` on a fresh
disk system, runs the complete sort (SRM, and DSM where the scenario
applies), and checks the resilience contract:

* the sorted output is **bit-identical** to the fault-free reference —
  faults may cost I/O and time, never correctness;
* every injected corruption is caught by a block checksum
  (``undetected_corruptions == 0``);
* the fault telemetry (``faults.*`` counters, the backoff histogram,
  ``disk_death`` events) actually recorded what the plan injected;
* every SRM run is traced, and its critical path tiles the simulated
  makespan exactly; a latency plan (straggler, stall window, and the
  makespan-cliff grid) must cost makespan over the fault-free run
  under the same overlap-engine configuration.

Because every plan is seeded, a failing scenario is a *repro*, not a
flake: re-running the same ``(scenario, seed, geometry)`` replays the
identical fault sequence.

The harness is what ``repro chaos`` runs; :func:`run_chaos` returns a
:class:`ChaosReport` that renders as a table, serializes to JSONL, and
self-checks via :meth:`ChaosReport.failures`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.dsm import dsm_sort
from ..core.config import (
    DSMConfig,
    OverlapConfig,
    SRMConfig,
    memory_records_for_k,
)
from ..core.mergesort import srm_sort
from ..telemetry import Telemetry
from ..telemetry.schema import (
    FAULT_RECOVERY_READ_IOS,
    FAULT_RETRIES,
    FAULT_TORN_DETECTED,
    FAULT_TORN_INJECTED,
    FAULT_TRANSIENT_FAILURES,
    FAULT_WRITE_FAILURES,
    H_FAULT_BACKOFF,
)
from .plan import DiskDeath, FaultPlan, StallWindow
from .retry import RetryPolicy


@dataclass(frozen=True, slots=True)
class ChaosScenario:
    """One named fault plan plus the properties it must exhibit.

    Attributes
    ----------
    name / description:
        Human-readable identity (stable across runs; used in reports).
    plan:
        The seeded fault plan to arm.
    overlap:
        Overlap-engine configuration the SRM merges run under, so
        latency faults (stragglers, stalls, drained backoff) show up in
        the simulated makespan (``None``: no engine).  Ignored for DSM.
    retry:
        Retry-policy override (default :data:`~repro.faults.retry.DEFAULT_RETRY`).
    dsm:
        Whether the scenario also applies to the DSM baseline (latency
        scenarios do not: DSM never runs the overlap engine).
    expect:
        Property tags checked by :meth:`ChaosReport.failures`:
        ``"retries"`` (retry count must be > 0), ``"corruption"``
        (checksum detections must equal injections, > 0), ``"death"``
        (at least one disk death with recovered blocks),
        ``"write_faults"`` (transient write failures must have fired),
        ``"torn"`` (torn writes injected and every one detected),
        ``"recovery_reads"`` (charged parity reconstruction reads > 0),
        ``"double_death"`` (at least two disks died),
        ``"latency"`` (the simulated makespan must exceed that of the
        fault-free traced reference under the same ``overlap``).
    """

    name: str
    description: str
    plan: FaultPlan
    overlap: OverlapConfig | None = None
    retry: RetryPolicy | None = None
    dsm: bool = True
    expect: frozenset = frozenset()


@dataclass
class ScenarioResult:
    """Outcome of one (scenario, algorithm) chaos run."""

    scenario: str
    algorithm: str
    description: str
    identical: bool
    stats: dict
    parallel_ios: int
    io_overhead_pct: float
    makespan_ms: float | None = None
    makespan_overhead_pct: float | None = None
    metrics_ok: bool = True
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.identical and self.metrics_ok

    def row(self) -> dict:
        """Flat JSON-serializable record (one JSONL line)."""
        return {
            "type": "scenario",
            "scenario": self.scenario,
            "algorithm": self.algorithm,
            "description": self.description,
            "ok": self.ok,
            "identical": self.identical,
            "metrics_ok": self.metrics_ok,
            "error": self.error,
            "parallel_ios": self.parallel_ios,
            "io_overhead_pct": round(self.io_overhead_pct, 3),
            "makespan_ms": self.makespan_ms,
            "makespan_overhead_pct": (
                None
                if self.makespan_overhead_pct is None
                else round(self.makespan_overhead_pct, 3)
            ),
            "faults": self.stats,
        }


@dataclass
class ChaosReport:
    """All scenario outcomes of one chaos sweep."""

    n_records: int
    n_disks: int
    block_size: int
    merge_order: int
    seed: int
    results: list[ScenarioResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures()

    def failures(self) -> list[str]:
        """Every violated property, as one message per violation."""
        msgs: list[str] = []
        for r in self.results:
            tag = f"{r.scenario}/{r.algorithm}"
            if r.error is not None:
                msgs.append(f"{tag}: raised {r.error}")
                continue
            if not r.identical:
                msgs.append(f"{tag}: output differs from fault-free reference")
            if not r.metrics_ok:
                msgs.append(f"{tag}: fault metrics missing or inconsistent")
            s = r.stats
            if s.get("trace_exact") is False:
                msgs.append(
                    f"{tag}: traced makespan did not decompose exactly "
                    "along the critical path"
                )
            if s.get("undetected_corruptions", 0) != 0:
                msgs.append(
                    f"{tag}: {s['undetected_corruptions']} corruption(s) "
                    "escaped checksum detection"
                )
            expect = s.get("_expect", ())
            if "retries" in expect and s.get("retries", 0) <= 0:
                msgs.append(f"{tag}: plan injects failures but no retries ran")
            if "corruption" in expect:
                inj, det = s.get("corrupt_injected", 0), s.get("checksum_detected", 0)
                if inj <= 0 or det != inj:
                    msgs.append(
                        f"{tag}: corruption detection mismatch "
                        f"(injected={inj}, detected={det})"
                    )
            if "death" in expect:
                if s.get("disk_deaths", 0) < 1:
                    msgs.append(f"{tag}: plan kills a disk but none died")
                elif s.get("recovery_blocks", 0) <= 0:
                    msgs.append(f"{tag}: disk died but no blocks were recovered")
            if "write_faults" in expect and s.get("write_failures", 0) <= 0:
                msgs.append(
                    f"{tag}: plan injects write failures but none fired"
                )
            if "torn" in expect:
                inj = s.get("torn_writes_injected", 0)
                det = s.get("torn_writes_detected", 0)
                if inj <= 0 or det != inj:
                    msgs.append(
                        f"{tag}: torn-write detection mismatch "
                        f"(injected={inj}, detected={det})"
                    )
            if "recovery_reads" in expect and s.get("recovery_read_ios", 0) <= 0:
                msgs.append(
                    f"{tag}: parity recovery ran but charged no "
                    "reconstruction reads"
                )
            if "double_death" in expect and s.get("disk_deaths", 0) < 2:
                msgs.append(
                    f"{tag}: plan kills two disks but "
                    f"{s.get('disk_deaths', 0)} died"
                )
            if "latency" in expect and not (r.makespan_overhead_pct or 0) > 0:
                msgs.append(
                    f"{tag}: latency plan added no simulated makespan over "
                    "the fault-free reference"
                )
        return msgs

    def rows(self) -> list[dict]:
        meta = {
            "type": "meta",
            "n_records": self.n_records,
            "n_disks": self.n_disks,
            "block_size": self.block_size,
            "merge_order": self.merge_order,
            "seed": self.seed,
            "passed": self.passed,
            "failures": self.failures(),
        }
        return [meta] + [r.row() for r in self.results]

    def write_jsonl(self, path: str) -> None:
        import json

        with open(path, "w") as fh:
            for row in self.rows():
                fh.write(json.dumps(row))
                fh.write("\n")

    def render(self) -> str:
        """Fixed-width table for the CLI."""
        header = (
            f"{'scenario':<14} {'algo':<4} {'ok':<3} {'ios':>6} "
            f"{'io+%':>7} {'retries':>7} {'detect':>6} {'deaths':>6} "
            f"{'recov':>6} {'makespan_ms':>12}"
        )
        lines = [header, "-" * len(header)]
        for r in self.results:
            s = r.stats
            mk = "-" if r.makespan_ms is None else f"{r.makespan_ms:.1f}"
            lines.append(
                f"{r.scenario:<14} {r.algorithm:<4} "
                f"{'yes' if r.ok else 'NO':<3} {r.parallel_ios:>6} "
                f"{r.io_overhead_pct:>6.1f}% {s.get('retries', 0):>7} "
                f"{s.get('checksum_detected', 0):>6} "
                f"{s.get('disk_deaths', 0):>6} "
                f"{s.get('recovery_blocks', 0):>6} {mk:>12}"
            )
        status = "PASS" if self.passed else "FAIL"
        lines.append("-" * len(header))
        lines.append(
            f"{status}: {sum(r.ok for r in self.results)}/{len(self.results)} "
            f"scenarios ok, {len(self.failures())} property violation(s)"
        )
        return "\n".join(lines)


def default_scenarios(
    n_disks: int,
    seed: int,
    death_after: int,
    quick: bool = False,
) -> list[ChaosScenario]:
    """The standard sweep: transient, corrupt, write storm, torn writes,
    death (replica and parity rebuild), double death, stragglers, stalls,
    breaker escalation, death during rebuild, a combined plan, and the
    makespan-cliff grid (:func:`_cliff_scenarios`).

    *death_after* positions permanent failures mid-sort (callers derive
    it from the fault-free run's per-disk operation count).  *quick*
    keeps the scenarios that exercise distinct code paths — transient
    retry, checksum detection, degraded mode, the write-fault ladder,
    torn-write repair, parity rebuild, and a two-death plan — and drops
    the latency/escalation variants and the cliff grid.
    """
    victim = n_disks - 1
    second = 0 if victim != 0 else 1
    scenarios = [
        ChaosScenario(
            name="transient",
            description="8% transient read failures, retried with backoff",
            plan=FaultPlan(seed=seed, read_fail_p=0.08),
            expect=frozenset({"retries"}),
        ),
        ChaosScenario(
            name="corrupt",
            description="5% corrupted transfers, caught by checksums",
            plan=FaultPlan(seed=seed + 1, corrupt_p=0.05),
            expect=frozenset({"retries", "corruption"}),
        ),
        ChaosScenario(
            name="death",
            description=f"disk {victim} dies mid-sort; degraded mode",
            plan=FaultPlan(
                seed=seed + 2,
                deaths=(DiskDeath(disk=victim, after_ops=death_after),),
            ),
            expect=frozenset({"death"}),
        ),
        ChaosScenario(
            name="write_storm",
            description="12% transient write failures, retried with backoff",
            plan=FaultPlan(seed=seed + 7, write_fail_p=0.12),
            expect=frozenset({"retries", "write_faults"}),
        ),
        ChaosScenario(
            name="torn",
            description="5% torn writes; stale seals repaired from parity",
            plan=FaultPlan(
                seed=seed + 8, torn_write_p=0.05, redundancy="parity"
            ),
            expect=frozenset({"torn", "recovery_reads"}),
        ),
        ChaosScenario(
            name="parity_death",
            description=(
                f"disk {victim} dies; lost blocks rebuilt by charged "
                "XOR over the survivors"
            ),
            plan=FaultPlan(
                seed=seed + 9,
                redundancy="parity",
                deaths=(DiskDeath(disk=victim, after_ops=death_after),),
            ),
            expect=frozenset({"death", "recovery_reads"}),
        ),
    ]
    if n_disks >= 3:
        scenarios.append(
            ChaosScenario(
                name="double_death",
                description=(
                    f"disks {victim} and {second} die in sequence; "
                    "two nested degraded migrations"
                ),
                plan=FaultPlan(
                    seed=seed + 10,
                    deaths=(
                        DiskDeath(disk=victim, after_ops=death_after),
                        DiskDeath(
                            disk=second, after_ops=death_after + death_after // 2
                        ),
                    ),
                ),
                expect=frozenset({"death", "double_death"}),
            )
        )
    if quick:
        return scenarios
    engine = OverlapConfig(mode="full", prefetch_depth=2)
    if n_disks >= 3:
        scenarios.append(
            ChaosScenario(
                name="rebuild_death",
                description=(
                    f"disk {second} dies while absorbing disk {victim}'s "
                    "rebuild traffic (death during recovery)"
                ),
                # The second threshold sits just past the first, so the
                # recovery writes landing on the survivors are what
                # push the second victim over the line.
                plan=FaultPlan(
                    seed=seed + 11,
                    deaths=(
                        DiskDeath(disk=victim, after_ops=death_after),
                        DiskDeath(disk=second, after_ops=death_after + 8),
                    ),
                ),
                expect=frozenset({"death", "double_death"}),
            )
        )
    scenarios += [
        ChaosScenario(
            name="straggler",
            description="disk 1 serves 4x slower (overlap engine)",
            plan=FaultPlan(seed=seed + 3, latency_factors={1 % n_disks: 4.0}),
            overlap=engine,
            dsm=False,
            expect=frozenset({"latency"}),
        ),
        ChaosScenario(
            name="stall",
            description="disk 0 unresponsive for a 40ms window",
            plan=FaultPlan(
                seed=seed + 4,
                stalls=(StallWindow(disk=0, start_ms=5.0, duration_ms=40.0),),
            ),
            overlap=engine,
            dsm=False,
            expect=frozenset({"latency"}),
        ),
        ChaosScenario(
            name="breaker",
            description=f"failure burst on disk {victim} trips its breaker",
            plan=FaultPlan(
                seed=seed + 5,
                read_fail_p=0.30,
                max_consecutive_failures=8,
                fail_disks=(victim,),
            ),
            # Give the ladder more attempts than the breaker threshold
            # so escalation happens through the breaker, not exhaustion.
            retry=RetryPolicy(max_attempts=6),
            expect=frozenset({"retries", "death"}),
        ),
        ChaosScenario(
            name="combo",
            description="transient failures + straggler + mid-sort death",
            plan=FaultPlan(
                seed=seed + 6,
                read_fail_p=0.05,
                latency_factors={1 % n_disks: 3.0},
                deaths=(DiskDeath(disk=victim, after_ops=death_after),),
            ),
            overlap=engine,
            expect=frozenset({"retries", "death"}),
        ),
    ]
    return scenarios + _cliff_scenarios(n_disks, seed)


def _cliff_scenarios(n_disks: int, seed: int) -> list[ChaosScenario]:
    """The makespan-cliff grid: where overlap stops hiding latency.

    Full overlap at read-ahead depths 0 and 2, with disk ``1 % D``
    serving 1x or 4x slower and stalling in 0 or 2 recurring windows.
    The merge costs 1000 us per record, which puts compute and a fast
    disk's block service in the same regime, so overlap has latency to
    hide.  The fault-free point of each depth is that depth's traced
    reference, so the grid adds its six faulted points.
    """
    slow = 1 % n_disks
    scenarios = []
    for depth in (0, 2):
        engine = OverlapConfig(
            mode="full", prefetch_depth=depth, cpu_us_per_record=1000.0
        )
        for factor in (1, 4):
            for n_stalls in (0, 2):
                if factor == 1 and n_stalls == 0:
                    continue
                # Windows early in the merge, each covering several
                # block services, spaced so the disk recovers between.
                stalls = tuple(
                    StallWindow(slow, 1_000.0 + 3_000.0 * i, 500.0)
                    for i in range(n_stalls)
                )
                scenarios.append(
                    ChaosScenario(
                        name=f"cliff_d{depth}_x{factor}_s{n_stalls}",
                        description=(
                            f"disk {slow} {factor}x slower with {n_stalls} "
                            f"stall windows (depth {depth}, 1000 us/record)"
                        ),
                        plan=FaultPlan(
                            seed=seed + 12 + len(scenarios),
                            latency_factors=(
                                {slow: float(factor)} if factor != 1 else {}
                            ),
                            stalls=stalls,
                        ),
                        overlap=engine,
                        dsm=False,
                        expect=frozenset({"latency"}),
                    )
                )
    return scenarios


def _metrics_ok(tel: Telemetry, stats: dict) -> bool:
    """The registry must mirror what the injector's own stats counted."""
    reg = tel.registry
    if stats.get("retries", 0) > 0:
        if FAULT_RETRIES not in reg or H_FAULT_BACKOFF not in reg:
            return False
        if reg.get(FAULT_RETRIES).snapshot()["value"] != stats["retries"]:
            return False
        if reg.get(H_FAULT_BACKOFF).snapshot()["n"] != stats["retries"]:
            return False
    if stats.get("transient_failures", 0) > 0:
        if FAULT_TRANSIENT_FAILURES not in reg:
            return False
        snap = reg.get(FAULT_TRANSIENT_FAILURES).snapshot()
        if snap["value"] != stats["transient_failures"]:
            return False
    for key, name in (
        ("write_failures", FAULT_WRITE_FAILURES),
        ("torn_writes_injected", FAULT_TORN_INJECTED),
        ("torn_writes_detected", FAULT_TORN_DETECTED),
        ("recovery_read_ios", FAULT_RECOVERY_READ_IOS),
    ):
        if stats.get(key, 0) > 0:
            if name not in reg:
                return False
            if reg.get(name).snapshot()["value"] != stats[key]:
                return False
    return True


def run_chaos(
    n_records: int = 20_000,
    n_disks: int = 4,
    k: int = 2,
    block_size: int = 16,
    seed: int = 1234,
    quick: bool = False,
    algorithms: tuple[str, ...] = ("srm", "dsm"),
) -> ChaosReport:
    """Run the chaos sweep and return the report.

    The same input array is sorted fault-free once per algorithm (the
    bit-identity reference and the I/O baseline), then once per
    applicable scenario.  Deterministic end to end: the input, the run
    placements, and every fault draw derive from *seed*.
    """
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**40, size=n_records, dtype=np.int64)
    srm_cfg = SRMConfig.from_k(k=k, n_disks=n_disks, block_size=block_size)
    # The paper's equal-memory grid: DSM gets the same M as SRM.
    dsm_cfg = DSMConfig.from_memory(
        memory_records_for_k(k, n_disks, block_size), n_disks, block_size
    )
    report = ChaosReport(
        n_records=n_records,
        n_disks=n_disks,
        block_size=block_size,
        merge_order=srm_cfg.merge_order,
        seed=seed,
    )

    # Fault-free references.  Layout randomness is seeded separately
    # from the data so scenario runs can replay it exactly.
    ref_out, ref_res = srm_sort(keys, srm_cfg, rng=seed + 17)
    # Mid-sort, in per-disk block operations: each parallel I/O touches
    # a given disk at most once, so half the parallel I/O count lands
    # the death inside the merge phase.
    death_after = max(1, ref_res.total_parallel_ios // 2)
    # Traced fault-free (makespan, attribution), one per engine config.
    overlap_refs: dict[OverlapConfig, tuple[float, dict]] = {}
    # Lazy: analysis pulls in the whole package graph.
    from ..analysis.critical_path import analyze_collector, combine_attribution

    refs: dict[str, tuple[np.ndarray, int]] = {
        "srm": (ref_out, ref_res.total_parallel_ios)
    }
    if "dsm" in algorithms:
        d_out, d_res = dsm_sort(keys, dsm_cfg)
        refs["dsm"] = (d_out, d_res.total_parallel_ios)

    for sc in default_scenarios(n_disks, seed, death_after, quick=quick):
        for algo in algorithms:
            if algo == "dsm" and not sc.dsm:
                continue
            tel = Telemetry(harness="chaos", scenario=sc.name, algorithm=algo)
            makespan = overhead = None
            try:
                if algo == "srm":
                    if sc.overlap is not None and sc.overlap not in overlap_refs:
                        # The fault-free reference run is traced too, so
                        # each scenario's attribution reads as a *delta*
                        # against an undisturbed timeline.
                        ref_tel = Telemetry(harness="chaos", scenario="reference")
                        ref_col = ref_tel.attach_trace()
                        _, ro = srm_sort(
                            keys, srm_cfg, rng=seed + 17, overlap=sc.overlap,
                            telemetry=ref_tel,
                        )
                        overlap_refs[sc.overlap] = (
                            ro.simulated_merge_ms,
                            combine_attribution(analyze_collector(ref_col).values()),
                        )
                    col = tel.attach_trace()
                    out, res = srm_sort(
                        keys,
                        srm_cfg,
                        rng=seed + 17,
                        overlap=sc.overlap,
                        telemetry=tel,
                        faults=_armed(sc, n_disks, tel),
                    )
                    if sc.overlap is not None:
                        makespan = res.simulated_merge_ms
                        ref_ms = overlap_refs[sc.overlap][0]
                        if ref_ms:
                            overhead = 100.0 * (makespan / ref_ms - 1.0)
                else:
                    out, res = dsm_sort(
                        keys, dsm_cfg, telemetry=tel, faults=_armed(sc, n_disks, tel)
                    )
                system = res.system
                stats = system.faults.stats.snapshot()
                stats["_expect"] = sorted(sc.expect)
                if algo == "srm":
                    analyses = analyze_collector(col)
                    attr = combine_attribution(analyses.values())
                    stats["attribution"] = {
                        c: round(ms, 3) for c, ms in attr.items() if ms
                    }
                    stats["trace_exact"] = all(
                        a.exact for a in analyses.values()
                    )
                    if sc.overlap is not None:
                        ref_attr = overlap_refs[sc.overlap][1]
                        # Sorted, not set order: str hashing is salted
                        # per process, and the JSONL must replay.
                        stats["attribution_delta"] = {
                            c: round(attr.get(c, 0.0) - ref_attr.get(c, 0.0), 3)
                            for c in sorted(set(attr) | set(ref_attr))
                            if attr.get(c, 0.0) != ref_attr.get(c, 0.0)
                        }
                ref_keys, ref_ios = refs[algo]
                result = ScenarioResult(
                    scenario=sc.name,
                    algorithm=algo,
                    description=sc.description,
                    identical=bool(np.array_equal(out, ref_keys)),
                    stats=stats,
                    parallel_ios=res.total_parallel_ios,
                    io_overhead_pct=100.0
                    * (res.total_parallel_ios / ref_ios - 1.0),
                    makespan_ms=makespan,
                    makespan_overhead_pct=overhead,
                    metrics_ok=_metrics_ok(tel, stats),
                )
            except Exception as exc:  # noqa: BLE001 - the report carries it
                result = ScenarioResult(
                    scenario=sc.name,
                    algorithm=algo,
                    description=sc.description,
                    identical=False,
                    stats={},
                    parallel_ios=0,
                    io_overhead_pct=0.0,
                    error=f"{type(exc).__name__}: {exc}",
                )
            report.results.append(result)
    return report


def _armed(sc: ChaosScenario, n_disks: int, tel: Telemetry):
    """Build the injector-arming payload for one scenario.

    ``srm_sort``/``dsm_sort`` forward a plan to ``attach_faults``; a
    scenario with a custom retry policy pre-builds the
    :class:`~repro.faults.plan.FaultInjector` (which ``attach_faults``
    also accepts) so the policy override travels with it.
    """
    if sc.retry is None:
        return sc.plan
    from .plan import FaultInjector

    return FaultInjector(sc.plan, n_disks, retry=sc.retry, telemetry=tel)
