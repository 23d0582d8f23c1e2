"""Service run results: per-job reports, fairness metrics, and checks.

:class:`ServiceResult` is what :meth:`SortService.run` returns.  Its
:meth:`~ServiceResult.verify_against_solo` re-runs every completed job
solo on a fresh system with the same seed and asserts the service's
core guarantee — bit-identical output, ScheduleStats, and IOStats —
and the work-conservation bound (busy time == sum of isolated
makespans).  ``repro serve --check`` and the acceptance tests both go
through it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from ..core.mergesort import SortResult, sort_records_on_system
from ..disks.system import ParallelDiskSystem
from ..disks.timing import DISK_1996, DiskTimingModel
from .jobs import ABORTED, COMPLETED, REJECTED, JobSpec, ServiceJob


def solo_reference(
    spec: JobSpec, timing: DiskTimingModel | None = None
) -> tuple[np.ndarray, SortResult, float]:
    """Run *spec* alone on a fresh farm — the isolation baseline.

    Returns (sorted keys, SortResult, isolated makespan in ms).  Same
    seed, same geometry, no neighbors: whatever this produces is what
    the service must reproduce bit-for-bit for the same spec.
    """
    system = ParallelDiskSystem(
        spec.config.n_disks,
        spec.config.block_size,
        timing=timing if timing is not None else DISK_1996,
    )
    result = sort_records_on_system(
        system,
        spec.keys,
        spec.config,
        rng=spec.seed,
        validate=spec.validate,
        run_length=spec.run_length,
        formation=spec.formation,
    )
    return result.peek_sorted(system), result, system.elapsed_ms


def jain_index(shares: list[float]) -> float:
    """Jain's fairness index: 1.0 = perfectly even, 1/n = one hog."""
    if not shares:
        return 1.0
    total = sum(shares)
    square_sum = sum(x * x for x in shares)
    if square_sum == 0.0:
        return 1.0
    return (total * total) / (len(shares) * square_sum)


@dataclass(frozen=True)
class JobReport:
    """Flat per-job summary row (JSONL-friendly)."""

    job_id: str
    tenant: str
    state: str
    n_records: int
    arrival_ms: float
    wait_ms: float | None
    busy_ms: float
    makespan_ms: float | None
    rounds: int
    quota_waits: int
    parallel_ios: int
    error: str | None = None

    @classmethod
    def from_job(cls, job: ServiceJob) -> "JobReport":
        return cls(
            job_id=job.job_id,
            tenant=job.tenant,
            state=job.state,
            n_records=job.spec.n_records,
            arrival_ms=job.spec.arrival_ms,
            wait_ms=job.wait_ms,
            busy_ms=job.busy_ms,
            makespan_ms=job.makespan_ms,
            rounds=job.rounds,
            quota_waits=job.quota_waits,
            parallel_ios=job.io.parallel_ios,
            error=job.error,
        )

    def row(self) -> dict:
        return {
            "kind": "job",
            "job_id": self.job_id,
            "tenant": self.tenant,
            "state": self.state,
            "n_records": self.n_records,
            "arrival_ms": round(self.arrival_ms, 3),
            "wait_ms": None if self.wait_ms is None else round(self.wait_ms, 3),
            "busy_ms": round(self.busy_ms, 3),
            "makespan_ms": (
                None if self.makespan_ms is None else round(self.makespan_ms, 3)
            ),
            "rounds": self.rounds,
            "quota_waits": self.quota_waits,
            "parallel_ios": self.parallel_ios,
            "error": self.error,
        }


@dataclass
class ServiceResult:
    """Everything a finished service run knows about itself."""

    policy: str
    jobs: list[ServiceJob]
    makespan_ms: float
    idle_ms: float
    timing: DiskTimingModel | None = None
    #: Populated by :meth:`verify_against_solo`.
    identity_failures: list[str] = field(default_factory=list)
    isolated_total_ms: float | None = None

    @property
    def busy_ms(self) -> float:
        """Shared-clock time spent actually running rounds."""
        return self.makespan_ms - self.idle_ms

    @property
    def completed(self) -> list[ServiceJob]:
        return [j for j in self.jobs if j.state == COMPLETED]

    @property
    def aborted(self) -> list[ServiceJob]:
        return [j for j in self.jobs if j.state == ABORTED]

    @property
    def rejected(self) -> list[ServiceJob]:
        return [j for j in self.jobs if j.state == REJECTED]

    # -- fairness ------------------------------------------------------

    def tenant_rounds(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for job in self.jobs:
            out[job.tenant] = out.get(job.tenant, 0) + job.rounds
        return out

    def fairness_index(self) -> float:
        """Jain index over weight-normalized per-tenant round counts."""
        weights: dict[str, float] = {}
        for job in self.jobs:
            weights[job.tenant] = job.weight
        shares = [
            rounds / weights.get(t, 1.0)
            for t, rounds in sorted(self.tenant_rounds().items())
        ]
        return jain_index(shares)

    def completion_percentiles(self) -> dict[str, float]:
        spans = sorted(
            j.makespan_ms for j in self.completed if j.makespan_ms is not None
        )
        if not spans:
            return {"p50": 0.0, "p95": 0.0}
        return {
            "p50": float(np.percentile(spans, 50)),
            "p95": float(np.percentile(spans, 95)),
        }

    def throughput_vs_isolated(self) -> float | None:
        """sum(isolated makespans) / service busy time; ~1.0 when
        work-conserving.  Needs :meth:`verify_against_solo` first."""
        if self.isolated_total_ms is None or self.busy_ms <= 0:
            return None
        return self.isolated_total_ms / self.busy_ms

    # -- the core guarantee --------------------------------------------

    def verify_against_solo(self) -> list[str]:
        """Re-run each completed job solo; collect identity violations.

        Checks, per job: sorted output (bit-for-bit), the per-merge
        :class:`~repro.core.ScheduleStats` sequence, per-pass stats,
        runs formed, heap cycles, and every :class:`IOStats` counter
        including the per-disk arrays.  Also records the summed
        isolated makespans and checks work conservation:
        ``busy time <= sum(isolated)`` within float tolerance.
        """
        failures: list[str] = []
        total_iso = 0.0
        for job in self.completed:
            solo_keys, solo_result, solo_ms = solo_reference(
                job.spec, timing=self.timing
            )
            total_iso += solo_ms
            svc = job.driver.result
            jid = job.job_id
            if not np.array_equal(job.driver.sorted_keys, solo_keys):
                failures.append(f"{jid}: sorted output differs from solo run")
            if svc.merge_schedules != solo_result.merge_schedules:
                failures.append(f"{jid}: ScheduleStats differ from solo run")
            if svc.passes != solo_result.passes:
                failures.append(f"{jid}: per-pass stats differ from solo run")
            if svc.runs_formed != solo_result.runs_formed:
                failures.append(f"{jid}: runs_formed differs from solo run")
            if svc.heap_cycles != solo_result.heap_cycles:
                failures.append(f"{jid}: heap_cycles differ from solo run")
            if not job.io.same_counts(solo_result.io):
                failures.append(f"{jid}: IOStats differ from solo run")
        self.isolated_total_ms = total_iso
        if self.completed:
            # Rounds serialize on one clock; only float addition order
            # can differ between the shared and summed-solo totals.
            # Aborted jobs burned rounds with no solo counterpart, so
            # the conserved quantity is the *completed* jobs' busy time
            # (== self.busy_ms whenever nothing was aborted).
            busy = sum(j.busy_ms for j in self.completed)
            if busy > total_iso * (1.0 + 1e-9) + 1e-6:
                failures.append(
                    f"completed busy time {busy:.3f} ms exceeds summed "
                    f"isolated makespans {total_iso:.3f} ms"
                )
            if not math.isclose(busy, total_iso, rel_tol=1e-6):
                failures.append(
                    f"completed busy time {busy:.3f} ms != summed isolated "
                    f"makespans {total_iso:.3f} ms (not work-conserving?)"
                )
        self.identity_failures = failures
        return failures

    # -- reporting -----------------------------------------------------

    def summary_row(self) -> dict:
        pct = self.completion_percentiles()
        return {
            "kind": "service_summary",
            "policy": self.policy,
            "n_jobs": len(self.jobs),
            "n_completed": len(self.completed),
            "n_aborted": len(self.aborted),
            "n_rejected": len(self.rejected),
            "n_tenants": len(self.tenant_rounds()),
            "makespan_ms": round(self.makespan_ms, 3),
            "idle_ms": round(self.idle_ms, 3),
            "busy_ms": round(self.busy_ms, 3),
            "isolated_total_ms": (
                None
                if self.isolated_total_ms is None
                else round(self.isolated_total_ms, 3)
            ),
            "throughput_vs_isolated": (
                None
                if self.throughput_vs_isolated() is None
                else round(self.throughput_vs_isolated(), 6)
            ),
            "fairness_index": round(self.fairness_index(), 6),
            "p50_makespan_ms": round(pct["p50"], 3),
            "p95_makespan_ms": round(pct["p95"], 3),
            "tenant_rounds": self.tenant_rounds(),
            "identity_failures": list(self.identity_failures),
        }

    def rows(self) -> list[dict]:
        rows = [self.summary_row()]
        rows.extend(JobReport.from_job(j).row() for j in self.jobs)
        return rows

    def write_jsonl(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")

    def render(self) -> str:
        s = self.summary_row()
        lines = [
            f"service run — policy={self.policy} jobs={s['n_jobs']} "
            f"tenants={s['n_tenants']}",
            f"  makespan {s['makespan_ms']:.1f} ms "
            f"(busy {s['busy_ms']:.1f}, idle {s['idle_ms']:.1f}); "
            f"fairness index {s['fairness_index']:.4f}",
        ]
        if s["throughput_vs_isolated"] is not None:
            lines.append(
                f"  vs isolated: sum {s['isolated_total_ms']:.1f} ms, "
                f"throughput ratio {s['throughput_vs_isolated']:.4f}"
            )
        header = (
            f"  {'job':<12} {'tenant':<10} {'state':<10} {'recs':>7} "
            f"{'wait ms':>9} {'span ms':>9} {'rounds':>7} {'parIOs':>7}"
        )
        lines.append(header)
        for job in self.jobs:
            r = JobReport.from_job(job)
            wait = "-" if r.wait_ms is None else f"{r.wait_ms:.1f}"
            span = "-" if r.makespan_ms is None else f"{r.makespan_ms:.1f}"
            lines.append(
                f"  {r.job_id:<12} {r.tenant:<10} {r.state:<10} "
                f"{r.n_records:>7} {wait:>9} {span:>9} "
                f"{r.rounds:>7} {r.parallel_ios:>7}"
            )
        if self.identity_failures:
            lines.append("  IDENTITY FAILURES:")
            lines.extend(f"    {f}" for f in self.identity_failures)
        return "\n".join(lines)
