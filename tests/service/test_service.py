"""End-to-end tests of the multi-tenant sort service.

The acceptance criteria live here: bit-identity to solo runs under
every fairness policy, work conservation (shared busy time == sum of
isolated makespans), quota/preemption edge cases, abort accounting,
and per-tenant attribution tiling the service makespan.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.config import SRMConfig
from repro.disks import IOStats
from repro.errors import ConfigError, ScheduleError
from repro.faults import DiskDeath, FaultPlan
from repro.service import (
    POLICIES,
    JobSpec,
    ServiceConfig,
    SortService,
    TenantSpec,
    run_arrival_script,
)
from repro.service.jobs import ABORTED, COMPLETED, REJECTED
from repro.service.report import solo_reference
from repro.telemetry import Telemetry
from repro.workloads import batch_arrivals, poisson_arrivals

CFG = SRMConfig.from_k(2, 2, 8)


def spec_for(job_id, tenant, n, seed, arrival_ms=0.0, config=CFG):
    keys = np.random.default_rng(seed).integers(0, 2**40, size=n)
    return JobSpec(
        job_id=job_id, tenant=tenant, keys=keys, config=config,
        arrival_ms=arrival_ms, seed=seed + 1,
    )


def two_tenant_service(policy="rr", quota_jobs=2, max_slots=8):
    return SortService(
        ServiceConfig(
            base_config=CFG,
            tenants=(
                TenantSpec("t0", weight=2.0, default_jobs=quota_jobs),
                TenantSpec("t1", weight=1.0, default_jobs=quota_jobs),
            ),
            policy=policy,
            max_slots=max_slots,
        )
    )


class TestBitIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_bit_identical_to_solo(self, policy):
        arrivals = batch_arrivals(
            4, n_tenants=2, min_records=150, max_records=450, rng=17
        )
        result = run_arrival_script(
            arrivals, CFG, policy=policy, tenant_weights={"t0": 2.0}
        )
        assert [j.state for j in result.jobs] == [COMPLETED] * 4
        assert result.verify_against_solo() == []
        assert result.throughput_vs_isolated() == pytest.approx(1.0)

    def test_single_tenant_single_job_matches_solo_exactly(self):
        spec = spec_for("only", "t0", 300, seed=5)
        svc = two_tenant_service()
        svc.submit(spec)
        result = svc.run()
        solo_keys, solo_result, solo_ms = solo_reference(spec)
        job = result.jobs[0]
        assert np.array_equal(job.driver.sorted_keys, solo_keys)
        assert job.io.same_counts(solo_result.io)
        # Alone on the farm there is nothing to interleave with: the
        # shared clock must agree with the isolated clock to the float.
        assert result.makespan_ms == solo_ms
        assert result.idle_ms == 0.0

    def test_poisson_arrivals_with_idle_gaps(self):
        arrivals = poisson_arrivals(
            4, rate_per_s=2.0, n_tenants=2, min_records=150,
            max_records=350, rng=23,
        )
        result = run_arrival_script(arrivals, CFG, policy="rr")
        assert result.verify_against_solo() == []
        # A slow stream leaves real idle windows; busy + idle tile the
        # makespan by definition.
        assert result.busy_ms + result.idle_ms == result.makespan_ms


class TestWorkConservation:
    def test_policies_share_makespan_and_busy_time(self):
        arrivals = batch_arrivals(
            4, n_tenants=2, min_records=150, max_records=450, rng=29
        )
        results = {
            p: run_arrival_script(arrivals, CFG, policy=p) for p in POLICIES
        }
        makespans = {p: r.makespan_ms for p, r in results.items()}
        assert len(set(makespans.values())) == 1  # work-conserving: same work
        for r in results.values():
            assert r.verify_against_solo() == []
            assert r.idle_ms == 0.0  # batch: never a gap
            assert r.busy_ms <= r.isolated_total_ms * (1 + 1e-9) + 1e-6

    def test_srpt_improves_p50_on_mixed_sizes(self):
        arrivals = batch_arrivals(
            4, n_tenants=2, min_records=100, max_records=900, rng=31
        )
        rr = run_arrival_script(arrivals, CFG, policy="rr")
        srpt = run_arrival_script(arrivals, CFG, policy="srpt")
        assert (
            srpt.completion_percentiles()["p50"]
            <= rr.completion_percentiles()["p50"]
        )


class TestFaultedAccounting:
    """Recovery rounds are charged to the job whose round ran them."""

    @pytest.mark.parametrize(
        "plan",
        [
            FaultPlan(seed=9, deaths=(DiskDeath(disk=3, after_ops=150),)),
            FaultPlan(seed=10, torn_write_p=0.05, redundancy="parity"),
        ],
        ids=["disk_death", "torn_parity"],
    )
    def test_job_counters_sum_to_system_counters(self, plan):
        cfg = SRMConfig.from_k(2, 4, 16)
        arrivals = batch_arrivals(
            4, n_tenants=2, min_records=500, max_records=1200, rng=1234
        )
        svc = SortService(
            ServiceConfig(
                base_config=cfg,
                tenants=(TenantSpec("t0"), TenantSpec("t1")),
                policy="rr",
            )
        )
        svc.submit_arrivals(arrivals)
        svc.system.attach_faults(plan)
        result = svc.run()
        assert [j.state for j in result.jobs] == [COMPLETED] * 4
        fstats = svc.system.faults.stats
        if plan.deaths:
            assert fstats.recovery_blocks > 0
        else:
            assert fstats.torn_writes_detected > 0
        total = IOStats(n_disks=4)
        for job in result.jobs:
            total.add(job.io)
        assert total.same_counts(svc.system.stats)


class TestQuotaEdges:
    def test_quota_exactly_one_job_serializes_a_tenant(self):
        # quota == frames_needed: the tenant's second job must wait for
        # the first to finish, then run — no deadlock, no corruption.
        frames = spec_for("probe", "t0", 10, 0).frames_needed
        svc = SortService(
            ServiceConfig(
                base_config=CFG,
                tenants=(TenantSpec("t0", quota_frames=frames),),
                policy="rr",
            )
        )
        j1 = svc.submit(spec_for("j1", "t0", 200, seed=41))
        j2 = svc.submit(spec_for("j2", "t0", 200, seed=43))
        result = svc.run()
        assert result.verify_against_solo() == []
        assert j2.quota_waits >= 1
        # Strict serialization: j2's first round is after j1 finished.
        assert j2.first_round_ms >= j1.completed_ms
        assert svc.pool.partition("t0").reserved_frames == 0

    def test_admission_mid_merge_of_running_neighbor(self):
        # j1 is deep in its merge when j2 arrives; admission must not
        # disturb j1's parked driver and both must stay solo-identical.
        svc = two_tenant_service()
        svc.submit(spec_for("j1", "t0", 600, seed=47, arrival_ms=0.0))
        svc.submit(spec_for("j2", "t1", 200, seed=53, arrival_ms=400.0))
        result = svc.run()
        j1, j2 = result.jobs
        assert result.verify_against_solo() == []
        assert j1.first_round_ms == 0.0
        assert j2.first_round_ms >= 400.0
        assert j1.completed_ms > 400.0  # j1 really was mid-run

    def test_waiting_with_no_active_job_is_a_deadlock_error(self):
        svc = two_tenant_service()
        spec = spec_for("j1", "t0", 200, seed=59)
        # Exhaust t0's quota out-of-band: the job waits on frames no
        # running job will ever release.
        part = svc.pool.partition("t0")
        part.try_reserve(part.capacity_frames)
        svc.submit(spec)
        with pytest.raises(ScheduleError, match="deadlock"):
            svc.run()


class TestRejectAndAbort:
    def test_geometry_mismatch_rejected_neighbors_unharmed(self):
        svc = two_tenant_service()
        bad = svc.submit(
            spec_for("bad", "t0", 200, seed=61, config=SRMConfig.from_k(2, 4, 8))
        )
        svc.submit(spec_for("good", "t1", 200, seed=67))
        result = svc.run()
        assert bad.state == REJECTED
        assert "geometry" in bad.error
        assert result.verify_against_solo() == []
        assert len(result.completed) == 1

    def test_abort_reclaims_frames_and_slot(self):
        svc = two_tenant_service()
        victim = svc.submit(spec_for("victim", "t0", 400, seed=71))
        survivor = svc.submit(spec_for("survivor", "t1", 200, seed=73))
        result = svc.run(abort_after={"victim": 3})
        assert victim.state == ABORTED
        assert victim.rounds == 3
        assert victim.driver.aborted
        # The scarce resources are back...
        assert victim.reserved_frames == 0 and victim.slot is None
        assert svc.pool.partition("t0").reserved_frames == 0
        assert svc.admission.slots_in_use == 0
        # ...and the neighbor is untouched.
        assert survivor.state == COMPLETED
        assert result.verify_against_solo() == []

    def test_freed_quota_unblocks_waiter_after_abort(self):
        frames = spec_for("probe", "t0", 10, 0).frames_needed
        svc = SortService(
            ServiceConfig(
                base_config=CFG,
                tenants=(TenantSpec("t0", quota_frames=frames),),
                policy="rr",
            )
        )
        svc.submit(spec_for("hog", "t0", 400, seed=79))
        waiter = svc.submit(spec_for("waiter", "t0", 200, seed=83))
        result = svc.run(abort_after={"hog": 2})
        assert waiter.state == COMPLETED
        assert result.verify_against_solo() == []


class TestSubmission:
    def test_duplicate_job_id_raises(self):
        svc = two_tenant_service()
        svc.submit(spec_for("dup", "t0", 100, seed=89))
        with pytest.raises(ConfigError, match="duplicate"):
            svc.submit(spec_for("dup", "t1", 100, seed=97))

    def test_duplicate_tenant_names_raise(self):
        with pytest.raises(ConfigError, match="duplicate tenant"):
            ServiceConfig(
                base_config=CFG,
                tenants=(TenantSpec("t0"), TenantSpec("t0")),
            )

    def test_empty_tenant_list_raises(self):
        with pytest.raises(ConfigError):
            ServiceConfig(base_config=CFG, tenants=())


class TestTelemetryAndAttribution:
    def test_counters_and_per_tenant_attribution(self):
        from repro.analysis.critical_path import analyze_events, tenant_attribution

        arrivals = batch_arrivals(
            3, n_tenants=2, min_records=150, max_records=350, rng=101
        )
        tel = Telemetry(run="test-serve")
        tel.attach_trace()
        result = run_arrival_script(arrivals, CFG, policy="wfq", telemetry=tel)
        events = tel.finish()

        metrics = next(
            e for e in events if e.get("type") == "metrics"
        )["metrics"]
        assert metrics["service.jobs_submitted"]["value"] == 3
        assert metrics["service.jobs_completed"]["value"] == 3
        assert metrics["service.rounds_dispatched"]["value"] == sum(
            j.rounds for j in result.jobs
        )
        job_spans = [
            e for e in events
            if e.get("type") == "span" and e.get("name") == "service_job"
        ]
        assert len(job_spans) == 3

        # The per-tenant critical-path buckets tile [0, makespan].
        att = tenant_attribution(events, "service:0")
        assert set(att) <= {"t0", "t1", "(idle)"}
        assert math.isclose(
            sum(att.values()), result.makespan_ms, rel_tol=1e-9
        )
        dom = analyze_events(events)["service:0"]
        assert dom.exact

    def test_per_job_rounds_match_parallel_ios(self):
        arrivals = batch_arrivals(
            2, n_tenants=2, min_records=150, max_records=300, rng=103
        )
        result = run_arrival_script(arrivals, CFG, policy="rr")
        for job in result.jobs:
            assert job.rounds == job.io.parallel_ios
