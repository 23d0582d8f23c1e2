"""Tests for the engine-backed merge timeline (``execute_merge_timeline``)."""

from __future__ import annotations

import pytest

from repro.analysis import execute_merge_timeline, merge_makespan
from repro.core import OVERLAP_MODES, MergeJob, OverlapConfig, simulate_merge
from repro.disks import DISK_1996
from repro.errors import ConfigError
from repro.workloads import random_partition_runs


def make_job(R=8, D=4, blocks=40, B=8, seed=3):
    runs = random_partition_runs(R, blocks * B, rng=seed)
    return MergeJob.from_key_runs(runs, B, D, rng=seed + 1), B


def balanced_us(B):
    """Per-record CPU cost at which merging a block takes one block read."""
    return DISK_1996.op_time_ms(B) * 1000 / B


def execute(job, B, cpu, mode="full"):
    overlap = OverlapConfig(mode=mode, cpu_us_per_record=cpu)
    return execute_merge_timeline(job, DISK_1996, B, overlap)


class TestBasics:
    def test_conservation(self):
        job, B = make_job()
        for mode in OVERLAP_MODES:
            rep = execute(job, B, balanced_us(B), mode)
            # Neither the CPU nor any disk is busy beyond the makespan.
            assert rep.makespan_ms >= rep.cpu_busy_ms - 1e-9
            assert rep.makespan_ms >= rep.io_busy_ms / job.n_disks - 1e-9
            assert 0.0 <= rep.disk_utilization <= 1.0

    def test_cpu_busy_is_block_count_times_cost(self):
        job, B = make_job()
        rep = execute(job, B, 20)
        assert rep.cpu_busy_ms == pytest.approx(job.n_blocks * B * 20 / 1000)

    def test_write_count(self):
        job, B = make_job(R=8, D=4, blocks=40)
        rep = execute(job, B, 20)
        assert rep.writes == -(-job.n_blocks // 4)

    def test_zero_cpu_cost(self):
        # Demand-paced with free compute, the merge only ever waits.
        job, B = make_job()
        rep = execute(job, B, 0, mode="none")
        assert rep.cpu_busy_ms == 0
        assert rep.makespan_ms == pytest.approx(rep.cpu_stall_ms)

    def test_validation(self):
        job, B = make_job()
        with pytest.raises(ConfigError):
            execute(job, B, -1)
        with pytest.raises(ConfigError):
            execute(job, 0, 1)


class TestPrefetchValue:
    def test_prefetch_never_slower(self):
        job, B = make_job()
        balanced = balanced_us(B)
        for cpu in (balanced / 10, balanced, balanced * 10):
            fast = execute(job, B, cpu, mode="full")
            slow = execute(job, B, cpu, mode="none")
            assert fast.makespan_ms <= slow.makespan_ms + 1e-6

    def test_prefetch_hides_stalls_when_balanced(self):
        job, B = make_job(R=16, D=4, blocks=60)
        fast = execute(job, B, balanced_us(B), mode="full")
        slow = execute(job, B, balanced_us(B), mode="none")
        assert fast.cpu_stall_ms < slow.cpu_stall_ms
        assert fast.makespan_ms < 0.85 * slow.makespan_ms

    def test_read_counts_match_pure_io_simulation(self):
        # The demand-paced engine issues the count-only simulator's reads.
        job, B = make_job()
        rep = execute(job, B, balanced_us(B), mode="none")
        assert rep.demand_reads == simulate_merge(job).total_reads
        assert rep.eager_reads == 0

    def test_consistent_with_analytic_model(self):
        # The analytic pipelined estimate and the engine agree within a
        # modest factor on a balanced workload.
        job, B = make_job(R=12, D=4, blocks=50)
        cpu = balanced_us(B)
        analytic = merge_makespan(simulate_merge(job), DISK_1996, B, cpu)
        rep = execute(job, B, cpu, mode="full")
        assert 0.5 <= rep.makespan_ms / analytic.pipelined_ms <= 2.0

    def test_utilizations(self):
        job, B = make_job()
        rep = execute(job, B, balanced_us(B))
        assert 0 < rep.cpu_utilization <= 1
        assert 0 < rep.disk_utilization <= 1


class TestExecuteTimeline:
    """The engine-backed executor over the same event stream."""

    def _balanced(self, **kw):
        job, B = make_job(**kw)
        return job, B, balanced_us(B)

    def test_demand_mode_read_counts_match_simulator(self):
        job, B, cpu = self._balanced()
        rep = execute(job, B, cpu, mode="none")
        stats = simulate_merge(job)
        assert rep.demand_reads == stats.total_reads
        assert rep.eager_reads == 0

    def test_overlap_beats_demand_when_balanced(self):
        job, B, cpu = self._balanced(R=16, D=4, blocks=60)
        slow = execute(job, B, cpu, mode="none")
        fast = execute(job, B, cpu, mode="full")
        assert fast.makespan_ms < slow.makespan_ms
        assert fast.cpu_stall_ms < slow.cpu_stall_ms

    def test_conservation(self):
        job, B, cpu = self._balanced()
        rep = execute(job, B, cpu)
        assert rep.makespan_ms >= rep.cpu_busy_ms - 1e-9
        assert 0.0 <= rep.disk_utilization <= 1.0
