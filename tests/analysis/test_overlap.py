"""Tests for the I/O-compute overlap model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import merge_makespan
from repro.core import MergeJob, OverlapConfig, simulate_merge
from repro.disks import DISK_1996
from repro.errors import ConfigError
from repro.workloads import random_partition_runs


def merged_stats(R=8, D=4, blocks=40, B=8, seed=3):
    runs = random_partition_runs(R, blocks * B, rng=seed)
    job = MergeJob.from_key_runs(runs, B, D, rng=seed + 1)
    return simulate_merge(job), B


class TestDepletionGaps:
    def test_gaps_cover_all_blocks(self):
        stats, _ = merged_stats()
        assert sum(stats.depletion_gaps) == stats.n_blocks
        assert len(stats.depletion_gaps) == stats.merge_parreads + 1


class TestMakespan:
    def test_serial_is_sum_of_resources(self):
        stats, B = merged_stats()
        est = merge_makespan(stats, DISK_1996, B, cpu_us_per_record=50)
        assert est.serial_ms == pytest.approx(est.io_ms + est.cpu_ms)

    def test_pipelined_between_bounds(self):
        stats, B = merged_stats()
        est = merge_makespan(stats, DISK_1996, B, cpu_us_per_record=50)
        assert max(est.io_ms, est.cpu_ms) * 0.99 <= est.pipelined_ms <= est.serial_ms

    def test_zero_cpu_is_pure_io(self):
        stats, B = merged_stats()
        est = merge_makespan(stats, DISK_1996, B, cpu_us_per_record=0)
        assert est.cpu_ms == 0
        assert est.pipelined_ms == pytest.approx(est.io_ms, rel=0.01)
        assert est.serial_ms == pytest.approx(est.io_ms)

    def test_overlap_helps_most_when_balanced(self):
        stats, B = merged_stats()
        t_io = DISK_1996.op_time_ms(B)
        # CPU cost that makes total compute == total I/O time.
        n_writes = -(-stats.n_blocks // stats.n_disks)
        io_ms = (stats.total_reads + n_writes) * t_io
        balanced_us = io_ms / stats.n_blocks * 1000 / B
        speedups = {}
        for label, cpu in [("io-bound", balanced_us / 20),
                           ("balanced", balanced_us),
                           ("cpu-bound", balanced_us * 20)]:
            est = merge_makespan(stats, DISK_1996, B, cpu)
            speedups[label] = est.speedup
        assert speedups["balanced"] >= speedups["io-bound"]
        assert speedups["balanced"] >= speedups["cpu-bound"]
        assert speedups["balanced"] > 1.3  # toward the 2x pipeline ideal

    def test_overlap_efficiency_close_to_one_for_smooth_schedules(self):
        stats, B = merged_stats(R=16, D=4, blocks=60)
        t_io = DISK_1996.op_time_ms(B)
        est = merge_makespan(stats, DISK_1996, B, t_io * 1000 / B)
        assert est.overlap_efficiency > 0.55

    def test_validation(self):
        stats, B = merged_stats()
        with pytest.raises(ConfigError):
            merge_makespan(stats, DISK_1996, B, cpu_us_per_record=-1)


class TestOverlapGap:
    """Predicted (analytic) vs executed (engine) makespan comparison."""

    def _gap(self, mode="full"):
        from repro.analysis import execute_merge_timeline, overlap_gap

        R, D, blocks, B, seed = 12, 4, 50, 8, 3
        runs = random_partition_runs(R, blocks * B, rng=seed)
        job = MergeJob.from_key_runs(runs, B, D, rng=seed + 1)
        stats = simulate_merge(job)
        # Identical layout seed: the executed job replays the same schedule.
        runs = random_partition_runs(R, blocks * B, rng=seed)
        job = MergeJob.from_key_runs(runs, B, D, rng=seed + 1)
        cpu = DISK_1996.op_time_ms(B) * 1000 / B
        est = merge_makespan(stats, DISK_1996, B, cpu)
        overlap = OverlapConfig(mode=mode, cpu_us_per_record=cpu)
        rep = execute_merge_timeline(job, DISK_1996, B, overlap)
        return overlap_gap(est, rep)

    def test_fields_pass_through(self):
        gap = self._gap()
        assert gap.predicted_serial_ms > gap.predicted_pipelined_ms > 0
        assert gap.executed_ms > 0

    def test_model_within_modest_factor_of_execution(self):
        gap = self._gap()
        assert 0.5 <= gap.gap_ratio <= 2.0

    def test_executed_speedup_positive_when_overlapped(self):
        gap = self._gap(mode="full")
        assert gap.executed_speedup > 1.0
