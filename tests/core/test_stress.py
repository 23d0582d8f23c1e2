"""Stress and property tests across run shapes, duplicates, and models."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LayoutStrategy,
    MergeJob,
    SRMConfig,
    merge_runs,
    simulate_merge,
    srm_sort,
)
from repro.disks import DISK_1996, ParallelDiskSystem, StripedRun
from repro.telemetry.trace import SystemTracer, TraceCollector
from repro.workloads import (
    duplicate_heavy,
    interleaved_runs,
    sequential_runs,
)


def build_runs(system, runs_keys, starts):
    return [
        StripedRun.from_sorted_keys(system, k, run_id=i, start_disk=int(starts[i]))
        for i, k in enumerate(runs_keys)
    ]


class TestShapedWorkloads:
    """Engine/simulator equivalence beyond uniform partitions."""

    @pytest.mark.parametrize("shape", ["interleaved", "sequential", "skewed"])
    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_equivalence_on_structured_runs(self, shape, d):
        B = 4
        if shape == "interleaved":
            runs_keys = interleaved_runs(5, 10 * B)
        elif shape == "sequential":
            runs_keys = sequential_runs(5, 10 * B)
        else:  # runs of wildly different lengths
            runs_keys = [
                np.arange(0, 200, 5),       # long, spread out
                np.arange(1, 9, 5),         # 2 records
                np.arange(2, 120, 5),
                np.arange(3, 40, 5),
                np.arange(4, 300, 5),
            ]
        starts = np.arange(5) % d
        job = MergeJob.from_key_runs(runs_keys, B, d, start_disks=starts)
        sim = simulate_merge(job, validate=True)

        system = ParallelDiskSystem(d, B)
        runs = build_runs(system, runs_keys, starts)
        res = merge_runs(system, runs, 99, 0, validate=True)
        assert res.schedule.total_reads == sim.total_reads
        assert res.schedule.blocks_flushed == sim.blocks_flushed
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.sort(np.concatenate(runs_keys)))

    @given(
        seed=st.integers(0, 10_000),
        lengths=st.lists(st.integers(1, 60), min_size=2, max_size=6),
        d=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_equivalence_on_random_length_runs(self, seed, lengths, d):
        rng = np.random.default_rng(seed)
        total = sum(lengths)
        perm = rng.permutation(total * 2)[:total]  # distinct keys
        runs_keys = []
        pos = 0
        for l in lengths:
            runs_keys.append(np.sort(perm[pos : pos + l]))
            pos += l
        starts = rng.integers(0, d, size=len(lengths))
        B = 3
        job = MergeJob.from_key_runs(runs_keys, B, d, start_disks=starts)
        sim = simulate_merge(job, validate=True)
        system = ParallelDiskSystem(d, B)
        runs = build_runs(system, runs_keys, starts)
        res = merge_runs(system, runs, 99, 0, validate=True)
        assert res.schedule.total_reads == sim.total_reads


class TestDuplicates:
    @pytest.mark.parametrize("n_distinct", [1, 2, 7])
    def test_extreme_duplicates_sort(self, n_distinct):
        keys = duplicate_heavy(3000, n_distinct, rng=1)
        cfg = SRMConfig.from_k(2, 4, 8)
        out, _ = srm_sort(keys, cfg, rng=2, run_length=64)
        assert np.array_equal(out, np.sort(keys))

    def test_all_equal_keys(self):
        keys = np.zeros(1000, dtype=np.int64)
        cfg = SRMConfig.from_k(2, 3, 4)
        out, res = srm_sort(keys, cfg, rng=1, run_length=48)
        assert np.array_equal(out, keys)
        assert res.io.write_efficiency > 0.9

    @given(seed=st.integers(0, 5000), n_distinct=st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_property_duplicates(self, seed, n_distinct):
        keys = duplicate_heavy(800, n_distinct, rng=seed)
        cfg = SRMConfig.from_k(2, 2, 4)
        out, _ = srm_sort(keys, cfg, rng=seed, run_length=32)
        assert np.array_equal(out, np.sort(keys))


class TestModelInvariance:
    def test_channel_width_does_not_change_schedule(self, rng):
        """The channel constraint rescales time, never the schedule."""
        from repro.core import srm_mergesort
        from repro.disks import StripedFile

        cfg = SRMConfig.from_k(2, 4, 8)
        keys = rng.permutation(4096)
        ios = {}
        for width in (None, 1, 2):
            system = ParallelDiskSystem(4, 8, channel_width=width)
            infile = StripedFile.from_records(system, keys)
            res = srm_mergesort(system, infile, cfg, rng=5, run_length=128)
            ios[width] = res.io.parallel_ios
        assert len(set(ios.values())) == 1

    def test_trace_consistent_with_counters(self, rng):
        from repro.core import srm_mergesort
        from repro.disks import StripedFile

        cfg = SRMConfig.from_k(2, 4, 8)
        system = ParallelDiskSystem(4, 8, timing=DISK_1996)
        col = TraceCollector()
        system.tracer = SystemTracer(col, col.new_domain("demand"))
        keys = rng.permutation(4096)
        infile = StripedFile.from_records(system, keys)
        res = srm_mergesort(system, infile, cfg, rng=5, run_length=128)
        reads = [r for r in col.records if r.kind == "read"]
        writes = [r for r in col.records if r.kind == "write"]
        assert len(reads) == res.io.parallel_reads
        assert len(writes) == res.io.parallel_writes
        assert sum(r.attrs["disks"] for r in reads) == res.io.blocks_read
        assert sum(r.attrs["disks"] for r in writes) == res.io.blocks_written

    def test_prefetch_equals_demand_on_sorted_output(self, rng):
        cfg = SRMConfig.from_k(2, 4, 8)
        keys = rng.permutation(4096)
        out_a, res_a = srm_sort(keys, cfg, rng=7, run_length=128)
        out_b, _ = srm_sort(keys, cfg, rng=7, run_length=128)
        assert np.array_equal(out_a, out_b)

    def test_single_disk_degenerate(self, rng):
        """D = 1: SRM still works; every parallel I/O moves one block."""
        cfg = SRMConfig(n_disks=1, block_size=8, merge_order=4)
        keys = rng.permutation(2000)
        out, res = srm_sort(keys, cfg, rng=1, run_length=64, validate=True)
        assert np.array_equal(out, np.sort(keys))
        assert res.io.blocks_read == res.io.parallel_reads
