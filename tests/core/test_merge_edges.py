"""Merge-engine edge geometry: tiny runs, ragged tails, B = 1, D > blocks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MergeJob, SRMConfig, merge_runs, simulate_merge, srm_sort
from repro.disks import ParallelDiskSystem
from tests.oracles import write_run


def build(system, runs_keys, starts):
    return [
        write_run(system, k, run_id=i, start_disk=int(starts[i]))
        for i, k in enumerate(runs_keys)
    ]


class TestTinyRuns:
    def test_runs_shorter_than_d_blocks(self):
        # D = 6 but each run has only 2 blocks: forecast tuples carry
        # NO_KEY sentinels and chains exhaust immediately.
        system = ParallelDiskSystem(6, 2)
        runs = build(
            system,
            [np.array([0, 2, 4, 6]), np.array([1, 3, 5, 7])],
            [0, 3],
        )
        res = merge_runs(system, runs, 9, 0, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.arange(8))

    def test_single_record_runs(self):
        system = ParallelDiskSystem(3, 4)
        runs = build(system, [np.array([5]), np.array([2]), np.array([9])], [0, 1, 2])
        res = merge_runs(system, runs, 9, 1, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.array([2, 5, 9]))
        # Nothing beyond step 1 is ever read.
        assert res.schedule.merge_parreads == 0

    def test_block_size_one_end_to_end(self, rng):
        cfg = SRMConfig(n_disks=3, block_size=1, merge_order=4)
        keys = rng.permutation(500)
        out, res = srm_sort(keys, cfg, rng=1, run_length=16, validate=True)
        assert np.array_equal(out, np.sort(keys))

    def test_many_more_disks_than_blocks(self):
        system = ParallelDiskSystem(16, 2)
        runs = build(system, [np.arange(0, 6, 2), np.arange(1, 7, 2)], [4, 11])
        res = merge_runs(system, runs, 9, 7, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.arange(6))


class TestRaggedRuns:
    @given(
        seed=st.integers(0, 10_000),
        sizes=st.lists(st.integers(1, 37), min_size=2, max_size=5),
        d=st.integers(1, 4),
        b=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_partial_tail_blocks_everywhere(self, seed, sizes, d, b):
        rng = np.random.default_rng(seed)
        total = sum(sizes)
        perm = rng.permutation(total * 3)[:total]
        runs_keys = []
        pos = 0
        for s in sizes:
            runs_keys.append(np.sort(perm[pos : pos + s]))
            pos += s
        system = ParallelDiskSystem(d, b)
        starts = rng.integers(0, d, size=len(sizes))
        runs = build(system, runs_keys, starts)
        res = merge_runs(system, runs, 99, 0, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.sort(perm[:total]))
        # Simulator agreement on ragged geometry too.
        job = MergeJob.from_key_runs(runs_keys, b, d, start_disks=starts)
        assert simulate_merge(job).total_reads == res.schedule.total_reads


class TestExtremeKeys:
    def test_int64_extremes(self):
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        system = ParallelDiskSystem(2, 2)
        runs = build(
            system,
            [np.array([lo, -5, hi - 1]), np.array([lo + 1, 0, hi])],
            [0, 1],
        )
        res = merge_runs(system, runs, 9, 0, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.array([lo, lo + 1, -5, 0, hi - 1, hi]))
