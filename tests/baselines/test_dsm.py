"""Tests for the DSM baseline (paper §9.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    dsm_mergesort,
    dsm_sort,
    merge_superblock_runs,
    write_superblock_run,
)
from repro.core import DSMConfig
from repro.disks import ParallelDiskSystem, StripedFile
from repro.errors import ConfigError, DataError


class TestSuperblockRuns:
    def test_write_layout_synchronized(self):
        sys = ParallelDiskSystem(4, 2)
        run = write_superblock_run(sys, np.arange(24), 0)
        # 12 blocks -> 3 superblocks of 4, each on disks 0..3.
        assert [a.disk for a in run.addresses] == [0, 1, 2, 3] * 3
        slots = [a.slot for a in run.addresses]
        assert slots == [s for s in range(3) for _ in range(4)]

    def test_each_superblock_is_one_io(self):
        sys = ParallelDiskSystem(4, 2)
        write_superblock_run(sys, np.arange(24), 0)
        assert sys.stats.parallel_writes == 3
        assert sys.stats.write_efficiency == 1.0

    def test_partial_final_superblock(self):
        sys = ParallelDiskSystem(4, 2)
        run = write_superblock_run(sys, np.arange(18), 0)  # 9 blocks
        assert [a.disk for a in run.addresses] == [0, 1, 2, 3] * 2 + [0]
        assert sys.stats.parallel_writes == 3
        assert sys.stats.writes_per_disk.tolist() == [3, 2, 2, 2]

    def test_roundtrip(self):
        sys = ParallelDiskSystem(3, 4)
        keys = np.arange(0, 50, 2)
        run = write_superblock_run(sys, keys, 0)
        assert np.array_equal(run.read_all(sys), keys)

    def test_rejects_unsorted(self):
        sys = ParallelDiskSystem(2, 2)
        with pytest.raises(DataError):
            write_superblock_run(sys, np.array([2, 1]), 0)


class TestMergeSuperblockRuns:
    def test_merges_correctly(self):
        sys = ParallelDiskSystem(2, 2)
        a = write_superblock_run(sys, np.arange(0, 20, 2), 0)
        b = write_superblock_run(sys, np.arange(1, 21, 2), 1)
        out = merge_superblock_runs(sys, [a, b], 2)
        assert np.array_equal(out.read_all(sys), np.arange(20))

    def test_read_count_is_superblock_count(self):
        sys = ParallelDiskSystem(2, 2)
        a = write_superblock_run(sys, np.arange(0, 20, 2), 0)
        b = write_superblock_run(sys, np.arange(1, 21, 2), 1)
        sys.stats.reset()
        merge_superblock_runs(sys, [a, b], 2)
        # Each run is 5 blocks = 3 superblocks (last partial): 6 reads.
        # Output is 10 blocks = 5 full superblocks: 5 writes.
        assert sys.stats.parallel_reads == 6
        assert sys.stats.parallel_writes == 5

    def test_single_run_rejected(self):
        sys = ParallelDiskSystem(2, 2)
        a = write_superblock_run(sys, np.arange(4), 0)
        with pytest.raises(DataError):
            merge_superblock_runs(sys, [a], 1)

    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_output_blocks_numbered_by_position(self, backend):
        with ParallelDiskSystem(2, 2, backend=backend) as sys:
            a = write_superblock_run(sys, np.arange(0, 20, 2), 0)
            b = write_superblock_run(sys, np.arange(1, 21, 2), 1)
            out = merge_superblock_runs(sys, [a, b], 2)
            blocks = [sys.peek(addr) for addr in out.addresses]
            assert [blk.index for blk in blocks] == list(range(10))
            assert {blk.run_id for blk in blocks} == {2}

    def test_inputs_freed(self):
        sys = ParallelDiskSystem(2, 2)
        a = write_superblock_run(sys, np.arange(0, 20, 2), 0)
        b = write_superblock_run(sys, np.arange(1, 21, 2), 1)
        out = merge_superblock_runs(sys, [a, b], 2)
        assert sys.used_blocks == out.n_blocks


class TestDSMSort:
    def test_sorts(self, rng):
        cfg = DSMConfig(n_disks=4, block_size=8, merge_order=3)
        keys = rng.permutation(3000)
        out, res = dsm_sort(keys, cfg, run_length=128)
        assert np.array_equal(out, np.sort(keys))
        assert res.n_records == 3000

    def test_pass_count(self, rng):
        cfg = DSMConfig(n_disks=2, block_size=4, merge_order=3)
        keys = rng.permutation(27 * 32)
        _, res = dsm_sort(keys, cfg, run_length=32)
        # 27 runs, order 3 -> exactly 3 passes.
        assert res.runs_formed == 27
        assert res.n_merge_passes == 3

    def test_every_io_is_fully_parallel_except_tails(self, rng):
        cfg = DSMConfig(n_disks=4, block_size=4, merge_order=4)
        keys = rng.permutation(4096)
        _, res = dsm_sort(keys, cfg, run_length=256)
        assert res.io.read_efficiency == 1.0
        assert res.io.write_efficiency == 1.0

    def test_each_pass_moves_every_record_once(self, rng):
        cfg = DSMConfig(n_disks=4, block_size=4, merge_order=4)
        keys = rng.permutation(4096)
        _, res = dsm_sort(keys, cfg, run_length=256)
        superblocks = 4096 // 16
        for p in res.passes:
            assert p.parallel_reads == superblocks
            assert p.parallel_writes == superblocks

    def test_duplicates(self, rng):
        cfg = DSMConfig(n_disks=2, block_size=4, merge_order=2)
        keys = rng.integers(0, 17, size=1000)
        out, _ = dsm_sort(keys, cfg, run_length=32)
        assert np.array_equal(out, np.sort(keys))

    @given(seed=st.integers(0, 100_000), n=st.integers(1, 1500), d=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_property_sorts_any_input(self, seed, n, d):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-(2**40), 2**40, size=n)
        cfg = DSMConfig(n_disks=d, block_size=3, merge_order=3)
        out, _ = dsm_sort(keys, cfg, run_length=6 * d * 3)
        assert np.array_equal(out, np.sort(keys))

    def test_geometry_mismatch(self, rng):
        sys = ParallelDiskSystem(2, 4)
        infile = StripedFile.from_records(sys, rng.permutation(64))
        with pytest.raises(ConfigError):
            dsm_mergesort(sys, infile, DSMConfig(n_disks=4, block_size=4, merge_order=2))

    def test_empty_rejected(self):
        sys = ParallelDiskSystem(2, 4)
        infile = StripedFile.from_records(sys, np.array([], dtype=np.int64))
        with pytest.raises(ConfigError):
            dsm_mergesort(sys, infile, DSMConfig(n_disks=2, block_size=4, merge_order=2))


class TestSingleDisk:
    """``D = 1``: DSM is the classical one-disk external mergesort."""

    def test_sorts(self, rng):
        keys = rng.permutation(2000)
        out, res = dsm_sort(keys, DSMConfig.from_memory(128, 1, 4))
        assert np.array_equal(out, np.sort(keys))
        assert res.config.n_disks == 1

    def test_memory_too_small(self):
        with pytest.raises(ConfigError):
            DSMConfig.from_memory(8, 1, 4)
