"""Tests for MergeJob construction and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MergeJob
from repro.errors import ConfigError, DataError
from tests.oracles import write_run


def simple_job(D=4, B=2):
    runs = [np.arange(0, 16, 2), np.arange(1, 17, 2)]
    return MergeJob.from_key_runs(runs, B, D, start_disks=[0, 1])


class TestFromKeyRuns:
    def test_block_boundaries(self):
        job = simple_job()
        # run 0 = 0,2,..,14 in blocks of 2: firsts 0,4,8,12; lasts 2,6,10,14.
        assert list(job.first_keys[0]) == [0, 4, 8, 12]
        assert list(job.last_keys[0]) == [2, 6, 10, 14]

    def test_partial_final_block(self):
        job = MergeJob.from_key_runs([np.array([1, 2, 3])], 2, 2, start_disks=[0])
        assert list(job.first_keys[0]) == [1, 3]
        assert list(job.last_keys[0]) == [2, 3]

    def test_counts(self):
        job = simple_job()
        assert job.n_runs == 2
        assert job.n_blocks == 8
        assert job.blocks_in_run(1) == 4

    def test_disk_of_cyclic(self):
        job = simple_job(D=3)
        # run 1 starts on disk 1: blocks on 1, 2, 0, 1.
        assert [job.disk_of(1, b) for b in range(4)] == [1, 2, 0, 1]

    def test_strategy_chooses_disks(self):
        job = MergeJob.from_key_runs(
            [np.arange(4), np.arange(4, 8)], 2, 4, rng=0
        )
        assert job.start_disks.size == 2

    def test_rejects_unsorted_run(self):
        with pytest.raises(DataError):
            MergeJob.from_key_runs([np.array([3, 1])], 2, 2, start_disks=[0])

    def test_rejects_empty_run(self):
        with pytest.raises(DataError):
            MergeJob.from_key_runs([np.array([], dtype=np.int64)], 2, 2, start_disks=[0])


class TestValidation:
    def test_start_disk_out_of_range(self):
        with pytest.raises(ConfigError):
            MergeJob.from_key_runs([np.arange(4)], 2, 2, start_disks=[2])

    def test_misaligned_boundaries(self):
        with pytest.raises(DataError):
            MergeJob(
                first_keys=[np.array([0, 4])],
                last_keys=[np.array([2])],
                start_disks=np.array([0]),
                n_disks=2,
            )

    def test_first_exceeds_last(self):
        with pytest.raises(DataError):
            MergeJob(
                first_keys=[np.array([5])],
                last_keys=[np.array([3])],
                start_disks=np.array([0]),
                n_disks=2,
            )

    def test_blocks_out_of_order(self):
        with pytest.raises(DataError):
            MergeJob(
                first_keys=[np.array([0, 1])],
                last_keys=[np.array([5, 6])],
                start_disks=np.array([0]),
                n_disks=2,
            )

    def test_no_runs(self):
        with pytest.raises(ConfigError):
            MergeJob(first_keys=[], last_keys=[], start_disks=np.array([]), n_disks=2)


class TestFromStripedRuns:
    def test_roundtrip_via_disk(self):
        from repro.disks import ParallelDiskSystem

        system = ParallelDiskSystem(3, 4)
        keys = np.arange(0, 40, 2)
        run = write_run(system, keys, run_id=0, start_disk=2)
        job = MergeJob.from_striped_runs([run], 3)
        assert list(job.start_disks) == [2]
        assert np.array_equal(job.first_keys[0], keys[::4])
