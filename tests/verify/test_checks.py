"""Tests for verification utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disks import ParallelDiskSystem
from repro.errors import DataError
from repro.verify import (
    assert_sorted_permutation,
    check_striped_run,
    is_permutation_of,
    is_sorted,
)
from tests.oracles import write_run


class TestPredicates:
    def test_is_sorted(self):
        assert is_sorted(np.array([1, 2, 2, 3]))
        assert not is_sorted(np.array([2, 1]))
        assert is_sorted(np.array([]))
        assert is_sorted(np.array([7]))

    def test_is_permutation(self):
        assert is_permutation_of([3, 1, 2], [1, 2, 3])
        assert not is_permutation_of([1, 1, 2], [1, 2, 2])
        assert not is_permutation_of([1], [1, 1])

    def test_assert_sorted_permutation_passes(self):
        assert_sorted_permutation(np.array([1, 2, 3]), np.array([3, 1, 2]))

    def test_assert_sorted_permutation_rejects_unsorted(self):
        with pytest.raises(DataError):
            assert_sorted_permutation(np.array([2, 1]), np.array([1, 2]))

    def test_assert_sorted_permutation_rejects_wrong_multiset(self):
        with pytest.raises(DataError):
            assert_sorted_permutation(np.array([1, 2]), np.array([1, 3]))


class TestCheckStripedRun:
    def test_valid_run_passes(self):
        system = ParallelDiskSystem(3, 4)
        run = write_run(system, np.arange(0, 60, 2), 0, 1)
        check_striped_run(system, run)  # no exception

    def test_writer_output_passes(self):
        from repro.core import RunWriter

        system = ParallelDiskSystem(3, 4)
        w = RunWriter(system, 0, 2)
        w.append(np.arange(55))
        run = w.finalize()
        check_striped_run(system, run)

    def test_detects_broken_cyclic_layout(self):
        system = ParallelDiskSystem(3, 4)
        run = write_run(system, np.arange(24), 0, 0)
        run.start_disk = 1  # lie about the layout
        with pytest.raises(DataError):
            check_striped_run(system, run)

    def test_detects_corrupted_metadata(self):
        system = ParallelDiskSystem(3, 4)
        run = write_run(system, np.arange(24), 0, 0)
        run.first_keys[2] += 1
        with pytest.raises(DataError):
            check_striped_run(system, run)

    def test_detects_bad_forecast(self):
        system = ParallelDiskSystem(2, 4)
        run = write_run(system, np.arange(32), 0, 0)
        addr = run.addresses[1]
        blk = system.disks[addr.disk].read(addr.slot)
        blk.forecast = (123.0,)
        with pytest.raises(DataError):
            check_striped_run(system, run)

    def test_detects_wrong_record_count(self):
        system = ParallelDiskSystem(2, 4)
        run = write_run(system, np.arange(32), 0, 0)
        run.n_records = 99
        with pytest.raises(DataError):
            check_striped_run(system, run)


class TestCheckSuperblockRun:
    def _run(self, system, keys):
        from repro.baselines import write_superblock_run

        return write_superblock_run(system, keys, 0)

    def test_valid_run_passes(self):
        from repro.verify import check_superblock_run

        system = ParallelDiskSystem(3, 4)
        run = self._run(system, np.arange(0, 60, 2))
        check_superblock_run(system, run)

    def test_dsm_sort_output_passes(self, rng):
        from repro.baselines import dsm_mergesort
        from repro.core import DSMConfig
        from repro.disks import StripedFile
        from repro.verify import check_superblock_run

        system = ParallelDiskSystem(3, 4)
        infile = StripedFile.from_records(system, rng.permutation(600))
        res = dsm_mergesort(
            system, infile, DSMConfig(n_disks=3, block_size=4, merge_order=2),
            run_length=24,
        )
        check_superblock_run(system, res.output)

    def test_detects_desynchronized_stripe(self):
        from repro.verify import check_superblock_run

        system = ParallelDiskSystem(3, 4)
        run = self._run(system, np.arange(0, 60, 2))
        # Superblock 1 is blocks 3..5 (D = 3); reverse its disks.
        run.addresses[3:6] = reversed(run.addresses[3:6])
        with pytest.raises(DataError):
            check_superblock_run(system, run)

    def test_detects_wrong_count(self):
        from repro.verify import check_superblock_run

        system = ParallelDiskSystem(3, 4)
        run = self._run(system, np.arange(0, 60, 2))
        run.n_records = 1
        with pytest.raises(DataError):
            check_superblock_run(system, run)

