"""Failure-injection tests: the library must fail loudly, not wrongly."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DiskFullError,
    InvalidIOError,
    ParallelDiskSystem,
    SRMConfig,
    StripedFile,
)
from repro.core import merge_runs, srm_mergesort
from repro.errors import DataError, ScheduleError
from tests.oracles import write_run


class TestCapacityExhaustion:
    def test_sort_fails_cleanly_when_disks_too_small(self, rng):
        cfg = SRMConfig.from_k(2, 4, 8)
        # Input needs 128 blocks/disk; leave no room for the output runs.
        system = ParallelDiskSystem(4, 8, capacity_blocks_per_disk=130)
        keys = rng.permutation(4096)
        infile = StripedFile.from_records(system, keys)
        with pytest.raises(DiskFullError):
            srm_mergesort(system, infile, cfg, rng=1, run_length=128)

    def test_capacity_boundary_is_exact(self):
        system = ParallelDiskSystem(1, 4, capacity_blocks_per_disk=3)
        for i in range(3):
            a = system.allocate(0)
            system.write_stripe([(a, __import__("repro").Block(keys=np.array([i])))])
        with pytest.raises(DiskFullError):
            system.allocate(0)


class TestCorruptedData:
    def _runs(self, system, rng, R=3, L=24):
        perm = rng.permutation(R * L)
        return [
            write_run(
                system, np.sort(perm[i * L : (i + 1) * L]), i, i % system.n_disks
            )
            for i in range(R)
        ]

    def test_corrupted_forecast_detected_in_validate_mode(self, rng):
        system = ParallelDiskSystem(3, 4)
        runs = self._runs(system, rng)
        addr = runs[0].addresses[2]
        system.disks[addr.disk].read(addr.slot).forecast = (1.5,)
        with pytest.raises(DataError):
            merge_runs(system, runs, 9, 0, validate=True)

    def test_corrupted_block_contents_detected(self, rng):
        # Swap a block's keys for garbage: the merge heap desyncs and the
        # validate-mode engine raises instead of producing wrong output.
        system = ParallelDiskSystem(3, 4)
        runs = self._runs(system, rng)
        addr = runs[1].addresses[1]
        blk = system.disks[addr.disk].read(addr.slot)
        blk.keys = blk.keys[::-1].copy()  # now unsorted/mismatched
        with pytest.raises((ScheduleError, DataError)):
            merge_runs(system, runs, 9, 0, validate=True)

    def test_block_last_key_disagreeing_with_metadata_detected(self, rng):
        # The batched drain takes a block whole when the run metadata's
        # last key precedes the galloping bound; validate mode checks
        # the block's own last key against that metadata.
        system = ParallelDiskSystem(3, 4)
        runs = self._runs(system, rng)
        addr = runs[1].addresses[1]
        blk = system.disks[addr.disk].read(addr.slot)
        blk.keys = np.append(blk.keys[:-1], blk.keys[-2])  # still sorted
        with pytest.raises(ScheduleError, match="desync"):
            merge_runs(system, runs, 9, 0, validate=True)

    def test_stale_extent_map_detected(self, rng):
        # Freeing a block behind the run's back surfaces as InvalidIOError.
        system = ParallelDiskSystem(3, 4)
        runs = self._runs(system, rng)
        system.free(runs[2].addresses[3])
        with pytest.raises(InvalidIOError):
            merge_runs(system, runs, 9, 0)


class TestModelViolations:
    def test_cannot_read_two_blocks_from_one_disk(self):
        system = ParallelDiskSystem(2, 2)
        import repro

        a1 = system.allocate(0)
        a2 = system.allocate(0)
        system.write_stripe([(a1, repro.Block(keys=np.array([1])))])
        system.write_stripe([(a2, repro.Block(keys=np.array([2])))])
        with pytest.raises(InvalidIOError):
            system.read_stripe([a1, a2])

    def test_cannot_overwrite_live_block_via_stripe(self):
        system = ParallelDiskSystem(2, 2)
        import repro

        a = system.allocate(0)
        system.write_stripe([(a, repro.Block(keys=np.array([1])))])
        with pytest.raises(InvalidIOError):
            system.write_stripe([(a, repro.Block(keys=np.array([2])))])

    def test_reading_freed_block_fails(self):
        system = ParallelDiskSystem(2, 2)
        import repro

        a = system.allocate(1)
        system.write_stripe([(a, repro.Block(keys=np.array([1])))])
        system.free(a)
        with pytest.raises(InvalidIOError):
            system.read_stripe([a])
