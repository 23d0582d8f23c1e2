"""Tests for bounded-memory run scanning."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disks import ParallelDiskSystem, RunScanner
from repro.errors import DataError
from tests.oracles import write_run


def make_run(D=4, B=2, n=30, start=1):
    sys = ParallelDiskSystem(D, B)
    run = write_run(sys, np.arange(n) * 2, 0, start)
    return sys, run


class TestScanning:
    def test_chunked_scan_yields_run_in_order(self):
        sys, run = make_run()
        sc = RunScanner(sys, run)
        out = []
        while not sc.exhausted:
            out.append(sc.next_chunk())
        assert np.array_equal(np.concatenate(out), np.arange(30) * 2)

    def test_iterator_protocol(self):
        sys, run = make_run(n=10)
        assert list(RunScanner(sys, run)) == [2 * i for i in range(10)]

    def test_read_remaining(self):
        sys, run = make_run(n=25)
        sc = RunScanner(sys, run)
        first = sc.next_chunk()
        rest = sc.read_remaining()
        assert np.array_equal(
            np.concatenate([first, rest]), np.arange(25) * 2
        )
        assert sc.exhausted

    def test_io_cost_is_fully_parallel(self):
        D, B, n = 4, 2, 64  # 32 blocks
        sys, run = make_run(D=D, B=B, n=n)
        sys.stats.reset()
        RunScanner(sys, run).read_remaining()
        assert sys.stats.parallel_reads == 32 // D
        assert sys.stats.read_efficiency == 1.0

    def test_bounded_memory(self):
        # The scanner holds at most one stripe (D blocks) at a time.
        sys, run = make_run(D=4, B=2, n=64)
        sc = RunScanner(sys, run)
        while not sc.exhausted:
            sc.next_chunk()
            assert len(sc._buffer) <= 4

    def test_free_releases_slots(self):
        sys, run = make_run(n=30)
        RunScanner(sys, run, free=True).read_remaining()
        assert sys.used_blocks == 0

    def test_scan_past_end_raises(self):
        sys, run = make_run(n=4, B=2, D=2)
        sc = RunScanner(sys, run)
        sc.read_remaining()
        with pytest.raises(DataError):
            sc.next_chunk()

    def test_partial_final_block(self):
        sys = ParallelDiskSystem(3, 4)
        run = write_run(sys, np.arange(13), 0, 0)
        out = RunScanner(sys, run).read_remaining()
        assert np.array_equal(out, np.arange(13))
