"""Tests for striped files and forecast-format runs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disks import ParallelDiskSystem, StripedFile, StripeWriter
from repro.errors import DataError
from tests.oracles import write_run


class TestStripedFile:
    def test_round_robin_layout(self):
        sys = ParallelDiskSystem(n_disks=3, block_size=2)
        f = StripedFile.from_records(sys, np.arange(10))
        assert [a.disk for a in f.addresses] == [0, 1, 2, 0, 1]

    def test_roundtrip(self):
        sys = ParallelDiskSystem(n_disks=3, block_size=4)
        keys = np.array([5, 1, 9, 2, 8, 3, 7])
        f = StripedFile.from_records(sys, keys)
        assert np.array_equal(f.read_all(sys), keys)

    def test_no_io_charged_by_default(self):
        sys = ParallelDiskSystem(n_disks=2, block_size=2)
        StripedFile.from_records(sys, np.arange(8))
        assert sys.stats.parallel_writes == 0

    def test_io_charged_when_requested(self):
        sys = ParallelDiskSystem(n_disks=2, block_size=2)
        w = StripeWriter(sys)
        w.append(np.arange(8))
        w.finish()
        # 4 blocks striped over 2 disks -> 2 full-stripe writes.
        assert sys.stats.parallel_writes == 2

    def test_sequential_read_is_fully_parallel(self):
        sys = ParallelDiskSystem(n_disks=4, block_size=2)
        f = StripedFile.from_records(sys, np.arange(16))  # 8 blocks
        f.read_all(sys)
        assert sys.stats.parallel_reads == 2  # ceil(8/4)
        assert sys.stats.read_efficiency == 1.0

    def test_empty_file(self):
        sys = ParallelDiskSystem(n_disks=2, block_size=2)
        f = StripedFile.from_records(sys, np.array([], dtype=np.int64))
        assert f.n_blocks == 0
        assert f.read_all(sys).size == 0


class TestStripeWriter:
    def test_charged_install_numbers_blocks_by_position(self):
        sys = ParallelDiskSystem(n_disks=3, block_size=2)
        w = StripeWriter(sys)
        w.append(np.arange(15))
        f = w.finish()
        assert [sys.peek(a).index for a in f.addresses] == list(range(8))

    def test_streamed_appends_match_one_append(self):
        keys = np.arange(100)
        pays = keys * 3
        one = ParallelDiskSystem(n_disks=4, block_size=3)
        w = StripeWriter(one, run_id=7)
        w.append(keys, pays)
        whole = w.finish()
        many = ParallelDiskSystem(n_disks=4, block_size=3)
        w = StripeWriter(many, run_id=7)
        for lo, hi in [(0, 1), (1, 13), (13, 13), (13, 40), (40, 41), (41, 100)]:
            w.append(keys[lo:hi], pays[lo:hi])
        streamed = w.finish()
        assert streamed == whole
        assert many.stats.writes_per_disk.tolist() == one.stats.writes_per_disk.tolist()
        for a in streamed.addresses:
            x, y = many.peek(a), one.peek(a)
            assert (x.run_id, x.index) == (y.run_id, y.index)
            assert np.array_equal(x.keys, y.keys)
            assert np.array_equal(x.payloads, y.payloads)

    def test_each_stripe_allocated_just_before_its_write(self):
        sys = ParallelDiskSystem(n_disks=3, block_size=2)
        calls = []
        allocate, write_stripe = sys.allocate, sys.write_stripe
        sys.allocate = lambda d: calls.append(("alloc", d)) or allocate(d)
        sys.write_stripe = lambda w: calls.append(("write", len(w))) or write_stripe(w)
        w = StripeWriter(sys)
        w.append(np.arange(5))
        assert calls == []  # less than one stripe (6 records) buffered
        w.append(np.arange(5, 14))
        f = w.finish()
        stripe = [("alloc", 0), ("alloc", 1), ("alloc", 2), ("write", 3)]
        assert calls == stripe + stripe + [("alloc", 0), ("write", 1)]
        assert f.n_records == 14 and f.n_blocks == 7

    def test_misaligned_payloads_rejected(self):
        w = StripeWriter(ParallelDiskSystem(n_disks=2, block_size=2))
        with pytest.raises(DataError):
            w.append(np.arange(4), np.arange(3))

    @pytest.mark.parametrize("cut", [8, 10])
    def test_payload_presence_change_rejected(self, cut):
        # D=2, B=4: payloads that start at a stripe boundary (8) or
        # inside a stripe (10) are refused on the append that brings them.
        w = StripeWriter(ParallelDiskSystem(n_disks=2, block_size=4))
        w.append(np.arange(cut))
        with pytest.raises(DataError, match="payload presence"):
            w.append(np.arange(cut, 12), np.arange(100 + cut, 112))

    def test_payloads_dropped_later_rejected(self):
        w = StripeWriter(ParallelDiskSystem(n_disks=2, block_size=4))
        w.append(np.arange(8), np.arange(100, 108))
        with pytest.raises(DataError, match="payload presence"):
            w.append(np.arange(8, 12))

    def test_nothing_appended_is_an_empty_file(self):
        sys = ParallelDiskSystem(n_disks=2, block_size=2)
        f = StripeWriter(sys).finish()
        assert f.n_blocks == 0 and f.n_records == 0
        assert sys.stats.parallel_writes == 0


class TestStripedRun:
    def test_first_and_last_keys_recorded(self):
        sys = ParallelDiskSystem(n_disks=2, block_size=3)
        run = write_run(sys, np.arange(0, 18, 2), 0, 0)
        assert list(run.first_keys) == [0, 6, 12]
        assert list(run.last_keys) == [4, 10, 16]

    @given(n=st.integers(1, 100), d0=st.integers(0, 2))
    @settings(max_examples=25, deadline=None)
    def test_roundtrip(self, n, d0):
        sys = ParallelDiskSystem(n_disks=3, block_size=4)
        keys = np.arange(n, dtype=np.int64) * 3
        run = write_run(sys, keys, 0, d0)
        assert np.array_equal(run.read_all(sys), keys)
