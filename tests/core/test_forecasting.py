"""Tests for the forecasting data structure (paper §4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import INF, ForecastStructure, MergeJob
from repro.errors import ScheduleError


def make_job(runs, B=2, D=3, starts=None):
    return MergeJob.from_key_runs(
        runs, B, D, start_disks=starts or [0] * len(runs)
    )


class TestChainGeometry:
    def test_chain_head_blocks_initial(self):
        # Run of 7 blocks starting on disk 1, D=3: chains are
        # disk1: 0,3,6; disk2: 1,4; disk0: 2,5.
        job = make_job([np.arange(14)], B=2, D=3, starts=[1])
        fds = ForecastStructure(job)
        assert fds.chain_head_block(0, 1) == 0
        assert fds.chain_head_block(0, 2) == 1
        assert fds.chain_head_block(0, 0) == 2

    def test_chain_head_exhausted(self):
        job = make_job([np.arange(4)], B=2, D=3, starts=[0])  # 2 blocks
        fds = ForecastStructure(job)
        assert fds.chain_head_block(0, 2) is None

    def test_chain_position_roundtrip(self):
        job = make_job([np.arange(20)], B=2, D=3, starts=[2])
        fds = ForecastStructure(job)
        for b in range(10):
            disk, pos = fds.chain_position(0, b)
            assert fds.job.disk_of(0, b) == disk
            # position-th chain element on that disk is block b.
            start = (disk - 2) % 3
            assert start + pos * 3 == b


class TestHMaintenance:
    def test_initial_h_is_chain_head_keys(self):
        job = make_job([np.arange(12)], B=2, D=3, starts=[0])  # 6 blocks
        fds = ForecastStructure(job)
        # chains: disk0 -> block0 (key 0); disk1 -> block1 (key 2);
        # disk2 -> block2 (key 4).
        assert fds.head_key(0, 0) == 0.0
        assert fds.head_key(1, 0) == 2.0
        assert fds.head_key(2, 0) == 4.0

    def test_advance_exposes_successor(self):
        job = make_job([np.arange(16)], B=2, D=3, starts=[0])  # 8 blocks
        fds = ForecastStructure(job)
        fds.advance(0, 0)
        # disk 0's chain is 0, 3, 6 -> head now block 3, key 6.
        assert fds.head_key(0, 0) == 6.0

    def test_advance_to_exhaustion(self):
        job = make_job([np.arange(4)], B=2, D=3, starts=[0])
        fds = ForecastStructure(job)
        fds.advance(0, 0)
        assert fds.head_key(0, 0) == INF
        assert fds.smallest_block_on_disk(0) is None

    def test_push_back_restores(self):
        job = make_job([np.arange(16)], B=2, D=3, starts=[0])
        fds = ForecastStructure(job)
        fds.advance(0, 0)          # block 0 read
        fds.advance(0, 0)          # block 3 read
        fds.push_back(0, 3)        # block 3 flushed
        assert fds.head_key(0, 0) == 6.0
        got = fds.smallest_block_on_disk(0)
        assert got == (6.0, 0, 3)

    def test_push_back_forward_rejected(self):
        job = make_job([np.arange(16)], B=2, D=3, starts=[0])
        fds = ForecastStructure(job)
        with pytest.raises(ScheduleError):
            fds.push_back(0, 3)  # chain pointer is still at block 0


class TestQueries:
    def test_smallest_block_across_runs(self):
        job = make_job(
            [np.array([10, 11, 12, 13]), np.array([0, 1, 2, 3])],
            B=2,
            D=2,
            starts=[0, 0],
        )
        fds = ForecastStructure(job)
        # disk 0 heads: run0 block0 (10), run1 block0 (0).
        assert fds.smallest_block_on_disk(0) == (0.0, 1, 0)

    def test_global_min_key(self):
        job = make_job(
            [np.array([10, 11, 12, 13]), np.array([5, 6, 7, 8])],
            B=2,
            D=2,
            starts=[0, 1],
        )
        fds = ForecastStructure(job)
        assert fds.global_min_key() == 5.0

    def test_next_block_key_of_run(self):
        job = make_job([np.arange(12)], B=2, D=3, starts=[0])
        fds = ForecastStructure(job)
        assert fds.next_block_key_of_run(0) == 0.0
        fds.advance(0, 0)
        assert fds.next_block_key_of_run(0) == 2.0

    def test_lazy_heap_skips_stale_entries(self):
        job = make_job([np.arange(24)], B=2, D=3, starts=[0])
        fds = ForecastStructure(job)
        # Disk 0's chain is blocks 0, 3, 6, 9 with keys 0, 6, 12, 18.
        fds.advance(0, 0)   # read block 0, head -> 3 (key 6)
        fds.advance(0, 0)   # read block 3, head -> 6 (key 12)
        fds.push_back(0, 3)  # flush block 3, head -> 3 again
        # The heap holds stale entries for keys 0 and 12 alongside the
        # fresh key-6 entry; the query must skip the stale ones.
        assert fds.smallest_block_on_disk(0) == (6.0, 0, 3)
        assert fds.head_key(0, 0) == 6.0


class TestVectorizedQueries:
    """The numpy-matrix H backing: batch minima and full-range keys."""

    def test_min_keys_per_run(self):
        job = make_job(
            [np.array([10, 11, 12, 13]), np.array([5, 6, 7, 8])],
            B=2,
            D=2,
            starts=[0, 1],
        )
        fds = ForecastStructure(job)
        values, valid = fds.min_keys_per_run()
        assert valid.tolist() == [True, True]
        assert values.tolist() == [10, 5]

    def test_min_keys_per_run_tracks_advances(self):
        job = make_job([np.arange(8), np.arange(100, 108)], B=2, D=2,
                       starts=[0, 0])
        fds = ForecastStructure(job)
        for d in range(2):
            fds.advance(0, d)
            fds.advance(0, d)  # run 0 fully consumed
        values, valid = fds.min_keys_per_run()
        assert valid.tolist() == [False, True]
        assert values[1] == 100

    def test_int64_max_is_a_legal_key(self):
        # INT64_MAX must behave as a real key, not an exhausted-chain
        # sentinel: exhaustion is signalled by the valid mask alone.
        hi = np.iinfo(np.int64).max
        job = make_job(
            [np.array([hi - 3, hi - 2, hi - 1, hi]), np.array([0, 1, 2, 3])],
            B=2,
            D=2,
            starts=[0, 0],
        )
        fds = ForecastStructure(job)
        values, valid = fds.min_keys_per_run()
        assert valid.tolist() == [True, True]
        assert values.tolist() == [hi - 3, 0]
        assert fds.global_min_key() == 0
        assert fds.next_block_key_of_run(0) == hi - 3
        # Exhaust run 1: its mask entry drops, run 0 keeps its real keys.
        fds.advance(1, 0)
        fds.advance(1, 1)
        values, valid = fds.min_keys_per_run()
        assert valid.tolist() == [True, False]
        assert fds.next_block_key_of_run(1) == INF

    def test_min_key_tie_prefers_smaller_run(self):
        job = make_job(
            [np.array([7, 8]), np.array([7, 9])], B=2, D=1, starts=[0, 0]
        )
        fds = ForecastStructure(job)
        assert fds.smallest_block_on_disk(0) == (7, 0, 0)


class TestAllDiskQuery:
    """``smallest_blocks``: the per-ParRead query over every disk at once."""

    def test_equal_keys_smaller_run_wins(self):
        job = make_job(
            [np.array([5, 5, 9, 9]), np.array([5, 5, 9, 9]), np.array([5, 6])],
            B=2,
            D=2,
            starts=[1, 0, 0],
        )
        fds = ForecastStructure(job)
        # Disk 0 heads: run 0 block 1 (9), run 1 block 0 (5), run 2
        # block 0 (5); disk 1: run 0 block 0 (5), run 1 block 1 (9).
        assert fds.smallest_blocks() == [(1, 0, 0), (0, 0, 1)]

    def test_dead_filler_tie_falls_back(self):
        # A dead chain's INF_I64 filler at run 0 ties a live INT64_MAX
        # key at run 1: the masked argmin picks the dead entry, and the
        # per-disk fallback must find the live one.
        hi = np.iinfo(np.int64).max
        job = make_job(
            [np.array([0, 1]), np.array([hi, hi])], B=2, D=1, starts=[0, 0]
        )
        fds = ForecastStructure(job)
        fds.advance(0, 0)  # run 0 exhausted on disk 0
        assert fds.smallest_blocks() == [(1, 0, 0)]
        assert fds.smallest_block_on_disk(0) == (hi, 1, 0)

    def test_empty_disks_are_omitted(self):
        job = make_job([np.arange(4)], B=2, D=3, starts=[0])  # 2 blocks
        fds = ForecastStructure(job)
        assert fds.smallest_blocks() == [(0, 0, 0), (0, 1, 1)]
        fds.advance(0, 0)
        fds.advance(0, 1)
        assert fds.smallest_blocks() == []
