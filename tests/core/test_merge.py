"""Tests for the data-moving SRM merge engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MergeJob, merge_runs, simulate_merge
from repro.disks import ParallelDiskSystem
from repro.errors import DataError
from tests.oracles import write_run


def build_runs(system, runs_keys, starts):
    return [
        write_run(system, k, run_id=i, start_disk=int(starts[i]))
        for i, k in enumerate(runs_keys)
    ]


def partition_runs(rng, R, L):
    perm = rng.permutation(R * L)
    return [np.sort(perm[i * L : (i + 1) * L]) for i in range(R)]


class TestCorrectness:
    def test_two_runs(self):
        system = ParallelDiskSystem(2, 2)
        runs = build_runs(system, [np.array([0, 2, 4, 6]), np.array([1, 3, 5, 7])], [0, 1])
        res = merge_runs(system, runs, 10, 0, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.arange(8))

    def test_duplicate_keys(self):
        system = ParallelDiskSystem(2, 2)
        a = np.array([1, 1, 2, 2, 3, 3])
        b = np.array([1, 2, 2, 3, 3, 3])
        runs = build_runs(system, [a, b], [0, 1])
        res = merge_runs(system, runs, 10, 0)
        out = np.concatenate(
            [system.disks[x.disk].read(x.slot).keys for x in res.output.addresses]
        )
        assert np.array_equal(out, np.sort(np.concatenate([a, b])))

    def test_skewed_runs(self):
        # One run entirely smaller than the other.
        system = ParallelDiskSystem(3, 4)
        runs = build_runs(system, [np.arange(40), np.arange(100, 140)], [1, 2])
        res = merge_runs(system, runs, 5, 2, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.concatenate([np.arange(40), np.arange(100, 140)]))

    def test_single_run_rejected(self):
        system = ParallelDiskSystem(2, 2)
        runs = build_runs(system, [np.arange(4)], [0])
        with pytest.raises(DataError):
            merge_runs(system, runs, 1, 0)

    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(2, 5),
        blocks=st.integers(1, 6),
        b=st.integers(1, 4),
        d=st.integers(1, 4),
    )
    @settings(max_examples=25, deadline=None)
    def test_arbitrary_partitions_sort_correctly(self, seed, r, blocks, b, d):
        rng = np.random.default_rng(seed)
        runs_keys = partition_runs(rng, r, blocks * b)
        system = ParallelDiskSystem(d, b)
        starts = rng.integers(0, d, size=r)
        runs = build_runs(system, runs_keys, starts)
        res = merge_runs(system, runs, 100, int(rng.integers(0, d)), validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.arange(r * blocks * b))


class TestEngineSimulatorEquivalence:
    """The two execution paths must report identical I/O counts."""

    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(2, 6),
        blocks=st.integers(1, 10),
        d=st.integers(1, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_read_counts_match(self, seed, r, blocks, d):
        rng = np.random.default_rng(seed)
        B = 3
        runs_keys = partition_runs(rng, r, blocks * B)
        starts = rng.integers(0, d, size=r)
        job = MergeJob.from_key_runs(runs_keys, B, d, start_disks=starts)
        sim = simulate_merge(job, validate=True)

        system = ParallelDiskSystem(d, B)
        runs = build_runs(system, runs_keys, starts)
        res = merge_runs(system, runs, 100, 0, validate=True)
        assert res.schedule.total_reads == sim.total_reads
        assert res.schedule.initial_reads == sim.initial_reads
        assert res.schedule.blocks_flushed == sim.blocks_flushed
        assert res.schedule.blocks_read == sim.blocks_read
        # And the disk system observed exactly those parallel reads.
        assert res.io.parallel_reads == sim.total_reads


class TestDuplicateFastPath:
    """Equal keys across runs must be consumed block-granularly.

    The merge loop used to fall back to one record per heap cycle when
    the winning run's key tied with the runner-up (``limit``), making
    duplicate-heavy inputs quadratic in the duplicate count.  The fixed
    slow path consumes the whole equal-key prefix at once, so the heap
    cycle count stays proportional to the number of *blocks*, not the
    number of records.
    """

    def _merge_all_equal(self, D=2, B=4, R=4, blocks_per_run=8):
        system = ParallelDiskSystem(D, B)
        n = B * blocks_per_run
        runs = build_runs(
            system,
            [np.zeros(n, dtype=np.int64) for _ in range(R)],
            [i % D for i in range(R)],
        )
        return system, merge_runs(system, runs, 20, 0, validate=True)

    def test_all_equal_keys_sort_correctly(self):
        system, res = self._merge_all_equal()
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.zeros(4 * 32, dtype=np.int64))

    def test_heap_cycles_block_granular(self):
        _, res = self._merge_all_equal()
        n_blocks = res.output.n_blocks
        n_records = res.output.n_records
        # One pop can consume at most a block, so n_blocks cycles is the
        # floor; the fix keeps us within a small constant of it.  The
        # old record-at-a-time path needed ~n_records cycles.
        assert res.heap_cycles >= n_blocks
        assert res.heap_cycles <= 2 * n_blocks
        assert res.heap_cycles < n_records // 2

    def test_mixed_duplicates_match_np_sort(self, rng):
        system = ParallelDiskSystem(3, 2)
        # Heavy collisions: keys drawn from a tiny alphabet.
        runs_keys = [
            np.sort(rng.integers(0, 4, size=24)).astype(np.int64) for _ in range(4)
        ]
        runs = build_runs(system, runs_keys, rng.integers(0, 3, size=4))
        res = merge_runs(system, runs, 12, 0, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.sort(np.concatenate(runs_keys)))


class TestIOBehaviour:
    def test_perfect_write_parallelism(self, rng):
        D, B, R, L = 4, 2, 8, 16
        system = ParallelDiskSystem(D, B)
        runs_keys = partition_runs(rng, R, L)
        runs = build_runs(system, runs_keys, rng.integers(0, D, size=R))
        before = system.stats.snapshot()
        merge_runs(system, runs, 50, 1)
        delta = system.stats.since(before)
        n_out_blocks = R * L // B
        assert delta.parallel_writes == -(-n_out_blocks // D)
        assert delta.write_efficiency == 1.0

    def test_inputs_freed_after_consumption(self, rng):
        system = ParallelDiskSystem(2, 2)
        runs_keys = partition_runs(rng, 2, 8)
        runs = build_runs(system, runs_keys, [0, 1])
        res = merge_runs(system, runs, 9, 0)
        # Only the output run's blocks remain on disk.
        assert system.used_blocks == res.output.n_blocks

    def test_forecast_validation_runs(self, rng):
        # validate=True checks every implanted key against the §4 format.
        system = ParallelDiskSystem(3, 2)
        runs_keys = partition_runs(rng, 3, 12)
        runs = build_runs(system, runs_keys, [0, 1, 2])
        merge_runs(system, runs, 9, 0, validate=True)  # should not raise

    def test_output_forecast_format_valid_for_next_merge(self, rng):
        # Merge twice: the first output's implants feed the second merge.
        system = ParallelDiskSystem(2, 2)
        ra = build_runs(system, partition_runs(rng, 2, 8), [0, 1])
        m1 = merge_runs(system, ra, 10, 0, validate=True)
        extra = write_run(
            system, np.arange(100, 120), run_id=11, start_disk=1
        )
        m2 = merge_runs(system, [m1.output, extra], 12, 1, validate=True)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in m2.output.addresses]
        )
        assert np.array_equal(out, np.sort(np.concatenate([np.arange(16), np.arange(100, 120)])))

    def test_output_buffer_within_mw_under_validation(self, rng):
        # The §5.1 partition gives the writer exactly M_W = 2D blocks;
        # validate=True must accept every well-formed merge under that
        # exact bound (the check used to allow 2D + 1).
        D, B = 4, 2
        system = ParallelDiskSystem(D, B)
        runs_keys = partition_runs(rng, 6, 16)
        runs = build_runs(system, runs_keys, rng.integers(0, D, size=6))
        merge_runs(system, runs, 20, 0, validate=True)  # should not raise
