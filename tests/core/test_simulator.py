"""Tests for the block-level merge simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    LayoutStrategy,
    MergeJob,
    build_event_stream,
    lemma6_read_bound,
    simulate_merge,
)


def partition_runs(rng, R, L):
    """R sorted runs forming a random partition of {0..RL-1} (§9.3)."""
    perm = rng.permutation(R * L)
    return [np.sort(perm[i * L : (i + 1) * L]) for i in range(R)]


class TestEventStream:
    def test_counts(self):
        job = MergeJob.from_key_runs(
            [np.arange(8), np.arange(8, 16)], 2, 2, start_disks=[0, 1]
        )
        keys, kinds, runs, blocks = build_event_stream(job)
        # 8 blocks total: 8 depletions + 6 participations (block 0 excluded).
        assert keys.size == 14
        assert int((kinds == 0).sum()) == 6
        assert int((kinds == 1).sum()) == 8

    def test_sorted_by_key(self):
        rng = np.random.default_rng(0)
        job = MergeJob.from_key_runs(partition_runs(rng, 3, 12), 2, 3, rng=1)
        keys, _, _, _ = build_event_stream(job)
        assert np.all(keys[:-1] <= keys[1:])

    def test_participation_precedes_depletion_on_ties(self):
        # B=1: every block has first == last key.
        job = MergeJob.from_key_runs([np.arange(4)], 1, 2, start_disks=[0])
        keys, kinds, _, blocks = build_event_stream(job)
        for b in range(1, 4):
            idx = np.flatnonzero(blocks == b)
            assert kinds[idx[0]] == 0 and kinds[idx[1]] == 1


class TestSimulation:
    def test_counts_blocks(self, rng):
        job = MergeJob.from_key_runs(partition_runs(rng, 4, 40), 4, 4, rng=2)
        stats = simulate_merge(job, validate=True)
        assert stats.n_blocks == 4 * 10
        assert stats.blocks_read == stats.n_blocks + stats.blocks_flushed

    def test_perfect_case_single_blocks(self):
        # R runs of exactly 1 block each: only step 1 reads happen.
        runs = [np.arange(i * 4, (i + 1) * 4) for i in range(6)]
        job = MergeJob.from_key_runs(runs, 4, 3, start_disks=[0, 1, 2, 0, 1, 2])
        stats = simulate_merge(job, validate=True)
        assert stats.merge_parreads == 0
        assert stats.initial_reads == 2

    def test_respects_lemma6_bound(self, rng):
        for seed in range(5):
            job = MergeJob.from_key_runs(
                partition_runs(np.random.default_rng(seed), 6, 60), 3, 3, rng=seed
            )
            stats = simulate_merge(job, validate=True)
            assert stats.total_reads <= lemma6_read_bound(job).total

    def test_overhead_v_near_one_for_large_k(self, rng):
        # k = R/D = 8: Table 3 says v ~ 1.0.
        job = MergeJob.from_key_runs(partition_runs(rng, 16, 80), 4, 2, rng=5)
        stats = simulate_merge(job)
        assert stats.overhead_v == pytest.approx(1.0, abs=0.15)

    def test_worst_case_layout_is_worse(self, rng):
        runs = partition_runs(rng, 8, 80)
        worst = MergeJob.from_key_runs(
            runs, 4, 8, strategy=LayoutStrategy.WORST_CASE
        )
        rand = MergeJob.from_key_runs(
            runs, 4, 8, strategy=LayoutStrategy.RANDOMIZED, rng=3
        )
        assert simulate_merge(worst).total_reads > simulate_merge(rand).total_reads

    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(2, 6),
        blocks=st.integers(1, 12),
        b=st.integers(1, 4),
        d=st.integers(1, 5),
    )
    @settings(max_examples=40, deadline=None)
    def test_random_instances_complete_with_invariants(self, seed, r, blocks, b, d):
        rng = np.random.default_rng(seed)
        runs = partition_runs(rng, r, blocks * b)
        job = MergeJob.from_key_runs(runs, b, d, rng=rng)
        stats = simulate_merge(job, validate=True)
        assert stats.total_reads >= -(-stats.n_blocks // d)
        assert stats.total_reads <= lemma6_read_bound(job).total
        assert stats.max_mr_occupied <= r + d
