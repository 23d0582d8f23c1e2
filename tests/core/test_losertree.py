"""Tests for the loser-tree merger and the batched merge data plane.

The contract under test: the data plane and the heapq merge oracle
(:mod:`tests.oracles`) produce *bit-identical* observable behaviour —
output records (keys and payloads), per-merge :class:`ScheduleStats`,
disk-system I/O counters, and channel rounds — differing only in
internal-work counters.
"""

from __future__ import annotations

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LoserTree, SRMConfig, merge_runs, srm_sort
from repro.core.config import OverlapConfig
from repro.disks import ParallelDiskSystem, StripedRun
from repro.errors import ScheduleError
from repro.workloads import uniform_keys, uniform_permutation
from tests.oracles import heapq_merge


def build_runs(system, runs_keys, starts, payloads=None):
    return [
        StripedRun.from_sorted_keys(
            system,
            k,
            run_id=i,
            start_disk=int(starts[i]),
            payloads=None if payloads is None else payloads[i],
        )
        for i, k in enumerate(runs_keys)
    ]


def partition_runs(rng, R, L):
    perm = rng.permutation(R * L)
    return [np.sort(perm[i * L : (i + 1) * L]) for i in range(R)]


def read_records(system, run):
    blocks = [system.disks[a.disk].read(a.slot) for a in run.addresses]
    keys = np.concatenate([b.keys for b in blocks])
    if blocks[0].payloads is None:
        return keys, None
    return keys, np.concatenate([b.payloads for b in blocks])


def both_mergers(fn):
    """``{"heapq": fn(), "plane": fn()}`` — oracle first, then data plane."""
    with heapq_merge():
        ref = fn()
    return {"heapq": ref, "plane": fn()}


def schedule_tuple(s):
    return (
        s.initial_reads,
        s.merge_parreads,
        s.blocks_read,
        s.flush_ops,
        s.blocks_flushed,
        s.n_blocks,
        s.max_mr_occupied,
    )


class TestLoserTree:
    def test_single_source(self):
        t = LoserTree([5])
        assert t.winner == 0
        assert t.winner_key() == 5
        assert t.runner_up_key() == float("inf")  # no peer
        t.replace(9)
        assert t.winner_key() == 9

    def test_winner_is_minimum(self):
        t = LoserTree([4, 2, 7, 1, 9])
        assert t.winner == 3
        assert t.winner_key() == 1

    def test_ties_go_to_smallest_leaf(self):
        t = LoserTree([3, 1, 1, 1])
        assert t.winner == 1
        t.replace(1)  # equal key: leaf 1 stays ahead of leaves 2, 3
        assert t.winner == 1

    def test_runner_up_is_second_smallest(self):
        t = LoserTree([4, 2, 7, 1, 9])
        assert t.runner_up_key() == 2

    def test_replace_drains_sorted(self):
        feeds = [[1, 4, 9], [2, 3, 10], [0, 5, 6]]
        pos = [0] * 3
        t = LoserTree([f[0] for f in feeds])
        out = []
        while t.winner_key() != float("inf"):
            w = t.winner
            out.append(t.winner_key())
            pos[w] += 1
            t.replace(feeds[w][pos[w]] if pos[w] < 3 else float("inf"))
        assert out == sorted(x for f in feeds for x in f)

    def test_empty_rejected(self):
        with pytest.raises(ScheduleError):
            LoserTree([])

    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 17),
        n=st.integers(1, 40),
        dup=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzz_matches_heapq(self, seed, k, n, dup):
        """Drain k random sources; emissions must match a (key, src) heap."""
        rng = np.random.default_rng(seed)
        hi = 5 if dup else 10_000
        feeds = [sorted(rng.integers(0, hi, size=n).tolist()) for _ in range(k)]
        pos = [0] * k
        t = LoserTree([f[0] for f in feeds])
        heap = [(f[0], i) for i, f in enumerate(feeds)]
        heapq.heapify(heap)
        while heap:
            key, src = heapq.heappop(heap)
            assert (t.winner_key(), t.winner) == (key, src)
            if heap:
                assert t.runner_up_key() == heap[0][0]
            pos[src] += 1
            if pos[src] < n:
                nxt = feeds[src][pos[src]]
                heapq.heappush(heap, (nxt, src))
                t.replace(nxt)
            else:
                t.replace(float("inf"))
        assert t.winner_key() == float("inf")


class TestMergerEquivalence:
    """The data plane must be observationally identical to heapq."""

    def _merge_all(self, system_factory, runs_factory, **kw):
        def merge():
            system = system_factory()
            runs = runs_factory(system)
            res = merge_runs(system, runs, 50, 0, **kw)
            keys, pays = read_records(system, res.output)
            return {
                "keys": keys,
                "pays": pays,
                "sched": schedule_tuple(res.schedule),
                "reads": res.io.parallel_reads,
                "writes": res.io.parallel_writes,
                "rounds": system.channel_rounds,
            }

        results = both_mergers(merge)
        base, other = results["heapq"], results["plane"]
        assert np.array_equal(base["keys"], other["keys"])
        if base["pays"] is None:
            assert other["pays"] is None
        else:
            assert np.array_equal(base["pays"], other["pays"])
        for field in ("sched", "reads", "writes", "rounds"):
            assert base[field] == other[field], field
        return results

    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(2, 6),
        blocks=st.integers(1, 8),
        b=st.integers(1, 4),
        d=st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_fuzz_identical_io_and_output(self, seed, r, blocks, b, d):
        rng = np.random.default_rng(seed)
        runs_keys = partition_runs(rng, r, blocks * b)
        starts = rng.integers(0, d, size=r)

        self._merge_all(
            lambda: ParallelDiskSystem(d, b),
            lambda s: build_runs(s, runs_keys, starts),
            validate=True,
        )

    def test_duplicate_heavy_with_payloads(self):
        """Cross-run duplicates + payloads: order ties break by run index."""
        rng = np.random.default_rng(7)
        R, L = 4, 24
        runs_keys = [np.sort(uniform_keys(L, 0, 6, rng=i)) for i in range(R)]
        payloads = [np.arange(i * L, (i + 1) * L, dtype=np.int64) for i in range(R)]
        starts = rng.integers(0, 3, size=R)

        results = self._merge_all(
            lambda: ParallelDiskSystem(3, 4),
            lambda s: build_runs(s, runs_keys, starts, payloads=payloads),
            validate=True,
        )
        # Stability oracle: (key, run, position) order of the records.
        tagged = sorted(
            (int(k), r, j)
            for r in range(R)
            for j, k in enumerate(runs_keys[r])
        )
        expect_pays = np.array(
            [payloads[r][j] for _, r, j in tagged], dtype=np.int64
        )
        assert np.array_equal(results["plane"]["pays"], expect_pays)

    def test_all_equal_keys(self):
        runs_keys = [np.zeros(32, dtype=np.int64) for _ in range(4)]
        self._merge_all(
            lambda: ParallelDiskSystem(2, 4),
            lambda s: build_runs(s, runs_keys, [i % 2 for i in range(4)]),
            validate=True,
        )

    def test_heap_cycles_block_granular_all_mergers(self):
        """All-duplicate workloads must stay O(blocks) for both mergers."""
        D, B, R, blocks_per_run = 2, 4, 4, 8
        n = B * blocks_per_run

        def merge():
            system = ParallelDiskSystem(D, B)
            runs = build_runs(
                system,
                [np.zeros(n, dtype=np.int64) for _ in range(R)],
                [i % D for i in range(R)],
            )
            return merge_runs(system, runs, 20, 0, validate=True)

        for merger, res in both_mergers(merge).items():
            n_blocks = res.output.n_blocks
            assert res.heap_cycles >= n_blocks, merger
            assert res.heap_cycles <= 2 * n_blocks, merger
            assert res.heap_cycles < res.output.n_records // 2, merger

    def test_batched_cycles_not_more_than_heapq(self):
        """The batched plane consumes >= one block slice per cycle."""
        rng = np.random.default_rng(3)
        runs_keys = partition_runs(rng, 5, 40)
        starts = rng.integers(0, 3, size=5)

        def merge():
            system = ParallelDiskSystem(3, 4)
            runs = build_runs(system, runs_keys, starts)
            return merge_runs(system, runs, 50, 0).heap_cycles

        cycles = both_mergers(merge)
        assert cycles["plane"] <= cycles["heapq"]

    def test_overlap_engine_uses_cycle_loop(self):
        """With an overlap engine, plane == heapq including the report."""
        rng = np.random.default_rng(11)
        runs_keys = partition_runs(rng, 4, 32)
        starts = rng.integers(0, 2, size=4)

        def merge():
            system = ParallelDiskSystem(2, 4)
            runs = build_runs(system, runs_keys, starts)
            res = merge_runs(
                system,
                runs,
                50,
                0,
                overlap=OverlapConfig(cpu_us_per_record=1.0),
            )
            keys, _ = read_records(system, res.output)
            return (
                schedule_tuple(res.schedule),
                res.overlap,
                keys.tobytes(),
                res.heap_cycles,
            )

        reports = both_mergers(merge)
        assert reports["heapq"] == reports["plane"]


class TestEndToEndSortEquivalence:
    def test_srm_sort_identical_across_mergers(self):
        keys = uniform_permutation(6_000, rng=2)
        cfg = SRMConfig.from_k(2, 3, 8)

        def sort():
            out, res = srm_sort(keys, cfg, rng=5)
            assert np.array_equal(out, np.sort(keys))
            return (
                out.tobytes(),
                tuple(schedule_tuple(s) for s in res.merge_schedules),
                res.io.parallel_reads,
                res.io.parallel_writes,
                res.system.channel_rounds,
            )

        outs = both_mergers(sort)
        assert outs["heapq"] == outs["plane"]

    def test_srm_sort_with_payloads_identical(self):
        keys = uniform_keys(4_000, 0, 500, rng=1)  # heavy duplicates
        payloads = np.arange(keys.size, dtype=np.int64)
        cfg = SRMConfig.from_k(2, 2, 8)

        def sort():
            out, res = srm_sort(keys, cfg, rng=3, payloads=payloads)
            k, p = res.peek_sorted_records()
            return k.tobytes(), p.tobytes()

        outs = both_mergers(sort)
        assert outs["heapq"] == outs["plane"]
