"""Tests for the merge data plane: the batched and engine-paced drains.

The contract under test: the data plane and the heapq merge oracle
(:mod:`tests.oracles`) produce *bit-identical* observable behaviour —
output records (keys and payloads), per-merge :class:`ScheduleStats`,
disk-system I/O counters, and channel rounds.  The demand drain differs
only in internal-work counters; the engine-paced drain also matches the
oracle's simulated clock, output addresses, cycle count and drain
metrics.
"""

from __future__ import annotations

import hashlib
import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.critical_path import analyze_collector
from repro.core import (
    SRMConfig,
    merge_runs,
    srm_mergesort,
    srm_sort,
)
from repro.core.config import OVERLAP_MODES, OverlapConfig
from repro.core.losertree import _cycle_starts
from repro.disks import ParallelDiskSystem, StripedFile
from repro.disks.disk import Disk
from repro.disks.timing import DISK_1996
from repro.faults import DiskDeath, FaultPlan
from repro.telemetry import Telemetry
from repro.telemetry.trace import SystemTracer
from repro.workloads import uniform_keys, uniform_permutation
from tests.oracles import heapq_merge, write_run


def build_runs(system, runs_keys, starts, payloads=None):
    return [
        write_run(
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


def io_tuple(io):
    return (
        io.parallel_reads,
        io.parallel_writes,
        io.blocks_read,
        io.blocks_written,
        io.reads_per_disk.tolist(),
        io.writes_per_disk.tolist(),
    )


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


def heapq_cycle_starts(runs_keys, B):
    """Merged positions at which a heapq merge of *runs_keys* starts a cycle."""
    heap = [(int(k[0]), r) for r, k in enumerate(runs_keys)]
    heapq.heapify(heap)
    pos = [0] * len(runs_keys)
    starts, out = [], 0
    while heap:
        key, r = heapq.heappop(heap)
        limit = heap[0][0] if heap else None
        off = pos[r]
        block = runs_keys[r][: (off // B + 1) * B]
        hi = block.size
        if limit is not None:
            hi = int(np.searchsorted(block, limit, side="left"))
            if hi <= off:
                hi = int(np.searchsorted(block, key, side="right"))
        starts.append(out)
        out += hi - off
        pos[r] = hi
        if hi < runs_keys[r].size:
            heapq.heappush(heap, (int(runs_keys[r][hi]), r))
    return starts


class TestCycleStarts:
    @given(
        seed=st.integers(0, 10_000),
        r=st.integers(2, 6),
        b=st.integers(1, 4),
        dup=st.booleans(),
        cut=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_batch_prefix_matches_heapq_cycles(self, seed, r, b, dup, cut):
        """Cycles of any batch that ends at a block start equal heapq's.

        The batch's last stretch takes its limit from the runs' next keys
        beyond the batch, as the engine-paced drain does.
        """
        rng = np.random.default_rng(seed)
        runs_keys = [
            np.sort(rng.integers(0, 4 if dup else 1 << 40, size=int(n)))
            for n in rng.integers(1, 6 * b + 1, size=r)
        ]
        keys = np.concatenate(runs_keys)
        run = np.repeat(np.arange(r), [k.size for k in runs_keys])
        pos = np.concatenate([np.arange(k.size) for k in runs_keys])
        order = np.argsort(keys, kind="stable")
        keys, run, pos = keys[order], run[order], pos[order]
        # End the batch at the first record of some block (or nowhere).
        block_starts = np.flatnonzero((pos % b == 0) & (pos > 0))
        n = keys.size
        if block_starts.size and cut < 1.0:
            n = int(block_starts[int(cut * block_starts.size)])
        last = int(run[n - 1])
        heads = [
            int(runs_keys[s][int(pos[n:][run[n:] == s][0])])
            for s in range(r)
            if s != last and np.any(run[n:] == s)
        ]
        starts = _cycle_starts(
            keys[:n], run[:n] * 10_000 + pos[:n] // b, run[:n],
            min(heads) if heads else None,
        )
        expect = [p for p in heapq_cycle_starts(runs_keys, b) if p < n]
        assert starts.tolist() == expect
        # A batch that ends below the limit cannot reach it, so the
        # limit may be left out; and where, besides, no run switch joins
        # equal keys, every cycle starts at a slice change.
        k, rr = keys[:n], run[:n]
        if not heads or int(k[-1]) < min(heads):
            piece = rr * 10_000 + pos[:n] // b
            assert _cycle_starts(k, piece, rr, None).tolist() == expect
            if not np.any((rr[1:] != rr[:-1]) & (k[1:] == k[:-1])):
                changes = np.flatnonzero(piece[1:] != piece[:-1]) + 1
                assert [0] + changes.tolist() == expect


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

    @given(
        seed=st.integers(0, 10_000),
        mode=st.sampled_from(OVERLAP_MODES),
        depth=st.integers(0, 3),
        cpu=st.sampled_from(["zero", "one", "balanced"]),
        keys=st.sampled_from(["distinct", "duplicated", "all_equal"]),
        payloads=st.booleans(),
        policy=st.sampled_from(["fixed", "straggler"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_overlap_engine_uses_cycle_loop(
        self, seed, mode, depth, cpu, keys, payloads, policy
    ):
        """Engine-paced plane == heapq: output, schedule, clock, metrics."""
        rng = np.random.default_rng(seed)
        R = int(rng.integers(2, 9))
        D = int(rng.integers(1, 5))
        B = int(rng.integers(1, 6))
        lengths = rng.integers(1, 10 * B + 1, size=R)
        if keys == "distinct":
            perm = rng.permutation(int(lengths.sum()))
            cuts = np.cumsum(lengths)[:-1]
            runs_keys = [np.sort(part) for part in np.split(perm, cuts)]
        elif keys == "duplicated":
            runs_keys = [np.sort(rng.integers(0, 5, size=n)) for n in lengths]
        else:
            runs_keys = [np.zeros(n, dtype=np.int64) for n in lengths]
        pays = (
            [rng.integers(0, 1 << 40, size=n) for n in lengths] if payloads else None
        )
        starts = rng.integers(0, D, size=R)
        cpu_us = {
            "zero": 0.0,
            "one": 1.0,
            "balanced": DISK_1996.op_time_ms(B) * 1000 / B,
        }[cpu]
        overlap = OverlapConfig(
            mode=mode,
            prefetch_depth=depth,
            cpu_us_per_record=cpu_us,
        )

        def merge():
            system = ParallelDiskSystem(D, B)
            if policy == "straggler":
                system.attach_faults(
                    FaultPlan(seed=seed, latency_factors={0: 4.0})
                )
            runs = build_runs(system, runs_keys, starts, payloads=pays)
            tel = Telemetry()
            res = merge_runs(
                system, runs, 50, 0, validate=True, overlap=overlap,
                telemetry=tel,
            )
            keys_out, pays_out = read_records(system, res.output)
            metrics = {
                name: snap
                for name, snap in tel.registry.snapshot().items()
                if name.startswith(("merge.drain_", "sched"))
            }
            return {
                "keys": keys_out.tobytes(),
                "pays": None if pays_out is None else pays_out.tobytes(),
                "addresses": tuple(res.output.addresses),
                "schedule": res.schedule,
                "io": io_tuple(res.io),
                "overlap": res.overlap,
                "heap_cycles": res.heap_cycles,
                "metrics": metrics,
            }

        results = both_mergers(merge)
        for field, ref in results["heapq"].items():
            assert results["plane"][field] == ref, field


    def test_batch_ends_where_a_run_reaches_the_bound_key(self):
        """The batch's last stretch is cut where it reaches the bound key.

        Run 1's second block (first key 2) is the galloping bound, so the
        first batch ends with run 0's ``[1, 2]``; a heapq merge consumes
        them in two cycles because run 1's next key is 2.
        """

        def merge():
            system = ParallelDiskSystem(1, 2)
            runs = build_runs(
                system, [np.array([1, 2]), np.array([0, 0, 2, 5])], [0, 0]
            )
            res = merge_runs(
                system, runs, 50, 0,
                overlap=OverlapConfig(mode="none", cpu_us_per_record=1.0),
            )
            return res.heap_cycles, res.overlap

        results = both_mergers(merge)
        assert results["plane"] == results["heapq"]
        assert results["plane"][0] == 4


class TestEngineTrace:
    """The engine-paced drain's causal trace, against the heapq oracle."""

    RUNS = ((5, 7), (3, 8))  # (R, seed) per merge

    def _merges(self):
        """Two engine-paced merges into one traced telemetry handle."""
        D, B = 3, 4
        tel = Telemetry()
        col = tel.attach_trace()
        out = []
        for R, seed in self.RUNS:
            rng = np.random.default_rng(seed)
            system = ParallelDiskSystem(D, B)
            runs = build_runs(
                system,
                partition_runs(rng, R, 10 * B),
                rng.integers(0, D, size=R),
            )
            res = merge_runs(
                system, runs, 50, 0,
                overlap=OverlapConfig(
                    cpu_us_per_record=DISK_1996.op_time_ms(B) * 1000 / B
                ),
                telemetry=tel,
            )
            out.append(res)
        return tel, col, out

    def test_compute_records_cover_every_record_in_fewer_intervals(self):
        _, col, results = self._merges()
        for i, res in enumerate(results):
            compute = [
                rec for rec in col.records
                if rec.domain == f"merge:{i}" and rec.kind == "compute"
            ]
            assert sum(rec.attrs["records"] for rec in compute) == res.n_records
            assert sum(rec.attrs["cycles"] for rec in compute) == res.heap_cycles
            assert len(compute) < res.heap_cycles

    def test_critical_path_is_exact_and_matches_oracle_attribution(self):
        _, col, results = self._merges()
        with heapq_merge():
            _, ref_col, _ = self._merges()
        doms = analyze_collector(col)
        ref_doms = analyze_collector(ref_col)
        for i, res in enumerate(results):
            dom, ref = doms[f"merge:{i}"], ref_doms[f"merge:{i}"]
            assert dom.exact and not dom.truncated
            assert dom.total_ms == dom.makespan_ms == res.overlap.makespan_ms
            assert dom.makespan_ms == ref.makespan_ms
            for cat, ms in ref.attribution.items():
                assert dom.attribution[cat] == pytest.approx(
                    ms, rel=1e-9, abs=1e-9 * dom.makespan_ms
                ), cat

    def test_seeded_runs_export_identical_jsonl(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            tel, _, _ = self._merges()
            path = tmp_path / f"{name}.jsonl"
            tel.write_jsonl(str(path))
            blobs.append(
                b"".join(
                    line for line in path.read_bytes().splitlines(keepends=True)
                    if b'"type": "trace' in line
                )
            )
        assert blobs[0] and blobs[0] == blobs[1]


def _trace_digest(col) -> str:
    """sha256 over every field of every trace record."""
    assert col.dropped == 0
    return hashlib.sha256(
        repr(
            [
                (r.kind, r.cat, r.lane, r.domain, r.queue_ms, r.start_ms,
                 r.end_ms, r.dep, r.attrs)
                for r in col.records
            ]
        ).encode()
    ).hexdigest()


class TestEngineStreamAtBenchShape:
    """The engine-paced stream at the overlap benchmark's shape.

    D = B = 16 and ``SRMConfig.from_k(4, 16, 16)`` in the balanced
    full-overlap regime with the trace armed.  Runs of 320 records give
    the benchmark's 49 runs over about 16k keys, so most runs straddle
    each galloping bound and batches hold many slices.
    """

    D = B = 16
    N = 15_610
    RUN_LENGTH = 320
    METRICS = ("merge.drain_batch", "merge.drain_cycles", "writer.buffered_blocks")

    def _sort(self, keys, payloads=None, backend=None, plan=None):
        D, B = self.D, self.B
        system = ParallelDiskSystem(D, B, timing=DISK_1996, backend=backend)
        try:
            if plan is not None:
                system.attach_faults(plan)
            # Copies: the input blocks may be views of the arrays given.
            infile = StripedFile.from_records(
                system,
                keys.copy(),
                payloads=None if payloads is None else payloads.copy(),
            )
            tel = Telemetry()
            col = tel.attach_trace()
            res = srm_mergesort(
                system, infile, SRMConfig.from_k(4, D, B), rng=0,
                run_length=self.RUN_LENGTH,
                overlap=OverlapConfig(
                    mode="full",
                    prefetch_depth=2,
                    cpu_us_per_record=DISK_1996.op_time_ms(B) * 1000 / B,
                ),
                telemetry=tel,
            )
            assert res.runs_formed == 49 and res.n_merge_passes == 1
            out_keys, out_pays = res.peek_sorted_records()
            assert np.array_equal(out_keys, np.sort(keys))
            if payloads is not None:
                assert np.array_equal(keys[out_pays], out_keys)
            snap = tel.registry.snapshot()
            return {
                "keys": out_keys.tobytes(),
                "pays": None if out_pays is None else out_pays.tobytes(),
                "addresses": tuple(res.output.addresses),
                "overlap": res.overlap_reports,
                "schedule": res.merge_schedules,
                "io": io_tuple(res.io),
                "heap_cycles": res.heap_cycles,
                "metrics": {name: snap[name] for name in self.METRICS},
                "faults": None if plan is None else system.faults.stats.snapshot(),
                "trace": _trace_digest(col),
            }
        finally:
            system.close()

    @pytest.mark.parametrize(
        "case", ["distinct", "duplicate-heavy", "payloads-mmap"]
    )
    def test_engine_stream_matches_heapq(self, case):
        rng = np.random.default_rng(19)
        if case == "duplicate-heavy":
            keys = rng.integers(0, 8, size=self.N)
        else:
            keys = rng.permutation(self.N).astype(np.int64)
        payloads = backend = None
        if case == "payloads-mmap":
            payloads = np.arange(self.N, dtype=np.int64)
            backend = "mmap"
        outs = both_mergers(lambda: self._sort(keys, payloads, backend))
        ref, got = outs["heapq"], outs["plane"]
        for field in ref:
            assert got[field] == ref[field], field

    def test_one_slice_batch_reaches_the_writer_before_its_block_is_freed(
        self, monkeypatch
    ):
        # A one-slice batch is a view of its block's storage, and a freed
        # slot may be rewritten at once (on mmap, by a rebuild that a
        # pump's read triggers).  Scribbling over each block as it is
        # freed turns any later append of such a view into wrong output.
        # Duplicate-heavy keys make one-slice batches that deplete.
        free = Disk.free

        def scribbling_free(disk, slot):
            blk = disk._slots.get(slot)
            if blk is not None:
                blk.keys[...] = -1
                blk.payloads[...] = -1
            free(disk, slot)

        monkeypatch.setattr(Disk, "free", scribbling_free)
        keys = np.random.default_rng(23).integers(0, 8, size=self.N)
        payloads = np.arange(self.N, dtype=np.int64)
        outs = both_mergers(lambda: self._sort(keys, payloads))
        for field, ref in outs["heapq"].items():
            assert outs["plane"][field] == ref, field

    def test_mmap_matches_memory_under_a_disk_death(self):
        # On mmap a block read is a view of its slot, which the death's
        # rebuild may reuse once freed; in memory it is an owned array.
        rng = np.random.default_rng(23)
        keys = rng.permutation(self.N).astype(np.int64)
        payloads = np.arange(self.N, dtype=np.int64)
        plan = FaultPlan(
            seed=5,
            read_fail_p=0.02,
            write_fail_p=0.02,
            redundancy="parity",
            deaths=(DiskDeath(disk=3, after_ops=100),),
        )
        mem = self._sort(keys, payloads, plan=plan)
        mm = self._sort(keys, payloads, backend="mmap", plan=plan)
        assert mem["faults"]["disk_deaths"] == 1
        for field in ("keys", "pays", "addresses", "overlap", "faults", "io"):
            assert mm[field] == mem[field], field


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

    def test_keys_only_duplicate_heavy_load_sort_identical(self):
        # Bare keys form runs with an unstable sort and merge with one:
        # equal keys are indistinguishable, so nothing observable moves.
        keys = uniform_keys(8_000, 0, 40, rng=6)
        cfg = SRMConfig.from_k(2, 3, 8)

        def sort():
            out, res = srm_sort(keys, cfg, rng=2, formation="load_sort")
            assert np.array_equal(out, np.sort(keys))
            return (
                out.tobytes(),
                tuple(schedule_tuple(s) for s in res.merge_schedules),
                io_tuple(res.io),
            )

        outs = both_mergers(sort)
        assert outs["heapq"] == outs["plane"]

    def test_fault_armed_mergesort_identical_across_mergers(self):
        # Faults draw from one RNG stream per disk for reads and writes,
        # torn writes are repaired only by charged reads, and writes
        # reuse freed slots: any change of op order shows here.
        keys = uniform_keys(12_000, 0, 3_000, rng=8)
        D, B = 4, 16
        cfg = SRMConfig.from_k(2, D, B)
        plan = FaultPlan(
            seed=11,
            read_fail_p=0.05,
            write_fail_p=0.05,
            torn_write_p=0.02,
            redundancy="parity",
        )

        def sort():
            system = ParallelDiskSystem(D, B, timing=DISK_1996)
            system.attach_faults(plan)
            infile = StripedFile.from_records(system, keys)
            tel = Telemetry()
            col = tel.attach_trace()
            system.tracer = SystemTracer(col, col.new_domain("demand"))
            res = srm_mergesort(system, infile, cfg, rng=4, telemetry=tel)
            system.tracer.finish(system.elapsed_ms)
            out = res.peek_sorted()
            assert np.array_equal(out, np.sort(keys))
            stats = system.faults.stats
            assert stats.retries > 0 and stats.torn_writes_detected > 0
            assert res.n_merge_passes > 1
            assert len(col.records) > 1000 and col.dropped == 0
            trace = [
                (r.kind, r.cat, r.lane, r.domain, r.queue_ms, r.start_ms,
                 r.end_ms, r.dep, r.attrs)
                for r in col.records
            ]
            return (
                out.tobytes(),
                io_tuple(res.io),
                system.elapsed_ms,
                stats.snapshot(),
                trace,
            )

        outs = both_mergers(sort)
        assert outs["heapq"] == outs["plane"]
