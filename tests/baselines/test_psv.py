"""Tests for the Pai-Schaffer-Varman one-run-per-disk baseline (§2.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    psv_merge,
    psv_mergesort,
    write_single_disk_runs_parallel,
)
from repro.disks import ParallelDiskSystem, StripedFile
from repro.errors import ConfigError, DataError


def _records(*arrays, payloads=False):
    """``(keys, payloads)`` pairs for ``write_single_disk_runs_parallel``."""
    return [(np.asarray(a), np.asarray(a) * 2 if payloads else None) for a in arrays]


class TestSingleDiskRuns:
    def test_run_lives_on_one_disk(self):
        sys = ParallelDiskSystem(4, 2)
        runs = write_single_disk_runs_parallel(
            sys, _records(np.arange(2), np.arange(4), np.arange(10)), 0
        )
        assert all(a.disk == 2 for a in runs[2].addresses)
        assert runs[2].n_blocks == 5

    def test_single_disk_write_serializes(self):
        sys = ParallelDiskSystem(4, 2)
        write_single_disk_runs_parallel(sys, _records(np.arange(10)), 0)
        # 5 blocks on one disk: 5 operations (no write parallelism!).
        assert sys.stats.parallel_writes == 5

    def test_parallel_placement_writes_stripes(self):
        sys = ParallelDiskSystem(4, 2)
        runs = write_single_disk_runs_parallel(
            sys, _records(*[np.arange(i * 8, (i + 1) * 8) for i in range(4)]), 0
        )
        # 4 runs x 4 blocks written as 4 full stripes.
        assert sys.stats.parallel_writes == 4
        assert [r.disk for r in runs] == [0, 1, 2, 3]

    def test_ragged_parallel_placement(self):
        sys = ParallelDiskSystem(4, 2)
        runs = write_single_disk_runs_parallel(
            sys, _records(np.arange(8), np.arange(8, 12)), 0
        )
        assert runs[0].n_blocks == 4 and runs[1].n_blocks == 2

    def test_payloads_travel_with_their_keys(self):
        sys = ParallelDiskSystem(2, 2)
        runs = write_single_disk_runs_parallel(
            sys, _records(np.arange(5), np.arange(3), payloads=True), 0
        )
        for run, n in zip(runs, (5, 3)):
            keys, pays = sys.peek_records(run.addresses)
            assert np.array_equal(keys, np.arange(n))
            assert np.array_equal(pays, np.arange(n) * 2)

    def test_too_many_runs(self):
        sys = ParallelDiskSystem(2, 2)
        with pytest.raises(ConfigError):
            write_single_disk_runs_parallel(sys, _records(*[np.arange(2)] * 3), 0)

    def test_unsorted_rejected(self):
        sys = ParallelDiskSystem(2, 2)
        with pytest.raises(DataError):
            write_single_disk_runs_parallel(sys, _records(np.array([2, 1])), 0)


class TestPSVMerge:
    def _runs(self, sys, arrays):
        return write_single_disk_runs_parallel(sys, _records(*arrays), 0)

    def test_merges_correctly(self):
        sys = ParallelDiskSystem(2, 2)
        runs = self._runs(sys, [np.arange(0, 20, 2), np.arange(1, 21, 2)])
        res = psv_merge(sys, runs, buffer_blocks_per_run=2)
        out = np.concatenate(
            [sys.disks[a.disk].read(a.slot).keys for a in res.output.addresses]
        )
        assert np.array_equal(out, np.arange(20))

    def test_balanced_runs_read_in_full_stripes(self):
        # Lockstep interleaved runs: every read fetches one block/run.
        sys = ParallelDiskSystem(2, 2)
        N = 40
        runs = self._runs(sys, [np.arange(0, N, 2), np.arange(1, N, 2)])
        res = psv_merge(sys, runs, buffer_blocks_per_run=2)
        assert res.parallel_reads == N // 2 // 2  # blocks per run

    def test_skewed_runs_serialize_reads(self):
        # One run entirely smaller: its disk becomes the bottleneck.
        sys = ParallelDiskSystem(2, 2)
        runs = self._runs(sys, [np.arange(0, 40), np.arange(100, 140)])
        res = psv_merge(sys, runs, buffer_blocks_per_run=2)
        # 20 + 20 blocks but reads are bounded below by the binding run
        # after its buffer (2 blocks) is exhausted.
        assert res.parallel_reads >= 20

    def test_buffer_cap_respected(self):
        sys = ParallelDiskSystem(4, 2)
        arrays = [np.arange(i, 64, 4) for i in range(4)]
        runs = self._runs(sys, arrays)
        res = psv_merge(sys, runs, buffer_blocks_per_run=3)
        assert res.max_buffered_blocks <= 4 * 3 + 4

    def test_output_striped_round_robin(self):
        sys = ParallelDiskSystem(2, 2)
        runs = self._runs(sys, [np.arange(0, 8, 2), np.arange(1, 9, 2)])
        res = psv_merge(sys, runs, 2)
        assert [a.disk for a in res.output.addresses] == [0, 1, 0, 1]

    def test_output_blocks_numbered_by_position(self):
        sys = ParallelDiskSystem(2, 2)
        runs = self._runs(sys, [np.arange(0, 20, 2), np.arange(1, 21, 2)])
        res = psv_merge(sys, runs, 2)
        assert [sys.peek(a).index for a in res.output.addresses] == list(range(10))

    def test_same_disk_runs_rejected(self):
        sys = ParallelDiskSystem(2, 2)
        # Each one-run call puts its run on disk 0.
        (a,) = self._runs(sys, [np.arange(4)])
        (b,) = write_single_disk_runs_parallel(sys, _records(np.arange(4, 8)), 1)
        assert a.disk == b.disk == 0
        with pytest.raises(ConfigError):
            psv_merge(sys, [a, b], 2)

    def test_single_run_rejected(self):
        sys = ParallelDiskSystem(2, 2)
        (a,) = self._runs(sys, [np.arange(4)])
        with pytest.raises(DataError):
            psv_merge(sys, [a], 2)


class TestPSVSort:
    def test_sorts(self, rng):
        sys = ParallelDiskSystem(4, 8)
        keys = rng.permutation(4096)
        infile = StripedFile.from_records(sys, keys)
        res = psv_mergesort(sys, infile, run_length=128)
        assert np.array_equal(res.peek_sorted(), np.sort(keys))

    def test_transposition_passes_counted(self, rng):
        sys = ParallelDiskSystem(4, 8)
        keys = rng.permutation(8192)  # 64 runs, D=4 -> 3 merge passes
        infile = StripedFile.from_records(sys, keys)
        res = psv_mergesort(sys, infile, run_length=128)
        assert res.n_merge_passes == 3
        # Every pass after the first consumes striped outputs.
        assert res.n_transpositions == 2

    def test_uses_more_ios_than_srm(self, rng):
        """The paper's §2.2 contrast, executed on identical inputs."""
        from repro.core import SRMConfig, srm_mergesort

        keys = rng.permutation(8192)
        sys_a = ParallelDiskSystem(4, 8)
        res_psv = psv_mergesort(
            sys_a, StripedFile.from_records(sys_a, keys), run_length=128
        )
        sys_b = ParallelDiskSystem(4, 8)
        res_srm = srm_mergesort(
            sys_b,
            StripedFile.from_records(sys_b, keys),
            SRMConfig.from_k(2, 4, 8),
            rng=1,
            run_length=128,
        )
        assert res_psv.total_parallel_ios > res_srm.io.parallel_ios

    def test_single_run_degenerate(self, rng):
        sys = ParallelDiskSystem(4, 8)
        keys = rng.permutation(100)
        infile = StripedFile.from_records(sys, keys)
        res = psv_mergesort(sys, infile, run_length=128)
        assert res.n_merge_passes == 0
        assert np.array_equal(res.peek_sorted(), np.sort(keys))

    @pytest.mark.parametrize("n", [100, 4096])  # one run, several passes
    def test_output_blocks_numbered_by_position(self, rng, n):
        sys = ParallelDiskSystem(4, 8)
        infile = StripedFile.from_records(sys, rng.permutation(n))
        res = psv_mergesort(sys, infile, run_length=128)
        indexes = [sys.peek(a).index for a in res.output.addresses]
        assert indexes == list(range(-(-n // 8)))

    def test_torn_writes_scrubbed_from_output(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(
            seed=5, torn_write_p=0.05, write_fail_p=0.02, read_fail_p=0.02,
            redundancy="parity",
        )
        sys = ParallelDiskSystem(4, 8)
        sys.attach_faults(plan)
        keys = np.random.default_rng(3_004).integers(0, 1_000, size=3_000)
        infile = StripedFile.from_records(sys, keys)
        res = psv_mergesort(sys, infile, run_length=64, buffer_blocks_per_run=2)
        stats = sys.faults.stats
        assert stats.torn_writes_injected > 0
        assert stats.torn_writes_detected == stats.torn_writes_injected
        assert np.array_equal(res.peek_sorted(), np.sort(keys))

    def test_payloads_stay_with_their_keys(self):
        # 3,000 keys, D=4, B=8, runs of 64: payloads used to be dropped.
        sys = ParallelDiskSystem(4, 8)
        keys = np.random.default_rng(3_004).integers(0, 1_000, size=3_000)
        infile = StripedFile.from_records(sys, keys, payloads=keys * 2)
        res = psv_mergesort(sys, infile, run_length=64)
        out_keys, out_pays = sys.peek_records(res.output.addresses)
        assert out_pays is not None
        assert np.array_equal(out_keys, np.sort(keys))
        assert np.array_equal(out_pays, out_keys * 2)

    def test_mmap_backend_matches_memory(self):
        # A merge buffer outlives its freed slot; on mmap the slot's
        # reuse must not rewrite buffered records.
        keys = np.random.default_rng(3_004).integers(0, 1_000, size=3_000)
        out = []
        for backend in ("memory", "mmap"):
            with ParallelDiskSystem(4, 8, backend=backend) as sys:
                infile = StripedFile.from_records(
                    sys, keys, payloads=np.arange(keys.size)
                )
                res = psv_mergesort(sys, infile, run_length=64, buffer_blocks_per_run=2)
                out.append(res.peek_sorted_records())
        (mem_keys, mem_pays), (mm_keys, mm_pays) = out
        assert np.array_equal(mm_keys, np.sort(keys))
        assert np.array_equal(keys[mm_pays], mm_keys)
        assert np.array_equal(mm_pays, mem_pays)

    def test_telemetry_spans_close_and_cycles_add_up(self, rng):
        from repro.telemetry import Telemetry
        from repro.telemetry.schema import H_DRAIN_BATCH, MERGE_DRAIN_CYCLES, SPAN_MERGE

        sys = ParallelDiskSystem(4, 8)
        infile = StripedFile.from_records(sys, rng.permutation(3_000))
        tel = Telemetry()
        psv_mergesort(sys, infile, run_length=64, buffer_blocks_per_run=2, telemetry=tel)
        events = tel.finish()  # raises ScheduleError if a span were left open
        merges = [e for e in events if e["type"] == "span" and e["name"] == SPAN_MERGE]
        cycles = sum(e["attrs"]["heap_cycles"] for e in merges)
        metrics = events[-1]["metrics"]
        assert len(merges) == 12 + 3 + 1  # 47 runs, merged 4 at a time
        assert metrics[MERGE_DRAIN_CYCLES]["value"] == cycles > 0
        assert metrics[H_DRAIN_BATCH]["n"] == cycles
        assert metrics[H_DRAIN_BATCH]["total"] == 3_000 * 3  # every pass

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 2000))
    @settings(max_examples=15, deadline=None)
    def test_property_sorts(self, seed, n):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-(2**40), 2**40, size=n)
        sys = ParallelDiskSystem(3, 4)
        infile = StripedFile.from_records(sys, keys)
        res = psv_mergesort(sys, infile, run_length=32)
        assert np.array_equal(res.peek_sorted(), np.sort(keys))

    def test_validation(self, rng):
        sys = ParallelDiskSystem(1, 4)
        infile = StripedFile.from_records(sys, rng.permutation(64))
        with pytest.raises(ConfigError):
            psv_mergesort(sys, infile, run_length=32)
        sys2 = ParallelDiskSystem(2, 4)
        empty = StripedFile.from_records(sys2, np.array([], dtype=np.int64))
        with pytest.raises(ConfigError):
            psv_mergesort(sys2, empty, run_length=32)
    # Every setting is checked before emptiness, and all of them before
    # any span opens or any I/O is charged.
    @pytest.mark.parametrize(
        "n_disks, run_length, buffer_blocks, n, match",
        [
            (1, 64, 4, 1_000, "two disks"),
            (4, 4, 4, 1_000, "smaller than one block"),
            (4, 64, 0, 1_000, "buffer block"),
            (4, 64, 0, 0, "buffer block"),
            (4, 64, 4, 0, "empty"),
        ],
        ids=["one-disk", "run-length", "buffers", "buffers-before-empty", "empty"],
    )
    def test_rejected_before_any_io_or_span(
        self, n_disks, run_length, buffer_blocks, n, match
    ):
        from repro.telemetry import Telemetry

        sys = ParallelDiskSystem(n_disks, 8)
        infile = StripedFile.from_records(
            sys, np.random.default_rng(0).permutation(n)
        )
        tel = Telemetry()
        with pytest.raises(ConfigError, match=match):
            psv_mergesort(
                sys,
                infile,
                run_length,
                buffer_blocks_per_run=buffer_blocks,
                telemetry=tel,
            )
        assert sys.stats.parallel_ios == 0
        tel.finish()  # raises ScheduleError if a span were left open
