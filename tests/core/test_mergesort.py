"""End-to-end SRM mergesort tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.dsm import dsm_sort
from repro.core import (
    DSMConfig,
    LayoutStrategy,
    OverlapConfig,
    SRMConfig,
    partial_striping_sort,
    srm_mergesort,
    srm_sort,
)
from repro.disks import (
    DISK_1996,
    DISK_MODERN,
    MmapFileBackend,
    ParallelDiskSystem,
    StripedFile,
)
from repro.errors import ConfigError
from repro.faults import FaultPlan


def small_config(D=4, B=8, k=2):
    return SRMConfig.from_k(k, D, B)


class TestCorrectness:
    def test_basic_sort(self, rng):
        cfg = small_config()
        keys = rng.permutation(3000)
        out, res = srm_sort(keys, cfg, rng=1, validate=True)
        assert np.array_equal(out, np.sort(keys))
        assert res.output.n_records == 3000

    def test_already_sorted(self):
        cfg = small_config()
        keys = np.arange(1000)
        out, _ = srm_sort(keys, cfg, rng=1)
        assert np.array_equal(out, keys)

    def test_reverse_sorted(self):
        cfg = small_config()
        keys = np.arange(1000)[::-1].copy()
        out, _ = srm_sort(keys, cfg, rng=1)
        assert np.array_equal(out, np.arange(1000))

    def test_duplicates(self, rng):
        cfg = small_config()
        keys = rng.integers(0, 50, size=2000)
        out, _ = srm_sort(keys, cfg, rng=1)
        assert np.array_equal(out, np.sort(keys))

    def test_tiny_input_single_run(self):
        cfg = small_config()
        keys = np.array([5, 3, 1])
        out, res = srm_sort(keys, cfg, rng=1)
        assert np.array_equal(out, np.array([1, 3, 5]))
        assert res.n_merge_passes == 0

    def test_empty_input(self):
        # An empty input is one more rejected setting, checked after the
        # others, with srm_mergesort's error at every entry point.
        empty = np.array([], dtype=np.int64)
        with pytest.raises(ConfigError, match="empty"):
            srm_sort(empty, small_config())
        with pytest.raises(ConfigError, match="formation"):
            srm_sort(empty, small_config(), formation="bogus", merge_workers=-3)
        with pytest.raises(ConfigError, match="empty"):
            dsm_sort(empty, DSMConfig.from_memory(600, 4, 8))
        with pytest.raises(ConfigError, match="empty"):
            partial_striping_sort(empty, 2048, 4, 8, group_size=2)

    @given(
        seed=st.integers(0, 100_000),
        n=st.integers(1, 2000),
        d=st.integers(1, 5),
        b=st.integers(1, 6),
        k=st.integers(1, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_sorts_any_input(self, seed, n, d, b, k):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-(2**40), 2**40, size=n)
        cfg = SRMConfig(n_disks=d, block_size=b, merge_order=max(2, k * d))
        out, _ = srm_sort(keys, cfg, rng=rng, validate=True, run_length=max(b, 4 * b))
        assert np.array_equal(out, np.sort(keys))

    def test_replacement_selection_formation(self, rng):
        cfg = small_config()
        keys = rng.permutation(2000)
        out, res = srm_sort(
            keys, cfg, rng=2, formation="replacement_selection", run_length=100
        )
        assert np.array_equal(out, np.sort(keys))

    def test_all_layout_strategies_sort(self, rng):
        keys = rng.permutation(1500)
        for strat in LayoutStrategy:
            out, _ = srm_sort(keys, small_config(), strategy=strat, rng=3)
            assert np.array_equal(out, np.sort(keys))


class TestPassStructure:
    def test_pass_count_matches_log(self, rng):
        # 3000 records, runs of 96 -> 32 runs; R = 8 -> 2 merge passes.
        cfg = small_config(D=4, B=8, k=2)
        keys = rng.permutation(3072)
        _, res = srm_sort(keys, cfg, rng=1, run_length=96)
        assert res.runs_formed == 32
        assert res.n_merge_passes == 2

    def test_single_pass_when_runs_fit(self, rng):
        cfg = small_config(D=4, B=8, k=2)  # R = 8
        keys = rng.permutation(8 * 96)
        _, res = srm_sort(keys, cfg, rng=1, run_length=96)
        assert res.n_merge_passes == 1

    @staticmethod
    def _check_pass_accounting(rng, faults=None):
        # 32 runs of 96 keys, R = 8: two passes.  A retried read is charged
        # as backoff time, not as another round, so faults change no count.
        cfg = small_config(D=4, B=8, k=2)
        keys = rng.permutation(3072)
        _, res = srm_sort(keys, cfg, rng=1, run_length=96, faults=faults)
        stripes = 3072 // 8 // 4
        merges = iter(res.merge_schedules)
        for p in res.passes:
            assert p.parallel_writes == stripes  # perfect parallelism
            schedules = [next(merges) for _ in range(p.n_merges)]
            assert p.parallel_reads == sum(
                s.initial_reads + s.merge_parreads for s in schedules
            )
        assert next(merges, None) is None
        assert [p.parallel_reads for p in res.passes] == [111, 98]
        # Run formation reads and writes every stripe once; the passes
        # account for every other charged operation.
        assert res.io.parallel_reads == stripes + 209 == 305
        assert res.io.parallel_writes == stripes + 2 * stripes == 288
        return res

    def test_each_pass_reads_and_writes_every_block(self, rng):
        self._check_pass_accounting(rng)

    def test_each_pass_reconciles_under_read_faults(self, rng):
        res = self._check_pass_accounting(
            rng, FaultPlan(seed=3, read_fail_p=0.05)
        )
        assert res.system.faults.stats.retries > 0

    def test_leftover_run_carries_over_without_io(self, rng):
        # 9 runs with R = 8: pass 1 merges 8 and carries 1.
        cfg = small_config(D=4, B=8, k=2)
        keys = rng.permutation(9 * 96)
        _, res = srm_sort(keys, cfg, rng=1, run_length=96)
        assert res.passes[0].n_merges == 1
        assert res.passes[0].n_runs_out == 2
        assert res.n_merge_passes == 2

    def test_write_efficiency_is_perfect(self, rng):
        cfg = small_config()
        keys = rng.permutation(4096)
        _, res = srm_sort(keys, cfg, rng=1, run_length=128)
        assert res.io.write_efficiency == 1.0


class TestValidation:
    def test_geometry_mismatch(self, rng):
        system = ParallelDiskSystem(2, 8)
        infile = StripedFile.from_records(system, rng.permutation(100))
        with pytest.raises(ConfigError):
            srm_mergesort(system, infile, small_config(D=4))

    def test_empty_file_rejected(self):
        system = ParallelDiskSystem(4, 8)
        infile = StripedFile.from_records(system, np.array([], dtype=np.int64))
        with pytest.raises(ConfigError):
            srm_mergesort(system, infile, small_config())

    def test_unknown_formation(self, rng):
        system = ParallelDiskSystem(4, 8)
        infile = StripedFile.from_records(system, rng.permutation(100))
        with pytest.raises(ConfigError):
            srm_mergesort(system, infile, small_config(), formation="quantum")

    def test_unknown_formation_leaves_no_open_span(self, rng):
        from repro.telemetry import Telemetry

        system = ParallelDiskSystem(4, 8)
        infile = StripedFile.from_records(system, rng.permutation(100))
        tel = Telemetry()
        with pytest.raises(ConfigError):
            srm_mergesort(
                system, infile, small_config(), formation="bogus", telemetry=tel
            )
        tel.finish()  # raises ScheduleError if a span were left open

    # 50 keys form one run (no merge pass), 2,000 form several: every
    # setting is checked up front, whether or not a merge ever runs.
    @pytest.mark.parametrize("workers", [0, -2])
    def test_nonpositive_merge_workers_rejected(self, workers):
        for n in (50, 2_000):
            keys = np.random.default_rng(0).permutation(n)
            with pytest.raises(ConfigError, match="merge_workers"):
                srm_sort(keys, small_config(), rng=1, merge_workers=workers)

    @pytest.mark.parametrize("n", [50, 2_000])
    def test_pooled_workers_need_mmap_backend(self, n):
        keys = np.random.default_rng(0).permutation(n)
        with pytest.raises(ConfigError, match="mmap"):
            srm_sort(keys, small_config(), rng=1, merge_workers=2)

    @pytest.mark.parametrize("n", [50, 2_000])
    def test_pooled_workers_reject_faults(self, n):
        keys = np.random.default_rng(0).permutation(n)
        with pytest.raises(ConfigError, match="fault"):
            srm_sort(
                keys,
                small_config(),
                rng=1,
                merge_workers=2,
                backend="mmap",
                faults=FaultPlan(seed=1, read_fail_p=0.01),
            )

    @pytest.mark.parametrize(
        "backend, faults, n, kwargs, match",
        [
            ("mmap", False, 2_000, {"merge_workers": 0}, "merge_workers"),
            ("mmap", False, 2_000, {"merge_workers": 2, "overlap": OverlapConfig()}, "overlap"),
            ("memory", False, 2_000, {"merge_workers": 2}, "mmap"),
            ("mmap", True, 2_000, {"merge_workers": 2}, "fault"),
            ("mmap", False, 2_000, {"formation": "bogus"}, "formation"),
            ("mmap", False, 0, {}, "empty"),
            ("memory", False, 2_000, {"run_length": 3}, "smaller than one block"),
            (
                "memory",
                False,
                2_000,
                {"run_length": 0, "formation": "replacement_selection"},
                "at least 1 record",
            ),
        ],
        ids=[
            "workers",
            "overlap",
            "memory-backend",
            "faults",
            "formation",
            "empty",
            "run-length-load-sort",
            "run-length-replacement-selection",
        ],
    )
    def test_rejected_before_any_io_or_span(self, backend, faults, n, kwargs, match):
        from repro.telemetry import Telemetry

        with ParallelDiskSystem(4, 8, backend=backend) as system:
            if faults:
                system.attach_faults(FaultPlan(seed=1, read_fail_p=0.01))
            keys = np.random.default_rng(0).permutation(n)
            infile = StripedFile.from_records(system, keys)
            tel = Telemetry()
            with pytest.raises(ConfigError, match=match):
                srm_mergesort(
                    system, infile, small_config(), rng=1, telemetry=tel, **kwargs
                )
            assert system.stats.parallel_ios == 0
            tel.finish()  # raises ScheduleError if a span were left open

    def test_rejected_sort_removes_its_scratch_files(self, tmp_path):
        workdir = tmp_path / "disks"
        backend = MmapFileBackend(workdir=str(workdir), keep_files=False)
        keys = np.random.default_rng(0).permutation(2_000)
        with pytest.raises(ConfigError, match="overlap"):
            srm_sort(
                keys,
                small_config(),
                overlap=OverlapConfig(),
                merge_workers=2,
                backend=backend,
            )
        assert not workdir.exists()

    def test_one_merge_worker_is_serial(self):
        keys = np.random.default_rng(0).permutation(2_000)
        out, res = srm_sort(keys, small_config(), rng=1, merge_workers=1)
        _, ref = srm_sort(keys, small_config(), rng=1)
        assert np.array_equal(out, np.sort(keys))
        assert res.merge_schedules == ref.merge_schedules


class TestOverlapTiming:
    """The overlap engine times disks with the system's own model."""

    @staticmethod
    def _makespan(timing):
        keys = np.random.default_rng(0).permutation(20_000)
        system = ParallelDiskSystem(4, 16, timing=timing)
        infile = StripedFile.from_records(system, keys)
        res = srm_mergesort(
            system,
            infile,
            SRMConfig.from_k(2, 4, 16),
            rng=1,
            overlap=OverlapConfig(mode="full"),
        )
        return res.simulated_merge_ms

    def test_engine_uses_system_timing(self):
        old = self._makespan(DISK_1996)
        assert self._makespan(DISK_MODERN) < old
        # A system without a model is timed as DISK_1996, bit for bit.
        assert self._makespan(None) == old
