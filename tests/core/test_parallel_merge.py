"""Tests for the process-parallel Merge Path data plane.

The contract under test: ``parallel_merge_runs`` is a drop-in for the
serial ``merge_runs`` demand path — same output records, same
ParRead/flush schedule, same I/O counters, same write stripes — at
every worker count.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.merge import merge_runs
from repro.core.parallel_merge import corank_cuts, parallel_merge_runs
from repro.disks import MmapFileBackend, ParallelDiskSystem
from repro.errors import ConfigError, DataError
from repro.faults.plan import FaultPlan
from tests.oracles import write_run


def build_runs(system, R=4, run_len=100, seed=0, dups=False, payloads=False):
    """Write R sorted runs onto *system* and return them."""
    rng = np.random.default_rng(seed)
    runs = []
    for r in range(R):
        if dups:
            keys = np.sort(rng.integers(0, 17, run_len))
        else:
            keys = np.sort(rng.integers(-(2**40), 2**40, run_len))
        pay = None
        if payloads:
            pay = rng.integers(0, 2**30, run_len)
        runs.append(
            write_run(
                system,
                keys,
                run_id=r,
                start_disk=r % system.n_disks,
                payloads=pay,
            )
        )
    return runs


def serial_reference(D=4, B=8, **run_kw):
    """Run the serial demand merge on a fresh memory system."""
    sys_ = ParallelDiskSystem(D, B)
    runs = build_runs(sys_, **run_kw)
    res = merge_runs(sys_, runs, output_run_id=99, output_start_disk=0,
                     validate=True)
    return sys_, res


def parallel_case(tmp_path, workers, D=4, B=8, backend=None, **run_kw):
    """Run the parallel plane on an identically prepared system."""
    if backend is None:
        backend = MmapFileBackend(workdir=str(tmp_path / f"w{workers}"))
    sys_ = ParallelDiskSystem(D, B, backend=backend)
    runs = build_runs(sys_, **run_kw)
    res = parallel_merge_runs(sys_, runs, output_run_id=99,
                              output_start_disk=0, workers=workers,
                              validate=True)
    return sys_, res


def assert_equivalent(serial, parallel):
    """Outputs, schedules and I/O counters must match bit-for-bit."""
    s_sys, s_res = serial
    p_sys, p_res = parallel
    assert s_res.n_records == p_res.n_records
    assert s_res.schedule == p_res.schedule
    # IOStats holds numpy arrays; dataclass == is ambiguous, compare repr.
    assert str(s_res.io) == str(p_res.io)
    out_s, out_p = s_res.output, p_res.output
    assert out_s.start_disk == out_p.start_disk
    assert [a.disk for a in out_s.addresses] == [a.disk for a in out_p.addresses]
    assert np.array_equal(out_s.first_keys, out_p.first_keys)
    assert np.array_equal(out_s.last_keys, out_p.last_keys)
    ks, ps = out_s.read_all_records(s_sys)
    kp, pp = out_p.read_all_records(p_sys)
    assert np.array_equal(ks, kp)
    if ps is None:
        assert pp is None
    else:
        assert np.array_equal(ps, pp)


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_random_keys(self, tmp_path, workers):
        kw = dict(R=5, run_len=93, seed=3)
        assert_equivalent(serial_reference(**kw),
                          parallel_case(tmp_path, workers, **kw))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_duplicate_heavy(self, tmp_path, workers):
        # Tiny key universe: every cut lands inside a tie group, so the
        # (key, run, position) tie-break must be exact.
        kw = dict(R=6, run_len=80, seed=7, dups=True)
        assert_equivalent(serial_reference(**kw),
                          parallel_case(tmp_path, workers, **kw))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_payloads(self, tmp_path, workers):
        kw = dict(R=4, run_len=77, seed=11, dups=True, payloads=True)
        assert_equivalent(serial_reference(**kw),
                          parallel_case(tmp_path, workers, **kw))

    def test_partial_final_blocks(self, tmp_path):
        # run_len % B != 0 and run_len < B both exercised.
        kw = dict(R=3, run_len=13, seed=5)
        assert_equivalent(serial_reference(B=8, **kw),
                          parallel_case(tmp_path, 2, B=8, **kw))

    def test_workers_exceed_records(self, tmp_path):
        # More workers than output blocks: empty ranges must be dropped.
        kw = dict(R=2, run_len=5, seed=9)
        assert_equivalent(serial_reference(B=4, **kw),
                          parallel_case(tmp_path, 4, B=4, **kw))

    def test_inprocess_on_memory_backend(self, tmp_path):
        # workers=1 must work without the mmap backend.
        kw = dict(R=4, run_len=64, seed=13)
        sys_ = ParallelDiskSystem(4, 8)
        runs = build_runs(sys_, **kw)
        res = parallel_merge_runs(sys_, runs, output_run_id=99,
                                  output_start_disk=0, workers=1,
                                  validate=True)
        assert_equivalent(serial_reference(**kw), (sys_, res))


class TestCorankCuts:
    def test_cut_sizes_are_exact(self, tmp_path):
        sys_ = ParallelDiskSystem(4, 8)
        runs = build_runs(sys_, R=4, run_len=100, seed=1, dups=True)
        n = sum(r.n_records for r in runs)
        targets = [n // 4, n // 2, (3 * n) // 4]
        cuts, probes = corank_cuts(sys_, runs, targets)
        for t, row in zip(targets, cuts):
            assert sum(row) == t
            assert all(0 <= c <= r.n_records for c, r in zip(row, runs))
        assert probes >= 0

    def test_cuts_respect_global_order(self, tmp_path):
        # Records below a cut must all precede records above it under
        # the (key, run index) order used by the merge.
        sys_ = ParallelDiskSystem(2, 4)
        runs = build_runs(sys_, R=3, run_len=40, seed=2, dups=True)
        n = sum(r.n_records for r in runs)
        (row,), _ = corank_cuts(sys_, runs, [n // 2])
        below, above = [], []
        for r, run in enumerate(runs):
            keys = run.read_all(sys_)
            below += [(int(k), r) for k in keys[: row[r]]]
            above += [(int(k), r) for k in keys[row[r]:]]
        assert not below or not above or max(below) <= min(above)

    def test_rank_bounds(self):
        sys_ = ParallelDiskSystem(2, 4)
        runs = build_runs(sys_, R=2, run_len=10, seed=0)
        with pytest.raises(DataError):
            corank_cuts(sys_, runs, [21])
        cuts, _ = corank_cuts(sys_, runs, [0, 20])
        assert sum(cuts[0]) == 0
        assert sum(cuts[1]) == 20


class TestGuards:
    def test_pool_requires_mmap_backend(self):
        sys_ = ParallelDiskSystem(2, 4)
        runs = build_runs(sys_, R=2, run_len=10)
        with pytest.raises(ConfigError, match="mmap"):
            parallel_merge_runs(sys_, runs, 9, 0, workers=2)

    def test_rejects_faulty_system(self, tmp_path):
        sys_ = ParallelDiskSystem(
            4, 4, backend=MmapFileBackend(workdir=str(tmp_path))
        )
        runs = build_runs(sys_, R=2, run_len=10)
        sys_.attach_faults(FaultPlan(seed=1, read_fail_p=0.01))
        with pytest.raises(ConfigError, match="fault"):
            parallel_merge_runs(sys_, runs, 9, 0, workers=2)

    def test_rejects_bad_worker_count(self):
        sys_ = ParallelDiskSystem(2, 4)
        runs = build_runs(sys_, R=2, run_len=10)
        with pytest.raises(ConfigError):
            parallel_merge_runs(sys_, runs, 9, 0, workers=0)

    def test_needs_two_runs(self):
        sys_ = ParallelDiskSystem(2, 4)
        runs = build_runs(sys_, R=1, run_len=10)
        with pytest.raises(DataError):
            parallel_merge_runs(sys_, runs, 9, 0, workers=1)

    def test_overlap_plus_workers_rejected(self):
        from repro.core.config import OverlapConfig, SRMConfig
        from repro.core.mergesort import srm_sort

        rng = np.random.default_rng(0)
        # 50 keys form one run, so no merge ever runs: the combination
        # is still rejected, before run formation.
        for n in (50, 4000):
            keys = rng.integers(0, 10**6, n)
            with pytest.raises(ConfigError, match="overlap"):
                srm_sort(
                    keys,
                    SRMConfig(n_disks=4, block_size=16, merge_order=4),
                    overlap=OverlapConfig(),
                    merge_workers=2,
                    backend="mmap",
                )


class TestEndToEnd:
    def test_srm_sort_parallel_matches_memory(self):
        from repro.core.config import SRMConfig
        from repro.core.mergesort import srm_sort

        rng = np.random.default_rng(21)
        keys = rng.integers(-(2**50), 2**50, 6000)
        cfg = SRMConfig(n_disks=4, block_size=16, merge_order=4)
        ref_keys, ref = srm_sort(keys, cfg, rng=7)
        par_keys, par = srm_sort(keys, cfg, rng=7, backend="mmap",
                                 merge_workers=2)
        assert np.array_equal(ref_keys, par_keys)
        assert str(ref.io) == str(par.io)

    def test_telemetry_spans_emitted(self, tmp_path):
        from repro.telemetry import Telemetry
        from repro.telemetry.schema import SPAN_PMERGE

        tel = Telemetry()
        sys_ = ParallelDiskSystem(
            4, 8, backend=MmapFileBackend(workdir=str(tmp_path))
        )
        runs = build_runs(sys_, R=4, run_len=64, seed=4)
        parallel_merge_runs(sys_, runs, 9, 0, workers=2, telemetry=tel)
        names = [e["name"] for e in tel.events if e.get("type") == "span"]
        assert SPAN_PMERGE in names
