"""Tests for initial run formation (paper §2.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.run_formation as run_formation
from repro.core import (
    LayoutStrategy,
    form_runs_load_sort,
    form_runs_replacement_selection,
)
from repro.disks import ParallelDiskSystem, StripedFile
from repro.errors import ConfigError
from tests.oracles import replacement_selection_record


def _zigzag(t, p):
    v = t % (2 * p)
    return np.where(v < p, v, 2 * p - 1 - v)


#: Hard inputs for run generation (Bender et al., *Run Generation
#: Revisited*), generated locally: ``shape(t, n, M, B, rng)`` for
#: arrival index ``t``.
ADVERSARIAL = {
    "updown_B": lambda t, n, M, B, rng: _zigzag(t, B),
    "updown_M": lambda t, n, M, B, rng: _zigzag(t, M),
    "alternate": lambda t, n, M, B, rng: np.where(t % 2 == 0, t, n - t),
    "presorted": lambda t, n, M, B, rng: t,
    "presorted_noise": lambda t, n, M, B, rng: t + rng.integers(-8, 9, n),
    "reverse": lambda t, n, M, B, rng: n - t,
    "all_equal": lambda t, n, M, B, rng: np.zeros(n, dtype=np.int64),
    "few_distinct": lambda t, n, M, B, rng: rng.integers(0, 3, n),
}


def adversarial_keys(shape, n, M, B, seed=0):
    t = np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return ADVERSARIAL[shape](t, n, M, B, rng).astype(np.int64)


def make_input(D=4, B=4, n=200, seed=0):
    system = ParallelDiskSystem(D, B)
    keys = np.random.default_rng(seed).permutation(n)
    return system, keys, StripedFile.from_records(system, keys)


class TestLoadSort:
    def test_runs_are_sorted_and_cover_input(self):
        system, keys, infile = make_input()
        runs = form_runs_load_sort(system, infile, run_length=64, rng=1)
        all_keys = np.concatenate([r.read_all(system) for r in runs])
        assert np.array_equal(np.sort(all_keys), np.sort(keys))
        for r in runs:
            data = r.read_all(system)
            assert np.all(data[:-1] <= data[1:])

    def test_run_count(self):
        system, _, infile = make_input(n=200, B=4)
        runs = form_runs_load_sort(system, infile, run_length=64, rng=1)
        # 50 blocks, 16 blocks per run -> ceil(50/16) = 4 runs.
        assert len(runs) == 4

    def test_run_lengths_block_aligned(self):
        system, _, infile = make_input(n=200, B=4)
        runs = form_runs_load_sort(system, infile, run_length=70, rng=1)
        # 70 records rounds down to 17 blocks = 68 records per run.
        assert runs[0].n_records == 68

    def test_io_accounting(self):
        system, _, infile = make_input(D=4, B=4, n=256)
        system.stats.reset()
        form_runs_load_sort(system, infile, run_length=64, rng=1)
        # Each record read once and written once at full parallelism:
        # 64 blocks / 4 disks = 16 reads; same for writes.
        assert system.stats.parallel_reads == 16
        assert system.stats.parallel_writes == 16

    def test_input_freed(self):
        system, _, infile = make_input(n=64)
        runs = form_runs_load_sort(system, infile, run_length=64, rng=1)
        assert system.used_blocks == sum(r.n_blocks for r in runs)

    def test_input_kept_when_requested(self):
        system, _, infile = make_input(n=64, B=4)
        form_runs_load_sort(system, infile, 64, rng=1, free_input=False)
        assert system.used_blocks == 2 * infile.n_blocks

    def test_start_disk_strategy(self):
        system, _, infile = make_input(D=4, B=4, n=256)
        runs = form_runs_load_sort(
            system, infile, 64, strategy=LayoutStrategy.ROUND_ROBIN
        )
        assert [r.start_disk for r in runs] == [0, 1, 2, 3]

    def test_empty_file(self):
        system = ParallelDiskSystem(2, 4)
        infile = StripedFile.from_records(system, np.array([], dtype=np.int64))
        assert form_runs_load_sort(system, infile, 64) == []

    def test_run_length_below_block_rejected(self):
        system, _, infile = make_input(B=8)
        with pytest.raises(ConfigError):
            form_runs_load_sort(system, infile, run_length=4)


@pytest.mark.parametrize(
    "form",
    [
        lambda system, infile: form_runs_load_sort(system, infile, 64, rng=1),
        lambda system, infile: form_runs_replacement_selection(system, infile, 32, rng=1),
    ],
    ids=["load_sort", "replacement_selection"],
)
def test_each_run_stripe_allocated_just_before_its_write(form):
    # Both methods write a run as the merge writes its output: a full
    # D-block stripe per parallel write, its slots allocated just before.
    system, _, infile = make_input()
    calls = []
    allocate, write_stripe = system.allocate, system.write_stripe
    system.allocate = lambda d: calls.append("alloc") or allocate(d)
    system.write_stripe = lambda w: calls.append(len(w)) or write_stripe(w)
    runs = form(system, infile)
    expected = []
    for run in runs:
        for lo in range(0, run.n_blocks, system.n_disks):
            k = min(system.n_disks, run.n_blocks - lo)
            expected += ["alloc"] * k + [k]
    assert calls == expected
    assert max(r.n_blocks for r in runs) > system.n_disks


class TestReplacementSelection:
    def test_runs_cover_input_sorted(self):
        system, keys, infile = make_input(n=300, seed=3)
        runs = form_runs_replacement_selection(system, infile, memory_records=32, rng=2)
        all_keys = np.concatenate([r.read_all(system) for r in runs])
        assert np.array_equal(np.sort(all_keys), np.sort(keys))
        for r in runs:
            data = r.read_all(system)
            assert np.all(data[:-1] <= data[1:])

    def test_expected_run_length_about_2m(self):
        # Knuth: random input gives mean run length ~ 2M.
        system, _, infile = make_input(n=4000, seed=7)
        M = 50
        runs = form_runs_replacement_selection(system, infile, memory_records=M, rng=2)
        mean_len = np.mean([r.n_records for r in runs])
        assert 1.4 * M <= mean_len <= 2.8 * M

    def test_sorted_input_yields_single_run(self):
        system = ParallelDiskSystem(2, 4)
        keys = np.arange(100)
        infile = StripedFile.from_records(system, keys)
        runs = form_runs_replacement_selection(system, infile, memory_records=8)
        assert len(runs) == 1
        assert np.array_equal(runs[0].read_all(system), keys)

    def test_reverse_sorted_input_yields_runs_of_m(self):
        system = ParallelDiskSystem(2, 4)
        keys = np.arange(100)[::-1].copy()
        infile = StripedFile.from_records(system, keys)
        M = 10
        runs = form_runs_replacement_selection(system, infile, memory_records=M)
        # Worst case: every run has exactly M records.
        assert all(r.n_records == M for r in runs)

    def test_fewer_records_than_memory(self):
        system, keys, infile = make_input(n=20)
        runs = form_runs_replacement_selection(system, infile, memory_records=100, rng=1)
        assert len(runs) == 1
        assert np.array_equal(runs[0].read_all(system), np.sort(keys))

    def test_invalid_memory(self):
        system, _, infile = make_input()
        with pytest.raises(ConfigError):
            form_runs_replacement_selection(system, infile, memory_records=0)

    def test_produces_fewer_runs_than_load_sort(self):
        # The paper's §2.1 point: replacement selection halves the runs.
        sys_a, _, file_a = make_input(n=2000, seed=11)
        runs_ls = form_runs_load_sort(sys_a, file_a, run_length=40, rng=1)
        sys_b, _, file_b = make_input(n=2000, seed=11)
        runs_rs = form_runs_replacement_selection(sys_b, file_b, memory_records=40, rng=1)
        assert len(runs_rs) < len(runs_ls)


class TestReplacementSelectionEngines:
    """The block-granular plane must be bit-identical to the per-record oracle."""

    def _form(self, keys, M, form, D=3, B=4, seed=9, payloads=None, backend=None):
        with ParallelDiskSystem(D, B, backend=backend) as system:
            infile = StripedFile.from_records(system, keys, payloads=payloads)
            before = system.stats.snapshot()
            runs = form(system, infile, M, rng=seed)
            io = system.stats.since(before)
            contents = [
                (
                    a.disk,
                    a.slot,
                    system.disks[a.disk].read(a.slot).keys.tobytes(),
                    None
                    if payloads is None
                    else system.disks[a.disk].read(a.slot).payloads.tobytes(),
                )
                for r in runs
                for a in r.addresses
            ]
        return contents, (
            io.parallel_reads,
            io.parallel_writes,
            io.blocks_read,
            io.blocks_written,
            io.reads_per_disk.tolist(),
            io.writes_per_disk.tolist(),
        )

    def _assert_engines_agree(self, keys, M, payloads=None, **kw):
        rec = self._form(keys, M, replacement_selection_record, payloads=payloads, **kw)
        blk = self._form(keys, M, form_runs_replacement_selection, payloads=payloads, **kw)
        assert rec == blk

    def test_random_input(self):
        keys = np.random.default_rng(0).permutation(5_000).astype(np.int64)
        self._assert_engines_agree(keys, 400)

    def test_sorted_input(self):
        self._assert_engines_agree(np.arange(1_000, dtype=np.int64), 100)

    def test_reverse_sorted_input(self):
        self._assert_engines_agree(
            np.arange(1_000, dtype=np.int64)[::-1].copy(), 100
        )

    def test_duplicate_heavy_input(self):
        keys = np.random.default_rng(1).integers(0, 7, size=3_000).astype(np.int64)
        self._assert_engines_agree(keys, 250)

    def test_payloads_follow_their_keys(self):
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 40, size=2_000).astype(np.int64)
        payloads = np.arange(keys.size, dtype=np.int64)
        self._assert_engines_agree(keys, 180, payloads=payloads)

    def test_tiny_memory(self):
        keys = np.random.default_rng(3).permutation(500).astype(np.int64)
        self._assert_engines_agree(keys, 1)
        self._assert_engines_agree(keys, 2)

    def test_memory_larger_than_input(self):
        keys = np.random.default_rng(4).permutation(100).astype(np.int64)
        self._assert_engines_agree(keys, 5_000)

    @pytest.mark.parametrize(
        "keys,M",
        [
            pytest.param(
                np.random.default_rng(6).integers(0, 8, 3_000), 250, id="ties"
            ),
            pytest.param(np.arange(2_000), 300, id="sorted"),
            pytest.param(np.arange(2_000)[::-1].copy(), 300, id="reverse"),
        ],
    )
    def test_mmap_backend_with_payloads(self, keys, M):
        # Slot records on mmap are decoded from the files: ties must keep
        # their payloads in arrival order there too.
        keys = keys.astype(np.int64)
        payloads = np.random.default_rng(7).permutation(keys.size).astype(np.int64)
        self._assert_engines_agree(
            keys, M, payloads=payloads, D=4, B=16, backend="mmap"
        )
        if np.all(keys[1:] >= keys[:-1]):  # sorted input: one run of it all
            with ParallelDiskSystem(4, 16, backend="mmap") as system:
                infile = StripedFile.from_records(system, keys, payloads=payloads)
                runs = form_runs_replacement_selection(system, infile, M, rng=9)
                assert [r.n_records for r in runs] == [keys.size]

    def test_default_layout_covers_input(self):
        system, keys, infile = make_input(n=400)
        runs = form_runs_replacement_selection(system, infile, 64, rng=1)
        got = np.concatenate([r.read_all(system) for r in runs])
        assert np.array_equal(np.sort(got), np.sort(keys))

    @pytest.mark.parametrize("D,B", [(3, 4), (4, 16), (2, 1)])
    @pytest.mark.parametrize("M", [1, 2, 7, 333])
    @pytest.mark.parametrize("shape", list(ADVERSARIAL))
    def test_adversarial_input(self, shape, M, D, B):
        keys = adversarial_keys(shape, 1_000, M, B)
        payloads = np.arange(keys.size, dtype=np.int64)[::-1].copy()
        self._assert_engines_agree(keys, M, D=D, B=B)
        self._assert_engines_agree(keys, M, payloads=payloads, D=D, B=B)

    def test_every_slice_bisects_at_minimum_round_cap(self, monkeypatch):
        # One round decides only slices none of whose accepted records
        # is emitted within the slice; every other slice bisects.
        monkeypatch.setattr(run_formation, "_ROUNDS", 1)
        bisected = []
        accepted = run_formation._BlockReplacementSelection._accepted

        def spy(self, xk):
            mask = accepted(self, xk)
            bisected.append(mask is None)
            return mask

        monkeypatch.setattr(
            run_formation._BlockReplacementSelection, "_accepted", spy
        )
        rng = np.random.default_rng(5)
        keys = rng.integers(0, 50, size=2_000).astype(np.int64)
        payloads = np.arange(keys.size, dtype=np.int64)
        self._assert_engines_agree(keys, 90, payloads=payloads, D=4, B=16)
        self._assert_engines_agree(adversarial_keys("alternate", 2_000, 90, 16), 90)
        assert any(bisected)

    @given(
        keys=st.lists(st.integers(-4, 4), max_size=300),
        M=st.integers(1, 40),
        D=st.integers(1, 4),
        B=st.integers(1, 8),
        with_payloads=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_property(self, keys, M, D, B, with_payloads):
        keys = np.asarray(keys, dtype=np.int64)
        payloads = np.arange(keys.size, dtype=np.int64) if with_payloads else None
        self._assert_engines_agree(keys, M, payloads=payloads, D=D, B=B)
