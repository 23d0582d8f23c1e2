"""Tests for the SRM I/O scheduler (paper §5.5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MergeJob, MergeScheduler
from repro.errors import ScheduleError


def make_job(runs, B=2, D=3, starts=None):
    return MergeJob.from_key_runs(
        runs, B, D, start_disks=starts if starts is not None else [0] * len(runs)
    )


def interleaved_runs(R, n_blocks, B):
    """R runs whose records interleave perfectly (maximal switch rate)."""
    N = R * n_blocks * B
    return [np.arange(i, N, R) for i in range(R)]


class TestInitialLoad:
    def test_i0_is_max_start_disk_occupancy(self):
        runs = interleaved_runs(5, 2, 2)
        job = make_job(runs, D=4, starts=[0, 0, 0, 1, 2])
        sched = MergeScheduler(job)
        assert sched.initial_load() == 3  # three runs start on disk 0

    def test_initial_blocks_resident(self):
        job = make_job(interleaved_runs(3, 2, 2), D=3, starts=[0, 1, 2])
        sched = MergeScheduler(job)
        sched.initial_load()
        for r in range(3):
            assert sched.is_resident(r, 0)

    def test_double_load_rejected(self):
        job = make_job(interleaved_runs(2, 2, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job)
        sched.initial_load()
        with pytest.raises(ScheduleError):
            sched.initial_load()

    def test_read_callback_sees_stripes(self):
        seen = []
        job = make_job(interleaved_runs(4, 2, 2), D=2, starts=[0, 0, 1, 1])
        sched = MergeScheduler(job, on_read=seen.append)
        sched.initial_load()
        assert len(seen) == 2  # 4 runs over 2 disks, 2 per disk
        for stripe in seen:
            disks = [d for _, _, d in stripe]
            assert len(set(disks)) == len(disks)  # one block per disk


class TestEnsureResident:
    def test_requires_initial_load(self):
        job = make_job(interleaved_runs(2, 2, 2), D=2, starts=[0, 1])
        with pytest.raises(ScheduleError):
            MergeScheduler(job).ensure_resident(0, 1)

    def test_no_read_if_resident(self):
        job = make_job(interleaved_runs(2, 2, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job)
        sched.initial_load()
        assert sched.ensure_resident(0, 0) == 0

    def test_single_read_fetches_demanded_block(self):
        job = make_job(interleaved_runs(2, 3, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job, validate=True)
        sched.initial_load()
        # Next to participate: run 0 block 1 (smallest on-disk key).
        assert sched.ensure_resident(0, 1) == 1
        assert sched.is_resident(0, 1)

    def test_parread_fetches_one_per_disk(self):
        job = make_job(interleaved_runs(2, 4, 2), D=2, starts=[0, 1])
        reads = []
        sched = MergeScheduler(job, on_read=reads.append)
        sched.initial_load()
        sched.ensure_resident(0, 1)
        merge_reads = reads[-1]
        assert len(merge_reads) == 2  # one block from each of 2 disks

    def test_unknown_block_rejected(self):
        job = make_job(interleaved_runs(2, 2, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job)
        sched.initial_load()
        with pytest.raises(ScheduleError):
            sched.ensure_resident(0, 99)

    def test_wedged_forecast_fails_fast(self):
        # A demand fetch must land in exactly one ParRead (the needed
        # block heads its disk's queue).  If the forecast is wedged and
        # the read does not satisfy it, looping cannot help — the guard
        # raises instead of issuing up to D+1 reads.
        job = make_job(interleaved_runs(2, 3, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job)
        sched.initial_load()
        sched._parread = lambda: None  # simulate a read that fetches nothing
        with pytest.raises(ScheduleError, match="wedged forecast"):
            sched.ensure_resident(0, 1)


class TestFlushing:
    def _run_tight(self, R=4, D=4, n_blocks=30):
        """Drive a merge where memory pressure forces flushes."""
        runs = interleaved_runs(R, n_blocks, 2)
        job = make_job(runs, B=2, D=D, starts=[0] * R)  # worst-case layout
        from repro.core import simulate_merge

        return simulate_merge(job, validate=True)

    def test_flushes_occur_under_pressure(self):
        stats = self._run_tight()
        assert stats.blocks_flushed > 0

    def test_mr_never_exceeds_r_plus_d(self):
        stats = self._run_tight()
        assert stats.max_mr_occupied <= 4 + 4

    def test_flushed_blocks_reread(self):
        stats = self._run_tight()
        # Every flushed block is read again: reads cover blocks + reflushes.
        assert stats.blocks_read == stats.n_blocks + stats.blocks_flushed


class TestDepletion:
    def test_promotes_resident_successor(self):
        job = make_job(interleaved_runs(2, 3, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job, validate=True)
        sched.initial_load()
        sched.ensure_resident(0, 1)  # also prefetches run 1 block 1
        assert sched.is_resident(1, 1)
        sched.on_leading_depleted(1)
        assert sched.leading[1] == 1
        # Block stays resident, now as a leading block.
        assert sched.is_resident(1, 1)

    def test_depleting_nonresident_rejected(self):
        job = make_job(interleaved_runs(2, 3, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job, validate=True)
        sched.initial_load()
        sched.on_leading_depleted(0)
        with pytest.raises(ScheduleError):
            sched.on_leading_depleted(0)  # block 1 is not resident yet

    def test_run_exhaustion(self):
        job = make_job([np.arange(2), np.arange(2, 6)], B=2, D=2, starts=[0, 1])
        sched = MergeScheduler(job)
        sched.initial_load()
        sched.on_leading_depleted(0)
        assert sched.run_exhausted(0)
        assert not sched.finished()


class TestStatsSnapshot:
    """``stats()`` must be a pure snapshot — callable any number of
    times mid-run without perturbing the depletion-gap accounting."""

    def _partial_merge(self):
        job = make_job(interleaved_runs(2, 6, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job, validate=True)
        sched.initial_load()
        # Deplete both leading blocks, forcing at least one demand read,
        # then deplete again so a *partial* gap is in progress.
        sched.ensure_resident(0, 1)
        sched.on_leading_depleted(0)
        sched.ensure_resident(1, 1)
        sched.on_leading_depleted(1)
        return sched

    def test_mid_run_stats_idempotent(self):
        sched = self._partial_merge()
        first = sched.stats()
        second = sched.stats()
        assert first == second

    def test_partial_gap_excluded_mid_run(self):
        sched = self._partial_merge()
        st = sched.stats()
        assert not sched.finished()
        # One closed gap per merge ParRead; the in-progress gap since the
        # last read is *not* reported (it is still growing).
        assert len(st.depletion_gaps) == st.merge_parreads

    def test_final_stats_include_trailing_gap(self):
        from repro.core import simulate_merge

        job = make_job(interleaved_runs(3, 5, 2), D=3, starts=[0, 1, 2])
        stats = simulate_merge(job)
        assert len(stats.depletion_gaps) == stats.merge_parreads + 1
        assert sum(stats.depletion_gaps) == stats.n_blocks

    def test_final_stats_idempotent(self):
        job = make_job(interleaved_runs(2, 4, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job)
        sched.initial_load()
        while not sched.finished():  # deplete runs round-robin
            r = min(
                (run for run in range(2) if not sched.run_exhausted(run)),
                key=lambda run: sched.leading[run],
            )
            nxt = sched.leading[r] + 1
            if nxt < 4:
                sched.ensure_resident(r, nxt)
            sched.on_leading_depleted(r)
        first = sched.stats()
        second = sched.stats()
        assert first == second
        assert len(first.depletion_gaps) == first.merge_parreads + 1


class TestPrefetch:
    def test_prefetch_respects_case_2a(self):
        job = make_job(interleaved_runs(2, 10, 2), D=2, starts=[0, 1])
        sched = MergeScheduler(job, validate=True)
        sched.initial_load()
        issued = 0
        while sched.maybe_prefetch():
            issued += 1
        # M_R capacity is R + D = 4; case 2a stops at occupancy > R = 2.
        assert sched.pool.mr_occupied >= 2
        assert sched.pool.mr_occupied <= 4
        assert issued >= 1

    def test_prefetch_stops_when_disk_empty(self):
        job = make_job([np.arange(2), np.arange(2, 4)], B=2, D=2, starts=[0, 1])
        sched = MergeScheduler(job)
        sched.initial_load()
        assert sched.maybe_prefetch() is False  # everything already resident
