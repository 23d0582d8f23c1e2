"""Fuzz: the pointer-based FDS vs a brute-force reference.

The implementation tracks chain heads with per-(run, disk) pointers;
the reference recomputes, from a plain set of on-disk blocks, the
smallest block of every run on every disk (Definition 2 verbatim).
Random advance/push_back sequences must keep them identical, and the
all-disk ``ParRead`` query must agree with the reference after every op.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import INF, ForecastStructure, MergeJob


class ReferenceFDS:
    """Definition 2 computed from first principles (slow, obvious)."""

    def __init__(self, job: MergeJob) -> None:
        self.job = job
        # All blocks start on disk.
        self.on_disk: set[tuple[int, int]] = {
            (r, b)
            for r in range(job.n_runs)
            for b in range(job.blocks_in_run(r))
        }

    def head_key(self, disk: int, run: int) -> float:
        keys = [
            float(self.job.first_keys[run][b])
            for (r, b) in self.on_disk
            if r == run and self.job.disk_of(r, b) == disk
        ]
        return min(keys) if keys else INF

    def smallest_block_on_disk(self, disk: int):
        best = None
        for r, b in self.on_disk:
            if self.job.disk_of(r, b) != disk:
                continue
            key = float(self.job.first_keys[r][b])
            cand = (key, r, b)
            if best is None or cand < best:
                best = cand
        return best

    def smallest_blocks(self):
        """Every non-empty disk's smallest block as ``(run, block, disk)``."""
        heads = [self.smallest_block_on_disk(d) for d in range(self.job.n_disks)]
        return [(h[1], h[2], d) for d, h in enumerate(heads) if h is not None]

    def read(self, run: int, block: int) -> None:
        self.on_disk.remove((run, block))

    def push_back(self, run: int, block: int) -> None:
        self.on_disk.add((run, block))


@st.composite
def job_and_ops(draw):
    n_runs = draw(st.integers(1, 4))
    d = draw(st.integers(1, 4))
    b = 2
    blocks = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    n = n_runs * blocks * b
    # Duplicate-heavy keys put equal chain heads on one disk, where the
    # smaller run must win.
    perm = rng.integers(0, 3, size=n) if draw(st.booleans()) else rng.permutation(n)
    runs = [np.sort(perm[i::n_runs]) for i in range(n_runs)]
    starts = rng.integers(0, d, size=n_runs)
    job = MergeJob.from_key_runs(runs, b, d, start_disks=starts)
    n_ops = draw(st.integers(0, 30))
    choices = draw(st.lists(st.integers(0, 2**30), min_size=n_ops, max_size=n_ops))
    return job, choices


class TestFDSFuzz:
    @given(args=job_and_ops())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_under_random_ops(self, args):
        job, choices = args
        fds = ForecastStructure(job)
        ref = ReferenceFDS(job)
        in_memory: list[tuple[int, int, int]] = []  # (run, block, disk)

        for c in choices:
            assert fds.smallest_blocks() == ref.smallest_blocks()
            # Alternate between reading a random disk's head and
            # flushing a random in-memory block (valid ops only).
            if c % 2 == 0 or not in_memory:
                disk = c % job.n_disks
                got = fds.smallest_block_on_disk(disk)
                expect = ref.smallest_block_on_disk(disk)
                assert got == expect
                if got is None:
                    continue
                _, run, block = got
                fds.advance(run, disk)
                ref.read(run, block)
                in_memory.append((run, block, disk))
            else:
                # Push back the most recently read block of some chain
                # (chain suffix discipline: LIFO per (run, disk)).
                idx = c % len(in_memory)
                run, block, disk = in_memory[idx]
                # Only legal if it would be the chain's new head: find
                # the latest-read block of that chain.
                chain_blocks = [
                    (i, bl) for i, (r2, bl, d2) in enumerate(in_memory)
                    if r2 == run and d2 == disk
                ]
                i, block = chain_blocks[-1]
                in_memory.pop(i)
                fds.push_back(run, block)
                ref.push_back(run, block)

        # Final state must agree everywhere.
        assert fds.smallest_blocks() == ref.smallest_blocks()
        for disk in range(job.n_disks):
            for run in range(job.n_runs):
                assert fds.head_key(disk, run) == ref.head_key(disk, run)
