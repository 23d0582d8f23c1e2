"""The forecasting data structure, FDS (paper §4, Definition 2).

``H_i[j]`` stores the smallest key in the *smallest block of run j on
disk i* — the chain-head key.  On every read the merger consults
``H_i`` to pick, for each disk ``i``, the run whose chain head has the
smallest key: that block is the "smallest block on disk i" and is what
``ParRead`` fetches.

Key provenance (why this implementation is faithful):  under cyclic
striping, the blocks of run ``r`` on disk ``i`` form the chain
``i0, i0 + D, i0 + 2D, ...`` and are always consumed chain-head first.
The initial block of the run implants the keys of blocks ``0..D-1`` —
one per chain — and every block ``b`` implants the key of block
``b + D``, i.e. of its chain successor.  So advancing a chain pointer
after reading its head reveals exactly the key the just-read block's
implant carries, and flushing a block re-exposes a key the merger had
already seen.  ``H`` therefore never contains information the real
forecast format would not provide; a cross-check against the on-disk
implanted tuples lives in the test suite.

``H`` is one ``D x R`` int64 matrix plus a boolean *alive* mask for
exhausted chains (keys may occupy the full int64 range, so no in-band
sentinel exists), and the merger's hot queries — every disk's smallest
block, the global minimum, and each run's next on-disk key — are single
vectorized reductions (``argmin`` along rows, ``min`` over the matrix,
``min`` along columns) instead of Python loops with lazy heaps.

The merge's galloping bound and its tie rule (:func:`ties_precede`)
live here too, so the drains' gather and the ghost schedule drive share
one definition.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import ScheduleError
from .job import MergeJob

#: Chain exhausted — sorts after every real key (public float view).
INF = math.inf

#: Filler stored in ``H`` entries whose chain is exhausted.  It is NOT a
#: reserved key — real keys may equal it — so every reduction consults
#: the alive mask; the value only makes masked ``np.where`` minima cheap.
INF_I64 = np.iinfo(np.int64).max


class ForecastStructure:
    """FDS plus the per-(run, disk) chain pointers it summarizes."""

    def __init__(self, job: MergeJob) -> None:
        self.job = job
        D = job.n_disks
        R = job.n_runs
        self.n_disks = D
        self.n_runs = R
        # Hot-path caches (profiling: chain_head_block dominates).
        self._n_blocks = [job.blocks_in_run(r) for r in range(R)]
        self._starts = [int(s) for s in job.start_disks]
        self._first_keys = [job.first_keys[r] for r in range(R)]
        # Chain pointer: next on-disk position within chain (run, disk).
        self._ptr: list[list[int]] = [[0] * D for _ in range(R)]
        # H[d, r]: key of chain head; _alive[d, r]: chain not exhausted.
        self._h = np.full((D, R), INF_I64, dtype=np.int64)
        self._alive = np.zeros((D, R), dtype=bool)
        self._disks = np.arange(D)
        for r in range(R):
            for d in range(D):
                self._refresh(r, d)

    # -- chain geometry ----------------------------------------------------

    def _chain_start(self, run: int, disk: int) -> int:
        return (disk - self._starts[run]) % self.n_disks

    def chain_head_block(self, run: int, disk: int) -> Optional[int]:
        """Block index of the chain head of (*run*, *disk*), if any."""
        b = self._chain_start(run, disk) + self._ptr[run][disk] * self.n_disks
        return b if b < self._n_blocks[run] else None

    def chain_position(self, run: int, block: int) -> tuple[int, int]:
        """The (disk, position-in-chain) of a given block of a run."""
        disk = self.job.disk_of(run, block)
        pos = (block - self._chain_start(run, disk)) // self.n_disks
        return disk, pos

    # -- H maintenance -----------------------------------------------------

    def _refresh(self, run: int, disk: int) -> None:
        """Recompute ``H[disk, run]`` from the chain pointer."""
        b = self.chain_head_block(run, disk)
        if b is None:
            self._h[disk, run] = INF_I64
            self._alive[disk, run] = False
        else:
            self._h[disk, run] = self._first_keys[run][b]
            self._alive[disk, run] = True

    def head_key(self, disk: int, run: int) -> float:
        """``H_i[j]`` — the FDS entry itself (:data:`INF` if exhausted)."""
        if not self._alive[disk, run]:
            return INF
        return int(self._h[disk, run])

    def smallest_block_on_disk(self, disk: int) -> Optional[tuple[float, int, int]]:
        """The smallest block on *disk*: ``(key, run, block)`` or ``None``.

        The per-disk form of :meth:`smallest_blocks`, and its fallback
        for a row whose chosen entry is dead.  Key ties resolve to the
        smallest run index (``argmin`` returns the first minimum,
        matching the old heap's ``(key, run)`` ordering).
        """
        idx = np.flatnonzero(self._alive[disk])
        if idx.size == 0:
            return None
        sub = self._h[disk, idx]
        run = int(idx[sub.argmin()])
        block = self.chain_head_block(run, disk)
        if block is None:  # pragma: no cover - defensive
            raise ScheduleError("FDS points at an exhausted chain")
        return int(self._h[disk, run]), run, block

    def smallest_blocks(self) -> list[tuple[int, int, int]]:
        """Every disk's smallest block as ``(run, block, disk)``, by disk.

        The ``ParRead`` query: one masked ``argmin`` along the rows of
        ``H`` answers :meth:`smallest_block_on_disk` for all disks at
        once (first minimum, so key ties go to the smaller run).  A row
        whose chosen entry is dead — an empty disk, or a dead chain's
        :data:`INF_I64` filler tying a live key equal to it at a higher
        run — falls back to the per-disk query.  Empty disks are omitted.
        """
        runs = np.where(self._alive, self._h, INF_I64).argmin(axis=1)
        live = self._alive[self._disks, runs].tolist()
        out = []
        for disk, run in enumerate(runs.tolist()):
            if not live[disk]:
                head = self.smallest_block_on_disk(disk)
                if head is None:
                    continue
                run = head[1]
            out.append((run, self.chain_head_block(run, disk), disk))
        return out

    def global_min_key(self) -> float:
        """Smallest key of any on-disk block (the ``S_t`` minimum)."""
        if not self._alive.any():
            return INF
        return int(self._h[self._alive].min())

    def next_block_key_of_run(self, run: int) -> float:
        """Smallest on-disk key of *run*: ``min_i H_i[run]``.

        The merger uses this to learn the first key of a run's
        not-yet-resident leading block (Definition 1's "smallest block
        of the run").
        """
        col = self._alive[:, run]
        if not col.any():
            return INF
        return int(self._h[:, run][col].min())

    def min_keys_per_run(self) -> tuple[np.ndarray, np.ndarray]:
        """``min_i H_i[j]`` for every run ``j`` in one reduction.

        Returns ``(values, valid)``: an int64 array of per-run minima and
        a boolean mask of runs with at least one on-disk block.  Entries
        with ``valid`` unset are filler (:data:`INF_I64` is not a
        reserved key, so a mask — not a sentinel — signals exhaustion).
        """
        values = np.where(self._alive, self._h, INF_I64).min(axis=0)
        return values, self._alive.any(axis=0)

    def galloping_bound(self) -> tuple[float, int]:
        """The smallest ``(key, run)`` first key of any on-disk block.

        Between two ``ParRead``\\ s the merge may emit exactly the
        resident records ``(key, run)`` with ``(key, run) <= bound``: key
        ties go to the smaller run (a heapq merge's tie-break), and the
        bound's own run holds the bound key in a later block.
        ``(INF, -1)`` once no block remains on disk.
        """
        values, valid = self.min_keys_per_run()
        idx = np.flatnonzero(valid)
        if idx.size == 0:
            return INF, -1
        run = int(idx[values[idx].argmin()])
        return int(values[run]), run

    # -- transitions ---------------------------------------------------------

    def advance(self, run: int, disk: int) -> None:
        """Chain head of (*run*, *disk*) was read; expose its successor.

        Models consuming the implanted key ``k_{r, b+D}`` of the block
        just read.
        """
        self._ptr[run][disk] += 1
        self._refresh(run, disk)

    def push_back(self, run: int, block: int) -> None:
        """A flushed *block* returns to its disk (§5.3 flush update).

        The block becomes its chain's head again; ``H`` gets its first
        key (which the merger knows — it read the block).
        """
        disk, pos = self.chain_position(run, block)
        if pos >= self._ptr[run][disk]:
            raise ScheduleError(
                f"flush of run {run} block {block}: chain pointer would move forward"
            )
        self._ptr[run][disk] = pos
        self._refresh(run, disk)

    def chain_pointer(self, run: int, disk: int) -> int:
        """Current chain position (used by validation)."""
        return self._ptr[run][disk]


def ties_precede(run: int, bound_run: int) -> bool:
    """Whether *run*'s records equal to the bound key precede the bound.

    The consumption rule of :meth:`ForecastStructure.galloping_bound`:
    a record of *run* with key ``k`` precedes ``(bound_key, bound_run)``
    when ``k < bound_key``, or ``k == bound_key`` and this holds.
    """
    return run <= bound_run
