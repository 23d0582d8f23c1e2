"""The SRM I/O scheduler (paper §5): ParRead, Flush, OutRank.

One implementation of the scheduling brain drives both execution paths:
the data-moving merger (:mod:`repro.core.merge`) attaches callbacks that
perform real disk I/O, while the fast simulator
(:mod:`repro.core.simulator`) runs it callback-free and only collects
counts.  Cross-validation of the two paths is therefore a test of the
*event streams* they feed, not of duplicated logic.

Scheduling model
----------------
Reads are *demand-paced*: a ``ParRead`` is issued when the merge is
about to consume a record whose block is not resident.  At that moment
the needed block is the smallest block on its disk (its first record is
the globally smallest unconsumed key, and every on-disk record is
unconsumed), so the very next ``ParRead`` — which by Definition 5
fetches the smallest block from *every* disk — brings it in; ``validate``
mode asserts this.  Consequently ``OutRank_t = 1`` at every stall and
the §5.5 case split reduces to:

* ``occupied(M_R) <= R``  →  plain ``ParRead`` (case 2a);
* ``occupied(M_R) = R + extra`` →  ``Flush_t(extra)`` then ``ParRead``
  (case 2c with ``OutRank_t = 1``); case 2b cannot arise on demand.

The general ``OutRank`` computation is still implemented (and used by
eager prefetch — the overlap engine's read-ahead and the simulators'
``prefetch`` mode — and by validation) so the §5.5 rules are present
in full.

Flushing (Definition 6) removes the highest-ranked (farthest-future)
non-leading resident blocks from ``M_R`` *with no I/O*: the scheduler
pushes their chains back so the forecasting structure offers them again,
exactly as if they had never been read.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ScheduleError
from ..memory import BufferPool
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import (
    H_FLUSH_OCCUPANCY,
    H_FLUSH_OUTRANK,
    H_READ_WIDTH,
    SCHED_BLOCKS_FLUSHED,
    SCHED_FLUSH_OPS,
    SCHED_INITIAL_READS,
    SCHED_MERGE_PARREADS,
    occupancy_edges,
    read_width_edges,
)
from .forecasting import INF, ForecastStructure
from .job import MergeJob

#: A read instruction: (run, block, disk).
ReadOp = tuple[int, int, int]

#: Callback invoked once per parallel read with its block list.
ReadCallback = Callable[[list[ReadOp]], None]

#: Callback invoked once per flush with the evicted block list.
FlushCallback = Callable[[list[tuple[int, int]]], None]


@dataclass(frozen=True, slots=True)
class ScheduleStats:
    """I/O counts reported by a completed merge schedule.

    Attributes
    ----------
    initial_reads:
        ``I_0`` — parallel reads used by step 1 (loading the ``R``
        initial run blocks).
    merge_parreads:
        ``ParRead`` operations issued after step 1.
    blocks_read:
        Total blocks fetched, *including* re-reads of flushed blocks.
    flush_ops / blocks_flushed:
        ``Flush_t`` invocations and blocks they evicted.
    n_blocks:
        Distinct blocks across the job's runs.
    max_mr_occupied:
        High-water mark of ``M_R`` occupancy (must stay <= R + D).
    """

    initial_reads: int
    merge_parreads: int
    blocks_read: int
    flush_ops: int
    blocks_flushed: int
    n_blocks: int
    n_disks: int
    max_mr_occupied: int
    #: Blocks depleted before the first ParRead, between consecutive
    #: ParReads, and after the last one (length = merge_parreads + 1 for
    #: a finished schedule; mid-run snapshots omit the in-flight partial
    #: gap and have length merge_parreads).
    depletion_gaps: tuple[int, ...] = ()

    @property
    def total_reads(self) -> int:
        """All parallel read operations, step 1 included."""
        return self.initial_reads + self.merge_parreads

    @property
    def overhead_v(self) -> float:
        """Measured per-pass read overhead ``v`` (Tables 1 and 3).

        Ratio of parallel reads to the perfect-parallelism minimum
        ``n_blocks / D``.
        """
        return self.total_reads * self.n_disks / self.n_blocks


class MergeScheduler:
    """Executable §5.5 I/O schedule over a :class:`MergeJob`."""

    def __init__(
        self,
        job: MergeJob,
        validate: bool = False,
        on_read: Optional[ReadCallback] = None,
        on_flush: Optional[FlushCallback] = None,
        telemetry=None,
    ) -> None:
        self.job = job
        self.validate = validate
        self.on_read = on_read
        self.on_flush = on_flush
        # Metric handles are resolved once here; with telemetry disabled
        # they are the shared no-op singleton, so the per-ParRead and
        # per-flush observe/inc calls below cost nothing.
        tel = telemetry if telemetry is not None else TELEMETRY_OFF
        self._m_initial_reads = tel.counter(SCHED_INITIAL_READS)
        self._m_parreads = tel.counter(SCHED_MERGE_PARREADS)
        self._m_flush_ops = tel.counter(SCHED_FLUSH_OPS)
        self._m_blocks_flushed = tel.counter(SCHED_BLOCKS_FLUSHED)
        self._h_read_width = tel.histogram(
            H_READ_WIDTH, read_width_edges(job.n_disks)
        )
        self._h_flush_occ = tel.histogram(
            H_FLUSH_OCCUPANCY, occupancy_edges(job.n_disks)
        )
        self._h_flush_rank = tel.histogram(
            H_FLUSH_OUTRANK, occupancy_edges(job.n_disks)
        )
        self.fds = ForecastStructure(job)
        self.pool = BufferPool(merge_order=job.n_runs, n_disks=job.n_disks)
        #: Current leading block index per run (Definition 1).
        self.leading = [0] * job.n_runs
        self._n_blocks = [job.blocks_in_run(r) for r in range(job.n_runs)]
        #: Residency of every not-fully-consumed block.
        self._resident: set[tuple[int, int]] = set()
        #: F_t — full non-leading resident blocks as (key, run, block),
        #: kept sorted by key for rank queries and flush selection.
        self._f: list[tuple[float, int, int]] = []
        # Counters.
        self.initial_reads = 0
        self.merge_parreads = 0
        self.blocks_read = 0
        self.flush_ops = 0
        self.blocks_flushed = 0
        self.max_mr_occupied = 0
        self._loaded = False
        #: Blocks depleted between consecutive ParReads — the compute
        #: intervals the overlap analysis (repro.analysis.overlap) uses.
        self.depletion_gaps: list[int] = []
        self._depletions_since_read = 0

    # -- queries ---------------------------------------------------------

    def is_resident(self, run: int, block: int) -> bool:
        """True if the block is currently in internal memory."""
        return (run, block) in self._resident

    def out_rank(self) -> int:
        """``OutRank_t``: rank of the smallest ``S_t`` block in ``F_t ∪ S_t``."""
        s_min = self.fds.global_min_key()
        if s_min == INF:
            raise ScheduleError("OutRank undefined: no blocks remain on disk")
        return bisect_left(self._f, (s_min, -1, -1)) + 1

    def stats(self) -> ScheduleStats:
        """Snapshot of the schedule's I/O counters.

        Side-effect-free and idempotent.  The depletions accumulated
        since the last ``ParRead`` form a *partial* gap: they are
        reported as the trailing entry of ``depletion_gaps`` only once
        the schedule has finished (when they are final by definition).
        Mid-run snapshots exclude them — the same depletions would
        otherwise be counted again inside the gap closed by the next
        ``ParRead``.
        """
        gaps = tuple(self.depletion_gaps)
        if self.finished():
            gaps += (self._depletions_since_read,)
        return ScheduleStats(
            initial_reads=self.initial_reads,
            merge_parreads=self.merge_parreads,
            blocks_read=self.blocks_read,
            flush_ops=self.flush_ops,
            blocks_flushed=self.blocks_flushed,
            n_blocks=self.job.n_blocks,
            n_disks=self.job.n_disks,
            max_mr_occupied=self.max_mr_occupied,
            depletion_gaps=gaps,
        )

    # -- step 1: initial load (§5.5 step 1) --------------------------------

    def initial_load(self) -> int:
        """Read block 0 of every run into ``M_L`` with parallel reads.

        The number of operations is the maximum number of initial blocks
        on any one disk — the classical occupancy cost ``I_0`` of §6.

        Returns ``I_0``.
        """
        if self._loaded:
            raise ScheduleError("initial_load called twice")
        self._loaded = True
        by_disk: dict[int, list[int]] = {}
        for r in range(self.job.n_runs):
            by_disk.setdefault(int(self.job.start_disks[r]), []).append(r)
        while by_disk:
            stripe: list[ReadOp] = []
            for d in list(by_disk):
                r = by_disk[d].pop()
                stripe.append((r, 0, d))
                if not by_disk[d]:
                    del by_disk[d]
            for r, b, d in stripe:
                self._resident.add((r, b))
                self.pool.load_leading()
                self.fds.advance(r, d)
            self.initial_reads += 1
            self.blocks_read += len(stripe)
            self._m_initial_reads.inc()
            self._h_read_width.observe(len(stripe))
            if self.on_read is not None:
                self.on_read(stripe)
        return self.initial_reads

    # -- demand path ---------------------------------------------------------

    def ensure_resident(self, run: int, block: int) -> int:
        """Bring (*run*, *block*) into memory; return parallel reads used.

        Called when the block's first record is about to become the next
        record of the merge.  Zero reads if it was prefetched; exactly
        one otherwise (asserted in ``validate`` mode).
        """
        if not self._loaded:
            raise ScheduleError("ensure_resident before initial_load")
        if block >= self._n_blocks[run]:
            raise ScheduleError(f"run {run} has no block {block}")
        if self.is_resident(run, block):
            return 0
        # A demand fetch succeeds in exactly one ParRead: the needed
        # block's first record is the globally smallest unconsumed key,
        # so it is the minimal head on its disk and Definition 5 brings
        # it in.  If a single ParRead did not fetch it the forecast is
        # wedged (corrupted chain pointers, stale H entries) and more
        # reads cannot help — fail fast instead of issuing up to D+1.
        self._parread()
        if not self.is_resident(run, block):
            raise ScheduleError(
                f"wedged forecast: demand fetch of ({run}, {block}) "
                "was not satisfied by one ParRead"
            )
        return 1

    def maybe_prefetch(self) -> bool:
        """Optional eager mode: issue a ``ParRead`` if case 2a allows it.

        Returns True if a read was issued.  This never flushes, so it
        cannot cause churn; it models overlapping I/O with computation.
        """
        if not self.pool.can_read_without_flush():
            return False
        if self.fds.global_min_key() == INF:
            return False
        self._parread()
        return True

    # -- the §5.5 read/flush machinery -------------------------------------

    def _parread(self) -> None:
        """One scheduled parallel read, flushing first if §5.5 requires."""
        extra = self.pool.extra
        if extra > 0:
            out_rank = self.out_rank()
            if out_rank <= extra:
                self._h_flush_occ.observe(extra)
                self._h_flush_rank.observe(out_rank)
                self._flush(extra - out_rank + 1)
            # else: case 2b — read without flushing; the pool guarantees
            # R + D frames so the incoming <= D blocks still fit only if
            # occupancy allows.  On the demand path out_rank == 1 makes
            # this unreachable; eager callers avoid it via can_read_without_flush.

        reads: list[ReadOp] = self.fds.smallest_blocks()
        if not reads:
            raise ScheduleError("ParRead issued with no blocks on any disk")

        for run, block, disk in reads:
            if self.validate and block < self.leading[run]:
                raise ScheduleError(
                    f"ParRead fetched already-consumed block ({run}, {block})"
                )
            self._resident.add((run, block))
            self.fds.advance(run, disk)
            if block == self.leading[run]:
                self.pool.load_leading()
            else:
                key = int(self.job.first_keys[run][block])
                insort(self._f, (key, run, block))
                self.pool.stage_read_into_mr(1)
        self.merge_parreads += 1
        self.blocks_read += len(reads)
        self._m_parreads.inc()
        self._h_read_width.observe(len(reads))
        self.depletion_gaps.append(self._depletions_since_read)
        self._depletions_since_read = 0
        self.max_mr_occupied = max(self.max_mr_occupied, self.pool.mr_occupied)
        if self.validate and len(self._f) != self.pool.mr_occupied:
            raise ScheduleError("F_t and M_R occupancy disagree")
        if self.on_read is not None:
            self.on_read(reads)

    def _flush(self, n_blocks: int) -> None:
        """``Flush_t(n)``: evict the ``n`` highest-ranked blocks of ``F_t``."""
        if n_blocks <= 0:
            raise ScheduleError(f"Flush of {n_blocks} blocks")
        if n_blocks > len(self._f):
            raise ScheduleError(
                f"Flush of {n_blocks} blocks but only {len(self._f)} in F_t"
            )
        evicted = [self._f.pop() for _ in range(n_blocks)]  # decreasing key order
        for key, run, block in evicted:
            if self.validate and block <= self.leading[run]:
                raise ScheduleError(
                    f"flushed leading-or-consumed block ({run}, {block})"
                )
            self._resident.remove((run, block))
            self.fds.push_back(run, block)
        self.pool.flush(n_blocks)
        self.flush_ops += 1
        self.blocks_flushed += n_blocks
        self._m_flush_ops.inc()
        self._m_blocks_flushed.inc(n_blocks)
        if self.on_flush is not None:
            self.on_flush([(r, b) for _, r, b in evicted])

    # -- merge progress notifications ----------------------------------------

    def on_leading_depleted(self, run: int) -> None:
        """The last record of *run*'s leading block was consumed.

        Advances the leading pointer; if the new leading block is
        already resident it moves from ``M_R`` to ``M_L`` (§5.2 rule 1).
        """
        block = self.leading[run]
        if (run, block) not in self._resident:
            raise ScheduleError(f"depleted block ({run}, {block}) was not resident")
        self._depletions_since_read += 1
        self._resident.remove((run, block))
        self.pool.retire_leading()
        nxt = block + 1
        self.leading[run] = nxt
        if nxt < self._n_blocks[run] and (run, nxt) in self._resident:
            key = int(self.job.first_keys[run][nxt])
            idx = bisect_left(self._f, (key, run, nxt))
            if idx >= len(self._f) or self._f[idx] != (key, run, nxt):
                raise ScheduleError(
                    f"resident block ({run}, {nxt}) missing from F_t"
                )
            self._f.pop(idx)
            self.pool.promote_to_leading()

    def run_exhausted(self, run: int) -> bool:
        """True once every block of *run* has been consumed."""
        return self.leading[run] >= self._n_blocks[run]

    def finished(self) -> bool:
        """True once all runs are exhausted."""
        return all(lead >= n for lead, n in zip(self.leading, self._n_blocks))
