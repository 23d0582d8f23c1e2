"""Discrete-event timeline simulation of one SRM merge.

Where :mod:`repro.analysis.overlap` *models* pipelining analytically,
this module *executes* it: a two-resource discrete-event simulation
with

* an **I/O channel** serving one parallel operation at a time (the
  D-disk model's synchronized array), each costing the timing model's
  per-operation service time, and
* a **CPU** consuming resident blocks at a configurable rate,

driven by the real :class:`MergeScheduler`.  In *prefetch* mode the
channel opportunistically issues case-2a ``ParRead``s whenever it falls
idle (the paper's overlapping of I/O and computation, enabled by
Lemma 1's early-issue guarantee); in *demand* mode reads are issued
only when the CPU stalls on a missing block.  The difference between
the two makespans is the measured value of SRM's prefetching.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.events import OverlapEngine, OverlapReport
from ..core.job import MergeJob
from ..core.schedule import MergeScheduler
from ..core.simulator import _DEPLETE, build_event_stream
from ..disks.timing import DiskTimingModel
from ..errors import ConfigError


@dataclass(frozen=True, slots=True)
class TimelineResult:
    """Outcome of a timeline simulation."""

    makespan_ms: float
    cpu_busy_ms: float
    io_busy_ms: float
    cpu_stall_ms: float
    total_reads: int
    total_writes: int
    prefetch: bool

    @property
    def cpu_utilization(self) -> float:
        """Fraction of the makespan the CPU spent merging.

        A zero-duration (empty-input) timeline has no makespan to be
        busy during; report 0.0 instead of dividing by zero.
        """
        return self.cpu_busy_ms / self.makespan_ms if self.makespan_ms else 0.0

    @property
    def io_utilization(self) -> float:
        """Fraction of the makespan the channel spent transferring.

        Zero-duration timelines report 0.0 (see ``cpu_utilization``).
        """
        return self.io_busy_ms / self.makespan_ms if self.makespan_ms else 0.0


def simulate_merge_timeline(
    job: MergeJob,
    timing: DiskTimingModel,
    block_size: int,
    cpu_us_per_record: float,
    prefetch: bool = True,
) -> TimelineResult:
    """Run one merge through the two-resource timeline simulation.

    Parameters
    ----------
    job:
        The merge's block boundaries and layout.
    timing:
        Per-operation disk service time (all operations move ``<= D``
        blocks concurrently, so one op = one block time).
    block_size:
        Records per block, for transfer and CPU time.
    cpu_us_per_record:
        Internal merge processing cost per record.
    prefetch:
        Issue eager case-2a reads whenever the channel is idle.
    """
    if cpu_us_per_record < 0:
        raise ConfigError(f"cpu cost must be >= 0, got {cpu_us_per_record}")
    if block_size < 1:
        raise ConfigError(f"block size must be >= 1, got {block_size}")
    B = block_size
    t_io = timing.op_time_ms(B)
    cpu_block_ms = B * cpu_us_per_record / 1000.0
    D = job.n_disks

    sched = MergeScheduler(job)
    sched.initial_load()

    now = sched.initial_reads * t_io  # step 1 cannot overlap anything
    io_free = now
    io_busy = sched.initial_reads * t_io
    cpu_busy = 0.0
    stall = 0.0
    writes = 0
    depletions = 0

    _, kinds, runs, blocks = build_event_stream(job)
    for kind, r, b in zip(kinds.tolist(), runs.tolist(), blocks.tolist()):
        if kind == _DEPLETE:
            # CPU consumes the leading block, then retires it.
            now += cpu_block_ms
            cpu_busy += cpu_block_ms
            sched.on_leading_depleted(r)
            depletions += 1
            if depletions % D == 0:
                # An output stripe is ready: one parallel write.
                start = max(io_free, now)
                io_free = start + t_io
                io_busy += t_io
        else:
            if not sched.is_resident(r, b):
                # Demand read(s): CPU stalls until the block lands.
                before = sched.merge_parreads
                sched.ensure_resident(r, b)
                n_reads = sched.merge_parreads - before
                start = max(io_free, now)
                complete = start + n_reads * t_io
                io_free = complete
                io_busy += n_reads * t_io
                stall += max(0.0, complete - now)
                now = complete
        if prefetch:
            # Fill idle channel time with case-2a reads.
            while io_free <= now and sched.maybe_prefetch():
                io_free = max(io_free, now) + t_io
                io_busy += t_io

    # Drain the final partial output stripe.
    if depletions % D:
        start = max(io_free, now)
        io_free = start + t_io
        io_busy += t_io
    writes = depletions // D + (1 if depletions % D else 0)

    makespan = max(now, io_free)
    return TimelineResult(
        makespan_ms=makespan,
        cpu_busy_ms=cpu_busy,
        io_busy_ms=io_busy,
        cpu_stall_ms=stall,
        total_reads=sched.initial_reads + sched.merge_parreads,
        total_writes=writes,
        prefetch=prefetch,
    )


def execute_merge_timeline(
    job: MergeJob,
    timing: DiskTimingModel,
    block_size: int,
    cpu_us_per_record: float,
    mode: str = "full",
    prefetch_depth: int = 2,
) -> OverlapReport:
    """Execute one merge through the per-disk overlap engine.

    Where :func:`simulate_merge_timeline` models a single synchronized
    I/O channel, this drives the same block-level event stream through
    the :class:`~repro.core.events.OverlapEngine`: independent per-disk
    FIFO queues, a ``prefetch_depth``-deep read-ahead window, and (in
    ``mode="full"``) write-behind of output stripes.  The returned
    :class:`~repro.core.events.OverlapReport` is directly comparable to
    the one a data-moving :func:`~repro.core.merge.merge_runs` produces,
    so the predicted-vs-executed overlap gap is a measured quantity.

    Output-stripe writes are synthesized (one full-``D`` stripe per
    ``D`` depletions, matching SRM's perfect write parallelism), since a
    job carries block boundaries, not output addresses.
    """
    if block_size < 1:
        raise ConfigError(f"block size must be >= 1, got {block_size}")
    D = job.n_disks
    eng = OverlapEngine(
        timing,
        block_size,
        D,
        cpu_us_per_record,
        mode=mode,
        prefetch_depth=prefetch_depth,
    )
    sched = MergeScheduler(job, on_read=eng.on_parread, on_flush=eng.on_flush)
    sched.initial_load()

    depletions = 0
    _, kinds, runs, blocks = build_event_stream(job)
    for kind, r, b in zip(kinds.tolist(), runs.tolist(), blocks.tolist()):
        if kind == _DEPLETE:
            eng.wait_for(r, b)
            eng.compute((block_size,))
            sched.on_leading_depleted(r)
            depletions += 1
            if depletions % D == 0:
                eng.on_write(list(range(D)))
        else:
            sched.ensure_resident(r, b)
            eng.wait_for(r, b)
        eng.pump(sched)
    if depletions % D:
        eng.on_write(list(range(depletions % D)))
    return eng.finish()
