"""Block-level execution of one SRM merge on the overlap engine.

Where :mod:`repro.analysis.overlap` *models* pipelining analytically,
this module *executes* it without moving records: the merge's
block-level event stream drives the real :class:`MergeScheduler` and
the per-disk :class:`~repro.core.events.OverlapEngine`, with a CPU
consuming resident blocks at a configurable rate.  With read-ahead the
engine issues case-2a ``ParRead``\\ s ahead of demand (the paper's
overlapping of I/O and computation, enabled by Lemma 1's early-issue
guarantee); demand-paced (``mode="none"``), reads are issued only when
the CPU stalls on a missing block.  The difference between the two
makespans is the measured value of SRM's prefetching.
"""

from __future__ import annotations

from ..core.config import OverlapConfig
from ..core.events import OverlapEngine, OverlapReport
from ..core.job import MergeJob
from ..core.schedule import MergeScheduler
from ..core.simulator import _DEPLETE, build_event_stream
from ..disks.timing import DiskTimingModel
from ..errors import ConfigError


def execute_merge_timeline(
    job: MergeJob,
    timing: DiskTimingModel,
    block_size: int,
    overlap: OverlapConfig,
) -> OverlapReport:
    """Execute one merge through the per-disk overlap engine.

    Drives the block-level event stream of
    :func:`~repro.core.simulator.build_event_stream` through the
    :class:`~repro.core.events.OverlapEngine` configured by *overlap*:
    independent per-disk FIFO queues, a ``prefetch_depth``-deep
    read-ahead window, and (in ``mode="full"``) write-behind of output
    stripes, with ``cpu_us_per_record`` of merge compute per record.
    ``mode="none"`` is the demand-paced baseline.  The returned
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
    eng = OverlapEngine(timing, block_size, D, overlap)
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
