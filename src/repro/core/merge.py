"""The data-moving SRM merge (paper §5): R-way merge on real disks.

This engine performs the merge end-to-end on a
:class:`ParallelDiskSystem`: forecast-format input runs are read by the
shared :class:`MergeScheduler`'s ``ParRead`` decisions, records flow
through a batched internal merge, and the output run is streamed to disk
with perfect write parallelism.

Internal merge processing is batched: between two ``ParRead`` operations
every resident record before the forecasting structure's galloping bound
is merged in one sort, so a ParRead gap costs one gather, one all-disk
forecast query and one copy per output stripe — a handful of array
operations rather than per-record or per-run Python.

The merger learns a non-resident leading block's first key *only*
through the forecasting structure (``min_i H_i[run]``, Definition 1's
"smallest block of the run") — the information a real implementation
would have — never by peeking at run metadata.

When an :class:`~repro.core.config.OverlapConfig` is supplied, an
:class:`~repro.core.events.OverlapEngine` advances reads, writes, and
the chunked merge compute on a shared simulated clock — read-ahead and
write-behind overlap I/O with computation instead of stalling on every
``ParRead`` — and the result carries the measured
:class:`~repro.core.events.OverlapReport`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..disks.block import NO_KEY
from ..disks.counters import IOStats
from ..disks.files import StripedRun
from ..disks.system import ParallelDiskSystem
from ..disks.timing import DISK_1996
from ..errors import DataError, ScheduleError
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import SPAN_MERGE
from .config import OverlapConfig
from .events import OverlapEngine, OverlapReport
from .job import MergeJob
from .losertree import merge_loop_batched, merge_loop_cycles
from .schedule import MergeScheduler, ScheduleStats
from .writer import RunWriter


@dataclass(frozen=True, slots=True)
class MergeResult:
    """Outcome of one SRM merge.

    Attributes
    ----------
    output:
        The merged, forecast-format striped run.
    schedule:
        Scheduler-level I/O counts (``I_0``, ParReads, flushes).
    io:
        Disk-system counters accumulated by this merge (reads include
        the initial load; writes are the output run's stripes).
    n_records:
        Records merged.
    """

    output: StripedRun
    schedule: ScheduleStats
    io: IOStats
    n_records: int
    #: Internal-merge steps.  Engine-paced: the key-range cycles a heapq
    #: merge would run (one per run switch or equal-key prefix within a
    #: block).  Demand-paced: the block slices the batched drain emitted,
    #: at most a block count per ParRead gap.
    heap_cycles: int = 0
    #: Simulated-time report when an overlap engine drove the merge.
    overlap: "OverlapReport | None" = None


def merge_runs(
    system: ParallelDiskSystem,
    runs: list[StripedRun],
    output_run_id: int,
    output_start_disk: int,
    validate: bool = False,
    overlap: OverlapConfig | None = None,
    telemetry=None,
) -> MergeResult:
    """Merge *runs* into one striped run on *system*.

    Each input block's disk slot is released once the block is fully
    consumed.

    Parameters
    ----------
    system:
        The parallel disk system holding the input runs.
    runs:
        Forecast-format striped input runs (``R = len(runs)`` is the
        merge order of this step).
    output_run_id / output_start_disk:
        Identity and layout of the output run.
    validate:
        Enable scheduler invariant checks plus forecast-implant
        verification on every block read.
    overlap:
        When given, an :class:`OverlapEngine` advances reads, writes,
        and chunked merge compute on a shared simulated clock; the
        result carries its :class:`OverlapReport`.  The engine changes
        *when* operations complete, never *what* is read or written.
        Disk service times come from ``system.timing``
        (:data:`~repro.disks.timing.DISK_1996` when the system has none).
    telemetry:
        A :class:`~repro.telemetry.Telemetry` instance; when given, the
        merge runs inside a ``merge`` span carrying scheduler counts and
        (for engine-driven merges) the overlap report, and the hot-path
        histograms (read width, flush occupancy, drain batch size) fill
        the shared registry.  ``None`` uses the zero-overhead null layer.

    The internal merge is the vectorized data plane of
    :mod:`repro.core.losertree`: block-slice batches, written at once
    on the pure demand path and replayed at key-range-cycle granularity
    when an overlap engine paces the merge.  Both produce identical I/O
    schedules and output records.
    """
    if len(runs) < 2:
        raise DataError(f"a merge needs at least 2 runs, got {len(runs)}")
    job = MergeJob.from_striped_runs(runs, system.n_disks)
    start_stats = system.stats.snapshot()
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    span = tel.span(
        SPAN_MERGE,
        system=system,
        n_runs=len(runs),
        n_blocks=job.n_blocks,
        n_disks=system.n_disks,
    )

    eng: OverlapEngine | None = None
    if overlap is not None:
        eng = OverlapEngine(
            system.timing if system.timing is not None else DISK_1996,
            system.block_size,
            system.n_disks,
            overlap,
            telemetry=telemetry,
            faults=system.faults,
        )

    # Resident block contents: (keys, payloads-or-None).
    block_data: dict[tuple[int, int], tuple[np.ndarray, np.ndarray | None]] = {}

    def on_read(ops: list[tuple[int, int, int]]) -> None:
        addrs = [runs[r].addresses[b] for r, b, _ in ops]
        blocks = system.read_stripe(addrs)
        for (r, b, _d), blk in zip(ops, blocks):
            if validate:
                _check_forecast(job, r, b, blk.forecast)
            block_data[(r, b)] = (blk.keys, blk.payloads)
        if eng is not None:
            # The scheduler speaks logical disks; queue the requests on
            # the *physical* spindles (identical fault-free, relocated
            # onto survivors in degraded mode — colliding requests then
            # serialize on the survivor's FIFO, which is the overhead).
            eng.on_parread(
                [
                    (r, b, system.resolve(a).disk)
                    for (r, b, _d), a in zip(ops, addrs)
                ]
            )

    def on_flush(evicted: list[tuple[int, int]]) -> None:
        # Definition 6: flushing is virtual — drop the copy; the block
        # stays live on disk and will be re-read when needed.
        for r, b in evicted:
            del block_data[(r, b)]
        if eng is not None:
            eng.on_flush(evicted)

    sched = MergeScheduler(
        job,
        validate=validate,
        on_read=on_read,
        on_flush=on_flush,
        telemetry=telemetry,
    )
    sched.initial_load()
    writer = RunWriter(
        system,
        output_run_id,
        output_start_disk,
        on_write=eng.on_write if eng is not None else None,
        telemetry=telemetry,
    )

    if eng is not None:
        heap_cycles = merge_loop_cycles(
            sched, writer, block_data, runs, system, validate,
            eng, telemetry=telemetry,
        )
    else:
        heap_cycles = merge_loop_batched(
            sched, writer, block_data, runs, system, validate,
            telemetry=telemetry,
        )

    if not sched.finished():
        raise ScheduleError("merge loop ended with unexhausted runs")
    output = writer.finalize()
    n_records = sum(r.n_records for r in runs)
    schedule = _close_merge(
        writer, output, n_records, sched, span, validate, heap_cycles=heap_cycles
    )
    report = eng.finish() if eng is not None else None
    if report is not None:
        span.set(
            makespan_ms=report.makespan_ms,
            cpu_busy_ms=report.cpu_busy_ms,
            read_stall_ms=report.read_stall_ms,
            write_stall_ms=report.write_stall_ms,
            disk_utilization=report.disk_utilization,
            eager_reads=report.eager_reads,
            demand_reads=report.demand_reads,
        )
    span.close()
    return MergeResult(
        output=output,
        schedule=schedule,
        io=system.stats.since(start_stats),
        n_records=n_records,
        heap_cycles=heap_cycles,
        overlap=report,
    )


def _close_merge(
    writer: RunWriter,
    output: StripedRun,
    n_records: int,
    sched: MergeScheduler,
    span,
    validate: bool,
    **attrs,
) -> ScheduleStats:
    """The closing step of both merge planes.

    Checks that *output* holds all *n_records* input records and, with
    *validate*, that the writer's buffer never outgrew ``M_W = 2D``
    blocks; then sets the scheduler's counters, followed by *attrs*, on
    the merge *span* and returns the scheduler's stats.
    """
    if output.n_records != n_records:
        raise ScheduleError(
            f"merged {output.n_records} records, expected {n_records}"
        )
    n_disks = writer.system.n_disks
    if validate and writer.max_buffered_blocks > 2 * n_disks:
        raise ScheduleError(
            f"output buffer used {writer.max_buffered_blocks} blocks,"
            f" exceeding M_W = 2D = {2 * n_disks}"
        )
    schedule = sched.stats()
    span.set(
        initial_reads=schedule.initial_reads,
        merge_parreads=schedule.merge_parreads,
        flush_ops=schedule.flush_ops,
        blocks_flushed=schedule.blocks_flushed,
        max_mr_occupied=schedule.max_mr_occupied,
        **attrs,
    )
    return schedule


def _check_forecast(
    job: MergeJob, run: int, block: int, forecast: tuple[float, ...]
) -> None:
    """Verify a block's implanted keys match the §4 format."""
    fk = job.first_keys[run]
    if block == 0:
        expect = tuple(
            int(fk[j]) if j < fk.size else NO_KEY for j in range(job.n_disks)
        )
    else:
        j = block + job.n_disks
        expect = (int(fk[j]) if j < fk.size else NO_KEY,)
    if forecast != expect:
        raise DataError(
            f"run {run} block {block}: forecast {forecast} != expected {expect}"
        )
