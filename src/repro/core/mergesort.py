"""The full SRM mergesort driver (paper §2.2, §9.1).

Pipeline: run formation (one pass) followed by ``ceil(log_R(runs))``
merge passes, each merging groups of up to ``R = merge_order`` runs.
Every pass reads each record once and writes it once; SRM's writes are
perfectly parallel and its reads carry the occupancy overhead ``v``
that the paper analyzes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..disks.counters import IOStats
from ..disks.files import StripedFile, StripedRun
from ..disks.system import ParallelDiskSystem
from ..disks.timing import DISK_1996
from ..errors import ConfigError
from ..rng import RngLike, ensure_rng
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import (
    BACKEND_BLOCKS_READ,
    BACKEND_BLOCKS_WRITTEN,
    BACKEND_BYTES_READ,
    BACKEND_BYTES_WRITTEN,
    BACKEND_FILE_BYTES,
    BACKEND_FILE_GROWS,
    SPAN_MERGE_PASS,
    SPAN_RUN_FORMATION,
    SPAN_SORT,
)
from .config import OverlapConfig, SRMConfig
from .events import OverlapReport
from .layout import LayoutStrategy, choose_start_disks
from .merge import merge_runs
from .run_formation import form_runs_load_sort, form_runs_replacement_selection
from .schedule import ScheduleStats


@dataclass(frozen=True, slots=True)
class PassStats:
    """I/O accounting of one merge pass."""

    pass_index: int
    n_merges: int
    n_runs_in: int
    n_runs_out: int
    parallel_reads: int
    parallel_writes: int
    flush_ops: int
    blocks_flushed: int

    @property
    def parallel_ios(self) -> int:
        return self.parallel_reads + self.parallel_writes


class PeekSorted:
    """Uncharged read-back of a sort's ``output`` (verification aid).

    Shared by the SRM, DSM and PSV results; each sets ``output`` and
    the ``system`` the sort ran on, which the helpers default to.
    """

    def _system(self, system: ParallelDiskSystem | None) -> ParallelDiskSystem:
        sys = system if system is not None else self.system
        if sys is None:
            raise ConfigError("no disk system attached; pass one explicitly")
        return sys

    def peek_sorted(self, system: ParallelDiskSystem | None = None) -> np.ndarray:
        """Read the sorted output without charging I/O."""
        return self.peek_sorted_records(system)[0]

    def peek_sorted_records(
        self, system: ParallelDiskSystem | None = None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Read sorted keys and payloads without charging I/O."""
        return self._system(system).peek_records(self.output.addresses)


@dataclass
class SortResult(PeekSorted):
    """Outcome of a full external sort."""

    output: StripedRun
    config: SRMConfig
    n_records: int
    runs_formed: int
    passes: list[PassStats] = field(default_factory=list)
    io: IOStats | None = None
    merge_schedules: list[ScheduleStats] = field(default_factory=list)
    #: Per-merge simulated-time reports when an overlap engine ran.
    overlap_reports: list[OverlapReport] = field(default_factory=list)
    #: Internal-merge steps summed over all merges: key-range cycles on
    #: engine-paced merges (≈ the record count when runs interleave
    #: finely), block slices on demand-paced ones (≈ the block count).
    heap_cycles: int = 0
    #: The disk system the sort ran on (set by srm_sort / srm_mergesort)
    #: so peek helpers can default to it.
    system: ParallelDiskSystem | None = None

    @property
    def n_merge_passes(self) -> int:
        return len(self.passes)

    @property
    def simulated_merge_ms(self) -> float:
        """Summed simulated wall-clock of all engine-driven merges."""
        return sum(r.makespan_ms for r in self.overlap_reports)

    @property
    def total_parallel_ios(self) -> int:
        return self.io.parallel_ios if self.io is not None else 0


def srm_mergesort(
    system: ParallelDiskSystem,
    infile: StripedFile,
    config: SRMConfig,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng: RngLike = None,
    validate: bool = False,
    run_length: int | None = None,
    formation: str = "load_sort",
    overlap: OverlapConfig | None = None,
    telemetry=None,
    merge_workers: int | None = None,
) -> SortResult:
    """Sort *infile* on *system* with SRM; returns the sorted run + stats.

    Every setting is checked before any span opens or any I/O is
    charged; an empty *infile* is rejected after them.

    Parameters
    ----------
    config:
        Merge order and geometry; must match the system's ``D`` and ``B``.
    strategy:
        Start-disk policy for runs (the paper's SRM is ``RANDOMIZED``).
    rng:
        Randomness source for run placement.
    run_length:
        Records per initial run (default: the configuration's full
        memory, ``config.memory_records``).
    formation:
        ``"load_sort"`` or ``"replacement_selection"``.
    overlap:
        Drive every merge through the discrete-event overlap engine,
        timed by ``system.timing`` (``DISK_1996`` when the system has
        none); per-merge :class:`OverlapReport`\\ s land in
        ``SortResult.overlap_reports``.  Does not change the sorted
        output or the I/O counts in ``overlap.mode == "none"``.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` instance; the sort runs
        inside a ``sort`` span enclosing a ``run_formation`` span and
        one ``merge_pass`` span per pass (each merge adds its own
        ``merge`` span).  ``None`` uses the zero-overhead null layer.
    merge_workers:
        ``W`` > 1 drains every merge through the process-parallel Merge
        Path plane (:mod:`repro.core.parallel_merge`): same schedule,
        same output.  ``None`` or 1 is the serial plane.
    """
    if config.n_disks != system.n_disks or config.block_size != system.block_size:
        raise ConfigError("config geometry does not match the disk system")
    if formation not in ("load_sort", "replacement_selection"):
        raise ConfigError(f"unknown formation method {formation!r}")
    parallel_workers = None if merge_workers in (None, 1) else merge_workers
    if parallel_workers is not None:
        from .parallel_merge import check_merge_workers, parallel_merge_runs

        check_merge_workers(system, parallel_workers, overlap)
    length = run_length if run_length is not None else config.memory_records
    B = system.block_size
    if formation == "load_sort" and length < B:
        raise ConfigError(f"run length {length} is smaller than one block (B={B})")
    if length < 1:
        raise ConfigError(f"memory must hold at least 1 record, got {length}")
    if infile.n_records == 0:
        raise ConfigError("cannot sort an empty file")
    gen = ensure_rng(rng)
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    start_stats = system.stats.snapshot()

    sort_span = tel.span(
        SPAN_SORT,
        system=system,
        n_records=infile.n_records,
        n_disks=system.n_disks,
        block_size=system.block_size,
        merge_order=config.merge_order,
        formation=formation,
    )
    rf_span = tel.span(
        SPAN_RUN_FORMATION, system=system, run_length=length
    )
    form_runs = (
        form_runs_load_sort
        if formation == "load_sort"
        else form_runs_replacement_selection
    )
    runs = form_runs(system, infile, length, strategy, gen, telemetry=telemetry)
    rf_span.set(runs_formed=len(runs))
    rf_span.close()

    result = SortResult(
        output=runs[0],  # replaced once the passes are done
        config=config,
        n_records=infile.n_records,
        runs_formed=len(runs),
    )
    R = config.merge_order
    run_id = len(runs)
    while len(runs) > 1:
        pass_index = len(result.passes) + 1
        groups = [runs[i : i + R] for i in range(0, len(runs), R)]
        out_runs: list[StripedRun] = []
        starts = choose_start_disks(len(groups), system.n_disks, strategy, gen)
        pass_span = tel.span(
            SPAN_MERGE_PASS,
            system=system,
            pass_index=pass_index,
            n_runs_in=len(runs),
        )
        reads = writes = flush_ops = blocks_flushed = n_merges = 0
        for g, group in enumerate(groups):
            if len(group) == 1:
                # A leftover run passes through untouched (no I/O).
                out_runs.append(group[0])
                continue
            before = system.stats.snapshot()
            if parallel_workers is not None:
                mres = parallel_merge_runs(
                    system,
                    group,
                    output_run_id=run_id,
                    output_start_disk=int(starts[g]),
                    workers=parallel_workers,
                    validate=validate,
                    telemetry=telemetry,
                )
            else:
                mres = merge_runs(
                    system,
                    group,
                    output_run_id=run_id,
                    output_start_disk=int(starts[g]),
                    validate=validate,
                    overlap=overlap,
                    telemetry=telemetry,
                )
            run_id += 1
            delta = system.stats.since(before)
            reads += delta.parallel_reads
            writes += delta.parallel_writes
            flush_ops += mres.schedule.flush_ops
            blocks_flushed += mres.schedule.blocks_flushed
            n_merges += 1
            result.merge_schedules.append(mres.schedule)
            result.heap_cycles += mres.heap_cycles
            if mres.overlap is not None:
                result.overlap_reports.append(mres.overlap)
            out_runs.append(mres.output)
        pass_span.set(
            n_merges=n_merges,
            n_runs_out=len(out_runs),
            flush_ops=flush_ops,
            blocks_flushed=blocks_flushed,
        )
        pass_span.close()
        result.passes.append(
            PassStats(
                pass_index=pass_index,
                n_merges=n_merges,
                n_runs_in=len(runs),
                n_runs_out=len(out_runs),
                parallel_reads=reads,
                parallel_writes=writes,
                flush_ops=flush_ops,
                blocks_flushed=blocks_flushed,
            )
        )
        runs = out_runs

    result.output = runs[0]
    _close_sort(
        tel,
        sort_span,
        system,
        result,
        start_stats,
        runs_formed=result.runs_formed,
        n_merge_passes=result.n_merge_passes,
        heap_cycles=result.heap_cycles,
    )
    return result


def _close_sort(tel, sort_span, system: ParallelDiskSystem, result, start_stats,
                **attrs) -> None:
    """The one close of SRM, DSM and PSV once ``result.output`` is set.

    Scrubs the output (repairing torn writes the final pass left), sets
    ``result.io`` to the sort's I/O delta and ``result.system``, and
    closes *sort_span* with *attrs*.  A storage backend other than the
    in-memory one also publishes its ``backend.*`` counters, which
    accumulate across sorts sharing a registry (like every other
    counter), and the sort span carries this system's absolute numbers.
    """
    from ..faults.degraded import scrub_sort_output  # faults imports the drivers

    scrub_sort_output(system, result.output.addresses)
    result.io = system.stats.since(start_stats)
    result.system = system
    sort_span.set(**attrs)
    stats = system.backend.stats()
    if stats["kind"] != "memory":
        tel.counter(BACKEND_BLOCKS_WRITTEN).inc(stats.get("blocks_written", 0))
        tel.counter(BACKEND_BLOCKS_READ).inc(stats.get("blocks_read", 0))
        tel.counter(BACKEND_BYTES_WRITTEN).inc(stats.get("bytes_written", 0))
        tel.counter(BACKEND_BYTES_READ).inc(stats.get("bytes_read", 0))
        tel.counter(BACKEND_FILE_GROWS).inc(stats.get("file_grows", 0))
        tel.gauge(BACKEND_FILE_BYTES).set(stats.get("file_bytes", 0))
        sort_span.set(
            backend=stats["kind"],
            backend_file_bytes=stats.get("file_bytes", 0),
            backend_blocks_written=stats.get("blocks_written", 0),
            backend_blocks_read=stats.get("blocks_read", 0),
        )
    sort_span.close()


def srm_sort(
    keys: np.ndarray,
    config: SRMConfig,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng: RngLike = None,
    validate: bool = False,
    run_length: int | None = None,
    formation: str = "load_sort",
    payloads: np.ndarray | None = None,
    overlap: OverlapConfig | None = None,
    telemetry=None,
    faults=None,
    backend=None,
    merge_workers: int | None = None,
) -> tuple[np.ndarray, SortResult]:
    """Convenience: sort a key array on a fresh simulated disk system.

    Returns the sorted array (read back without charging I/O) and the
    :class:`SortResult` with all accounting; installing the input
    charges no I/O either.  When *payloads* are given they travel with
    their keys; fetch them via
    :meth:`SortResult.peek_sorted_records`.  *faults* — a
    :class:`~repro.faults.plan.FaultPlan` — arms deterministic fault
    injection on the fresh system before any block is placed.
    *backend* selects the block-storage backend of the fresh system
    (see :mod:`repro.disks.backends`); ``"mmap"`` keeps the data on
    disk files so inputs can exceed RAM.  The other parameters, and
    their checks, are :func:`srm_mergesort`'s.
    """
    return _sort_on_fresh_system(
        lambda system, infile: srm_mergesort(
            system, infile, config, strategy=strategy, rng=rng,
            validate=validate, run_length=run_length, formation=formation,
            overlap=overlap, telemetry=telemetry, merge_workers=merge_workers,
        ),
        config, keys, payloads, telemetry, faults, backend,
        demand_paced=overlap is None,
    )


def _sort_on_fresh_system(
    sort,
    config,
    keys: np.ndarray,
    payloads: np.ndarray | None,
    telemetry,
    faults,
    backend,
    demand_paced: bool,
):
    """Run ``sort(system, infile)`` on a fresh system holding *keys*.

    Installing the input charges no I/O.  A demand-paced sort with a
    trace collector gets ``DISK_1996`` (or its serial clock would never
    move) and a demand tracer.  A sort that raises closes the system, so
    an mmap backend leaves no scratch files.  Returns the sorted keys,
    read back uncharged, and the sort's result.
    """
    keys = np.asarray(keys, dtype=np.int64)
    system = ParallelDiskSystem(config.n_disks, config.block_size, backend=backend)
    try:
        if faults is not None:
            system.attach_faults(faults, telemetry=telemetry)
        collector = getattr(telemetry, "trace", None)
        demand_tracer = None
        if collector is not None and demand_paced:
            from ..telemetry.trace import SystemTracer

            system.timing = DISK_1996
            demand_tracer = SystemTracer(collector, collector.new_domain("demand"))
            system.tracer = demand_tracer
        infile = StripedFile.from_records(system, keys, payloads=payloads)
        result = sort(system, infile)
    except BaseException:
        system.close()
        raise
    if demand_tracer is not None:
        demand_tracer.finish(system.elapsed_ms)
    return result.peek_sorted(system), result
