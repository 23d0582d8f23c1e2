"""Disk-striped mergesort — DSM, the paper's practical baseline (§9.1).

DSM coordinates the disks: every parallel I/O accesses the *same slot on
all D disks*, which has "the logical effect of sorting with D' = 1 disk
and block size B' = DB".  Striping makes every read and write perfectly
parallel by construction — the price is the merge order.  Where SRM
merges ``R = kD`` runs in memory ``M = (2k+4)DB + kD^2``, DSM merges
only ``(M/B - 2D)/2D = k + 1 + kD/2B`` runs, so it needs
``ln(kD)/ln(k + 1 + kD/2B)`` times as many passes.

This module implements DSM end-to-end on the same simulated substrate
as SRM, with exact I/O accounting: SRM's memory-load pass
(:func:`~repro.core.run_formation.sorted_loads`) forms the runs, and
R-way merge passes merge them.  A DSM run is a
:class:`~repro.disks.files.StripedFile` — block ``j`` on disk
``j mod D`` — whose superblock ``s`` is stripe ``s``, written by the
shared :class:`~repro.disks.files.StripeWriter`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..disks.counters import IOStats
from ..disks.files import StripedFile, StripeWriter
from ..disks.system import ParallelDiskSystem
from ..errors import ConfigError, DataError
from ..core.config import DSMConfig
from ..core.mergesort import PeekSorted, _close_sort, _sort_on_fresh_system
from ..core.run_formation import sorted_loads
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import (
    H_DRAIN_BATCH,
    H_READ_WIDTH,
    MERGE_DRAIN_CYCLES,
    SPAN_MERGE,
    SPAN_MERGE_PASS,
    SPAN_RUN_FORMATION,
    SPAN_SORT,
    batch_edges,
    read_width_edges,
)


def write_superblock_run(
    system: ParallelDiskSystem,
    keys: np.ndarray,
    run_id: int,
    payloads: np.ndarray | None = None,
) -> StripedFile:
    """Write sorted *keys* as a DSM run, one parallel write per superblock."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        raise DataError("cannot create an empty run")
    if np.any(keys[:-1] > keys[1:]):
        raise DataError("run keys must be sorted ascending")
    writer = StripeWriter(system, run_id)
    writer.append(keys, payloads)
    return writer.finish()


@dataclass(frozen=True, slots=True)
class DSMPassStats:
    """I/O accounting of one DSM merge pass."""

    pass_index: int
    n_merges: int
    n_runs_in: int
    n_runs_out: int
    parallel_reads: int
    parallel_writes: int


@dataclass
class DSMSortResult(PeekSorted):
    """Outcome of a DSM external sort."""

    output: StripedFile
    config: DSMConfig
    n_records: int
    runs_formed: int
    passes: list[DSMPassStats] = field(default_factory=list)
    io: IOStats | None = None
    #: The disk system the sort ran on, for the peek helpers.
    system: ParallelDiskSystem | None = None

    @property
    def n_merge_passes(self) -> int:
        return len(self.passes)

    @property
    def total_parallel_ios(self) -> int:
        return self.io.parallel_ios if self.io is not None else 0


class _KeyRangeReader:
    """One sorted run, read a loaded slice (``data``/``pay``) at a time.

    A subclass defines :meth:`refill`, which replaces the slice with the
    run's next one, or sets ``data`` to ``None`` at the run's end.
    """

    data: np.ndarray | None = None
    pay: np.ndarray | None = None
    offset = 0

    def refill(self) -> None:
        raise NotImplementedError

    def _take(self, data: np.ndarray | None, pay: np.ndarray | None) -> None:
        self.data, self.pay, self.offset = data, pay, 0

    def current_key(self) -> int:
        assert self.data is not None
        return int(self.data[self.offset])

    def consume_until(
        self, limit: int | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Consume records strictly below *limit* (at least one).

        A slice used up is refilled before the records are returned.
        """
        assert self.data is not None
        off = self.offset
        if limit is None:
            hi = self.data.size
        else:
            hi = int(np.searchsorted(self.data, limit, side="left"))
            if hi <= off:
                hi = off + 1
        out = self.data[off:hi]
        out_pay = None if self.pay is None else self.pay[off:hi]
        if hi == self.data.size:
            self.refill()
        else:
            self.offset = hi
        return out, out_pay


def _merge_key_ranges(
    system: ParallelDiskSystem,
    readers: list[_KeyRangeReader],
    output_run_id: int = -1,
    telemetry=None,
) -> tuple[StripedFile, int]:
    """The baselines' key-range merge; returns the output and its cycles.

    Each reader is loaded in order.  Each cycle pops the run with the
    smallest head ``(key, run)``, takes every record below the next
    head in one slice, and appends it, payloads too, to a
    :class:`StripeWriter`.  Only a reader's refill differs between DSM
    (the run's next stripe) and PSV (the run's next buffered block).
    """
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    for rd in readers:
        rd.refill()
    writer = StripeWriter(system, output_run_id)
    heap = [(rd.current_key(), i) for i, rd in enumerate(readers)]
    heapq.heapify(heap)
    cycles = 0
    while heap:
        _, i = heapq.heappop(heap)
        limit = heap[0][0] if heap else None
        out, out_pay = readers[i].consume_until(limit)
        writer.append(out, out_pay)
        h_batch.observe(out.size)
        cycles += 1
        if readers[i].data is not None:
            heapq.heappush(heap, (readers[i].current_key(), i))
    m_cycles.inc(cycles)
    return writer.finish(), cycles


class _SuperblockReader(_KeyRangeReader):
    """Streams one DSM run superblock-by-superblock (1 parallel I/O each).

    Superblock ``s`` is stripe ``s`` of the run, blocks ``sD .. sD+D-1``;
    its slots are freed as soon as it is read.
    """

    def __init__(self, system: ParallelDiskSystem, run: StripedFile, h_width):
        self.system = system
        self.run = run
        self.next_stripe = 0
        self.stripe_reads = 0
        self._h_width = h_width

    def refill(self) -> None:
        D, s = self.system.n_disks, self.next_stripe
        stripe = self.run.addresses[s * D : (s + 1) * D]
        if not stripe:
            self._take(None, None)
            return
        blocks = self.system.read_stripe(stripe)
        self.stripe_reads += 1
        self._h_width.observe(len(stripe))
        for addr in stripe:
            self.system.free(addr)
        self.next_stripe += 1
        self._take(
            np.concatenate([b.keys for b in blocks]),
            None
            if blocks[0].payloads is None
            else np.concatenate([b.payloads for b in blocks]),
        )


def merge_superblock_runs(
    system: ParallelDiskSystem,
    runs: list[StripedFile],
    output_run_id: int,
    telemetry=None,
) -> StripedFile:
    """Merge superblock runs the DSM way (single-disk logic on stripes)."""
    if len(runs) < 2:
        raise DataError(f"a merge needs at least 2 runs, got {len(runs)}")
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    n_blocks = sum(r.n_blocks for r in runs)
    span = tel.span(
        SPAN_MERGE,
        system=system,
        n_runs=len(runs),
        n_blocks=n_blocks,
        n_disks=system.n_disks,
    )
    h_width = tel.histogram(H_READ_WIDTH, read_width_edges(system.n_disks))
    readers = [_SuperblockReader(system, r, h_width) for r in runs]
    result, cycles = _merge_key_ranges(
        system, readers, output_run_id, telemetry=telemetry
    )
    # DSM's reads are all demand stripe reads; report them through the
    # same attribute the SRM merge span uses so inspect's per-merge
    # table covers both algorithms.
    span.set(
        merge_parreads=sum(rd.stripe_reads for rd in readers),
        heap_cycles=cycles,
    )
    span.close()
    return result


def dsm_mergesort(
    system: ParallelDiskSystem,
    infile: StripedFile,
    config: DSMConfig,
    run_length: int | None = None,
    telemetry=None,
) -> DSMSortResult:
    """Sort *infile* with DSM; returns the sorted run and I/O accounting.

    Run formation is one memory-load pass (runs of ``run_length``
    records, default the configuration's memory
    ``M = 2D·B·(R + 1)``), followed by ``ceil(log_R(runs))`` merge
    passes of order ``R = config.merge_order``.
    """
    if config.n_disks != system.n_disks or config.block_size != system.block_size:
        raise ConfigError("config geometry does not match the disk system")
    length = run_length if run_length is not None else config.memory_records
    B = system.block_size
    if length < B:
        raise ConfigError(f"run length {length} smaller than one block (B={B})")
    if infile.n_records == 0:
        raise ConfigError("cannot sort an empty file")
    start_stats = system.stats.snapshot()
    tel = telemetry if telemetry is not None else TELEMETRY_OFF

    sort_span = tel.span(
        SPAN_SORT,
        system=system,
        n_records=infile.n_records,
        n_disks=system.n_disks,
        block_size=B,
        merge_order=config.merge_order,
        formation="load_sort",
    )
    rf_span = tel.span(SPAN_RUN_FORMATION, system=system, run_length=length)

    # Run formation: memory loads, sorted, written as superblock runs.
    runs = [
        write_superblock_run(system, keys, run_id=i, payloads=payloads)
        for i, (keys, payloads) in enumerate(
            sorted_loads(system, infile, length, telemetry=telemetry)
        )
    ]
    rf_span.set(runs_formed=len(runs))
    rf_span.close()

    result = DSMSortResult(
        output=runs[0],
        config=config,
        n_records=infile.n_records,
        runs_formed=len(runs),
    )

    R = config.merge_order
    run_id = len(runs)
    pass_index = 0
    while len(runs) > 1:
        pass_index += 1
        before = system.stats.snapshot()
        groups = [runs[i : i + R] for i in range(0, len(runs), R)]
        pass_span = tel.span(
            SPAN_MERGE_PASS,
            system=system,
            pass_index=pass_index,
            n_runs_in=len(runs),
        )
        out_runs: list[StripedFile] = []
        n_merges = 0
        for group in groups:
            if len(group) == 1:
                out_runs.append(group[0])
                continue
            out_runs.append(
                merge_superblock_runs(
                    system, group, run_id, telemetry=telemetry
                )
            )
            run_id += 1
            n_merges += 1
        pass_span.set(n_merges=n_merges, n_runs_out=len(out_runs))
        pass_span.close()
        delta = system.stats.since(before)
        result.passes.append(
            DSMPassStats(
                pass_index=pass_index,
                n_merges=n_merges,
                n_runs_in=len(runs),
                n_runs_out=len(out_runs),
                parallel_reads=delta.parallel_reads,
                parallel_writes=delta.parallel_writes,
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
    )
    return result


def dsm_sort(
    keys: np.ndarray,
    config: DSMConfig,
    run_length: int | None = None,
    payloads: np.ndarray | None = None,
    telemetry=None,
    faults=None,
    backend=None,
) -> tuple[np.ndarray, DSMSortResult]:
    """Convenience: DSM-sort a key array on a fresh simulated system.

    *faults* — a :class:`~repro.faults.plan.FaultPlan` — arms
    deterministic fault injection before any block is placed.
    *backend* selects the block-storage backend of the fresh system
    (see :mod:`repro.disks.backends`), so the DSM baseline can run
    out-of-core side by side with SRM.
    """
    return _sort_on_fresh_system(
        lambda system, infile: dsm_mergesort(
            system, infile, config, run_length=run_length, telemetry=telemetry
        ),
        config, keys, payloads, telemetry, faults, backend, demand_paced=True,
    )
