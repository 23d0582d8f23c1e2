"""One-run-per-disk merging with transposition — the Pai et al. scheme.

Section 2.1 describes the merge of Pai, Schaffer and Varman [PSV94]:
``R = D`` runs, *each resident entirely on one disk*, merged with one
parallel read fetching the next block of every run.  Two structural
costs follow, and this module implements both so the paper's contrast
with SRM is executable:

* **Merge order is stuck at D.**  Memory beyond the per-run buffers
  cannot buy a wider merge, so the pass count is ``log_D`` instead of
  SRM's ``log_{kD}``.
* **A transposition pass between merge passes.**  The merged output
  must be written striped to get full write bandwidth, but the next
  pass needs each input run on a single disk again; "a mergesort based
  on their merge scheme thus requires an extra transposition pass
  between merge passes" — a full extra read+write of the data.

The merge itself reads with good parallelism only while the runs
deplete at similar rates; skew serializes reads against the binding
run.  Per-run buffering of ``F`` blocks absorbs bounded skew (their
analysis needs ``M = Ω(D^2 B)`` for efficiency).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.mergesort import PeekSorted, _close_sort
from ..core.run_formation import sorted_loads
from ..disks.block import split_into_blocks
from ..disks.counters import IOStats
from ..disks.files import StripedFile, StripeWriter
from ..disks.system import BlockAddress, ParallelDiskSystem
from ..errors import ConfigError, DataError
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import (
    H_READ_WIDTH,
    SPAN_MERGE,
    SPAN_MERGE_PASS,
    SPAN_RUN_FORMATION,
    SPAN_SORT,
    read_width_edges,
)
from .dsm import _KeyRangeReader, _merge_key_ranges


#: A sorted run's keys and aligned payloads (``None`` for bare keys).
_Records = tuple[np.ndarray, np.ndarray | None]


@dataclass
class SingleDiskRun:
    """A sorted run stored contiguously on one disk."""

    run_id: int
    disk: int
    addresses: list[BlockAddress]
    n_records: int
    block_size: int

    @property
    def n_blocks(self) -> int:
        return len(self.addresses)


def write_single_disk_runs_parallel(
    system: ParallelDiskSystem,
    run_records: list[_Records],
    first_run_id: int,
) -> list[SingleDiskRun]:
    """Write up to ``D`` sorted runs of ``(keys, payloads)``, run ``j``
    onto disk ``j``, with stripe-parallel writes (block ``i`` of every
    run in one operation) — the formation and transposition writes."""
    if len(run_records) > system.n_disks:
        raise ConfigError(
            f"{len(run_records)} runs exceed D={system.n_disks} disks"
        )
    per_run_blocks = []
    for j, (keys, payloads) in enumerate(run_records):
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            raise DataError("cannot create an empty run")
        if np.any(keys[:-1] > keys[1:]):
            raise DataError("run keys must be sorted ascending")
        per_run_blocks.append(
            split_into_blocks(
                keys, system.block_size, run_id=first_run_id + j,
                payloads=payloads,
            )
        )
    addresses: list[list[BlockAddress]] = [[] for _ in run_records]
    height = max(len(bs) for bs in per_run_blocks)
    for i in range(height):
        stripe = []
        for j, bs in enumerate(per_run_blocks):
            if i < len(bs):
                addr = system.allocate(j)
                addresses[j].append(addr)
                stripe.append((addr, bs[i]))
        system.write_stripe(stripe)
    return [
        SingleDiskRun(
            run_id=first_run_id + j,
            disk=j,
            addresses=addresses[j],
            n_records=len(keys),
            block_size=system.block_size,
        )
        for j, (keys, _) in enumerate(run_records)
    ]


class _BufferedReader(_KeyRangeReader):
    """A PSV run's reader: its slice is its next buffered block.

    ``buffer`` holds the blocks read ahead, the current one first.  A
    run with no buffered block left but blocks on disk calls *fetch*,
    the merge's one stripe read, in which its empty buffer has room.
    """

    def __init__(self, run: SingleDiskRun, fetch):
        self.run = run
        self.fetch = fetch
        self.buffer: deque[_Records] = deque()
        self.next_block = 0

    def refill(self) -> None:
        if self.data is not None:
            self.buffer.popleft()
        if not self.buffer and self.next_block < self.run.n_blocks:
            self.fetch()
        if self.buffer:
            self._take(*self.buffer[0])
        else:
            self._take(None, None)


@dataclass
class PSVMergeResult:
    """Outcome of one PSV merge (output is a striped file)."""

    output: StripedFile
    parallel_reads: int
    parallel_writes: int
    max_buffered_blocks: int


def psv_merge(
    system: ParallelDiskSystem,
    runs: list[SingleDiskRun],
    buffer_blocks_per_run: int,
    telemetry=None,
) -> PSVMergeResult:
    """Merge one-per-disk runs with stripe reads and per-run buffers.

    Each parallel read fetches the next block of every run whose buffer
    has room; the merge stalls when the run owning the globally
    smallest record has neither buffered records nor a readable block
    (buffer full elsewhere does not block it — its disk is its own).
    Output is written round-robin striped (full parallelism), which is
    precisely why a transposition is needed before the next pass.
    """
    if len(runs) < 2:
        raise DataError(f"a merge needs at least 2 runs, got {len(runs)}")
    if len({r.disk for r in runs}) != len(runs):
        raise ConfigError("PSV requires each run on its own disk")
    if buffer_blocks_per_run < 1:
        raise ConfigError("need at least one buffer block per run")

    start = system.stats.snapshot()
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    span = tel.span(
        SPAN_MERGE,
        system=system,
        n_runs=len(runs),
        n_blocks=sum(r.n_blocks for r in runs),
        n_disks=system.n_disks,
    )
    h_width = tel.histogram(H_READ_WIDTH, read_width_edges(system.n_disks))
    max_buffered = 0

    def fetch() -> None:
        """One parallel read: next block of every run with buffer room."""
        nonlocal max_buffered
        due = [
            rd
            for rd in readers
            if rd.next_block < rd.run.n_blocks
            and len(rd.buffer) < buffer_blocks_per_run
        ]
        stripe = [rd.run.addresses[rd.next_block] for rd in due]
        blocks = system.read_stripe(stripe)
        h_width.observe(len(stripe))
        for rd, addr, blk in zip(due, stripe, blocks):
            # The slot is freed while its records wait in the buffer, so
            # copy them out of a zero-copy (mmap) block first.
            pay = None if blk.payloads is None else blk.payloads.copy()
            rd.buffer.append((blk.keys.copy(), pay))
            system.free(addr)
            rd.next_block += 1
        max_buffered = max(max_buffered, sum(len(rd.buffer) for rd in readers))

    readers = [_BufferedReader(run, fetch) for run in runs]
    output, cycles = _merge_key_ranges(system, readers, telemetry=telemetry)
    delta = system.stats.since(start)
    span.set(merge_parreads=delta.parallel_reads, heap_cycles=cycles)
    span.close()
    return PSVMergeResult(
        output=output,
        parallel_reads=delta.parallel_reads,
        parallel_writes=delta.parallel_writes,
        max_buffered_blocks=max_buffered,
    )


@dataclass
class PSVSortResult(PeekSorted):
    """Outcome of a full PSV mergesort."""

    output: StripedFile
    n_records: int
    runs_formed: int
    n_merge_passes: int = 0
    n_transpositions: int = 0
    io: IOStats | None = None
    system: ParallelDiskSystem | None = None

    @property
    def total_parallel_ios(self) -> int:
        return self.io.parallel_ios if self.io is not None else 0


def psv_mergesort(
    system: ParallelDiskSystem,
    infile: StripedFile,
    run_length: int,
    buffer_blocks_per_run: int = 4,
    telemetry=None,
) -> PSVSortResult:
    """Full PSV-style sort: D-way merges with transposition passes.

    Run formation writes one-per-disk runs directly (no transposition
    needed before the first pass); every subsequent pass transposes the
    striped outputs back onto single disks — the structural overhead
    SRM's cyclic-striped output avoids.
    """
    B, D = system.block_size, system.n_disks
    if D < 2:
        raise ConfigError("PSV needs at least two disks")
    if run_length < B:
        raise ConfigError(f"run length {run_length} smaller than one block")
    if buffer_blocks_per_run < 1:
        raise ConfigError("need at least one buffer block per run")
    if infile.n_records == 0:
        raise ConfigError("cannot sort an empty file")
    start = system.stats.snapshot()
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    sort_span = tel.span(
        SPAN_SORT,
        system=system,
        n_records=infile.n_records,
        n_disks=D,
        block_size=B,
        merge_order=D,
        formation="load_sort",
    )
    rf_span = tel.span(SPAN_RUN_FORMATION, system=system, run_length=run_length)
    # Run formation keeps the sorted loads in memory; the first pass
    # places them one per disk, D at a time.
    level: list[_Records | StripedFile] = list(
        sorted_loads(system, infile, run_length, telemetry=telemetry)
    )
    rf_span.set(runs_formed=len(level))
    rf_span.close()

    result = PSVSortResult(
        output=infile,  # placeholder
        n_records=infile.n_records,
        runs_formed=len(level),
    )

    run_id = 0
    # A level holds in-memory loads (placing them one per disk is the
    # formation write) and striped merge outputs (gathering one back is
    # the transposition READ, re-placing it the transposition WRITE).
    while len(level) > 1:
        next_level: list[_Records | StripedFile] = []
        transposed = False
        pass_span = tel.span(
            SPAN_MERGE_PASS,
            system=system,
            pass_index=result.n_merge_passes + 1,
            n_runs_in=len(level),
        )
        for g in range(0, len(level), D):
            group = level[g : g + D]
            if len(group) == 1:
                next_level.append(group[0])
                continue
            records = []
            for item in group:
                if isinstance(item, StripedFile):
                    records.append(item.read_all_records(system))
                    for a in item.addresses:
                        system.free(a)
                    transposed = True
                else:
                    records.append(item)
            runs = write_single_disk_runs_parallel(system, records, run_id)
            run_id += len(records)
            mres = psv_merge(
                system, runs, buffer_blocks_per_run, telemetry=telemetry
            )
            next_level.append(mres.output)
        result.n_merge_passes += 1
        if transposed:
            result.n_transpositions += 1
        pass_span.set(n_runs_out=len(next_level), transposed=transposed)
        pass_span.close()
        level = next_level

    if isinstance(level[0], StripedFile):
        result.output = level[0]
    else:
        # Degenerate single-run input: write it out striped once.
        writer = StripeWriter(system)
        writer.append(*level[0])
        result.output = writer.finish()
    _close_sort(
        tel,
        sort_span,
        system,
        result,
        start,
        runs_formed=result.runs_formed,
        n_merge_passes=result.n_merge_passes,
        n_transpositions=result.n_transpositions,
    )
    return result
