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

from dataclasses import dataclass

import numpy as np

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


def write_single_disk_run(
    system: ParallelDiskSystem, keys: np.ndarray, run_id: int, disk: int
) -> SingleDiskRun:
    """Write sorted *keys* entirely onto *disk* (one op per block)."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        raise DataError("cannot create an empty run")
    if np.any(keys[:-1] > keys[1:]):
        raise DataError("run keys must be sorted ascending")
    blocks = split_into_blocks(keys, system.block_size, run_id=run_id)
    addresses = []
    for blk in blocks:
        addr = system.allocate(disk)
        system.write_stripe([(addr, blk)])
        addresses.append(addr)
    return SingleDiskRun(
        run_id=run_id,
        disk=disk,
        addresses=addresses,
        n_records=int(keys.size),
        block_size=system.block_size,
    )


def write_single_disk_runs_parallel(
    system: ParallelDiskSystem, run_keys: list[np.ndarray], first_run_id: int
) -> list[SingleDiskRun]:
    """Write up to ``D`` runs, run ``j`` onto disk ``j``, with stripe-
    parallel writes (block ``i`` of every run in one operation) —
    the transposition pass's write side."""
    if len(run_keys) > system.n_disks:
        raise ConfigError(
            f"{len(run_keys)} runs exceed D={system.n_disks} disks"
        )
    per_run_blocks = [
        split_into_blocks(np.asarray(k, dtype=np.int64), system.block_size,
                          run_id=first_run_id + j)
        for j, k in enumerate(run_keys)
    ]
    addresses: list[list[BlockAddress]] = [[] for _ in run_keys]
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
            n_records=int(np.asarray(run_keys[j]).size),
            block_size=system.block_size,
        )
        for j in range(len(run_keys))
    ]


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
    n = len(runs)
    next_block = [0] * n
    buffers: list[list[np.ndarray]] = [[] for _ in range(n)]
    offsets = [0] * n
    max_buffered = 0

    def fill(force_run: int | None = None) -> None:
        """One parallel read: next block of every run with buffer room.

        *force_run* must receive a block even if its buffer is full
        (it cannot be: the merge only forces when it ran dry)."""
        nonlocal max_buffered
        stripe = []
        targets = []
        for j, run in enumerate(runs):
            if next_block[j] >= run.n_blocks:
                continue
            if len(buffers[j]) >= buffer_blocks_per_run and j != force_run:
                continue
            stripe.append(run.addresses[next_block[j]])
            targets.append(j)
        if not stripe:
            return
        blocks = system.read_stripe(stripe)
        h_width.observe(len(stripe))
        for j, blk in zip(targets, blocks):
            system.free(runs[j].addresses[next_block[j]])
            next_block[j] += 1
            buffers[j].append(blk.keys)
        max_buffered = max(max_buffered, sum(len(b) for b in buffers))

    import heapq

    fill()
    heap = []
    for j in range(n):
        if buffers[j]:
            heap.append((int(buffers[j][0][0]), j))
    heapq.heapify(heap)

    writer = StripeWriter(system)

    while heap:
        key, j = heapq.heappop(heap)
        limit = heap[0][0] if heap else None
        if not buffers[j]:
            fill(force_run=j)
            if not buffers[j]:  # pragma: no cover - defensive
                raise DataError(f"run {j} starved with blocks remaining")
        data = buffers[j][0]
        off = offsets[j]
        if limit is None:
            hi = data.size
        else:
            hi = int(np.searchsorted(data, limit, side="left"))
            if hi <= off:
                hi = off + 1
        writer.append(data[off:hi])
        if hi == data.size:
            buffers[j].pop(0)
            offsets[j] = 0
        else:
            offsets[j] = hi
        # Re-arm the run if it still has records (buffered or on disk).
        if buffers[j]:
            heapq.heappush(heap, (int(buffers[j][0][offsets[j]]), j))
        elif next_block[j] < runs[j].n_blocks:
            fill(force_run=j)
            heapq.heappush(heap, (int(buffers[j][0][0]), j))
    output = writer.finish()

    delta = system.stats.since(start)
    span.set(merge_parreads=delta.parallel_reads)
    span.close()
    return PSVMergeResult(
        output=output,
        parallel_reads=delta.parallel_reads,
        parallel_writes=delta.parallel_writes,
        max_buffered_blocks=max_buffered,
    )


@dataclass
class PSVSortResult:
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

    def peek_sorted(self) -> np.ndarray:
        """Read the sorted output without charging I/O."""
        if self.system is None:
            raise ConfigError("no disk system attached")
        return self.system.peek_records(self.output.addresses)[0]


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
    sorted_chunks = [
        keys
        for keys, _ in sorted_loads(system, infile, run_length, telemetry=telemetry)
    ]
    rf_span.set(runs_formed=len(sorted_chunks))
    rf_span.close()

    result = PSVSortResult(
        output=infile,  # placeholder
        n_records=infile.n_records,
        runs_formed=len(sorted_chunks),
    )

    run_id = 0
    # Level entries are either in-memory arrays (fresh from run
    # formation — their one-per-disk placement below is the formation
    # write) or striped merge outputs (whose gather-back is the
    # transposition READ and whose re-placement is the transposition
    # WRITE).
    level: list[tuple[str, object]] = [("mem", k) for k in sorted_chunks]
    while len(level) > 1:
        next_level: list[tuple[str, object]] = []
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
            arrays: list[np.ndarray] = []
            for kind, item in group:
                if kind == "mem":
                    arrays.append(item)  # type: ignore[arg-type]
                else:
                    striped: StripedFile = item  # type: ignore[assignment]
                    blocks, _ = system.read_batch(striped.addresses)
                    arrays.append(np.concatenate([b.keys for b in blocks]))
                    for a in striped.addresses:
                        system.free(a)
                    transposed = True
            runs = write_single_disk_runs_parallel(system, arrays, run_id)
            run_id += len(arrays)
            mres = psv_merge(
                system, runs, buffer_blocks_per_run, telemetry=telemetry
            )
            next_level.append(("striped", mres.output))
        result.n_merge_passes += 1
        if transposed:
            result.n_transpositions += 1
        pass_span.set(n_runs_out=len(next_level), transposed=transposed)
        pass_span.close()
        level = next_level

    kind, item = level[0]
    if kind == "striped":
        result.output = item  # type: ignore[assignment]
    else:
        # Degenerate single-run input: write it out striped once.
        writer = StripeWriter(system)
        writer.append(item)  # type: ignore[arg-type]
        result.output = writer.finish()
    if system.faults is not None and system.faults.plan.torn_write_p > 0.0:
        # Same closing move as SRM and DSM: scrub the output's seals so
        # a tear in the final pass is repaired before anyone reads it.
        from ..faults.degraded import scrub_addresses

        scrub_addresses(system, result.output.addresses)
    result.io = system.stats.since(start)
    result.system = system
    sort_span.set(
        runs_formed=result.runs_formed,
        n_merge_passes=result.n_merge_passes,
        n_transpositions=result.n_transpositions,
    )
    sort_span.close()
    return result
