"""Disk-striped mergesort — DSM, the paper's practical baseline (§9.1).

DSM coordinates the disks: every parallel I/O accesses the *same slot on
all D disks*, which has "the logical effect of sorting with D' = 1 disk
and block size B' = DB".  Striping makes every read and write perfectly
parallel by construction — the price is the merge order.  Where SRM
merges ``R = kD`` runs in memory ``M = (2k+4)DB + kD^2``, DSM merges
only ``(M/B - 2D)/2D = k + 1 + kD/2B`` runs, so it needs
``ln(kD)/ln(k + 1 + kD/2B)`` times as many passes.

This module implements DSM end-to-end on the same simulated substrate
as SRM: superblock-striped runs, memory-load run formation, and R-way
merge passes, with exact I/O accounting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..disks.block import Block, split_into_blocks
from ..disks.counters import IOStats
from ..disks.files import StripedFile
from ..disks.system import BlockAddress, ParallelDiskSystem
from ..errors import ConfigError, DataError
from ..rng import RngLike
from ..core.config import DSMConfig
from ..core.keyorder import stable_argsort
from ..core.mergesort import _sort_on_fresh_system
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import (
    H_DRAIN_BATCH,
    H_READ_WIDTH,
    H_RUN_LENGTH,
    MERGE_DRAIN_CYCLES,
    SPAN_MERGE,
    SPAN_MERGE_PASS,
    SPAN_RUN_FORMATION,
    SPAN_SORT,
    batch_edges,
    read_width_edges,
    run_length_edges,
)


@dataclass
class SuperblockRun:
    """A sorted run stored as synchronized stripes (logical superblocks).

    Stripe ``j`` is the set of blocks at matching slots across the
    disks; reading or writing one stripe is one parallel I/O moving up
    to ``D·B`` records.
    """

    run_id: int
    stripes: list[list[BlockAddress]]
    n_records: int
    block_size: int
    n_disks: int

    @property
    def n_superblocks(self) -> int:
        return len(self.stripes)

    def read_all(self, system: ParallelDiskSystem) -> np.ndarray:
        """Read the run back in order (one parallel I/O per stripe)."""
        parts = []
        for stripe in self.stripes:
            blocks = system.read_stripe(stripe)
            parts.extend(b.keys for b in blocks if b is not None)
        return np.concatenate(parts)


def write_superblock_run(
    system: ParallelDiskSystem,
    keys: np.ndarray,
    run_id: int,
    payloads: np.ndarray | None = None,
) -> SuperblockRun:
    """Write sorted *keys* as a superblock-striped run (full parallelism)."""
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        raise DataError("cannot create an empty run")
    if np.any(keys[:-1] > keys[1:]):
        raise DataError("run keys must be sorted ascending")
    blocks = split_into_blocks(
        keys, system.block_size, run_id=run_id, payloads=payloads
    )
    D = system.n_disks
    stripes: list[list[BlockAddress]] = []
    for s in range(0, len(blocks), D):
        chunk = blocks[s : s + D]
        addrs = [system.allocate(d) for d in range(len(chunk))]
        system.write_stripe(list(zip(addrs, chunk)))
        stripes.append(addrs)
    return SuperblockRun(
        run_id=run_id,
        stripes=stripes,
        n_records=int(keys.size),
        block_size=system.block_size,
        n_disks=D,
    )


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
class DSMSortResult:
    """Outcome of a DSM external sort."""

    output: SuperblockRun
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
        return self._system(system).peek_records(
            [addr for stripe in self.output.stripes for addr in stripe]
        )


class _SuperblockReader:
    """Streams one run superblock-by-superblock (1 parallel I/O each).

    Each superblock's slots are freed as soon as it is read.
    """

    def __init__(
        self,
        system: ParallelDiskSystem,
        run: SuperblockRun,
        telemetry=None,
    ):
        self.system = system
        self.run = run
        self.next_stripe = 0
        self.data: np.ndarray | None = None
        self.pay: np.ndarray | None = None
        self.offset = 0
        self.stripe_reads = 0
        tel = telemetry if telemetry is not None else TELEMETRY_OFF
        self._h_width = tel.histogram(
            H_READ_WIDTH, read_width_edges(system.n_disks)
        )
        self._load()

    def _load(self) -> None:
        if self.next_stripe >= self.run.n_superblocks:
            self.data = None
            self.pay = None
            return
        stripe = self.run.stripes[self.next_stripe]
        blocks = self.system.read_stripe(stripe)
        self.stripe_reads += 1
        self._h_width.observe(len(stripe))
        for addr in stripe:
            self.system.free(addr)
        self.next_stripe += 1
        live = [b for b in blocks if b is not None]
        self.data = np.concatenate([b.keys for b in live])
        self.pay = (
            None
            if live[0].payloads is None
            else np.concatenate([b.payloads for b in live])
        )
        self.offset = 0

    @property
    def exhausted(self) -> bool:
        return self.data is None

    def current_key(self) -> int:
        assert self.data is not None
        return int(self.data[self.offset])

    def consume_until(
        self, limit: int | None
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Consume records strictly below *limit* (at least one)."""
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
            self._load()
        else:
            self.offset = hi
        return out, out_pay


class _SuperblockWriter:
    """Accumulates output and writes full superblocks (2D-block buffer)."""

    def __init__(self, system: ParallelDiskSystem, run_id: int):
        self.system = system
        self.run_id = run_id
        #: Buffered (rows, n) chunks: rows = 1 (keys) or 2 (keys; payloads).
        self._chunks: list[np.ndarray] = []
        self._pending = 0
        self._n_records = 0
        self.stripes: list[list[BlockAddress]] = []

    def append(self, keys: np.ndarray, payloads: np.ndarray | None = None) -> None:
        if keys.size == 0:
            return
        chunk = (
            keys[np.newaxis, :]
            if payloads is None
            else np.stack([keys, payloads])
        )
        self._chunks.append(chunk)
        self._pending += keys.size
        cap = self.system.n_disks * self.system.block_size
        while self._pending >= cap:
            data = np.concatenate(self._chunks, axis=1)
            self._write_superblock(data[:, :cap])
            rest = data[:, cap:]
            self._chunks = [rest] if rest.shape[1] else []
            self._pending = int(rest.shape[1])

    def _write_superblock(self, data: np.ndarray) -> None:
        blocks = split_into_blocks(
            data[0],
            self.system.block_size,
            run_id=self.run_id,
            payloads=data[1] if data.shape[0] == 2 else None,
        )
        addrs = [self.system.allocate(d) for d in range(len(blocks))]
        self.system.write_stripe(list(zip(addrs, blocks)))
        self.stripes.append(addrs)
        self._n_records += int(data.shape[1])

    def finalize(self) -> SuperblockRun:
        if self._pending:
            self._write_superblock(np.concatenate(self._chunks, axis=1))
            self._chunks = []
            self._pending = 0
        if self._n_records == 0:
            raise DataError("cannot finalize an empty run")
        return SuperblockRun(
            run_id=self.run_id,
            stripes=self.stripes,
            n_records=self._n_records,
            block_size=self.system.block_size,
            n_disks=self.system.n_disks,
        )


def merge_superblock_runs(
    system: ParallelDiskSystem,
    runs: list[SuperblockRun],
    output_run_id: int,
    telemetry=None,
) -> SuperblockRun:
    """Merge superblock runs the DSM way (single-disk logic on stripes)."""
    if len(runs) < 2:
        raise DataError(f"a merge needs at least 2 runs, got {len(runs)}")
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    n_blocks = sum(len(s) for r in runs for s in r.stripes)
    span = tel.span(
        SPAN_MERGE,
        system=system,
        n_runs=len(runs),
        n_blocks=n_blocks,
        n_disks=system.n_disks,
    )
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    readers = [_SuperblockReader(system, r, telemetry=telemetry) for r in runs]
    writer = _SuperblockWriter(system, output_run_id)
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
        if not readers[i].exhausted:
            heapq.heappush(heap, (readers[i].current_key(), i))
    m_cycles.inc(cycles)
    result = writer.finalize()
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
    blocks_per_run = length // B

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
    h_len = tel.histogram(H_RUN_LENGTH, run_length_edges(length))

    # Run formation: memory loads, sorted, written as superblock runs.
    runs: list[SuperblockRun] = []
    n_runs = -(-infile.n_blocks // blocks_per_run)
    for i in range(n_runs):
        chunk = infile.addresses[i * blocks_per_run : (i + 1) * blocks_per_run]
        blocks, _ = system.read_batch(chunk)
        keys = np.concatenate([b.keys for b in blocks])
        if blocks[0].payloads is not None:
            payloads = np.concatenate([b.payloads for b in blocks])
            order = stable_argsort(keys)
            keys = keys[order]
            payloads = payloads[order]
        else:
            payloads = None
            keys.sort()
        for addr in chunk:
            system.free(addr)
        h_len.observe(keys.size)
        runs.append(write_superblock_run(system, keys, run_id=i, payloads=payloads))
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
        out_runs: list[SuperblockRun] = []
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
    if system.faults is not None and system.faults.plan.torn_write_p > 0.0:
        # Same closing move as SRM: scrub the output run's seals so a
        # tear in the final pass is repaired before anyone reads it.
        from ..faults.degraded import scrub_addresses

        scrub_addresses(
            system, [a for stripe in runs[0].stripes for a in stripe]
        )
    result.system = system
    result.io = system.stats.since(start_stats)
    sort_span.set(
        runs_formed=result.runs_formed, n_merge_passes=result.n_merge_passes
    )
    sort_span.close()
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
