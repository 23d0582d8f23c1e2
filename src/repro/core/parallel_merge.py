"""Process-parallel merge data plane via Merge Path co-rank partitioning.

The serial planes (:mod:`repro.core.losertree`) interleave two jobs in
one loop: *deciding* the §5.5 I/O schedule (ParReads, flushes — pure
block-boundary bookkeeping) and *moving records* (argsort + writer-ring
copies — the CPU-bound part PR 2 vectorized).  This module splits them:

1. **Ghost schedule drive** — replay the exact ParRead/flush/free
   stream of ``merge_loop_batched`` using only block metadata.  Drains
   never mutate the forecasting structure, so between two ParReads the
   galloping bound is constant; a resident block is fully consumed by a
   drain iff its last key precedes the bound under the ``(key, run)``
   tie-break (``last <= bound`` for ``run <= bound_run``, strict
   otherwise).  That decision needs no record data, so the ghost drive
   issues the bit-identical I/O schedule — same reads, same flushes,
   same frees in the same ``(last_key, run, block)`` order — without
   touching a single record.

2. **Merge Path co-rank partition** (Green, Odeh & Birk) — cut the
   merged output into ``W`` contiguous ranges of (near-)equal size.
   For each cut rank ``t`` a binary search over the int64 key domain
   finds the ``t``-th smallest ``(key, run, position)`` triple using
   per-run counts assembled from run metadata (``first_keys`` /
   ``last_keys``) plus at most one straddling-block probe per run —
   all uncharged metadata work, like the extent maps themselves.

3. **Worker drain** — each range's run segments are merged by a worker
   in a ``concurrent.futures`` process pool.  Workers reopen the mmap
   backend's disk files read-only and slice key/payload views straight
   out of the slot records (no block pickling; only file paths, slot
   tables and cut offsets cross the process boundary), then write their
   merged range into a disjoint region of a shared scratch file.

4. **Stitch** — the parent streams the scratch file through the
   ordinary :class:`~repro.core.writer.RunWriter`, so output stripes,
   forecast implants, write parallelism and the ``M_W = 2D`` discipline
   are byte-for-byte those of the serial plane.

``workers == 1`` runs the same partition + drain in-process (any
backend); ``workers > 1`` requires the mmap backend, since worker
processes share the data through the file system.
"""

from __future__ import annotations

import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from ..disks.backends.mmapfile import MmapFileBackend, SlotLayout, open_disk_flat
from ..disks.files import StripedRun
from ..disks.system import ParallelDiskSystem
from ..errors import ConfigError, DataError, ScheduleError
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import (
    PMERGE_GHOST_ROUNDS,
    PMERGE_MERGES,
    PMERGE_PARTITION_PROBES,
    PMERGE_RANGES,
    PMERGE_RECORDS,
    PMERGE_WORKERS,
    EV_PMERGE_WORKER,
    SPAN_PMERGE,
    SPAN_PMERGE_PARTITION,
    SPAN_PMERGE_STITCH,
    SPAN_PMERGE_WORKERS,
)
from .config import OverlapConfig
from .forecasting import ties_precede
from .job import MergeJob
from .keyorder import stable_argsort
from .merge import MergeResult, _check_forecast, _close_merge
from .schedule import MergeScheduler
from .writer import RunWriter

__all__ = ["parallel_merge_runs", "corank_cuts", "ghost_drive"]


# ---------------------------------------------------------------------------
# Stage 1: ghost schedule drive.
# ---------------------------------------------------------------------------


def ghost_drive(
    sched: MergeScheduler,
    runs: list[StripedRun],
    system: ParallelDiskSystem,
) -> int:
    """Replay the batched drain's I/O schedule from block metadata only.

    Mirrors ``merge_loop_batched`` decision-for-decision: compute the
    galloping bound from the forecasting structure, retire every
    resident block whose records all precede it (firing depletions in
    ``(last_key, run, block)`` order, freeing input slots like the real
    loop), then demand-fetch the bound's block.  Record offsets inside
    straddling blocks never influence the scheduler, so the ParRead /
    flush / free stream is bit-identical to the serial data plane's.

    Returns the number of drive rounds (≈ merge ParReads + 1).
    """
    job = sched.job
    R = job.n_runs
    n_blocks = [job.blocks_in_run(r) for r in range(R)]
    rounds = 0
    while not sched.finished():
        rounds += 1
        bk, br = sched.fds.galloping_bound()
        depleted: list[tuple[int, int, int]] = []  # (last_key, run, block)
        leading = sched.leading
        for r in range(R):
            b = leading[r]
            tie = ties_precede(r, br)
            while b < n_blocks[r] and sched.is_resident(r, b):
                last = int(job.last_keys[r][b])
                if not (last < bk or (last == bk and tie)):
                    break
                depleted.append((last, r, b))
                b += 1

        depleted.sort()
        for _, r, b in depleted:
            system.free(runs[r].addresses[b])
            sched.on_leading_depleted(r)

        if sched.finished():
            break
        if br < 0:  # pragma: no cover - finished() guards this
            raise ScheduleError("ghost drive stalled with no on-disk blocks")
        # Everything before the bound is consumed; the serial loop's
        # next action is the demand fetch of the bound's leading block.
        sched.ensure_resident(br, sched.leading[br])
    return rounds


# ---------------------------------------------------------------------------
# Stage 2: Merge Path co-rank partitioning.
# ---------------------------------------------------------------------------


class _RunIndex:
    """Rank queries over one run from metadata + cached block probes."""

    def __init__(self, system: ParallelDiskSystem, run: StripedRun) -> None:
        self.system = system
        self.run = run
        self.first = np.asarray(run.first_keys, dtype=np.int64)
        self.last = np.asarray(run.last_keys, dtype=np.int64)
        self.B = run.block_size
        self.n = run.n_records
        self.n_blocks = len(run.addresses)
        self._cache: dict[int, np.ndarray] = {}
        self.probes = 0

    def _block_keys(self, b: int) -> np.ndarray:
        keys = self._cache.get(b)
        if keys is None:
            # Uncharged metadata access, like the extent map itself: the
            # §5.5 schedule (replayed by the ghost drive) is untouched.
            keys = self.system.peek(self.run.addresses[b]).keys
            self._cache[b] = keys
            self.probes += 1
        return keys

    def count(self, kappa: int, side: str) -> int:
        """Records with key < *kappa* (side='left') or <= (side='right')."""
        cut = int(np.searchsorted(self.last, kappa, side=side))
        if cut >= self.n_blocks:
            return self.n
        # Blocks before `cut` are fully counted (only the run's final
        # block is partial, and it is at or after `cut` here).
        full = cut * self.B
        first = int(self.first[cut])
        if (side == "left" and first >= kappa) or (side == "right" and first > kappa):
            return full
        keys = self._block_keys(cut)
        return full + int(np.searchsorted(keys, kappa, side=side))


def corank_cuts(
    system: ParallelDiskSystem,
    runs: list[StripedRun],
    targets: list[int],
) -> tuple[list[list[int]], int]:
    """Per-run record cuts realizing each global output rank in *targets*.

    For rank ``t`` the returned row ``cuts[w]`` holds, per run, how many
    of its records fall among the first ``t`` records of the merged
    output under the global ``(key, run index, position)`` order — the
    co-rank intersection of Merge Path's cross-diagonal ``t``.

    Returns ``(cuts, probes)`` where *probes* counts straddling-block
    metadata reads (uncharged).
    """
    indexes = [_RunIndex(system, run) for run in runs]
    total = sum(ix.n for ix in indexes)
    lo_key = min(int(ix.first[0]) for ix in indexes)
    hi_key = max(int(ix.last[-1]) for ix in indexes)
    cuts: list[list[int]] = []
    for t in targets:
        if not 0 <= t <= total:
            raise DataError(f"cut rank {t} outside [0, {total}]")
        if t == 0:
            cuts.append([0] * len(indexes))
            continue
        if t == total:
            cuts.append([ix.n for ix in indexes])
            continue
        # Smallest key with count_le(key) >= t: the key of the t-th
        # smallest (key, run, pos) triple.
        lo, hi = lo_key, hi_key
        while lo < hi:
            mid = (lo + hi) // 2
            if sum(ix.count(mid, "right") for ix in indexes) >= t:
                hi = mid
            else:
                lo = mid + 1
        kappa = lo
        row = [ix.count(kappa, "left") for ix in indexes]
        # Distribute the remaining equal-kappa records in run order —
        # exactly how the merge's (key, run) tie-break emits them.
        remaining = t - sum(row)
        for r, ix in enumerate(indexes):
            if remaining <= 0:
                break
            group = ix.count(kappa, "right") - row[r]
            take = min(group, remaining)
            row[r] += take
            remaining -= take
        if remaining != 0:  # pragma: no cover - defended by the search
            raise ScheduleError(f"co-rank failed to realize rank {t}")
        cuts.append(row)
    return cuts, sum(ix.probes for ix in indexes)


# ---------------------------------------------------------------------------
# Stage 3: range drains (worker process + in-process fallback).
# ---------------------------------------------------------------------------


def _merge_range_worker(
    paths: list[str],
    layout: SlotLayout,
    run_tables: list[tuple[list[int], list[int], int]],
    lo_cuts: list[int],
    hi_cuts: list[int],
    has_payloads: bool,
    scratch_path: str,
    rows: int,
    total_records: int,
    out_offset: int,
) -> tuple[int, int, float]:
    """Merge one output range inside a worker process.

    Reopens the backend's per-disk files read-only, slices each run's
    ``[lo, hi)`` record segment as zero-copy views over the slot
    records, merges with a stable argsort (reproducing the global
    ``(key, run, pos)`` order within the range), and writes the result
    into this range's disjoint region of the shared scratch file.

    Returns ``(out_offset, records_merged, drain_seconds)`` — the drain
    time is the worker's own wall clock, reported back so the parent
    can emit per-worker spans.
    """
    drain_t0 = time.perf_counter()
    flats = [open_disk_flat(p) for p in paths]
    key_parts: list[np.ndarray] = []
    pay_parts: list[np.ndarray] = []
    B = layout.block_size
    for (disks, slots, n_records), lo, hi in zip(run_tables, lo_cuts, hi_cuts):
        if lo >= hi:
            continue
        b0, b1 = lo // B, (hi - 1) // B
        for b in range(b0, b1 + 1):
            flat = flats[disks[b]]
            base = slots[b] * layout.slot_words
            n = int(flat[base])
            s = lo - b * B if b == b0 else 0
            e = hi - b * B if b == b1 else n
            key_parts.append(flat[base + layout.key_off + s : base + layout.key_off + e])
            if has_payloads:
                pay_parts.append(
                    flat[base + layout.pay_off + s : base + layout.pay_off + e]
                )
    keys = np.concatenate(key_parts)
    order = stable_argsort(keys)
    merged = keys[order]
    out = np.memmap(
        scratch_path, dtype=np.int64, mode="r+", shape=(rows, total_records)
    )
    out[0, out_offset : out_offset + merged.size] = merged
    if has_payloads:
        out[1, out_offset : out_offset + merged.size] = np.concatenate(pay_parts)[
            order
        ]
    # No msync: the parent reads the scratch region through the same
    # page cache, so flushing to stable storage would only cost time.
    return out_offset, int(merged.size), time.perf_counter() - drain_t0


def _emit_worker_spans(tel, drains: list[tuple[int, float]]) -> None:
    """Per-worker drain telemetry: one event and one wall-lane trace
    record per range.

    Drain times are the workers' own wall clocks, so the trace records
    land in a dedicated ``wall`` domain (declared inexact) that never
    mixes with — and never perturbs — the simulated timelines.  Trace
    determinism therefore holds only for the simulated domains; the
    determinism tests run with ``workers == 1``.
    """
    if not drains:
        return
    for i, (records, drain_s) in enumerate(drains):
        tel.event(
            EV_PMERGE_WORKER, worker=i, records=records,
            drain_s=round(drain_s, 6),
        )
    collector = getattr(tel, "trace", None)
    if collector is None:
        return
    dom = collector.new_domain("wall")
    last_end = 0.0
    for i, (records, drain_s) in enumerate(drains):
        end = drain_s * 1000.0
        collector.add(
            "compute", f"worker{i}", dom, 0.0, 0.0, end,
            attrs={"records": records},
        )
        last_end = max(last_end, end)
    collector.summary(dom, last_end, exact=False)


def _merge_range_inprocess(
    gathered: tuple[list[np.ndarray], list[np.ndarray]],
) -> tuple[np.ndarray, np.ndarray | None]:
    """Merge one range from pre-gathered per-run segments (any backend)."""
    key_parts, pay_parts = gathered
    keys = np.concatenate(key_parts)
    order = stable_argsort(keys)
    merged = keys[order]
    pays = np.concatenate(pay_parts)[order] if pay_parts else None
    return merged, pays


def _gather_range(
    system: ParallelDiskSystem,
    runs: list[StripedRun],
    lo_cuts: list[int],
    hi_cuts: list[int],
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Collect each run's ``[lo, hi)`` segment views via uncharged peeks.

    Must run *before* the ghost drive frees input slots: holding the
    views keeps the in-memory backend's blocks alive, and for the mmap
    backend nothing overwrites the freed slots until the stitch stage
    (which runs only after every range is merged into copies).
    """
    key_parts: list[np.ndarray] = []
    pay_parts: list[np.ndarray] = []
    for r, run in enumerate(runs):
        lo, hi = lo_cuts[r], hi_cuts[r]
        if lo >= hi:
            continue
        B = run.block_size
        b0, b1 = lo // B, (hi - 1) // B
        for b in range(b0, b1 + 1):
            blk = system.peek(run.addresses[b])
            s = lo - b * B if b == b0 else 0
            e = hi - b * B if b == b1 else blk.keys.size
            key_parts.append(blk.keys[s:e])
            if blk.payloads is not None:
                pay_parts.append(blk.payloads[s:e])
    return key_parts, pay_parts


# ---------------------------------------------------------------------------
# Stage 4: the full parallel merge.
# ---------------------------------------------------------------------------


def check_merge_workers(
    system: ParallelDiskSystem,
    workers: int,
    overlap: OverlapConfig | None = None,
) -> None:
    """Reject a worker count the parallel merge plane cannot run on *system*.

    At least one worker, on a fault-free system (the plane reads slot
    bytes raw, bypassing the retry and checksum-repair ladder).  More
    than one also needs the mmap backend, whose files the worker
    processes share, and no overlap engine, which would have no cycle
    loop to pace.
    """
    if workers < 1:
        raise ConfigError(f"merge_workers must be >= 1, got {workers}")
    if system.faults is not None:
        raise ConfigError("the parallel merge plane requires a fault-free system")
    if workers == 1:
        return
    if overlap is not None:
        raise ConfigError("merge_workers > 1 cannot run under the overlap engine")
    if not isinstance(system.backend, MmapFileBackend):
        raise ConfigError(
            f"merge_workers={workers} needs the mmap storage backend; this "
            f"system uses {system.backend.kind!r}"
        )


def parallel_merge_runs(
    system: ParallelDiskSystem,
    runs: list[StripedRun],
    output_run_id: int,
    output_start_disk: int,
    workers: int = 2,
    validate: bool = False,
    telemetry=None,
) -> MergeResult:
    """Merge *runs* with ``workers`` processes; schedule-identical to serial.

    Drop-in counterpart of :func:`~repro.core.merge.merge_runs` for the
    demand path: same output records, same ParRead/flush schedule, same
    I/O counters and write stripes — only the record movement is fanned
    out across ``workers`` CPU cores.  ``workers > 1`` requires the
    system's mmap backend (worker processes share data through its
    files); ``workers == 1`` drains in-process on any backend.
    """
    check_merge_workers(system, workers)
    if len(runs) < 2:
        raise DataError(f"a merge needs at least 2 runs, got {len(runs)}")
    backend = system.backend
    use_pool = workers > 1

    job = MergeJob.from_striped_runs(runs, system.n_disks)
    start_stats = system.stats.snapshot()
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    span = tel.span(
        SPAN_PMERGE,
        system=system,
        n_runs=len(runs),
        n_blocks=job.n_blocks,
        n_disks=system.n_disks,
        workers=workers,
    )
    n_records = sum(r.n_records for r in runs)
    has_payloads = system.peek(runs[0].addresses[0]).payloads is not None
    rows = 2 if has_payloads else 1

    # ---- partition (before any input slot can be freed) -----------------
    part_span = tel.span(SPAN_PMERGE_PARTITION, system=system, workers=workers)
    targets = sorted({(n_records * w) // workers for w in range(1, workers)})
    targets = [t for t in targets if 0 < t < n_records]
    cut_rows, probes = corank_cuts(system, runs, targets)
    boundaries = [[0] * len(runs)] + cut_rows + [[r.n_records for r in runs]]
    ranges = [
        (boundaries[i], boundaries[i + 1]) for i in range(len(boundaries) - 1)
    ]
    ranges = [
        (lo, hi) for lo, hi in ranges if sum(hi) > sum(lo)
    ]  # duplicate-heavy inputs can collapse adjacent cuts
    part_span.set(ranges=len(ranges), probes=probes)
    part_span.close()

    gathered = None
    if not use_pool:
        gathered = [_gather_range(system, runs, lo, hi) for lo, hi in ranges]

    # ---- launch worker drains before the ghost drive ---------------------
    # Workers need only resolved slot tables and the backing files, both
    # fixed before any slot is freed (file bytes survive frees until the
    # stitch reuses them), so the pool crunches record movement while the
    # parent replays the I/O schedule — on multi-core hosts the ghost
    # drive costs no wall-clock at all.
    work_span = tel.span(
        SPAN_PMERGE_WORKERS, system=system, workers=workers, ranges=len(ranges)
    )
    scratch_path = None
    scratch = None
    pool = None
    futures = None
    merged_parts: list[tuple[np.ndarray, np.ndarray | None]] | None = None
    if use_pool:
        assert isinstance(backend, MmapFileBackend)
        layout = backend.layout
        paths = backend.file_paths()
        run_tables = [
            (
                [system.resolve(a).disk for a in run.addresses],
                [system.resolve(a).slot for a in run.addresses],
                run.n_records,
            )
            for run in runs
        ]
        fd, scratch_path = tempfile.mkstemp(
            prefix=f"pmerge-{output_run_id}-", suffix=".dat", dir=backend.workdir
        )
        os.close(fd)
        with open(scratch_path, "r+b") as f:
            f.truncate(rows * n_records * 8)
        offsets = np.cumsum([0] + [sum(hi) - sum(lo) for lo, hi in ranges])
        pool = ProcessPoolExecutor(max_workers=workers)
        futures = [
            pool.submit(
                _merge_range_worker,
                paths,
                layout,
                run_tables,
                lo,
                hi,
                has_payloads,
                scratch_path,
                rows,
                n_records,
                int(offsets[i]),
            )
            for i, (lo, hi) in enumerate(ranges)
        ]

    # ---- ghost schedule drive (all the charged input I/O) ---------------
    if validate:

        def on_read(ops: list[tuple[int, int, int]]) -> None:
            addrs = [runs[r].addresses[b] for r, b, _ in ops]
            blocks = system.read_stripe(addrs)
            for (r, b, _d), blk in zip(ops, blocks):
                _check_forecast(job, r, b, blk.forecast)

    else:
        # The schedule is driven entirely by job metadata; charge the
        # reads without decoding blocks nobody in this process will use.
        def on_read(ops: list[tuple[int, int, int]]) -> None:
            system.charge_read_stripe([runs[r].addresses[b] for r, b, _ in ops])

    try:
        sched = MergeScheduler(
            job, validate=validate, on_read=on_read, telemetry=telemetry
        )
        sched.initial_load()
        rounds = ghost_drive(sched, runs, system)
        if not sched.finished():
            raise ScheduleError("ghost drive ended with unexhausted runs")

        # ---- collect worker results ----------------------------------
        drains: list[tuple[int, float]] = []  # (records, drain_s) per range
        if use_pool:
            assert futures is not None
            results = [f.result() for f in futures]
            drains = [(size, drain_s) for _, size, drain_s in results]
            written = sum(size for _, size, _ in results)
            if written != n_records:
                raise ScheduleError(
                    f"workers merged {written} records, expected {n_records}"
                )
            scratch = np.memmap(
                scratch_path, dtype=np.int64, mode="r", shape=(rows, n_records)
            )
        else:
            assert gathered is not None
            merged_parts = []
            for g in gathered:
                t0 = time.perf_counter()
                part = _merge_range_inprocess(g)
                drains.append(
                    (int(part[0].size), time.perf_counter() - t0)
                )
                merged_parts.append(part)
        _emit_worker_spans(tel, drains)
    finally:
        if pool is not None:
            pool.shutdown()
    work_span.close()

    # ---- stitch through the ordinary writer ------------------------------
    stitch_span = tel.span(SPAN_PMERGE_STITCH, system=system)
    writer = RunWriter(
        system, output_run_id, output_start_disk, telemetry=telemetry
    )
    chunk = 64 * system.n_disks * system.block_size
    if use_pool:
        assert scratch is not None
        for i in range(0, n_records, chunk):
            j = min(i + chunk, n_records)
            writer.append(scratch[0, i:j], scratch[1, i:j] if has_payloads else None)
        del scratch
        os.unlink(scratch_path)
    else:
        assert merged_parts is not None
        for keys, pays in merged_parts:
            for i in range(0, keys.size, chunk):
                j = min(i + chunk, keys.size)
                writer.append(keys[i:j], pays[i:j] if pays is not None else None)
    output = writer.finalize()
    stitch_span.close()

    schedule = _close_merge(
        writer, output, n_records, sched, span, validate,
        ghost_rounds=rounds, ranges=len(ranges), partition_probes=probes,
    )
    tel.counter(PMERGE_MERGES).inc()
    tel.counter(PMERGE_WORKERS).inc(workers)
    tel.counter(PMERGE_RANGES).inc(len(ranges))
    tel.counter(PMERGE_RECORDS).inc(n_records)
    tel.counter(PMERGE_PARTITION_PROBES).inc(probes)
    tel.counter(PMERGE_GHOST_ROUNDS).inc(rounds)
    span.close()
    return MergeResult(
        output=output,
        schedule=schedule,
        io=system.stats.since(start_stats),
        n_records=n_records,
        heap_cycles=rounds,
        overlap=None,
    )
