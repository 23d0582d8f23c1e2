"""The internal-merge data plane: block-slice batches and their cycles.

Both loops of :mod:`repro.core.merge` gather their work the same way
(:func:`_gather`).  Between two ``ParRead`` operations the set of
resident blocks is fixed, so every resident record ordered before the
*galloping bound* — the smallest ``(key, run)`` first key of any
non-resident block (:meth:`ForecastStructure.galloping_bound`) — can be
merged in one step: a block whose last key precedes the bound is taken
whole, ``searchsorted`` cuts the one block per run that straddles it,
and one stable ``argsort`` interleaves the block slices.

* :func:`merge_loop_batched` — the demand path — writes each batch,
  fires its depletions at once and demand-fetches the bound's block:
  one gather per ``ParRead``.  Bare keys merge with an unstable sort.
* :func:`merge_loop_cycles` — the overlap-engine path — splits each
  batch into the key-range *cycles* a textbook ``heapq`` merge would
  run (:func:`_cycle_starts`), then replays only the cycles at which the
  engine can observe anything: a block's first touch, an output-stripe
  write, a depletion.  The quiet cycles between them advance the
  simulated clock as one interval (:meth:`OverlapEngine.compute`).

Ordering contract (shared with a heapq merge): records are emitted in
``(key, run index, position in run)`` order.  Ties across runs go to
the smaller run index — the heap's ``(key, run)`` tie-break — which the
batch reproduces by concatenating run slices in run order and sorting
with a stable kind (equal bare keys are indistinguishable, so the
demand path sorts those with the faster unstable kind).  Both loops
issue the same ``ParRead``/flush stream as the heapq merge, and the
engine path also the same clock, writes, frees and cycle count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ScheduleError
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import H_DRAIN_BATCH, MERGE_DRAIN_CYCLES, batch_edges
from .forecasting import block_precedes, cut_at_bound

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..disks.files import StripedRun
    from ..disks.system import ParallelDiskSystem
    from .events import OverlapEngine
    from .schedule import MergeScheduler
    from .writer import RunWriter


class _Batch:
    """The resident records one drain step may emit.

    ``pieces`` holds one ``(run, block, lo, hi, block size)`` per block
    slice, in run order; ``keys``/``pays`` hold the slices themselves.
    ``stop[r]`` is the block at which run ``r``'s gather stopped.  When
    ``pieces`` is empty the globally smallest record lies in the bound's
    non-resident block, ``bound_run``'s leading block.
    """

    __slots__ = ("pieces", "keys", "pays", "stop", "bound_run")

    def __init__(self, pieces, keys, pays, stop, bound_run) -> None:
        self.pieces = pieces
        self.keys = keys
        self.pays = pays
        self.stop = stop
        self.bound_run = bound_run

    def merged(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """``(keys, payloads, order)`` of the batch in merge order.

        ``order`` maps merged positions to positions in the run-order
        concatenation of the slices (``None`` for a one-slice batch).
        """
        keys, pays = self.keys, self.pays
        if len(keys) == 1:
            return keys[0], pays[0] if pays is not None else None, None
        merged = np.concatenate(keys)
        order = np.argsort(merged, kind="stable")
        return (
            merged[order],
            np.concatenate(pays)[order] if pays is not None else None,
            order,
        )


def _gather(
    sched: "MergeScheduler",
    block_data: dict,
    offsets: list[int],
    n_blocks: list[int],
    validate: bool,
) -> _Batch:
    """Collect every resident record ordered before the galloping bound.

    A block whose last key precedes the bound is taken whole; only the
    one block per run that straddles it is searched.  Advances
    ``offsets`` past the gathered records; the caller must consume the
    whole batch before gathering again.
    """
    job = sched.job
    last_keys = job.last_keys
    bound = sched.fds.galloping_bound()
    pieces: list[tuple[int, int, int, int, int]] = []
    seg_keys: list[np.ndarray] = []
    seg_pays: list[np.ndarray] | None = None
    stop: list[int] = []
    leading = sched.leading
    for r in range(job.n_runs):
        b = leading[r]
        off = offsets[r]
        while b < n_blocks[r] and (r, b) in block_data:
            data, pay = block_data[(r, b)]
            if validate and off == 0:
                # First touch of this block: its contents must agree
                # with the run metadata the forecasts were built from.
                if (
                    int(data[0]) != int(job.first_keys[r][b])
                    or int(data[-1]) != int(last_keys[r][b])
                    or bool(np.any(data[1:] < data[:-1]))
                ):
                    raise ScheduleError(
                        f"merge batch desync: run {r} block {b}"
                        " contents disagree with run metadata"
                    )
            size = data.size
            if block_precedes(last_keys[r][b], r, bound):
                hi = size
            else:
                hi = cut_at_bound(data, r, bound)
            if hi <= off:
                break
            pieces.append((r, b, off, hi, size))
            seg_keys.append(data[off:hi])
            if pay is not None:
                if seg_pays is None:
                    seg_pays = []
                seg_pays.append(pay[off:hi])
            if hi < size:
                off = hi
                break
            b += 1
            off = 0
        offsets[r] = off
        stop.append(b)
    if not pieces and bound[1] < 0:  # pragma: no cover - guarded by finished()
        raise ScheduleError("merge stalled with no on-disk blocks")
    return _Batch(pieces, seg_keys, seg_pays, stop, bound[1])


def _limit_after(
    batch: _Batch,
    sched: "MergeScheduler",
    block_data: dict,
    offsets: list[int],
    n_blocks: list[int],
    run: int,
) -> int | None:
    """The smallest next key of any run but *run* once *batch* is consumed.

    A resident block gives a run's next key from its data, a
    non-resident one from the forecasting structure's per-run minimum.
    ``None`` when every other run is exhausted.
    """
    bounds = sched.fds.min_keys_per_run()[0].tolist()
    heads = []
    for s, b in enumerate(batch.stop):
        if s == run or b >= n_blocks[s]:
            continue
        if (s, b) in block_data:
            heads.append(int(block_data[(s, b)][0][offsets[s]]))
        else:
            heads.append(bounds[s])
    return min(heads, default=None)


def _retire(sched, block_data, runs, system, free_inputs, r: int, b: int) -> None:
    """Block *b* of run *r* was consumed to its last record."""
    del block_data[(r, b)]
    if free_inputs:
        system.free(runs[r].addresses[b])
    sched.on_leading_depleted(r)


# ---------------------------------------------------------------------------
# Batched demand-path data plane.
# ---------------------------------------------------------------------------


def merge_loop_batched(
    sched: "MergeScheduler",
    writer: "RunWriter",
    block_data: dict,
    runs: "list[StripedRun]",
    system: "ParallelDiskSystem",
    free_inputs: bool,
    validate: bool,
    telemetry=None,
) -> int:
    """Drain whole resident block slices between consecutive ``ParRead``\\ s.

    Each ParRead gap is one gather and one merge.  Draining never moves
    the galloping bound, so once a batch is consumed the bound's block
    is demand-fetched directly, exactly where a heapq merge would have
    stalled, and the ``ParRead``/flush stream is bit-identical to a
    heapq merge's.  Bare keys merge with an unstable sort: equal keys
    cannot be told apart.

    Returns the number of block slices emitted — fewer than a heapq
    merge's key-range cycles whenever runs interleave within a block.
    """
    job = sched.job
    n_blocks = [job.blocks_in_run(r) for r in range(job.n_runs)]
    last_keys = job.last_keys
    offsets = [0] * job.n_runs
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    cycles = 0
    while not sched.finished():
        batch = _gather(sched, block_data, offsets, n_blocks, validate)
        if batch.pieces:
            cycles += len(batch.pieces)
            if batch.pays is None and len(batch.keys) > 1:
                keys, pays = np.sort(np.concatenate(batch.keys)), None
            else:
                keys, pays, _ = batch.merged()
            writer.append(keys, pays)
            h_batch.observe(keys.size)
            # Fire depletions in consumption order: (last key, run, block)
            # sorts each run's blocks in sequence and interleaves runs the
            # way a heapq merge would have.
            depleted = sorted(
                (last_keys[r][b], r, b)
                for r, b, _lo, hi, size in batch.pieces
                if hi == size
            )
            for _, r, b in depleted:
                _retire(sched, block_data, runs, system, free_inputs, r, b)
            if sched.finished():
                break
        # The globally smallest unconsumed record lives in the bound's
        # non-resident block: demand-fetch it (one ParRead).
        br = batch.bound_run
        sched.ensure_resident(br, sched.leading[br])
    m_cycles.inc(cycles)
    return cycles


# ---------------------------------------------------------------------------
# Engine-paced data plane: batches replayed at cycle granularity.
# ---------------------------------------------------------------------------


def _cycle_starts(
    keys: np.ndarray, piece: np.ndarray, run: np.ndarray, last_limit: int | None
) -> np.ndarray:
    """Merged positions at which a heapq merge starts a new cycle.

    A heapq cycle pops the smallest ``(key, run)`` head and consumes
    that run's block up to the *limit* — the smallest key among the
    other runs' heads — or, when its key equals the limit, the equal
    prefix.  In merge order the limit of a same-run stretch is the key
    of the next record of another run (*last_limit* for the final
    stretch; ``None`` when no other run has records left).  So a cycle
    starts where the slice (run or block) changes, and where a stretch's
    keys first equal its limit.
    """
    n = keys.size
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(piece[1:], piece[:-1], out=start[1:])
    stretch = np.flatnonzero(run[1:] != run[:-1]) + 1
    lengths = np.diff(stretch, prepend=0, append=n)
    limits = np.append(keys[stretch], 0 if last_limit is None else last_limit)
    at_limit = keys == np.repeat(limits, lengths)
    if last_limit is None:
        at_limit[n - lengths[-1] :] = False
    at_limit[1:] &= keys[1:] != keys[:-1]
    start |= at_limit
    return np.flatnonzero(start)


def merge_loop_cycles(
    sched: "MergeScheduler",
    writer: "RunWriter",
    block_data: dict,
    runs: "list[StripedRun]",
    system: "ParallelDiskSystem",
    free_inputs: bool,
    validate: bool,
    eng: "OverlapEngine",
    telemetry=None,
) -> int:
    """Batches as in :func:`merge_loop_batched`, paced by *eng*.

    Each batch is cut into a heapq merge's key-range cycles.  A fixed
    read-ahead policy only acts when a block is first touched
    (``wait_for``) or depleted, so only those cycles and the ones that
    complete an output stripe are replayed one by one, in heapq order:
    ``wait_for``, ``writer.append`` (its stripe write sees the clock at
    the start of the cycle), ``compute``, free and depletion, ``pump``.
    A latency-adaptive engine's ``pump`` reads the clock, so it is
    replayed after every cycle.  The clock, schedule, writes, frees and
    cycle count all equal a heapq merge's.

    Returns the number of key-range cycles.
    """
    job = sched.job
    R = job.n_runs
    n_blocks = [job.blocks_in_run(r) for r in range(R)]
    offsets = [0] * R
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    stripe = system.n_disks * system.block_size
    every_cycle = eng.latency is not None
    cycles = 0
    while not sched.finished():
        batch = _gather(sched, block_data, offsets, n_blocks, validate)
        if not batch.pieces:
            br = batch.bound_run
            sched.ensure_resident(br, sched.leading[br])
            continue
        keys, pays, order = batch.merged()
        pieces = batch.pieces
        p_run = np.array([p[0] for p in pieces])
        lengths = [p[3] - p[2] for p in pieces]
        piece = np.repeat(np.arange(len(pieces)), lengths)
        if order is not None:
            piece = piece[order]
        run = p_run[piece]

        # The batch's last stretch takes its limit from beyond the batch.
        limit = _limit_after(
            batch, sched, block_data, offsets, n_blocks, int(run[-1])
        )
        starts = _cycle_starts(keys, piece, run, limit)
        counts = np.diff(starts, append=keys.size)
        C = counts.size
        cycles += C
        h_batch.observe_many(counts)

        # Per-cycle engine events.
        cyc_piece = piece[starts]
        first = np.unique(cyc_piece, return_index=True)[1]
        last = C - 1 - np.unique(cyc_piece[::-1], return_index=True)[1]
        touch = np.zeros(C, dtype=bool)
        touch[first[np.array([p[2] == 0 for p in pieces])]] = True
        deplete = np.zeros(C, dtype=bool)
        deplete[last[np.array([p[3] == p[4] for p in pieces])]] = True
        ends = np.cumsum(counts)
        # Stripes the writer has written by the end of each cycle.
        written = np.maximum((ends - writer.records_to_next_write) // stripe + 1, 0)
        cross = np.diff(written, prepend=0) > 0
        pump = np.ones(C, dtype=bool) if every_cycle else touch | deplete
        events = np.flatnonzero(pump | cross).tolist()

        touch_l = touch.tolist()
        deplete_l = deplete.tolist()
        cross_l = cross.tolist()
        pump_l = pump.tolist()
        ends_l = ends.tolist()
        cyc_piece_l = cyc_piece.tolist()
        counts_l = counts.tolist()
        ci = 0  # first cycle not yet computed
        pos = 0  # merged records appended so far
        for c in events:
            r, b = pieces[cyc_piece_l[c]][:2]
            if touch_l[c] or cross_l[c]:
                if ci < c:
                    eng.compute(counts_l[ci:c])
                    ci = c
                if touch_l[c]:
                    eng.wait_for(r, b)
            if cross_l[c] or deplete_l[c]:
                end = ends_l[c]
                writer.append(
                    keys[pos:end], pays[pos:end] if pays is not None else None
                )
                pos = end
            if pump_l[c]:
                eng.compute(counts_l[ci : c + 1])
                ci = c + 1
                if deplete_l[c]:
                    _retire(sched, block_data, runs, system, free_inputs, r, b)
                eng.pump(sched)
        if ci < C:
            eng.compute(counts_l[ci:])
        if pos < keys.size:
            writer.append(keys[pos:], pays[pos:] if pays is not None else None)
    m_cycles.inc(cycles)
    return cycles

