"""The internal-merge data plane: block-slice batches and their cycles.

Both loops of :mod:`repro.core.merge` gather their work the same way
(:func:`_gather`).  Between two ``ParRead`` operations the set of
resident blocks is fixed, so every resident record ordered before the
*galloping bound* — the smallest ``(key, run)`` first key of any
non-resident block (:meth:`ForecastStructure.galloping_bound`) — can be
merged in one step: a block whose last key precedes the bound is taken
whole, ``searchsorted`` cuts the one block per run that straddles it,
and one ``(key, index)`` sort (:func:`~repro.core.keyorder.stable_argsort`)
interleaves the block slices.

* :func:`merge_loop_batched` — the demand path — writes each batch,
  fires its depletions at once and demand-fetches the bound's block:
  one gather per ``ParRead``.  Bare keys merge with an unstable sort.
* :func:`merge_loop_cycles` — the overlap-engine path — splits each
  batch into the key-range *cycles* a textbook ``heapq`` merge would
  run (:func:`_cycle_starts`), then replays only the cycles at which the
  engine can observe anything: a block's first touch, an output-stripe
  write, a depletion.  The quiet cycles between them advance the
  simulated clock as one interval (:meth:`OverlapEngine.compute`), and
  the writer is handed records only at stripe writes and at the batch's
  end.

Ordering contract (shared with a heapq merge): records are emitted in
``(key, run index, position in run)`` order.  Ties across runs go to
the smaller run index — the heap's ``(key, run)`` tie-break — which the
batch reproduces by concatenating run slices in run order and ordering
them by ``(key, index)`` (equal bare keys are indistinguishable, so the
demand path sorts those with a plain unstable sort).  Both loops
issue the same ``ParRead``/flush stream as the heapq merge, and the
engine path also the same clock, writes, frees and cycle count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ScheduleError
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import H_DRAIN_BATCH, MERGE_DRAIN_CYCLES, batch_edges
from .forecasting import ties_precede
from .keyorder import stable_argsort

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
    ``stop[r]`` is the block at which run ``r``'s gather stopped.
    ``(bound_key, bound_run)`` is the galloping bound the batch was cut
    at; when ``pieces`` is empty the globally smallest record lies in
    the bound's non-resident block, ``bound_run``'s leading block.
    """

    __slots__ = ("pieces", "keys", "pays", "stop", "bound_key", "bound_run")

    def __init__(self, pieces, keys, pays, stop, bound_key, bound_run) -> None:
        self.pieces = pieces
        self.keys = keys
        self.pays = pays
        self.stop = stop
        self.bound_key = bound_key
        self.bound_run = bound_run

    def merged(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """``(keys, payloads, order)`` of the batch in merge order.

        ``order`` maps merged positions to positions in the run-order
        concatenation of the slices (``None`` for a one-slice batch,
        whose keys and payloads are views of the block's storage).
        """
        keys, pays = self.keys, self.pays
        if len(keys) == 1:
            return keys[0], pays[0] if pays is not None else None, None
        merged = np.concatenate(keys)
        order = stable_argsort(merged)
        return (
            merged[order],
            np.concatenate(pays)[order] if pays is not None else None,
            order,
        )


def _gather(
    sched: "MergeScheduler",
    block_data: dict,
    offsets: list[int],
    last_keys: list[list[int]],
    validate: bool,
) -> _Batch:
    """Collect every resident record ordered before the galloping bound.

    A block whose last key (from *last_keys*, the runs' metadata as
    Python ints) precedes the bound is taken whole; only the one block
    per run that straddles it is searched.  Advances ``offsets`` past
    the gathered records; the caller must consume the whole batch
    before gathering again.
    """
    job = sched.job
    bk, br = sched.fds.galloping_bound()
    pieces: list[tuple[int, int, int, int, int]] = []
    seg_keys: list[np.ndarray] = []
    seg_pays: list[np.ndarray] | None = None
    stop: list[int] = []
    leading = sched.leading
    get = block_data.get
    for r in range(job.n_runs):
        b = leading[r]
        off = offsets[r]
        lasts = last_keys[r]
        tie = ties_precede(r, br)
        side = "right" if tie else "left"
        while (entry := get((r, b))) is not None:
            data, pay = entry
            last = lasts[b]
            if validate and off == 0:
                # First touch of this block: its contents must agree
                # with the run metadata the forecasts were built from.
                if (
                    int(data[0]) != int(job.first_keys[r][b])
                    or int(data[-1]) != last
                    or bool(np.any(data[1:] < data[:-1]))
                ):
                    raise ScheduleError(
                        f"merge batch desync: run {r} block {b}"
                        " contents disagree with run metadata"
                    )
            size = data.size
            if last < bk or (last == bk and tie):
                hi = size
            else:
                hi = int(data.searchsorted(bk, side=side))
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
    if not pieces and br < 0:  # pragma: no cover - guarded by finished()
        raise ScheduleError("merge stalled with no on-disk blocks")
    return _Batch(pieces, seg_keys, seg_pays, stop, bk, br)


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


def _retire(sched, block_data, runs, system, r: int, b: int) -> None:
    """Block *b* of run *r* was consumed to its last record: free its slot."""
    del block_data[(r, b)]
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
    last_keys = [lk.tolist() for lk in job.last_keys]
    offsets = [0] * job.n_runs
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    cycles = 0
    while not sched.finished():
        batch = _gather(sched, block_data, offsets, last_keys, validate)
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
                _retire(sched, block_data, runs, system, r, b)
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


#: Per-cycle engine events of a batch, as bit flags.
_TOUCH, _DEPLETE, _CROSS = 1, 2, 4


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
    keys first equal its limit.  No key exceeds its limit, so those are
    the heads of the groups of equal keys that a run switch crosses or
    that end the batch at *last_limit*.
    """
    n = keys.size
    start = np.empty(n, dtype=bool)
    start[0] = True
    np.not_equal(piece[1:], piece[:-1], out=start[1:])
    tie = keys[1:] == keys[:-1]
    # Groups reaching a limit, by one past a position in each.
    reach = np.flatnonzero(tie & (run[1:] != run[:-1])) + 1
    if last_limit is not None and int(keys[-1]) == last_limit:
        reach = np.append(reach, n)
    if reach.size:
        heads = np.flatnonzero(np.append(True, ~tie))
        start[heads[heads.searchsorted(reach - 1, side="right") - 1]] = True
    return np.flatnonzero(start)


def merge_loop_cycles(
    sched: "MergeScheduler",
    writer: "RunWriter",
    block_data: dict,
    runs: "list[StripedRun]",
    system: "ParallelDiskSystem",
    validate: bool,
    eng: "OverlapEngine",
    telemetry=None,
) -> int:
    """Batches as in :func:`merge_loop_batched`, paced by *eng*.

    Each batch is cut into a heapq merge's key-range cycles.  A fixed
    read-ahead policy only acts when a block is first touched
    (``wait_for``) or depleted, so only those cycles and the ones that
    complete an output stripe are replayed one by one, in heapq order:
    ``wait_for``, ``writer.append`` up to a stripe-completing cycle's
    end (its stripe write sees the clock at the start of the cycle),
    ``compute``, free and depletion, ``pump``.  Only a stripe-completing
    append writes and allocates, so the rest of the batch is appended
    at its end — except a one-slice batch, a view of its block's
    storage, which is appended before that block is freed.  The clock,
    schedule, writes, frees, output addresses and cycle count all equal
    a heapq merge's.

    Returns the number of key-range cycles.
    """
    job = sched.job
    R = job.n_runs
    n_blocks = [job.blocks_in_run(r) for r in range(R)]
    last_keys = [lk.tolist() for lk in job.last_keys]
    offsets = [0] * R
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    stripe = system.n_disks * system.block_size
    cycles = 0
    while not sched.finished():
        batch = _gather(sched, block_data, offsets, last_keys, validate)
        pieces = batch.pieces
        if not pieces:
            br = batch.bound_run
            sched.ensure_resident(br, sched.leading[br])
            continue
        keys, pays, order = batch.merged()
        n = keys.size
        lengths = [hi - lo for _r, _b, lo, hi, _size in pieces]
        piece = np.repeat(np.arange(len(pieces)), lengths)
        if order is not None:
            piece = piece[order]

        run = np.array([p[0] for p in pieces])[piece]
        # The batch's last stretch takes its limit from beyond the batch.
        # That limit is at least the bound key, and every batch key is at
        # most the bound key, so only a batch that ends at the bound key
        # can reach it.
        limit = None
        if int(keys[-1]) == batch.bound_key:
            limit = _limit_after(
                batch, sched, block_data, offsets, n_blocks, int(run[-1])
            )
        starts = _cycle_starts(keys, piece, run, limit)
        ends = np.append(starts[1:], n)
        counts = ends - starts
        C = counts.size
        cycles += C
        h_batch.observe_many(counts)

        # Per-cycle engine events.  A slice's first and last records
        # (run-order positions, mapped to merged ones) lie in the cycles
        # that touch and deplete its block.
        t_pos, d_pos, at = [], [], 0
        for (_r, _b, lo, hi, size), m in zip(pieces, lengths):
            if lo == 0:
                t_pos.append(at)
            at += m
            if hi == size:
                d_pos.append(at - 1)
        if order is not None:
            inv = np.empty(n, dtype=np.intp)
            inv[order] = np.arange(n)
            t_pos, d_pos = inv[t_pos], inv[d_pos]
        flags = np.zeros(C, dtype=np.int8)
        flags[starts.searchsorted(t_pos)] = _TOUCH
        flags[starts.searchsorted(d_pos, side="right") - 1] |= _DEPLETE
        # A stripe is written when the writer's records reach
        # records_to_next_write, and every D·B records after that.
        crossings = np.arange(writer.records_to_next_write, n + 1, stripe)
        flags[ends.searchsorted(crossings)] |= _CROSS
        events = np.flatnonzero(flags)

        counts_l = counts.tolist()
        ci = 0  # first cycle not yet computed
        pos = 0  # merged records appended so far
        for c, f, p, end in zip(
            events.tolist(),
            flags[events].tolist(),
            piece[starts[events]].tolist(),
            ends[events].tolist(),
        ):
            r, b = pieces[p][:2]
            if f & (_TOUCH | _CROSS):
                if ci < c:
                    eng.compute(counts_l[ci:c])
                    ci = c
                if f & _TOUCH:
                    eng.wait_for(r, b)
            if f & _CROSS or (f & _DEPLETE and order is None):
                writer.append(
                    keys[pos:end], pays[pos:end] if pays is not None else None
                )
                pos = end
            if f & (_TOUCH | _DEPLETE):
                eng.compute(counts_l[ci : c + 1])
                ci = c + 1
                if f & _DEPLETE:
                    _retire(sched, block_data, runs, system, r, b)
                eng.pump(sched)
        if ci < C:
            eng.compute(counts_l[ci:])
        if pos < n:
            writer.append(keys[pos:], pays[pos:] if pays is not None else None)
    m_cycles.inc(cycles)
    return cycles
