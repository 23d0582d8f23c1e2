"""Loser-tree (tournament) merger and the batched merge data plane.

The two internal-merge loops of :mod:`repro.core.merge`, both
producing bit-identical scheduler behaviour (same ``ParRead`` stream,
same flushes, same output records) to a textbook ``heapq`` merge:

* :class:`LoserTree` — a classic tournament tree over the runs' current
  keys.  Where a binary heap pays a pop *and* a push per key-range
  switch, the loser tree replays exactly one leaf-to-root comparison
  path, and the runner-up key (the merge's galloping ``limit``) falls
  out of the same path.  :func:`merge_loop_cycles` drives it one key
  range at a time — the granularity the overlap engine needs for its
  simulated clock.
* :func:`merge_loop_batched` — the demand-path data plane.  Between two
  ``ParRead`` operations the set of resident blocks is fixed, so every
  resident record smaller than the *galloping bound* — the smallest
  first key of any non-resident block (``min_i H_i[j]`` per run, a
  single vectorized reduction) — can be emitted in one step:
  ``searchsorted`` cuts each resident block at the bound, and one stable
  ``argsort`` interleaves whole block slices instead of one Python heap
  cycle per key-range switch.

Ordering contract (shared with a heapq merge): records are emitted
in ``(key, run index, position in run)`` order.  Ties across runs go to
the smaller run index — the heap's ``(key, run)`` tie-break — which the
batched path reproduces by concatenating run slices in run order and
sorting with a stable kind, and the cycle paths reproduce by comparing
``(key, leaf)`` pairs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..disks.block import NO_KEY
from ..errors import ScheduleError
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import H_DRAIN_BATCH, MERGE_DRAIN_CYCLES, batch_edges

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..disks.files import StripedRun
    from ..disks.system import ParallelDiskSystem
    from .events import OverlapEngine
    from .schedule import MergeScheduler
    from .writer import RunWriter

#: Leaf key for an exhausted run — sorts after every real key.
INF = math.inf


class LoserTree:
    """Tournament tree of ``k`` sources keyed by ``(key, leaf index)``.

    The tree keeps the *losers* of each internal match; the overall
    winner sits at the root.  Replacing the winner's key replays only
    the winner's leaf-to-root path (``ceil(log2 k)`` comparisons), and
    the runner-up — the second-smallest source — is by construction the
    best of the losers on that same path.

    Exhausted sources are represented by :data:`INF` keys; ``k`` is
    padded to a power of two with permanently-infinite leaves.
    """

    __slots__ = ("n_leaves", "_size", "_keys", "_losers", "_winner")

    def __init__(self, initial_keys) -> None:
        keys = [k for k in initial_keys]
        k = len(keys)
        if k < 1:
            raise ScheduleError("loser tree needs at least one source")
        size = 1
        while size < k:
            size <<= 1
        self.n_leaves = k
        self._size = size
        self._keys = keys + [INF] * (size - k)
        # _losers[i] (1 <= i < size) is the losing leaf of the match at
        # internal node i; the winner of the whole bracket is _winner.
        losers = [0] * size
        win = [0] * (2 * size)
        for leaf in range(size):
            win[size + leaf] = leaf
        ks = self._keys
        for node in range(size - 1, 0, -1):
            a, b = win[2 * node], win[2 * node + 1]
            if (ks[a], a) <= (ks[b], b):
                win[node], losers[node] = a, b
            else:
                win[node], losers[node] = b, a
        self._losers = losers
        self._winner = win[1]

    @property
    def winner(self) -> int:
        """Leaf index of the current overall winner."""
        return self._winner

    def winner_key(self):
        """Key of the current winner (:data:`INF` when all exhausted)."""
        return self._keys[self._winner]

    def runner_up_key(self):
        """Key of the second-smallest source — the galloping ``limit``.

        The runner-up lost a match directly against the winner, so it is
        the best ``(key, leaf)`` among the losers on the winner's path.
        """
        ks = self._keys
        losers = self._losers
        node = (self._winner + self._size) >> 1
        best_key = INF
        best_leaf = -1
        while node >= 1:
            leaf = losers[node]
            key = ks[leaf]
            if best_leaf < 0 or (key, leaf) < (best_key, best_leaf):
                best_key, best_leaf = key, leaf
            node >>= 1
        return best_key

    def replace(self, new_key) -> int:
        """Give the winner's leaf *new_key* and replay its path.

        Returns the new overall winner's leaf index.  Pass :data:`INF`
        to retire an exhausted source.
        """
        ks = self._keys
        losers = self._losers
        w = self._winner
        ks[w] = new_key
        node = (w + self._size) >> 1
        while node >= 1:
            loser = losers[node]
            if (ks[loser], loser) < (ks[w], w):
                losers[node] = w
                w = loser
            node >>= 1
        self._winner = w
        return w


# ---------------------------------------------------------------------------
# Cycle-granular loser-tree loop (overlap-engine path).
# ---------------------------------------------------------------------------


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
    """One key range per cycle, exactly like a heapq merge loop.

    Used when an :class:`~repro.core.events.OverlapEngine` paces the
    merge: it needs per-key-range ``compute``/``pump`` hooks, so the
    batched drain cannot be used.  The chunk sequence (and therefore
    every engine clock advance) is identical to a heapq merge's.
    """
    job = sched.job
    R = job.n_runs
    offsets = [0] * R
    tree = LoserTree([int(job.first_keys[r][0]) for r in range(R)])
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    cycles = 0
    while True:
        key = tree.winner_key()
        if key == INF:
            break
        cycles += 1
        r = tree.winner
        limit = tree.runner_up_key()
        b = sched.leading[r]
        sched.ensure_resident(r, b)
        eng.wait_for(r, b)
        data, pay = block_data[(r, b)]
        off = offsets[r]
        if validate and int(data[off]) != key:
            raise ScheduleError(
                f"merge tree desync: expected key {key}, found {int(data[off])}"
            )
        if limit == INF:
            hi = data.size
        else:
            hi = int(np.searchsorted(data, limit, side="left"))
            if hi <= off:
                # Duplicate keys across runs (key == limit): the
                # (key, leaf) tie-break would hand the turn straight
                # back to this run; consume the whole equal prefix.
                hi = int(np.searchsorted(data, key, side="right"))
        writer.append(data[off:hi], None if pay is None else pay[off:hi])
        h_batch.observe(hi - off)
        eng.compute(hi - off)

        if hi == data.size:
            del block_data[(r, b)]
            if free_inputs:
                system.free(runs[r].addresses[b])
            sched.on_leading_depleted(r)
            offsets[r] = 0
            if not sched.run_exhausted(r):
                nb = sched.leading[r]
                if sched.is_resident(r, nb):
                    tree.replace(int(block_data[(r, nb)][0][0]))
                else:
                    fk = sched.fds.next_block_key_of_run(r)
                    if fk == NO_KEY or math.isinf(fk):
                        raise ScheduleError(
                            f"run {r} not exhausted but FDS sees no block"
                        )
                    tree.replace(int(fk))
            else:
                tree.replace(INF)
        else:
            offsets[r] = hi
            tree.replace(int(data[hi]))

        eng.pump(sched)
    m_cycles.inc(cycles)
    return cycles


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

    Each iteration computes the *galloping bound* — the smallest
    ``(first key, run)`` of any non-resident block, straight from the
    forecasting structure's vectorized per-run minima — then emits every
    resident record ordered before that bound in one stable merge.  When
    nothing is emittable the bound's block is demand-fetched, exactly
    where the cycle loop would have stalled, so the ``ParRead``/flush
    stream is bit-identical to a heapq merge's.

    Returns the number of consumed key ranges (block slices), the
    batched analogue of heap cycles.
    """
    job = sched.job
    R = job.n_runs
    fds = sched.fds
    n_blocks = [job.blocks_in_run(r) for r in range(R)]
    offsets = [0] * R
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_batch = tel.histogram(H_DRAIN_BATCH, batch_edges(system.block_size))
    m_cycles = tel.counter(MERGE_DRAIN_CYCLES)
    cycles = 0
    while not sched.finished():
        bounds, valid = fds.min_keys_per_run()
        bounded = bool(valid.any())
        if bounded:
            # Smallest (key, run) among runs with on-disk blocks; argmin
            # over the valid subset keeps the smallest-run tie-break.
            idx = np.flatnonzero(valid)
            br = int(idx[bounds[idx].argmin()])
            bound_key = int(bounds[br])
        else:
            br = -1
            bound_key = 0

        # Collect, per run, the resident slices ordered before the bound.
        seg_keys: list[np.ndarray] = []
        seg_pays: list[np.ndarray] | None = None
        depleted: list[tuple[int, int, int]] = []  # (last_key, run, block)
        leading = sched.leading
        for r in range(R):
            b = leading[r]
            off = offsets[r]
            new_off = off
            while b < n_blocks[r] and (r, b) in block_data:
                data, pay = block_data[(r, b)]
                if validate and new_off == 0:
                    # First touch of this block: the counterpart of the
                    # cycle loop's per-cycle desync check.
                    if int(data[0]) != int(job.first_keys[r][b]) or bool(
                        np.any(data[1:] < data[:-1])
                    ):
                        raise ScheduleError(
                            f"merge batch desync: run {r} block {b}"
                            " contents disagree with run metadata"
                        )
                if bounded:
                    # Records equal to the bound belong to this run iff it
                    # precedes the bound's run in the (key, run) order —
                    # or owns the bound itself (earlier block, same run).
                    side = "right" if r <= br else "left"
                    hi = int(np.searchsorted(data, bound_key, side=side))
                else:
                    hi = data.size
                if hi <= new_off:
                    break
                seg_keys.append(data[new_off:hi])
                if pay is not None:
                    if seg_pays is None:
                        seg_pays = []
                    seg_pays.append(pay[new_off:hi])
                if hi < data.size:
                    new_off = hi
                    break
                depleted.append((int(data[-1]), r, b))
                b += 1
                new_off = 0
            offsets[r] = new_off

        if not seg_keys:
            if not bounded:  # pragma: no cover - guarded by finished()
                raise ScheduleError("merge stalled with no on-disk blocks")
            # The globally smallest record lives in a non-resident block:
            # demand-fetch it (one ParRead, as in the cycle loop).
            sched.ensure_resident(br, leading[br])
            continue

        cycles += len(seg_keys)
        if len(seg_keys) == 1:
            merged_keys = seg_keys[0]
            merged_pays = seg_pays[0] if seg_pays is not None else None
        else:
            merged_keys = np.concatenate(seg_keys)
            order = np.argsort(merged_keys, kind="stable")
            merged_keys = merged_keys[order]
            merged_pays = (
                np.concatenate(seg_pays)[order] if seg_pays is not None else None
            )
        writer.append(merged_keys, merged_pays)
        h_batch.observe(merged_keys.size)

        # Fire depletions in consumption order: (last key, run, block)
        # sorts each run's blocks in sequence and interleaves runs the
        # way the per-cycle loop would have.
        depleted.sort()
        for _, r, b in depleted:
            del block_data[(r, b)]
            if free_inputs:
                system.free(runs[r].addresses[b])
            sched.on_leading_depleted(r)
    m_cycles.inc(cycles)
    return cycles
