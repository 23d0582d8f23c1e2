"""Initial run formation (paper §2.1).

Two classical methods are provided:

* **Memory-load sort** — read ``M`` records with full read parallelism,
  sort internally, write one striped run; repeat.  Produces
  ``ceil(N/M)`` runs of length ``M`` (the paper's formula baseline).
* **Replacement selection** — a heap of ``M`` records streams input to
  output, starting a new run only when the incoming record is smaller
  than the last one written; random inputs yield runs of expected
  length ``2M`` (Knuth), i.e. roughly half as many runs.

Replacement selection is block-granular: each refilled input block is
classified against the next ``m`` pending emissions with one vectorized
compare (current epoch vs. next epoch), the emissions leave as one array
slice, and accepted records merge back array-at-a-time.  A per-record
fallback handles the rare steps where an accepted record would itself be
emitted inside the same block or the epoch flips mid-block, so the runs
are exactly the textbook per-record heap loop's.

Both methods charge realistic I/O: input blocks are read stripe-parallel
and runs are written with perfect write parallelism in forecast format.
"""

from __future__ import annotations

import heapq
from typing import Iterator

import numpy as np

from ..disks.files import StripedFile, StripedRun
from ..disks.system import ParallelDiskSystem
from ..errors import ConfigError, DataError
from ..rng import RngLike, ensure_rng
from ..telemetry import TELEMETRY_OFF
from ..telemetry.schema import H_RUN_LENGTH, run_length_edges
from .layout import LayoutStrategy, choose_start_disks


def _start_disk_stream(
    n_disks: int, strategy: LayoutStrategy, rng: RngLike
) -> Iterator[int]:
    """Unbounded stream of run start disks under *strategy*."""
    gen = ensure_rng(rng)
    i = 0
    while True:
        if strategy is LayoutStrategy.RANDOMIZED:
            yield int(gen.integers(0, n_disks))
        elif strategy is LayoutStrategy.WORST_CASE:
            yield 0
        else:  # STAGGERED / ROUND_ROBIN degenerate to cycling at stream time
            yield i % n_disks
        i += 1


def form_runs_load_sort(
    system: ParallelDiskSystem,
    infile: StripedFile,
    run_length: int,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng: RngLike = None,
    first_run_id: int = 0,
    free_input: bool = True,
    telemetry=None,
) -> list[StripedRun]:
    """One pass of memory-load run formation.

    Reads ``run_length``-record loads of *infile* (block-aligned; the
    run length is rounded down to a whole number of blocks), sorts each
    in memory, and writes it as a striped forecast-format run.
    """
    B = system.block_size
    blocks_per_run = max(1, run_length // B)
    if run_length < B:
        raise ConfigError(
            f"run length {run_length} is smaller than one block (B={B})"
        )
    if infile.n_records == 0:
        return []
    n_runs = -(-infile.n_blocks // blocks_per_run)
    starts = choose_start_disks(n_runs, system.n_disks, strategy, rng)
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_len = tel.histogram(H_RUN_LENGTH, run_length_edges(run_length))
    runs: list[StripedRun] = []
    for i in range(n_runs):
        chunk = infile.addresses[i * blocks_per_run : (i + 1) * blocks_per_run]
        blocks, _ = system.read_batch(chunk)
        keys = np.concatenate([b.keys for b in blocks])
        if blocks[0].payloads is not None:
            payloads = np.concatenate([b.payloads for b in blocks])
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            payloads = payloads[order]
        else:
            payloads = None
            keys.sort(kind="stable")
        if free_input:
            for addr in chunk:
                system.free(addr)
        h_len.observe(keys.size)
        runs.append(
            StripedRun.from_sorted_keys(
                system,
                keys,
                run_id=first_run_id + i,
                start_disk=int(starts[i]),
                payloads=payloads,
            )
        )
    return runs


def form_runs_replacement_selection(
    system: ParallelDiskSystem,
    infile: StripedFile,
    memory_records: int,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng: RngLike = None,
    first_run_id: int = 0,
    free_input: bool = True,
    telemetry=None,
) -> list[StripedRun]:
    """One pass of replacement-selection run formation.

    A memory of up to ``memory_records`` records streams input to
    output; each output record is replaced by the next input record,
    tagged with the *next* run's epoch if it is smaller than the last
    record written (it can no longer join the current run).  Random
    inputs give expected run length ``2·memory_records``.
    """
    if memory_records < 1:
        raise ConfigError(f"memory must hold at least 1 record, got {memory_records}")
    if infile.n_records == 0:
        return []
    disk_stream = _start_disk_stream(system.n_disks, strategy, rng)
    runs = _BlockReplacementSelection(
        system, infile, memory_records, disk_stream, first_run_id, free_input
    ).run()
    total = sum(r.n_records for r in runs)
    if total != infile.n_records:
        raise DataError(
            f"replacement selection emitted {total} of {infile.n_records} records"
        )
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_len = tel.histogram(H_RUN_LENGTH, run_length_edges(memory_records))
    for r in runs:
        h_len.observe(r.n_records)
    return runs


def _chunk_reader(system: ParallelDiskSystem, infile: StripedFile, free_input: bool):
    """Stripe-parallel input reader: ``D`` blocks per refill."""
    addr_pos = 0

    def refill() -> tuple[np.ndarray, np.ndarray | None] | None:
        nonlocal addr_pos
        if addr_pos >= infile.n_blocks:
            return None
        chunk = infile.addresses[addr_pos : addr_pos + system.n_disks]
        blocks, _ = system.read_batch(chunk)
        if free_input:
            for addr in chunk:
                system.free(addr)
        addr_pos += len(chunk)
        keys = np.concatenate([b.keys for b in blocks])
        if blocks[0].payloads is None:
            return keys, None
        return keys, np.concatenate([b.payloads for b in blocks])

    return refill


#: Blocks at or below this size replay per-record when the vectorized
#: step cannot apply (interference / epoch flip); larger blocks bisect.
_LEAF = 32


class _BlockReplacementSelection:
    """Block-granular replacement selection (exact per-record equivalent).

    The current epoch's memory is held as two sorted-by-``(key,
    arrival)`` arrays: the *current pool* (``cur``, the initial fill
    plus periodically folded-in arrivals) and the *accepted side-array*
    (``acc``, records accepted since the last fold; everything in
    ``acc`` arrived after everything in ``cur``).  The next epoch
    accumulates in arrival order and is stably sorted once per run
    boundary.

    While input remains, every arriving record pairs with exactly one
    emission, so an arriving block of ``m`` records pairs with the next
    ``m`` emissions — the ``m`` smallest of ``cur ∪ acc``, obtained by
    one stable argsort of two ``m``-slices.  When none of the block's
    accepted records sorts strictly below the ``m``-th of those
    emissions (the common case: that requires landing among the ``m``
    smallest of ``M`` resident records), the whole block commits
    vectorized: emissions leave as array slices, accepted records merge
    into ``acc`` with one ``searchsorted`` + ``insert`` (bounded by the
    fold threshold, not ``M``), and rejects append to the next epoch.
    Otherwise the block *bisects*; only :data:`_LEAF`-sized pieces ever
    replay record-by-record, bit-identically to the per-record heap loop.
    """

    def __init__(
        self,
        system: ParallelDiskSystem,
        infile: StripedFile,
        memory_records: int,
        disk_stream: Iterator[int],
        first_run_id: int,
        free_input: bool,
    ) -> None:
        self.system = system
        self.memory_records = memory_records
        self.disk_stream = disk_stream
        self.run_id = first_run_id
        self.refill = _chunk_reader(system, infile, free_input)
        self.has_payloads = False
        # Current-epoch pool, sorted by (key, arrival); consumed from ci.
        self.cur_k = np.empty(0, dtype=np.int64)
        self.cur_p: np.ndarray | None = None
        self.ci = 0
        # Accepted side-array (newer than cur), sorted; consumed from ai.
        self.acc_k = np.empty(0, dtype=np.int64)
        self.acc_p: np.ndarray | None = None
        self.ai = 0
        # Fold acc into cur once it outgrows this (amortizes the O(M)
        # merge over many blocks of accepted records).
        self._fold_at = max(
            4 * system.n_disks * system.block_size, memory_records // 4
        )
        # Next-epoch accumulation, in arrival order.
        self.nxt_k: list[np.ndarray] = []
        self.nxt_p: list[np.ndarray] = []
        # Current output run accumulation.
        self.out_k: list[np.ndarray] = []
        self.out_p: list[np.ndarray] = []
        self.runs: list[StripedRun] = []

    # -- run boundaries ---------------------------------------------------

    def _close_run(self) -> None:
        if not self.out_k:
            return
        keys = np.concatenate(self.out_k)
        pays = np.concatenate(self.out_p) if self.has_payloads else None
        self.runs.append(
            StripedRun.from_sorted_keys(
                self.system,
                keys,
                run_id=self.run_id,
                start_disk=next(self.disk_stream),
                payloads=pays,
            )
        )
        self.run_id += 1
        self.out_k = []
        self.out_p = []

    def _promote_next_epoch(self) -> None:
        """Current epoch drained: close the run, promote the next epoch."""
        self._close_run()
        if self.nxt_k:
            keys = np.concatenate(self.nxt_k)
            order = np.argsort(keys, kind="stable")  # arrival order = seq
            self.cur_k = keys[order]
            if self.has_payloads:
                self.cur_p = np.concatenate(self.nxt_p)[order]
            self.nxt_k = []
            self.nxt_p = []
        else:
            self.cur_k = np.empty(0, dtype=np.int64)
            self.cur_p = np.empty(0, dtype=np.int64) if self.has_payloads else None
        self.ci = 0
        self.acc_k = np.empty(0, dtype=np.int64)
        self.acc_p = np.empty(0, dtype=np.int64) if self.has_payloads else None
        self.ai = 0

    # -- pool maintenance -------------------------------------------------

    def _avail(self) -> int:
        """Unconsumed current-epoch records (cur + accepted side-array)."""
        return (self.cur_k.size - self.ci) + (self.acc_k.size - self.ai)

    def _fold(self) -> None:
        """Merge the accepted side-array into the current pool.

        Stable concat order (cur first) keeps the FIFO tie-break: for
        equal keys, older ``cur`` records precede newer ``acc`` ones.
        """
        keys = np.concatenate([self.cur_k[self.ci :], self.acc_k[self.ai :]])
        order = np.argsort(keys, kind="stable")
        self.cur_k = keys[order]
        if self.has_payloads:
            self.cur_p = np.concatenate(
                [self.cur_p[self.ci :], self.acc_p[self.ai :]]
            )[order]
        self.ci = 0
        self.acc_k = np.empty(0, dtype=np.int64)
        self.acc_p = np.empty(0, dtype=np.int64) if self.has_payloads else None
        self.ai = 0

    def _append_accepted(self, keys: np.ndarray, pays: np.ndarray | None) -> None:
        """Merge newly accepted records (sorted by key, arrival) into ``acc``.

        Arrivals are newer than everything pending, so equal keys slot
        *after* existing ones (``side="right"``) — the heap's FIFO
        tie-break.
        """
        rest = self.acc_k[self.ai :]
        pos = np.searchsorted(rest, keys, side="right")
        self.acc_k = np.insert(rest, pos, keys)
        if self.has_payloads:
            self.acc_p = np.insert(self.acc_p[self.ai :], pos, pays)
        self.ai = 0
        if self.acc_k.size > self._fold_at:
            self._fold()

    def _next_emissions(
        self, m: int
    ) -> tuple[np.ndarray, np.ndarray | None, int, int]:
        """The next ``m`` emissions of the current epoch (needs avail >= m).

        Returns ``(keys, payloads, from_cur, from_acc)``.  A stable
        argsort over the two sorted ``m``-slices (cur first) realizes
        the (key, arrival) emission order.
        """
        c = self.cur_k[self.ci : self.ci + m]
        a = self.acc_k[self.ai : self.ai + m]
        if a.size == 0:
            pays = self.cur_p[self.ci : self.ci + m] if self.has_payloads else None
            return c, pays, m, 0
        if c.size == 0:
            pays = self.acc_p[self.ai : self.ai + m] if self.has_payloads else None
            return a, pays, 0, m
        cat = np.concatenate([c, a])
        order = np.argsort(cat, kind="stable")[:m]
        keys = cat[order]
        from_cur = int((order < c.size).sum())
        pays = None
        if self.has_payloads:
            pays = np.concatenate(
                [
                    self.cur_p[self.ci : self.ci + m],
                    self.acc_p[self.ai : self.ai + m],
                ]
            )[order]
        return keys, pays, from_cur, m - from_cur

    # -- block processing -------------------------------------------------

    def _process(self, xk: np.ndarray, xp: np.ndarray | None) -> None:
        """Process an arriving slice: vectorized, bisecting on conflict."""
        m = xk.size
        if m == 0:
            return
        if self._avail() >= m:
            keys, pays, from_cur, from_acc = self._next_emissions(m)
            mask = xk >= keys
            acc_k = xk[mask]
            # Interference: an accepted arrival strictly below the m-th
            # emission would itself be emitted within this slice (an
            # equal key loses the FIFO tie and stays resident).
            if not (acc_k.size and bool((acc_k < keys[-1]).any())):
                self.out_k.append(keys)
                if self.has_payloads:
                    self.out_p.append(pays)
                self.ci += from_cur
                self.ai += from_acc
                if acc_k.size:
                    order = np.argsort(acc_k, kind="stable")
                    self._append_accepted(
                        acc_k[order],
                        xp[mask][order] if self.has_payloads else None,
                    )
                rej = ~mask
                if rej.any():
                    self.nxt_k.append(xk[rej])
                    if self.has_payloads:
                        self.nxt_p.append(xp[rej])
                return
        if m <= _LEAF:
            self._process_leaf(xk, xp)
        else:
            # Bisect: interference is quadratically rarer in half-sized
            # slices, so conflicts narrow down to _LEAF-sized replays.
            h = m // 2
            self._process(xk[:h], None if xp is None else xp[:h])
            self._process(xk[h:], None if xp is None else xp[h:])

    def _process_leaf(self, xk: np.ndarray, xp: np.ndarray | None) -> None:
        """Per-record replay of one leaf (interference / epoch flip)."""
        # Accepted-but-unemitted arrivals from this leaf: a heap of
        # (key, index) — the index doubles as the FIFO tie-break and the
        # payload handle.  On key ties, cur beats acc beats leaf heap
        # (strictly oldest-first, matching the heap loop's sequence order).
        heap: list[tuple[int, int]] = []
        emit_k: list[int] = []
        emit_p: list[int] = []

        def flush_emitted() -> None:
            if emit_k:
                self.out_k.append(np.asarray(emit_k, dtype=np.int64))
                if self.has_payloads:
                    self.out_p.append(np.asarray(emit_p, dtype=np.int64))
                emit_k.clear()
                emit_p.clear()

        for i in range(xk.size):
            if self._avail() == 0 and not heap:
                # Current epoch exhausted: run boundary mid-stream.
                flush_emitted()
                self._promote_next_epoch()
            key = None
            src = -1
            if self.ci < self.cur_k.size:
                key = int(self.cur_k[self.ci])
                src = 0
            if self.ai < self.acc_k.size:
                k2 = int(self.acc_k[self.ai])
                if key is None or k2 < key:
                    key, src = k2, 1
            if heap and (key is None or heap[0][0] < key):
                key, src = heap[0][0], 2
            if src == 0:
                pay = int(self.cur_p[self.ci]) if self.has_payloads else 0
                self.ci += 1
            elif src == 1:
                pay = int(self.acc_p[self.ai]) if self.has_payloads else 0
                self.ai += 1
            else:
                key, j = heapq.heappop(heap)
                pay = int(xp[j]) if self.has_payloads else 0
            emit_k.append(key)
            emit_p.append(pay)
            x = int(xk[i])
            if x >= key:
                heapq.heappush(heap, (x, i))
            else:
                self.nxt_k.append(xk[i : i + 1])
                if self.has_payloads:
                    self.nxt_p.append(xp[i : i + 1])
        flush_emitted()
        if heap:
            heap.sort()  # (key, arrival) — already the FIFO merge order
            idx = np.asarray([j for _, j in heap], dtype=np.int64)
            self._append_accepted(
                xk[idx], xp[idx] if self.has_payloads else None
            )

    # -- driver -----------------------------------------------------------

    def run(self) -> list[StripedRun]:
        M = self.memory_records
        # Initial fill: the first M records are epoch 0.
        parts_k: list[np.ndarray] = []
        parts_p: list[np.ndarray] = []
        filled = 0
        carry: tuple[np.ndarray, np.ndarray | None] | None = None
        first = True
        while filled < M:
            chunk = self.refill()
            if chunk is None:
                break
            k, p = chunk
            if first:
                self.has_payloads = p is not None
                if self.has_payloads:
                    self.acc_p = np.empty(0, dtype=np.int64)
                first = False
            need = M - filled
            if k.size <= need:
                parts_k.append(k)
                if p is not None:
                    parts_p.append(p)
                filled += k.size
            else:
                parts_k.append(k[:need])
                if p is not None:
                    parts_p.append(p[:need])
                carry = (k[need:], p[need:] if p is not None else None)
                filled += need
        keys = (
            np.concatenate(parts_k) if parts_k else np.empty(0, dtype=np.int64)
        )
        order = np.argsort(keys, kind="stable")
        self.cur_k = keys[order]
        if self.has_payloads:
            self.cur_p = np.concatenate(parts_p)[order]

        block = carry if carry is not None else self.refill()
        while block is not None:
            self._process(*block)
            block = self.refill()

        # Input exhausted: drain the resident pools.
        self._fold()  # linearize cur + acc into one sorted tail
        if self.cur_k.size:
            self.out_k.append(self.cur_k)
            if self.has_payloads:
                self.out_p.append(self.cur_p)
        self._close_run()
        if self.nxt_k:
            self._promote_next_epoch()  # closes nothing; promotes the tail
            self.out_k.append(self.cur_k)
            if self.has_payloads:
                self.out_p.append(self.cur_p)
            self._close_run()
        return self.runs
