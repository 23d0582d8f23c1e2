"""Initial run formation (paper §2.1).

Two classical methods are provided:

* **Memory-load sort** — read ``M`` records with full read parallelism,
  sort internally, write one striped run; repeat.  Produces
  ``ceil(N/M)`` runs of length ``M`` (the paper's formula baseline).
* **Replacement selection** — a heap of ``M`` records streams input to
  output, starting a new run only when the incoming record is smaller
  than the last one written; random inputs yield runs of expected
  length ``2M`` (Knuth), i.e. roughly half as many runs.

Replacement selection is slice-granular: each arriving slice of ``m``
records (at most the current epoch's pool, so the epoch never flips
mid-slice) is resolved in one vectorized *fixed-point step*.  The
slice's ``m`` emissions are the ``m`` smallest of the pool and the
slice's accepted arrivals, and an arrival is accepted iff it is at least
the emission it replaces; iterating that acceptance set up from empty
reaches exactly the textbook per-record heap loop's answer in a few
rounds (a slice still unsettled after a small round cap is bisected).
The emissions then leave as one array slice, and the unemitted accepted
records merge back into the sorted pool with one scatter.

Both methods charge realistic I/O: input blocks are read stripe-parallel
and runs are written with perfect write parallelism in forecast format.
"""

from __future__ import annotations

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
            keys.sort()  # equal bare keys are indistinguishable
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


#: Fixed-point rounds a slice may take before it is bisected.
_ROUNDS = 8


class _BlockReplacementSelection:
    """Slice-granular replacement selection (exact per-record equivalent).

    The current epoch's memory is one *pool* sorted by ``(key,
    arrival)``; the next epoch accumulates in arrival order and is
    stably sorted when it is promoted.  While input remains, every
    arriving record pairs with one emission, so an arriving slice ``x``
    of ``m <= |pool|`` records pairs with the next ``m`` emissions ``E``,
    all from the current epoch.  ``E`` is the ``m`` smallest of ``pool ∪
    A`` in ``(key, arrival)`` order, where ``A = {t : x_t >= key(E_t)}``
    is the set of accepted arrivals: an accepted arrival never sorts
    before an emission already made.  :meth:`_accepted` solves that for
    ``A`` by iterating from ``A = ∅``; ``A`` only grows, and its least
    fixed point is exactly the per-record heap loop's.  :meth:`_commit`
    then emits ``E``, merges the unemitted accepted records back into
    the pool with one scatter, and appends the rejects to the next epoch.
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
        # Current-epoch pool, sorted by (key, arrival).
        self.pool_k = np.empty(0, dtype=np.int64)
        self.pool_p: np.ndarray | None = None
        # Next-epoch accumulation, in arrival order.
        self.nxt_k: list[np.ndarray] = []
        self.nxt_p: list[np.ndarray] = []
        # Current output run accumulation.
        self.out_k: list[np.ndarray] = []
        self.out_p: list[np.ndarray] = []
        self.runs: list[StripedRun] = []

    # -- run boundaries ---------------------------------------------------

    def _emit(self, keys: np.ndarray, pays: np.ndarray | None) -> None:
        if not keys.size:
            return
        self.out_k.append(keys)
        if self.has_payloads:
            self.out_p.append(pays)

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

    def _set_pool(self, parts_k: list[np.ndarray], parts_p: list[np.ndarray]) -> None:
        """Make the arrival-ordered *parts* the pool (stable sort)."""
        if not parts_k:
            self.pool_k = np.empty(0, dtype=np.int64)
            self.pool_p = None
            return
        keys = np.concatenate(parts_k)
        order = np.argsort(keys, kind="stable")
        self.pool_k = keys[order]
        if self.has_payloads:
            self.pool_p = np.concatenate(parts_p)[order]

    def _promote_next_epoch(self) -> None:
        """Current epoch drained: close the run, promote the next epoch."""
        self._close_run()
        self._set_pool(self.nxt_k, self.nxt_p)
        self.nxt_k = []
        self.nxt_p = []

    # -- slice processing -------------------------------------------------

    def _accepted(self, xk: np.ndarray) -> np.ndarray | None:
        """Acceptance mask of the slice *xk*, or ``None`` past :data:`_ROUNDS`.

        Only the emission *keys* decide acceptance, and an accepted key at
        or above ``thr``, the ``m``-th pool key, leaves the ``m`` smallest
        keys unchanged; so each round merges just the accepted keys below
        ``thr`` into the pool's first ``m``.  Those only grow, so an
        unchanged count means the fixed point.
        """
        m = xk.size
        head = self.pool_k[:m]
        thr = head[-1]
        emit = head
        n_low = 0
        for _ in range(_ROUNDS):
            mask = xk >= emit
            low = xk[mask]
            low = low[low < thr]
            if low.size == n_low:
                return mask
            n_low = low.size
            # Timsort finds the sorted head as one run: a cheap merge.
            emit = np.sort(np.concatenate([head, low]), kind="stable")[:m]
        return None

    def _commit(self, xk: np.ndarray, xp: np.ndarray | None, mask: np.ndarray) -> None:
        """Emit the slice's ``m`` records and fold its accepted ones in."""
        m = xk.size
        ak = xk[mask]
        order = np.argsort(ak, kind="stable")  # (key, arrival)
        ak = ak[order]
        # Arrivals are newer than the whole pool: equal keys slot after.
        pos = np.searchsorted(self.pool_k, ak, side="right")
        pos += np.arange(ak.size)
        n = self.pool_k.size + ak.size
        old = np.ones(n, dtype=bool)
        old[pos] = False
        keys = np.empty(n, dtype=np.int64)
        keys[pos] = ak
        keys[old] = self.pool_k
        self.pool_k = keys[m:]
        # Emissions are copied out so they do not pin the merged arrays.
        pays = None
        if self.has_payloads:
            pays = np.empty_like(keys)
            pays[pos] = xp[mask][order]
            pays[old] = self.pool_p
            self.pool_p = pays[m:]
            pays = pays[:m].copy()
        self._emit(keys[:m].copy(), pays)
        rej = ~mask
        if rej.any():
            self.nxt_k.append(xk[rej])
            if self.has_payloads:
                self.nxt_p.append(xp[rej])

    def _process(self, xk: np.ndarray, xp: np.ndarray | None) -> None:
        """Resolve a slice of at most ``|pool|`` records, bisecting if slow."""
        mask = self._accepted(xk)
        if mask is not None:
            self._commit(xk, xp, mask)
            return
        # A one-record slice always converges in the first round.
        h = xk.size // 2
        self._process(xk[:h], None if xp is None else xp[:h])
        self._process(xk[h:], None if xp is None else xp[h:])

    # -- driver -----------------------------------------------------------

    def run(self) -> list[StripedRun]:
        M = self.memory_records
        # Initial fill: the first M records are epoch 0.
        parts_k: list[np.ndarray] = []
        parts_p: list[np.ndarray] = []
        filled = 0
        carry: tuple[np.ndarray, np.ndarray | None] | None = None
        while filled < M:
            chunk = self.refill()
            if chunk is None:
                break
            k, p = chunk
            self.has_payloads = p is not None
            need = M - filled
            if k.size > need:
                carry = (k[need:], None if p is None else p[need:])
                k, p = k[:need], None if p is None else p[:need]
            parts_k.append(k)
            if p is not None:
                parts_p.append(p)
            filled += k.size
        self._set_pool(parts_k, parts_p)

        block = carry if carry is not None else self.refill()
        while block is not None:
            xk, xp = block
            i = 0
            while i < xk.size:
                # Clipped to the pool, a slice never flips the epoch.
                j = i + min(xk.size - i, self.pool_k.size)
                self._process(xk[i:j], None if xp is None else xp[i:j])
                i = j
                if self.pool_k.size == 0:
                    self._promote_next_epoch()
            block = self.refill()

        # Input exhausted: the pool ends this run, the next epoch the last.
        self._emit(self.pool_k, self.pool_p)
        self._promote_next_epoch()
        self._emit(self.pool_k, self.pool_p)
        self._close_run()
        return self.runs
