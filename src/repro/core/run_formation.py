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
Acceptance depends on keys only, so the pool holds keys only; the
epoch's records wait in arrival order, and each run is written once,
when its epoch ends, in ``(key, arrival)`` order
(:func:`~repro.core.keyorder.stable_argsort`).  Memory-load sort orders
records with payloads by the same helper.

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
from .keyorder import stable_argsort
from .layout import LayoutStrategy, choose_start_disks
from .writer import RunWriter


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


def _write_run(
    system: ParallelDiskSystem,
    keys: np.ndarray,
    payloads: np.ndarray | None,
    run_id: int,
    start_disk: int,
) -> StripedRun:
    """Write one sorted run in forecast format through :class:`RunWriter`."""
    writer = RunWriter(system, run_id, start_disk)
    writer.append(keys, payloads)
    return writer.finalize()


def sorted_loads(
    system: ParallelDiskSystem,
    infile: StripedFile,
    run_length: int,
    free_input: bool = True,
    telemetry=None,
) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
    """The memory-load pass shared by SRM, DSM and PSV run formation.

    Reads *infile* in loads of ``run_length // B`` blocks (the caller
    has checked ``run_length >= B``), sorts each load in memory, frees
    its input blocks (unless *free_input* is false), observes its length
    in the ``H_RUN_LENGTH`` histogram, and yields ``(keys, payloads)``;
    the caller writes the load before the next one is read.  Records
    with payloads are ordered by ``(key, position)``
    (:func:`~repro.core.keyorder.stable_argsort`); equal bare keys are
    indistinguishable, so they take the cheaper unstable sort.
    """
    blocks_per_run = run_length // system.block_size
    tel = telemetry if telemetry is not None else TELEMETRY_OFF
    h_len = tel.histogram(H_RUN_LENGTH, run_length_edges(run_length))
    for i in range(0, infile.n_blocks, blocks_per_run):
        chunk = infile.addresses[i : i + blocks_per_run]
        blocks, _ = system.read_batch(chunk)
        keys = np.concatenate([b.keys for b in blocks])
        payloads = None
        if blocks[0].payloads is not None:
            order = stable_argsort(keys)
            keys = keys[order]
            payloads = np.concatenate([b.payloads for b in blocks])[order]
        else:
            keys.sort()
        if free_input:
            for addr in chunk:
                system.free(addr)
        h_len.observe(keys.size)
        yield keys, payloads


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
    in memory (:func:`sorted_loads`), and writes it as a striped
    forecast-format run.  Every run's start disk is drawn before the
    first read.
    """
    B = system.block_size
    if run_length < B:
        raise ConfigError(
            f"run length {run_length} is smaller than one block (B={B})"
        )
    if infile.n_records == 0:
        return []
    n_runs = -(-infile.n_blocks // (run_length // B))
    starts = choose_start_disks(n_runs, system.n_disks, strategy, rng)
    loads = sorted_loads(system, infile, run_length, free_input, telemetry)
    return [
        _write_run(system, keys, payloads, first_run_id + i, int(starts[i]))
        for i, (keys, payloads) in enumerate(loads)
    ]


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


def _merged(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """*sorted_keys* and *keys* as one sorted array."""
    out = np.concatenate([sorted_keys, np.sort(keys)])
    out.sort(kind="stable")  # timsort: one merge of two sorted runs
    return out


class _BlockReplacementSelection:
    """Slice-granular replacement selection (exact per-record equivalent).

    The current epoch's memory is a keys-only *pool*, sorted; the
    epoch's records themselves (the promoted ones, then each slice's
    accepted arrivals) accumulate in arrival order, as do the next
    epoch's.  While input remains, every arriving record pairs with one
    emission, so an arriving slice ``x`` of ``m <= |pool|`` records pairs
    with the next ``m`` emissions ``E``, all from the current epoch.
    ``E`` is the ``m`` smallest of ``pool ∪ A``, where ``A = {t : x_t >=
    key(E_t)}`` is the set of accepted arrivals: an accepted arrival
    never sorts before an emission already made.  :meth:`_accepted`
    solves that for ``A`` by iterating from ``A = ∅``; ``A`` only grows,
    and its least fixed point is exactly the per-record heap loop's.
    Acceptance depends on keys only, so :meth:`_commit` merges just the
    accepted keys into the pool and drops the ``m`` emitted ones.

    Every record of an epoch is emitted in that epoch's run, and the
    heap loop emits them in ``(key, arrival)`` order (an accepted record
    is at least the last emission and newer than every pooled record).
    So each run is written once, when its epoch ends: the epoch's
    records ordered by :func:`~repro.core.keyorder.stable_argsort`.
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
        # Current epoch: its unemitted keys, sorted, and its records in
        # arrival order.
        self.pool_k = np.empty(0, dtype=np.int64)
        self.cur_k: list[np.ndarray] = []
        self.cur_p: list[np.ndarray] = []
        # Next epoch, in arrival order.
        self.nxt_k: list[np.ndarray] = []
        self.nxt_p: list[np.ndarray] = []
        self.runs: list[StripedRun] = []

    # -- run boundaries ---------------------------------------------------

    def _close_run(self) -> None:
        """Write the current epoch's records as one run."""
        if not self.cur_k:
            return
        keys = np.concatenate(self.cur_k)
        self.cur_k = []
        order = stable_argsort(keys)  # (key, arrival)
        keys = keys[order]
        pays = None
        if self.cur_p:
            pays = np.concatenate(self.cur_p)[order]
            self.cur_p = []
        self.runs.append(
            _write_run(self.system, keys, pays, self.run_id, next(self.disk_stream))
        )
        self.run_id += 1

    def _promote_next_epoch(self) -> None:
        """Current epoch drained: close its run, promote the next epoch."""
        self._close_run()
        self.cur_k, self.cur_p = self.nxt_k, self.nxt_p
        self.nxt_k, self.nxt_p = [], []
        self.pool_k = (
            np.sort(np.concatenate(self.cur_k))
            if self.cur_k
            else np.empty(0, dtype=np.int64)
        )

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
            emit = _merged(head, low)[:m]
        return None

    def _commit(self, xk: np.ndarray, xp: np.ndarray | None, mask: np.ndarray) -> None:
        """Drop the slice's ``m`` emitted keys and record its arrivals."""
        ak = xk[mask]
        if ak.size:
            self.cur_k.append(ak)
            if xp is not None:
                self.cur_p.append(xp[mask])
        self.pool_k = _merged(self.pool_k, ak)[xk.size :]
        if ak.size < xk.size:
            rej = ~mask
            self.nxt_k.append(xk[rej])
            if xp is not None:
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
        filled = 0
        carry: tuple[np.ndarray, np.ndarray | None] | None = None
        while filled < M:
            chunk = self.refill()
            if chunk is None:
                break
            k, p = chunk
            need = M - filled
            if k.size > need:
                carry = (k[need:], None if p is None else p[need:])
                k, p = k[:need], None if p is None else p[:need]
            self.nxt_k.append(k)
            if p is not None:
                self.nxt_p.append(p)
            filled += k.size
        self._promote_next_epoch()

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

        # Input exhausted: the current epoch ends this run, the next the last.
        self._promote_next_epoch()
        self._close_run()
        return self.runs
