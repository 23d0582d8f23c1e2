"""The Vitter–Shriver D-disk parallel I/O system.

One *parallel I/O operation* transfers at most one block to or from each
of the ``D`` independent disks.  The system enforces that constraint
(raising :class:`InvalidIOError` on violations), counts operations and
per-disk traffic, and — when given a :class:`DiskTimingModel` — advances
a simulated clock.

Addresses are ``(disk, slot)`` pairs (:class:`BlockAddress`).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Optional, Sequence

from ..errors import ConfigError, DataError, DiskDeadError, InvalidIOError
from .backends import StorageBackend, make_backend
from .block import Block
from .counters import IOStats
from .disk import Disk
from .timing import DiskTimingModel


class BlockAddress(NamedTuple):
    """Physical location of a block: which disk, which slot."""

    disk: int
    slot: int


class ParallelDiskSystem:
    """``D`` independent disks with parallel-I/O accounting.

    Parameters
    ----------
    n_disks:
        Number of independent disks, ``D >= 1``.
    block_size:
        Records per full block, ``B >= 1``.  Stored for convenience and
        used by the timing model; partial blocks are permitted (run
        tails).
    capacity_blocks_per_disk:
        Optional per-disk capacity.
    timing:
        Optional service-time model; when present, ``elapsed_ms``
        accumulates the simulated wall time of all operations.
    channel_width:
        Optional I/O channel bandwidth in blocks (the paper's §1
        two-parameter model with ``D`` the channel width and ``D'`` the
        disk count).  When set to ``c < n_disks``, a parallel operation
        touching ``n`` disks costs ``ceil(n / c)`` channel rounds — the
        disks still seek concurrently, but only ``c`` blocks cross the
        channel at a time.  ``None`` (default) models ``D = D'``: the
        channel matches the disks, one round per operation.
    backend:
        Block-storage backend selection (see
        :mod:`repro.disks.backends`): ``None``/``"memory"`` keeps blocks
        in RAM, ``"mmap"`` / ``"mmap:/path"`` stores them in one
        ``np.memmap``-ed file per disk so data sets can exceed RAM.
        Also accepts a :class:`~repro.disks.backends.BackendSpec` or a
        constructed (unattached) backend instance.
    """

    def __init__(
        self,
        n_disks: int,
        block_size: int,
        capacity_blocks_per_disk: Optional[int] = None,
        timing: Optional[DiskTimingModel] = None,
        channel_width: Optional[int] = None,
        backend=None,
    ) -> None:
        if n_disks < 1:
            raise ConfigError(f"need at least one disk, got D={n_disks}")
        if block_size < 1:
            raise ConfigError(f"block size must be >= 1, got B={block_size}")
        if channel_width is not None and channel_width < 1:
            raise ConfigError(
                f"channel width must be >= 1, got {channel_width}"
            )
        self.n_disks = n_disks
        self.block_size = block_size
        self.channel_width = channel_width
        #: Block-storage backend; disks hold stores it handed out.
        self.backend: StorageBackend = make_backend(backend)
        self.backend.attach(n_disks, block_size)
        self.disks = [
            Disk(d, capacity_blocks_per_disk, store=self.backend.store_for(d))
            for d in range(n_disks)
        ]
        self.stats = IOStats(n_disks=n_disks)
        self.timing = timing
        self.elapsed_ms = 0.0
        #: Channel rounds consumed (== parallel ops when channel matches).
        self.channel_rounds = 0
        #: Optional causal tracer (:class:`~repro.telemetry.trace
        #: .SystemTracer` or a cluster ``StagedTracer``): every charged
        #: clock advance emits one timeline record on the channel lane.
        self.tracer = None
        #: Optional pre-operation hook called once at the top of every
        #: charged stripe operation (read, charged read, write) *before*
        #: any work happens.  The multi-tenant service installs a round
        #: gate here: the hook blocks the calling job until the fairness
        #: policy grants it the next parallel-I/O round, which is what
        #: lets many sorts interleave on one shared system at round
        #: granularity.  ``None`` (default) costs nothing.
        self.round_hook = None
        #: Optional secondary :class:`IOStats` mirror.  Every charged
        #: operation recorded in :attr:`stats` is also recorded here.
        #: The service points this at the granted job's private counters
        #: for the duration of its round, giving exact per-job
        #: accounting (and uncontaminated per-pass deltas inside the
        #: driver) on a shared farm.  ``None`` (default) costs nothing.
        self.stats_sink = None
        #: Fault injection state (see :meth:`attach_faults`).  ``None``
        #: keeps every I/O on the original fault-free fast path.
        self.faults = None
        self.retry_policy = None
        self.breaker = None
        #: Disks that have permanently failed.
        self.dead_disks: set[int] = set()
        #: Migrated addresses: original -> survivor location.  Callers
        #: keep their original addresses; :meth:`resolve` follows chains.
        self._remap: dict[BlockAddress, BlockAddress] = {}
        self._redirect_rr = 0
        #: One :class:`~repro.faults.degraded.DeathReport` per disk loss.
        self.death_reports: list = []
        #: Rotating-parity bookkeeping (``redundancy="parity"`` plans).
        self._parity = None

    # -- fault injection --------------------------------------------------

    def attach_faults(self, plan, retry=None, telemetry=None) -> None:
        """Arm this system with a seeded fault plan.

        Parameters
        ----------
        plan:
            A :class:`~repro.faults.plan.FaultPlan` (or an already
            constructed :class:`~repro.faults.plan.FaultInjector`).
        retry:
            Optional :class:`~repro.faults.retry.RetryPolicy`; defaults
            to :data:`~repro.faults.retry.DEFAULT_RETRY`.
        telemetry:
            Optional :class:`~repro.telemetry.Telemetry`; fault events
            and counters land in its registry under ``faults.*``.

        Must be called before any data is written: blocks are sealed
        with checksums at write time, so pre-attach writes would be
        unverifiable (their corruption counts as undetected).
        """
        from ..faults.plan import FaultInjector
        from ..faults.retry import DEFAULT_RETRY, CircuitBreaker

        if self.faults is not None:
            raise ConfigError("faults already attached to this system")
        if isinstance(plan, FaultInjector):
            inj = plan
        else:
            inj = FaultInjector(
                plan, self.n_disks, retry=retry, telemetry=telemetry
            )
        self.faults = inj
        self.retry_policy = inj.retry if retry is None else retry
        self.breaker = CircuitBreaker()
        if inj.plan.redundancy == "parity":
            from ..faults.parity import ParityStore

            self._parity = ParityStore(self)

    @property
    def degraded(self) -> bool:
        """True once at least one disk has died."""
        return bool(self.dead_disks)

    def resolve(self, addr: BlockAddress) -> BlockAddress:
        """Physical location of *addr*, following degraded-mode remaps."""
        remap = self._remap
        while addr in remap:
            addr = remap[addr]
        return addr

    def peek(self, addr: BlockAddress) -> Block:
        """Read a block without charging I/O (verification aid)."""
        a = self.resolve(addr)
        return self.disks[a.disk].read(a.slot)

    def install_block(self, addr: BlockAddress, block: Block) -> None:
        """Place *block* at *addr* without charging I/O.

        Models pre-existing data (input files); when faults are armed
        the block is sealed so later corrupted transfers are detectable.
        """
        tgt = self.resolve(addr)
        if self.faults is not None:
            if tgt.disk in self.dead_disks:
                new = self.allocate(tgt.disk)
                self._remap[tgt] = new
                tgt = new
            block.seal()
        self.disks[tgt.disk].write(tgt.slot, block)
        if self._parity is not None:
            # Pre-existing data arrives with pre-existing parity: track
            # the block and persist any completed group's parity block
            # without charging I/O, like the data itself.
            self._parity.add_block(addr, tgt.disk, block)
            self._flush_parity_writes(charged=False)

    def _next_survivor(self) -> int:
        survivors = [
            d for d in range(self.n_disks) if d not in self.dead_disks
        ]
        if not survivors:
            raise DiskDeadError(f"all {self.n_disks} disks have died")
        d = survivors[self._redirect_rr % len(survivors)]
        self._redirect_rr += 1
        return d

    def _kill_disk(self, disk: int, trigger: str) -> None:
        """Declare *disk* dead and recover its blocks onto the survivors."""
        from ..faults.degraded import migrate_dead_disk

        if disk in self.dead_disks:
            # A death cascading out of another death's recovery writes
            # can re-nominate a disk the outer frame is already burying.
            return
        self.dead_disks.add(disk)
        report = migrate_dead_disk(self, disk, trigger)
        self.faults.mark_dead(disk, trigger, report.recovered_blocks)
        self.death_reports.append(report)

    def _charge_backoff(self, disk: int, backoff_ms: float) -> None:
        """Account one retry delay on the clock and the disk's queue."""
        self.faults.count_retry(disk, backoff_ms)
        if self.timing is not None:
            t0 = self.elapsed_ms
            self.elapsed_ms += backoff_ms
            if self.tracer is not None:
                self.tracer.op("backoff", 1, t0, self.elapsed_ms)

    # -- allocation ------------------------------------------------------

    def allocate(self, disk: int) -> BlockAddress:
        """Reserve a slot on *disk* and return its address.

        In degraded mode a request for a dead disk is redirected
        round-robin onto the survivors (new data never lands on a lost
        spindle; the logical layout rule keeps naming the dead disk).
        """
        if self.dead_disks and disk in self.dead_disks:
            disk = self._next_survivor()
            self.faults.count_redirect()
        return BlockAddress(disk, self.disks[disk].allocate())

    def free(self, addr: BlockAddress) -> None:
        """Release the slot at *addr* (discarding any live block).

        Under ``redundancy="parity"`` the physical release of a
        parity-group member is deferred until its whole group is freed,
        keeping reconstruction sources on disk (see
        :meth:`~repro.faults.parity.ParityStore.note_free`).
        """
        if self._parity is not None and self._parity.note_free(addr):
            return
        addr = self.resolve(addr)
        if addr.disk in self.dead_disks:
            # The slot vanished with its spindle (allocated, never
            # written before the death) — nothing to release.
            return
        self.disks[addr.disk].free(addr.slot)

    # -- parallel I/O ------------------------------------------------------

    def _check_one_per_disk(self, disks: Sequence[int]) -> None:
        if len(set(disks)) != len(disks):
            raise InvalidIOError(
                f"parallel I/O may touch each disk at most once, got disks {list(disks)}"
            )

    def _charge(
        self, kind: str, disks: list[int], trace_kind: Optional[str] = None
    ) -> None:
        """Account one parallel *kind* round on the distinct *disks*.

        The single place a charged round lands: :attr:`stats` and
        :attr:`stats_sink` count it, the clock advances, and the causal
        :attr:`tracer` records it as *trace_kind* (default *kind*).
        """
        if kind == "read":
            self.stats.record_read(disks)
            if self.stats_sink is not None:
                self.stats_sink.record_read(disks)
        else:
            self.stats.record_write(disks)
            if self.stats_sink is not None:
                self.stats_sink.record_write(disks)
        n_active = len(disks)
        width = self.channel_width or n_active
        rounds = -(-n_active // width)
        self.channel_rounds += rounds
        t0 = self.elapsed_ms
        if self.timing is not None:
            # One seek+rotation overlapped across disks, then the channel
            # streams the blocks `width` at a time.
            base = self.timing.stripe_time_ms(self.block_size, n_active)
            extra = (rounds - 1) * self.timing.block_transfer_ms(self.block_size)
            self.elapsed_ms += base + extra
        if self.tracer is not None:
            self.tracer.op(trace_kind or kind, n_active, t0, self.elapsed_ms)

    def _charge_rounds(
        self, kind: str, disks: list[int], trace_kind: Optional[str] = None
    ) -> int:
        """Charge *disks* as greedy rounds of distinct disks.

        A disk already in the open round closes it and starts the next,
        so ``disks`` in order become the fewest rounds that keep their
        order.  Returns the number of rounds charged.
        """
        rounds = 0
        group: list[int] = []
        for d in disks:
            if d in group:
                self._charge(kind, group, trace_kind)
                rounds += 1
                group = []
            group.append(d)
        if group:
            self._charge(kind, group, trace_kind)
            rounds += 1
        return rounds

    def read_stripe(self, addresses: Sequence[Optional[BlockAddress]]) -> list[Optional[Block]]:
        """Perform one parallel read.

        Parameters
        ----------
        addresses:
            Up to ``D`` addresses on pairwise-distinct disks; ``None``
            entries are skipped (that disk idles).  An all-``None``
            request costs no I/O.

        Returns
        -------
        list of blocks positionally matching *addresses*.
        """
        if self.round_hook is not None and any(
            a is not None for a in addresses
        ):
            self.round_hook()
        if self.faults is not None:
            return self._read_stripe_faulty(addresses)
        live = [a for a in addresses if a is not None]
        if not live:
            return [None] * len(addresses)
        disks = [a.disk for a in live]
        self._check_one_per_disk(disks)
        out: list[Optional[Block]] = []
        for a in addresses:
            out.append(None if a is None else self.disks[a.disk].read(a.slot))
        self._charge("read", disks)
        return out

    def charge_read_stripe(self, addresses: Sequence[BlockAddress]) -> None:
        """Charge one parallel read without materializing the blocks.

        Accounting-identical to :meth:`read_stripe` on a fault-free
        system — same distinct-disk check, :class:`IOStats` update,
        clock advance and trace record — but the stored blocks are never
        decoded.  The ghost schedule drive of the parallel merge plane
        uses this: worker processes read the bytes out-of-band, so the
        parent only owes the accounting.  Refuses to run with faults
        armed (every armed read must pass the retry/checksum ladder).
        """
        if self.faults is not None:
            raise InvalidIOError(
                "charge_read_stripe requires a fault-free system"
            )
        live = [a for a in addresses if a is not None]
        if not live:
            return
        if self.round_hook is not None:
            self.round_hook()
        disks = [a.disk for a in live]
        self._check_one_per_disk(disks)
        for a in live:
            if not self.disks[a.disk].has_block(a.slot):
                raise InvalidIOError(
                    f"disk {a.disk} slot {a.slot} holds no block"
                )
        self._charge("read", disks)

    def write_stripe(
        self, writes: Sequence[tuple[BlockAddress, Block]]
    ) -> list[int]:
        """Perform one parallel write of ``(address, block)`` pairs.

        All addresses must be on pairwise-distinct disks.  An empty
        request costs no I/O.

        Returns the physical disks written, positionally matching
        *writes* — identical to the address disks fault-free, but
        possibly relocated onto survivors in degraded mode (callers
        such as the overlap engine need the *physical* spindles).
        """
        if not writes:
            return []
        if self.round_hook is not None:
            self.round_hook()
        if self.faults is not None:
            return self._write_stripe_faulty(writes)
        disks = [a.disk for a, _ in writes]
        self._check_one_per_disk(disks)
        for addr, block in writes:
            self.disks[addr.disk].write(addr.slot, block)
        self._charge("write", disks)
        return disks

    # -- fault-injected I/O paths ------------------------------------------
    #
    # Mirrors of read_stripe/write_stripe taken only when faults are
    # armed.  Differences: addresses go through resolve(), reads run the
    # retry/checksum/escalation loop, and a stripe whose blocks resolve
    # onto colliding physical disks is split into multiple accounting
    # rounds (the degraded-mode overhead, counted as
    # ``faults.degraded_split_ios``).

    def _read_stripe_faulty(
        self, addresses: Sequence[Optional[BlockAddress]]
    ) -> list[Optional[Block]]:
        out: list[Optional[Block]] = [None] * len(addresses)
        disks: list[int] = []
        for i, a in enumerate(addresses):
            if a is None:
                continue
            blk, d = self._read_one_with_retry(a)
            out[i] = blk
            disks.append(d)
        rounds = self._charge_rounds("read", disks)
        if rounds > 1:
            self.faults.count_split_ios(rounds - 1)
        return out

    def _read_one_with_retry(self, orig: BlockAddress) -> tuple[Block, int]:
        """Read one block under the fault plan; returns (block, disk).

        Each pass resolves the address, asks the plan for this read's
        fate, and runs the retry ladder.  A circuit-breaker trip or an
        exhausted ladder escalates to disk death — degraded migration
        re-homes the block, and the loop re-resolves onto the survivor.
        """
        inj = self.faults
        pol = self.retry_policy
        while True:
            addr = self.resolve(orig)
            d = addr.disk
            if d in self.dead_disks:
                raise DiskDeadError(
                    f"block at {tuple(orig)} lives only on dead disk {d}"
                )
            if inj.death_due(d):
                self._kill_disk(d, "planned")
                continue
            outcome = inj.plan_read(d)
            corrupt_pending = outcome.corrupt
            killed = False
            for attempt in range(pol.max_attempts):
                if attempt < outcome.n_failures:
                    inj.count_transient()
                    if self.breaker.record_failure(d):
                        inj.count_breaker_trip()
                        self._kill_disk(d, "breaker")
                        killed = True
                        break
                    self._charge_backoff(d, pol.backoff_ms(attempt, inj.rng(d)))
                    continue
                blk = self.disks[d].read(addr.slot)
                if not blk.verify():
                    # The *stored* bytes fail their seal: a torn write
                    # persisted a block whose checksum went stale.  Not
                    # a transfer fault, so it doesn't feed the breaker;
                    # the fix is reconstruction, not a re-read.
                    blk = self._repair_torn(orig, d)
                if corrupt_pending:
                    corrupt_pending = False
                    inj.count_corrupt()
                    from ..faults.plan import corrupt_copy

                    bad = corrupt_copy(blk, inj.rng(d))
                    if not bad.verify():
                        # Checksum caught the bad transfer: one more
                        # failed attempt, then re-read the pristine data.
                        inj.count_detected()
                        if self.breaker.record_failure(d):
                            inj.count_breaker_trip()
                            self._kill_disk(d, "breaker")
                            killed = True
                            break
                        self._charge_backoff(
                            d, pol.backoff_ms(attempt, inj.rng(d))
                        )
                        continue
                    # Unsealed block: the corruption is invisible.  The
                    # chaos harness asserts this counter stays zero.
                    inj.count_undetected()
                    self.breaker.record_success(d)
                    inj.note_op(d)
                    return bad, d
                self.breaker.record_success(d)
                inj.note_op(d)
                return blk, d
            if not killed:
                # Retry budget exhausted without a clean read — treat
                # the spindle as failed and recover from the survivors.
                self._kill_disk(d, "retry_exhausted")

    def _repair_torn(self, orig: BlockAddress, disk: int) -> Block:
        """A stored block failed its seal: rebuild it from parity."""
        inj = self.faults
        inj.count_torn_detected()
        if self._parity is None:
            raise DataError(
                f"torn write detected at {tuple(orig)} on disk {disk} "
                "but the plan has redundancy='none' — nothing to rebuild "
                "from"
            )
        return self._parity.repair_in_place(orig)

    def _write_stripe_faulty(
        self, writes: Sequence[tuple[BlockAddress, Block]]
    ) -> list[int]:
        disks: list[int] = []
        for addr, block in writes:
            disks.append(self._write_one_with_retry(addr, block))
        rounds = self._charge_rounds("write", disks)
        if rounds > 1:
            self.faults.count_split_ios(rounds - 1)
        # Any parity group completed by this stripe flushes now, as
        # separately-charged rounds: the data stripe's accounting (and
        # its positional disk list, which callers rely on) stays intact.
        self._flush_parity_writes()
        return disks

    def _write_one_with_retry(self, orig: BlockAddress, block: Block) -> int:
        """Write one block under the fault plan; returns the disk used.

        Mirrors :meth:`_read_one_with_retry`: the plan decides this
        write's fate, transient failures back off and feed the breaker,
        and exhaustion escalates to disk death — after which the loop
        re-resolves onto a survivor and the write goes through there.
        A torn write persists a corrupted copy under the pristine seal;
        the staleness is caught by :meth:`Block.verify` on next read.
        """
        inj = self.faults
        pol = self.retry_policy
        while True:
            addr = self.resolve(orig)
            if addr.disk in self.dead_disks:
                # Allocated before the death, written after: relocate
                # the slot onto a survivor and remember the move.
                new = self.allocate(addr.disk)
                self._remap[addr] = new
                continue
            d = addr.disk
            if inj.death_due(d):
                self._kill_disk(d, "planned")
                continue
            outcome = inj.plan_write(d)
            killed = False
            for attempt in range(pol.max_attempts):
                if attempt < outcome.n_failures:
                    inj.count_write_failure()
                    if self.breaker.record_failure(d):
                        inj.count_breaker_trip()
                        self._kill_disk(d, "breaker")
                        killed = True
                        break
                    self._charge_backoff(d, pol.backoff_ms(attempt, inj.rng(d)))
                    continue
                block.seal()
                torn = outcome.torn
                if self._parity is not None:
                    # The store may veto the tear: one parity arm can
                    # absorb only one latent loss per group.
                    torn = self._parity.add_block(orig, d, block, torn=torn)
                if torn:
                    inj.count_torn_injected()
                    from ..faults.plan import corrupt_copy

                    stored = corrupt_copy(block, inj.rng(d))
                    self.disks[d].write(addr.slot, stored)
                else:
                    self.disks[d].write(addr.slot, block)
                self.breaker.record_success(d)
                inj.note_op(d)
                return d
            if not killed:
                self._kill_disk(d, "retry_exhausted")

    def _flush_parity_writes(self, charged: bool = True) -> None:
        """Persist parity blocks for any groups that just closed."""
        if self._parity is None:
            return
        for g, pblk in self._parity.drain_pending():
            self._write_parity_block(g, pblk, charged=charged)

    def _write_parity_block(self, g, pblk: Block, charged: bool = True) -> None:
        """Write one group's parity block on its rotating spindle.

        Parity rides the controller's reliable path (no injected
        faults) but is *charged* like any write — redundancy is paid
        for, one extra round per closed group — except when it backs
        uncharged pre-existing data (``install_block``).
        """
        inj = self.faults
        d = g.parity_disk
        if d is None or d in self.dead_disks:
            d = self._parity.repick_parity_disk(g)
        addr = BlockAddress(d, self.disks[d].allocate())
        self.disks[d].write(addr.slot, pblk)
        if charged:
            self._charge("write", [d], "parity")
            inj.note_op(d)
            # Let the overlap engine feel the extra spindle time too.
            inj.add_recovery_ops(d)
        inj.count_parity_block()
        self._parity.note_parity_written(g, addr)

    def read_batch(self, addresses: Iterable[BlockAddress]) -> tuple[list[Block], int]:
        """Read arbitrarily many blocks using greedy stripe packing.

        Consecutive parallel reads are formed by taking at most one
        pending address per disk, so the number of operations equals the
        maximum number of requested blocks on any single disk — exactly
        the "maximum occupancy" cost that SRM's analysis charges for
        loading the ``R`` initial run blocks (``I_0`` in §6).

        Returns
        -------
        (blocks, n_operations):
            Blocks in the order requested, and the parallel reads used.
        """
        addrs = list(addresses)
        pending: dict[int, deque[tuple[int, BlockAddress]]] = {}
        for pos, a in enumerate(addrs):
            pending.setdefault(a.disk, deque()).append((pos, a))
        out: list[Optional[Block]] = [None] * len(addrs)
        n_ops = 0
        while pending:
            # FIFO per disk: each disk serves its requests in the order
            # they were submitted, so a caller streaming a run's blocks
            # sees them fetched in file order (popping the newest request
            # first would starve the oldest until its queue drained).
            stripe = [queue.popleft() for queue in pending.values()]
            pending = {d: q for d, q in pending.items() if q}
            blocks = self.read_stripe([a for _, a in stripe])
            for (pos, _), blk in zip(stripe, blocks):
                out[pos] = blk
            n_ops += 1
        return out, n_ops  # type: ignore[return-value]

    # -- convenience (single-block I/O, costs one parallel op) -------------

    def read_block(self, addr: BlockAddress) -> Block:
        """Read a single block (one full parallel operation)."""
        return self.read_stripe([addr])[0]  # type: ignore[return-value]

    def write_block(self, addr: BlockAddress, block: Block) -> None:
        """Write a single block (one full parallel operation)."""
        self.write_stripe([(addr, block)])

    # -- introspection -------------------------------------------------------

    @property
    def used_blocks(self) -> int:
        """Total live blocks across all disks."""
        return sum(d.used_blocks for d in self.disks)

    def usage_per_disk(self) -> list[int]:
        """Live block count per disk."""
        return [d.used_blocks for d in self.disks]

    def close(self) -> None:
        """Release backend resources (scratch files for mmap storage)."""
        self.backend.close()

    def __enter__(self) -> "ParallelDiskSystem":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ParallelDiskSystem(D={self.n_disks}, B={self.block_size}, "
            f"used={self.used_blocks}, {self.stats})"
        )
