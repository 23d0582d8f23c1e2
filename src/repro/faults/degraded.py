"""Degraded-mode operation: surviving a permanent disk loss mid-merge.

SRM is unusually well positioned for disk death because §5's flushing
already proves any buffered block can be forgotten and re-read — block
contents are never only-in-memory state the merge depends on.  What
death removes is a *location*: the cyclic layout rule says block ``i``
of a run lives on disk ``(start + i) mod D``, and that disk no longer
answers.

Two recovery models, selected by the plan's ``redundancy``:

* ``"none"`` — replica rebuild: the dead disk's live blocks are
  re-materialized from the replica the simulation does not model (so
  the *reads* are uncharged) and written round-robin onto the surviving
  ``D - 1`` disks; the **writes are charged** as real parallel I/O.
* ``"parity"`` — honest RAID-5 arithmetic: every lost block is rebuilt
  by XOR over its parity-group siblings, and **both** the sibling
  *reads* (``faults.recovery_read_ios``) and the rebuild *writes* are
  charged.  A group that lost two members (a second death mid-rebuild,
  co-located members from an earlier migration) is unrecoverable and
  raises, exactly as on a real array.

Either way a remap table redirects every migrated address, so run
extent maps, the scheduler, and the forecasting structure keep speaking
*logical* disks — the FDS matrix, the layout rule, and Theorem 1's
accounting stay untouched; later stripes that now touch one survivor
twice split into extra rounds (``faults.degraded_split_ios``).  The
merge therefore continues bit-identically: which records come out in
which order was never a function of where blocks physically live.

Recovery writes count as operations on their target spindles, so a
planned death can fire *on a recovery target* — death during rebuild —
and the nested loss is handled by the same machinery.

:func:`scrub_addresses` / :func:`scrub_and_repair` close the loop on
torn writes: a charged verification pass over stored blocks that
repairs stale seals from parity before anyone consumes the bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DataError, DiskDeadError

__all__ = [
    "DeathReport",
    "ScrubReport",
    "migrate_dead_disk",
    "scrub_addresses",
    "scrub_and_repair",
    "scrub_sort_output",
]


@dataclass(frozen=True, slots=True)
class DeathReport:
    """Outcome of one disk-loss recovery."""

    disk: int
    trigger: str
    recovered_blocks: int
    recovery_write_rounds: int
    survivors: tuple[int, ...]
    #: ``"replica"`` or ``"parity"`` — which rebuild path ran.
    mode: str = "replica"
    #: Charged reconstruction-read rounds (parity mode only).
    recovery_read_rounds: int = 0


@dataclass(frozen=True, slots=True)
class ScrubReport:
    """Outcome of a checksum-scrub pass over stored blocks."""

    scanned: int
    repaired: int
    scan_read_rounds: int


def migrate_dead_disk(system, disk: int, trigger: str) -> DeathReport:
    """Re-home *disk*'s blocks onto the survivors and install remaps.

    Called by :meth:`ParallelDiskSystem._kill_disk` with *disk* already
    in ``system.dead_disks``.  Blocks are taken in slot order and placed
    round-robin, so recovery is deterministic; each group of
    ``len(survivors)`` recovery writes is charged as one parallel
    operation.  With parity armed the block *contents* come from
    charged XOR reconstruction instead of the corpse.
    """
    survivors = [
        d
        for d in range(system.n_disks)
        if d != disk and d not in system.dead_disks
    ]
    if not survivors:
        raise DiskDeadError(
            f"disk {disk} died and no surviving disk remains (D={system.n_disks})"
        )
    if system._parity is not None:
        return _migrate_parity(system, disk, trigger, survivors)
    return _migrate_replica(system, disk, trigger, survivors)


def _migrate_replica(system, disk, trigger, survivors) -> DeathReport:
    from ..disks.system import BlockAddress

    dead = system.disks[disk]
    slots = sorted(dead._slots)
    rounds = 0
    rr = 0
    group: list[int] = []
    for slot in slots:
        target, rr = _next_alive(system, survivors, rr)
        new_slot = system.disks[target].allocate()
        system.disks[target].write(new_slot, dead._slots[slot])
        system._remap[BlockAddress(disk, slot)] = BlockAddress(target, new_slot)
        group.append(target)
        if len(group) == len(survivors):
            system._charge("write", group, "recovery")
            rounds += 1
            group = []
        _after_recovery_write(system, target)
    if group:
        system._charge("write", group, "recovery")
        rounds += 1
    # The spindle is gone; dropping its slot map makes any unresolved
    # access fail loudly instead of reading a ghost.
    dead._slots.clear()
    return DeathReport(
        disk=disk,
        trigger=trigger,
        recovered_blocks=len(slots),
        recovery_write_rounds=rounds,
        survivors=tuple(survivors),
        mode="replica",
    )


def _migrate_parity(system, disk, trigger, survivors) -> DeathReport:
    """Rebuild every lost block from parity — reads and writes charged."""
    from ..disks.system import BlockAddress

    parity = system._parity
    dead = system.disks[disk]
    slots = sorted(dead._slots)
    reads_before = system.faults.stats.recovery_read_ios

    # The ledger speaks allocation-time addresses; map the dying disk's
    # physical slots back to their entries (remaps for *this* death are
    # not installed yet, so resolve() still lands here).
    by_slot: dict[int, tuple] = {}
    for alloc, (g, member) in parity._by_addr.items():
        p = system.resolve(alloc)
        if p.disk == disk:
            by_slot[p.slot] = ("member", g, member)
    for alloc, g in parity._parity_addrs.items():
        p = system.resolve(alloc)
        if p.disk == disk:
            by_slot[p.slot] = ("parity", g, None)

    rounds = 0
    rr = 0
    group: list[int] = []
    for slot in slots:
        entry = by_slot.get(slot)
        if entry is None:
            raise DataError(
                f"block at ({disk}, {slot}) is not parity-tracked; "
                "cannot rebuild a lost block the ledger never saw"
            )
        kind, g, member = entry
        if kind == "member":
            blk = parity.reconstruct_member(g, member)
        else:
            blk = parity.rebuild_parity_block(g)
        target, rr = _next_alive(system, survivors, rr)
        new_slot = system.disks[target].allocate()
        system.disks[target].write(new_slot, blk)
        system._remap[BlockAddress(disk, slot)] = BlockAddress(target, new_slot)
        system.faults.add_recovery_ops(target)
        group.append(target)
        if len(group) == len(survivors):
            system._charge("write", group, "recovery")
            rounds += 1
            group = []
        _after_recovery_write(system, target)
    if group:
        system._charge("write", group, "recovery")
        rounds += 1
    dead._slots.clear()
    return DeathReport(
        disk=disk,
        trigger=trigger,
        recovered_blocks=len(slots),
        recovery_write_rounds=rounds,
        survivors=tuple(survivors),
        mode="parity",
        recovery_read_rounds=system.faults.stats.recovery_read_ios - reads_before,
    )


def _next_alive(system, survivors, rr: int) -> tuple[int, int]:
    """Round-robin over *survivors*, skipping any that died mid-rebuild."""
    for _ in range(len(survivors)):
        d = survivors[rr % len(survivors)]
        rr += 1
        if d not in system.dead_disks:
            return d, rr
    raise DiskDeadError("every recovery target died during the rebuild")


def _after_recovery_write(system, target: int) -> None:
    """Recovery writes are real operations: they age the target spindle.

    That makes death-during-rebuild expressible — a planned death whose
    threshold is crossed by rebuild traffic fires here, nesting a second
    recovery inside the first.
    """
    inj = system.faults
    inj.note_op(target)
    if inj.death_due(target):
        system._kill_disk(target, "planned")


# -- checksum scrubbing ----------------------------------------------------


def scrub_addresses(system, addresses) -> ScrubReport:
    """Verify the stored seals of *addresses*; repair tears from parity.

    The scan reads are charged as greedy parallel rounds (distinct
    disks per round) — patrol traffic, so never counted as
    ``faults.degraded_split_ios``.  Each stale seal found is rebuilt in
    place via :meth:`~repro.faults.parity.ParityStore.repair_in_place`,
    whose reconstruction I/O is charged on top.  With ``redundancy="none"``
    a detected tear is unrepairable and raises :class:`DataError`.
    """
    repaired = 0
    scan_disks: list[int] = []
    for addr in addresses:
        p = system.resolve(addr)
        if p.disk in system.dead_disks:
            raise DiskDeadError(
                f"scrub target {tuple(addr)} resolves to dead disk {p.disk}"
            )
        blk = system.disks[p.disk].read(p.slot)
        scan_disks.append(p.disk)
        if not blk.verify():
            system._repair_torn(addr, p.disk)
            repaired += 1
    rounds = system._charge_rounds("read", scan_disks, "recovery")
    return ScrubReport(
        scanned=len(scan_disks), repaired=repaired, scan_read_rounds=rounds
    )


def scrub_sort_output(system, addresses) -> None:
    """The closing move of the SRM, DSM and PSV sorts.

    Final-pass blocks are never re-read through the fault-aware path,
    so under a plan with torn writes a tear in the output would reach
    the caller undetected.  One charged :func:`scrub_addresses` pass
    re-verifies every output seal and repairs stale ones from parity;
    without torn writes nothing is charged.
    """
    if system.faults is not None and system.faults.plan.torn_write_p > 0.0:
        scrub_addresses(system, addresses)


def scrub_and_repair(system) -> ScrubReport:
    """Full-device scrub: verify every stored block on every live disk.

    The background-patrol read of production arrays, compressed into
    one charged pass.  Repairable tears (parity-tracked members) are
    rebuilt in place; a tear outside the ledger raises.
    """
    from ..disks.system import BlockAddress

    repaired = 0
    scan_disks: list[int] = []
    bad: list[BlockAddress] = []
    for d, disk in enumerate(system.disks):
        if d in system.dead_disks:
            continue
        for slot in sorted(disk._slots):
            scan_disks.append(d)
            if not disk._slots[slot].verify():
                bad.append(BlockAddress(d, slot))
    alloc_of = _alloc_addrs(system) if bad else {}
    for phys in bad:
        system._repair_torn(alloc_of.get(phys, phys), phys.disk)
        repaired += 1
    rounds = system._charge_rounds("read", scan_disks, "recovery")
    return ScrubReport(
        scanned=len(scan_disks), repaired=repaired, scan_read_rounds=rounds
    )


def _alloc_addrs(system) -> dict:
    """Invert the remap chains: physical address -> ledger address.

    Built once per scrub; in-place repairs move no block, so the map
    stays valid while the scrub's tears are rebuilt.
    """
    parity = system._parity
    if parity is None:
        return {}
    alloc_of: dict = {}
    for alloc in parity._by_addr:
        alloc_of.setdefault(system.resolve(alloc), alloc)
    return alloc_of
