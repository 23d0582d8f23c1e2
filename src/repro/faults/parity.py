"""Rotating RAID-5-style parity for the fault-armed disk system.

With ``FaultPlan(redundancy="parity")`` the disk system keeps one parity
block per *write group*: consecutive written blocks accumulate into a
group until it spans ``D - 1`` distinct spindles (or would revisit one),
then the XOR of the members lands on the one disk the group does not
touch.  Under SRM's cyclic layout — block ``i`` of a run on disk
``(start + i) mod D`` — any ``D - 1`` consecutive blocks occupy
``D - 1`` distinct disks, so the free spindle rotates naturally; this
*is* RAID-5's rotating parity, falling out of the paper's striping rule.

The running XOR is accumulated in memory from the pristine block at
write time (the controller-NVRAM model), so a torn write never poisons
parity; the parity *block* is written out — and charged — when the
group closes.  Recovery is honest RAID arithmetic: a lost or torn
member is rebuilt by XOR over its siblings plus parity, every sibling
read charged as real parallel I/O (``faults.recovery_read_ios``) and
felt by the overlap engine as per-disk service penalties.  Losing two
members of one group (a second death mid-rebuild, or a tear plus a
death) is unrecoverable, exactly as on a real array, and raises.

Group membership is keyed by *allocation-time* addresses; degraded-mode
remaps are followed through :meth:`ParallelDiskSystem.resolve` at use
time, so members keep their identity as deaths relocate them.  Because
merges free input blocks mid-run, member slots are only *physically*
released once their whole group is freed — until then a freed member
stays readable as a reconstruction source for its siblings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..disks.block import Block, xor_accumulate
from ..errors import DataError, DiskDeadError

__all__ = ["ParityMember", "ParityGroup", "ParityStore", "PARITY_RUN_ID"]

#: ``run_id`` carried by parity blocks (never a real run's id).
PARITY_RUN_ID = -2


@dataclass(slots=True)
class ParityMember:
    """One data block tracked by a parity group.

    ``addr`` is the allocation-time address (stable across remaps);
    ``phys_disk`` is where the block landed at write time, used only for
    group-closure geometry.  The sealed ``checksum`` is the pristine
    CRC, so reconstructions are verified end to end even when the
    on-disk copy was torn.
    """

    addr: tuple
    phys_disk: int
    n_keys: int
    run_id: int
    index: int
    forecast: tuple
    checksum: int
    has_payloads: bool
    freed: bool = False


@dataclass
class ParityGroup:
    """A closed-or-open set of members protected by one parity block."""

    gid: int
    members: list = field(default_factory=list)
    disks: set = field(default_factory=set)
    parity_addr: tuple | None = None
    parity_disk: int | None = None
    sealed: bool = False
    has_torn: bool = False
    xor_keys: np.ndarray | None = None
    xor_payloads: np.ndarray | None = None
    dropped: bool = False


class ParityStore:
    """Bookkeeping and recovery arithmetic for ``redundancy="parity"``.

    Owned by a :class:`~repro.disks.system.ParallelDiskSystem` with
    faults armed; all I/O charging goes through the system's stats and
    the injector's recovery counters.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.groups: list[ParityGroup] = []
        self._by_addr: dict = {}
        self._parity_addrs: dict = {}
        self._open: ParityGroup | None = None
        self._pending: list[ParityGroup] = []

    # -- geometry ---------------------------------------------------------

    def _alive(self) -> list[int]:
        dead = self.system.dead_disks
        return [d for d in range(self.system.n_disks) if d not in dead]

    def _target_size(self) -> int:
        """Members per group: one fewer than the alive spindle count."""
        return max(1, len(self._alive()) - 1)

    # -- write-path hooks -------------------------------------------------

    def add_block(self, addr, physical_disk: int, block: Block, torn: bool = False) -> bool:
        """Track a block just written at *addr* on *physical_disk*.

        Returns whether a requested *torn* injection may proceed: the
        group's single parity arm can absorb exactly one latent loss,
        so a second tear in the same group is suppressed (the draw was
        still consumed, keeping the RNG streams aligned).
        """
        g = self._open
        if g is not None and (
            physical_disk in g.disks or len(g.members) >= self._target_size()
        ):
            self._close_open()
            g = None
        if g is None:
            g = ParityGroup(gid=len(self.groups))
            self.groups.append(g)
            self._open = g
        eff_torn = torn and not g.has_torn
        if eff_torn:
            g.has_torn = True
        checksum = (
            block.checksum if block.checksum is not None else block.compute_checksum()
        )
        member = ParityMember(
            addr=addr,
            phys_disk=physical_disk,
            n_keys=int(block.keys.size),
            run_id=block.run_id,
            index=block.index,
            forecast=block.forecast,
            checksum=checksum,
            has_payloads=block.payloads is not None,
        )
        g.members.append(member)
        g.disks.add(physical_disk)
        g.xor_keys = xor_accumulate(g.xor_keys, block.keys)
        if block.payloads is not None:
            g.xor_payloads = xor_accumulate(g.xor_payloads, block.payloads)
        self._by_addr[addr] = (g, member)
        if len(g.members) >= self._target_size():
            self._close_open()
        return eff_torn

    def _close_open(self) -> None:
        g = self._open
        if g is None:
            return
        self._open = None
        if all(m.freed for m in g.members):
            # Fully freed before parity was ever needed: release now.
            self._physically_free(self._drop_group(g))
            return
        g.parity_disk = self._pick_parity_disk(g)
        self._pending.append(g)

    def _pick_parity_disk(self, g: ParityGroup) -> int:
        """The rotating slot: an alive disk the group does not occupy."""
        exclude = {self.system.resolve(m.addr).disk for m in g.members}
        candidates = [d for d in self._alive() if d not in exclude]
        if candidates:
            return candidates[0]
        # Post-death corner: the group spans every survivor.  Parity
        # co-locates with a member and protects one fewer loss.
        return self._alive()[0]

    def repick_parity_disk(self, g: ParityGroup) -> int:
        """Re-choose a parity target after its planned disk died."""
        g.parity_disk = self._pick_parity_disk(g)
        return g.parity_disk

    def drain_pending(self) -> list[tuple[ParityGroup, Block]]:
        """Closed groups whose parity block still needs to be written."""
        out = [(g, self._parity_block_from_xor(g)) for g in self._pending]
        self._pending = []
        return out

    def note_parity_written(self, g: ParityGroup, addr) -> None:
        """Record where *g*'s parity block landed; drops the NVRAM XOR."""
        g.parity_addr = addr
        g.sealed = True
        self._parity_addrs[addr] = g
        # From here on recovery must read parity from disk (charged) —
        # holding the in-memory XOR would make rebuilds free.
        g.xor_keys = None
        g.xor_payloads = None

    def seal_for_recovery(self) -> list[tuple[ParityGroup, Block]]:
        """Close the open group (if any) and hand back all unwritten parity.

        Called at death time so every group is recoverable from disk;
        the caller writes the returned parity blocks as charged I/O.
        """
        if self._open is not None and self._open.members:
            self._close_open()
        return self.drain_pending()

    def _parity_block_from_xor(self, g: ParityGroup) -> Block:
        blk = Block(
            keys=g.xor_keys.copy(),
            run_id=PARITY_RUN_ID,
            index=g.gid,
            payloads=None if g.xor_payloads is None else g.xor_payloads.copy(),
        )
        return blk.seal()

    # -- free deferral ----------------------------------------------------

    def note_free(self, addr) -> bool:
        """Handle a ``free(addr)``; True when the store owns the address.

        Member slots are released only when their whole group is freed,
        so partially-consumed groups keep every reconstruction source
        on disk.  The group's parity slot is released with it.
        """
        entry = self._by_addr.get(addr)
        if entry is None:
            return False
        g, member = entry
        member.freed = True
        if not all(m.freed for m in g.members):
            return True
        if g is self._open:
            self._open = None
        elif g in self._pending:
            self._pending.remove(g)
        self._physically_free(self._drop_group(g))
        return True

    def _drop_group(self, g: ParityGroup) -> list:
        addrs = [m.addr for m in g.members]
        for m in g.members:
            self._by_addr.pop(m.addr, None)
        if g.parity_addr is not None:
            addrs.append(g.parity_addr)
            self._parity_addrs.pop(g.parity_addr, None)
        g.dropped = True
        return addrs

    def _physically_free(self, addrs) -> None:
        system = self.system
        for a in addrs:
            p = system.resolve(a)
            if p.disk not in system.dead_disks:
                system.disks[p.disk].free(p.slot)

    # -- reconstruction ---------------------------------------------------

    def entry_for(self, addr):
        """The ``(group, member)`` tracking *addr*, or ``None``."""
        return self._by_addr.get(addr)

    def _read_entry(self, addr, read_disks: list[int]) -> Block:
        p = self.system.resolve(addr)
        if p.disk in self.system.dead_disks:
            raise DiskDeadError(
                f"parity group lost two members: sibling at {tuple(addr)} "
                f"resolves to dead disk {p.disk}"
            )
        read_disks.append(p.disk)
        # A charged recovery op: the overlap engine feels it too.
        self.system.faults.add_recovery_ops(p.disk)
        return self.system.disks[p.disk].read(p.slot)

    def reconstruct_member(self, g: ParityGroup, member: ParityMember) -> Block:
        """XOR *member* back from its siblings and the parity source.

        Sibling reads (and the parity read, for sealed groups) are
        charged; the result is verified against the member's pristine
        CRC, so a wrong reconstruction can never be served silently.
        """
        read_disks: list[int] = []
        if g.sealed:
            pblk = self._read_entry(g.parity_addr, read_disks)
            if not pblk.verify():
                raise DataError(
                    f"parity block of group {g.gid} failed its own checksum"
                )
            acc_k = pblk.keys.copy()
            acc_p = None if pblk.payloads is None else pblk.payloads.copy()
        else:
            # Open group: the parity source is the in-memory running
            # XOR (controller NVRAM) — no parity read to charge.
            acc_k = g.xor_keys.copy()
            acc_p = None if g.xor_payloads is None else g.xor_payloads.copy()
        for sibling in g.members:
            if sibling is member:
                continue
            b = self._read_entry(sibling.addr, read_disks)
            if b.compute_checksum() != sibling.checksum:
                raise DataError(
                    f"parity group {g.gid} is doubly damaged: sibling at "
                    f"{tuple(sibling.addr)} is itself corrupt while "
                    f"{tuple(member.addr)} needs reconstruction"
                )
            acc_k = xor_accumulate(acc_k, b.keys)
            if b.payloads is not None:
                acc_p = xor_accumulate(acc_p, b.payloads)
        keys = acc_k[: member.n_keys]
        payloads = acc_p[: member.n_keys] if member.has_payloads else None
        blk = Block(
            keys=keys,
            run_id=member.run_id,
            index=member.index,
            forecast=member.forecast,
            payloads=payloads,
        ).seal()
        if blk.checksum != member.checksum:
            raise DataError(
                f"parity reconstruction of {tuple(member.addr)} failed "
                "verification against the sealed checksum"
            )
        system = self.system
        system.faults.count_recovery_reads(
            system._charge_rounds("read", read_disks, "recovery")
        )
        return blk

    def rebuild_parity_block(self, g: ParityGroup) -> Block:
        """Recompute a *lost* parity block by reading every member."""
        read_disks: list[int] = []
        acc_k = None
        acc_p = None
        for m in g.members:
            b = self._read_entry(m.addr, read_disks)
            if b.compute_checksum() != m.checksum:
                raise DataError(
                    f"cannot rebuild parity of group {g.gid}: member at "
                    f"{tuple(m.addr)} is corrupt and parity is lost"
                )
            acc_k = xor_accumulate(acc_k, b.keys)
            if b.payloads is not None:
                acc_p = xor_accumulate(acc_p, b.payloads)
        system = self.system
        system.faults.count_recovery_reads(
            system._charge_rounds("read", read_disks, "recovery")
        )
        blk = Block(
            keys=acc_k,
            run_id=PARITY_RUN_ID,
            index=g.gid,
            payloads=acc_p,
        )
        return blk.seal()

    def repair_in_place(self, addr) -> Block:
        """Rebuild the torn block at *addr* and rewrite it where it lives.

        The reconstruction reads are charged as greedy parallel rounds
        and the rewrite as one parallel write; the repaired block replaces the torn bytes in its
        existing slot.
        """
        entry = self._by_addr.get(addr)
        if entry is None:
            raise DataError(
                f"torn block at {tuple(addr)} is not parity-protected"
            )
        g, member = entry
        blk = self.reconstruct_member(g, member)
        system = self.system
        p = system.resolve(addr)
        # Replace in place without cycling the slot through the free
        # list (free() would let allocate() hand the slot out again).
        system.disks[p.disk]._slots[p.slot] = blk
        system._charge("write", [p.disk], "recovery")
        system.faults.add_recovery_ops(p.disk)
        return blk
