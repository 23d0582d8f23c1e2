"""Unit tests for rotating parity: geometry, charged recovery, scrubbing."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.config import SRMConfig
from repro.core.mergesort import srm_mergesort
from repro.core.writer import RunWriter
from repro.disks.block import Block
from repro.disks.files import StripedFile
from repro.disks.system import ParallelDiskSystem
from repro.disks.timing import DISK_1996
from repro.errors import DataError, DiskDeadError
from repro.faults import DiskDeath, FaultPlan
from repro.faults.degraded import scrub_addresses, scrub_and_repair
from repro.faults.parity import PARITY_RUN_ID, ParityStore
from repro.telemetry import Telemetry
from repro.telemetry.trace import SystemTracer
from repro.verify.checks import audit_checksums
from repro.workloads import uniform_keys
from tests.oracles import write_run

D, B = 4, 8


def make_sorted_keys(rng, n):
    keys = rng.choice(10**9, size=n, replace=False).astype(np.int64)
    keys.sort()
    return keys


def _system(plan=None):
    system = ParallelDiskSystem(D, B)
    system.attach_faults(
        plan if plan is not None else FaultPlan(seed=1, redundancy="parity")
    )
    return system


def _run(system, rng, n_blocks=12, run_id=0, start_disk=0):
    keys = make_sorted_keys(rng, n_blocks * system.block_size)
    return write_run(system, keys, run_id, start_disk)


def _tear(system, addr):
    """Replace the stored block at *addr* with a stale-seal copy."""
    p = system.resolve(addr)
    original = system.disks[p.disk]._slots[p.slot]
    torn = Block(
        keys=original.keys.copy(),
        run_id=original.run_id,
        index=original.index,
        forecast=original.forecast,
        payloads=None if original.payloads is None else original.payloads.copy(),
        checksum=original.checksum,
    )
    torn.keys[0] ^= 1
    system.disks[p.disk]._slots[p.slot] = torn
    return original


class TestGroupGeometry:
    def test_groups_close_at_d_minus_one_with_rotating_parity(self, rng):
        system = _system()
        _run(system, rng, n_blocks=12)
        store = system._parity
        assert len(store.groups) == 4
        assert all(len(g.members) == D - 1 for g in store.groups)
        assert all(g.sealed for g in store.groups)
        # Cyclic striping leaves exactly one spindle free per group, and
        # it rotates: this is RAID-5's layout falling out of the paper's
        # placement rule.
        assert [g.parity_disk for g in store.groups] == [3, 2, 1, 0]
        for g in store.groups:
            assert g.parity_disk not in {
                system.resolve(m.addr).disk for m in g.members
            }

    def test_parity_blocks_are_sealed_and_tagged(self, rng):
        system = _system()
        _run(system, rng, n_blocks=12)
        store = system._parity
        assert system.faults.stats.parity_blocks_written == 4
        for g in store.groups:
            p = system.resolve(g.parity_addr)
            pblk = system.disks[p.disk].read(p.slot)
            assert pblk.run_id == PARITY_RUN_ID
            assert pblk.index == g.gid
            assert pblk.verify()
            # The NVRAM XOR is dropped once parity is durable, so
            # rebuilds must pay for the parity read.
            assert g.xor_keys is None

    def test_parity_writes_are_charged_one_round_per_group(self, rng):
        system = _system()
        before = system.stats.snapshot()
        _run(system, rng, n_blocks=12)
        delta = system.stats.since(before)
        # 3 data stripes + 4 single-disk parity rounds.
        assert delta.parallel_writes == 7
        assert delta.blocks_written == 16

    def test_same_disk_collision_closes_group_early(self):
        system = _system(plan=FaultPlan(seed=3))
        store = ParityStore(system)
        for i in range(3):
            addr = system.allocate(0)
            blk = Block(
                keys=np.arange(B, dtype=np.int64) + i, run_id=0, index=i
            ).seal()
            store.add_block(addr, 0, blk)
        # Every block lands on disk 0: each arrival collides with the
        # open group, closing it at size 1 well below the D-1 target.
        assert [len(g.members) for g in store.groups[:2]] == [1, 1]

    def test_parity_disk_avoids_a_remapped_member(self):
        system = _system()
        a0 = system.allocate(0)
        system.write_stripe([(a0, Block(keys=np.arange(B, dtype=np.int64), run_id=0))])
        # The open group's only member moves from disk 0 to disk 1.
        system._kill_disk(0, "test")
        assert system.resolve(a0).disk == 1
        a3 = system.allocate(3)
        system.write_stripe(
            [(a3, Block(keys=np.arange(B, dtype=np.int64) + 1, run_id=0, index=1))]
        )
        # Two members close a group on three survivors.  Its write-time
        # disks {0, 3} would admit disk 1; where the members live now,
        # {1, 3}, leaves only disk 2.
        g, _ = system._parity.entry_for(a0)
        assert g.sealed and g.parity_disk == 2
        assert system.resolve(g.parity_addr).disk == 2

    def test_at_most_one_tear_per_group(self):
        system = _system(plan=FaultPlan(seed=4))
        store = ParityStore(system)
        granted = []
        for i in range(6):
            addr = system.allocate(i % D)
            blk = Block(
                keys=np.arange(B, dtype=np.int64) + i, run_id=0, index=i
            ).seal()
            granted.append(store.add_block(addr, addr.disk, blk, torn=True))
        # One parity arm absorbs one latent loss: only the first tear of
        # each (D-1)-member group is granted.
        assert granted == [True, False, False, True, False, False]


class TestReconstruction:
    def test_member_rebuild_is_bit_identical_and_charged(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        store = system._parity
        g, member = store.entry_for(run.addresses[0])
        original = system.peek(run.addresses[0])
        before = system.stats.snapshot()
        reads_before = system.faults.stats.recovery_read_ios
        blk = store.reconstruct_member(g, member)
        assert np.array_equal(blk.keys, original.keys)
        assert blk.checksum == member.checksum
        delta = system.stats.since(before)
        # Two siblings plus the parity block, all on distinct spindles:
        # three charged block reads in one parallel round.
        assert delta.blocks_read == 3
        assert system.faults.stats.recovery_read_ios - reads_before == 1

    def test_open_group_rebuilds_from_nvram_without_parity_read(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=13)
        store = system._parity
        g, member = store.entry_for(run.addresses[12])
        assert not g.sealed and len(g.members) == 1
        original = system.peek(run.addresses[12])
        reads_before = system.faults.stats.recovery_read_ios
        blk = store.reconstruct_member(g, member)
        assert np.array_equal(blk.keys, original.keys)
        # Sole member of an open group: the in-memory running XOR is the
        # source, so no disk read is charged.
        assert system.faults.stats.recovery_read_ios == reads_before

    def test_second_loss_in_one_group_raises(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        store = system._parity
        g, member = store.entry_for(run.addresses[0])
        sibling = g.members[1]
        # Simulate mid-rebuild state: the sibling's disk is gone but its
        # blocks have not been re-homed yet.
        system.dead_disks.add(system.resolve(sibling.addr).disk)
        with pytest.raises(DiskDeadError, match="lost two members"):
            store.reconstruct_member(g, member)

    def test_corrupt_sibling_during_rebuild_raises(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        store = system._parity
        g, member = store.entry_for(run.addresses[0])
        _tear(system, g.members[1].addr)
        with pytest.raises(DataError, match="doubly damaged"):
            store.reconstruct_member(g, member)


class TestDeferredFree:
    def test_member_free_defers_until_whole_group_freed(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        store = system._parity
        g, _ = store.entry_for(run.addresses[0])
        used = [system.disks[d].used_blocks for d in range(D)]
        system.free(run.addresses[0])
        # The slot stays physically occupied: a freed member remains a
        # reconstruction source for its siblings.
        assert system.disks[0].used_blocks == used[0]
        rebuilt = store.reconstruct_member(g, g.members[1])
        assert np.array_equal(rebuilt.keys, system.peek(run.addresses[1]).keys)
        system.free(run.addresses[1])
        system.free(run.addresses[2])
        # Whole group freed: members and the parity slot release together.
        assert system.disks[0].used_blocks == used[0] - 1
        assert system.disks[1].used_blocks == used[1] - 1
        assert system.disks[2].used_blocks == used[2] - 1
        assert system.disks[3].used_blocks == used[3] - 1  # parity of group 0
        assert store.entry_for(run.addresses[0]) is None

    def test_second_free_of_a_member_is_idempotent(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        store = system._parity
        used = system.usage_per_disk()
        system.free(run.addresses[0])
        system.free(run.addresses[0])
        system.free(run.addresses[1])
        # Two of three members freed: the group and its slots stay.
        g, _ = store.entry_for(run.addresses[2])
        assert g.n_freed == 2 and g in store.groups
        assert system.usage_per_disk() == used
        system.free(run.addresses[2])
        assert g.dropped and g not in store.groups
        assert system.usage_per_disk() == [u - 1 for u in used]


class TestTornRepair:
    def test_read_detects_and_repairs_in_place(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        original = _tear(system, run.addresses[4])
        p = system.resolve(run.addresses[4])
        used = system.disks[p.disk].used_blocks
        blk = system.read_stripe([run.addresses[4]])[0]
        assert np.array_equal(blk.keys, original.keys)
        assert system.faults.stats.torn_writes_detected == 1
        assert system.faults.stats.recovery_read_ios > 0
        # Repair replaces the bytes in the existing slot — the slot is
        # never cycled through the free list.
        assert system.disks[p.disk].used_blocks == used
        assert system.disks[p.disk]._slots[p.slot].verify()

    def test_tear_without_parity_is_fatal(self, rng):
        system = _system(plan=FaultPlan(seed=5))
        run = _run(system, rng, n_blocks=8)
        _tear(system, run.addresses[0])
        with pytest.raises(DataError, match="redundancy='none'"):
            system.read_stripe([run.addresses[0]])

    def test_scrub_addresses_charges_scan_and_reports(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        before = system.stats.snapshot()
        rep = scrub_addresses(system, run.addresses)
        assert rep.scanned == 12
        assert rep.repaired == 0
        assert rep.scan_read_rounds == 3  # 12 blocks over 4 spindles
        assert system.stats.since(before).blocks_read == 12

    def test_full_scrub_repairs_every_stale_seal(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        _tear(system, run.addresses[1])
        _tear(system, run.addresses[7])
        audit = audit_checksums(system)
        assert len(audit["stale"]) == 2
        rep = scrub_and_repair(system)
        assert rep.repaired == 2
        assert rep.scanned == 16  # 12 data + 4 parity blocks
        assert system.faults.stats.torn_writes_detected == 2
        assert audit_checksums(system)["stale"] == []

    def test_full_scrub_repairs_tears_in_many_groups_after_a_death(self, rng):
        # The death re-homes disk 2's blocks, so some torn blocks live
        # at a physical address other than their ledger address, and
        # the scrub must map each back before repairing it.
        system = _system()
        run = _run(system, rng, n_blocks=12)
        system._kill_disk(2, "test")
        torn = [run.addresses[i] for i in (0, 4, 6, 10)]
        assert len({system._parity.entry_for(a)[0].gid for a in torn}) == 4
        assert any(system.resolve(a) != a for a in torn)
        originals = [_tear(system, a) for a in torn]
        before = system.stats.snapshot()
        reads_before = system.faults.stats.recovery_read_ios
        rep = scrub_and_repair(system)
        delta = system.stats.since(before)
        assert (rep.scanned, rep.repaired, rep.scan_read_rounds) == (16, 4, 14)
        # 14 scan rounds, then one recovery read per tear, except that
        # the group of tear 4 has its parity on disk 3 beside a member,
        # so its recovery takes two reads.
        assert (delta.parallel_reads, delta.blocks_read) == (19, 28)
        assert (delta.parallel_writes, delta.blocks_written) == (4, 4)
        assert system.faults.stats.recovery_read_ios - reads_before == 5
        for addr, original in zip(torn, originals):
            repaired = system.peek(addr)
            assert repaired.keys.tobytes() == original.keys.tobytes()
            assert repaired.checksum == original.checksum
        assert audit_checksums(system)["stale"] == []


class TestParityDeath:
    def test_death_rebuilds_bit_identically_with_charged_reads(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=12)
        before = [system.peek(a).keys.copy() for a in run.addresses]
        system._kill_disk(2, "test")
        report = system.death_reports[0]
        assert report.mode == "parity"
        # Disk 2 held data blocks 2, 6, 10 plus group 1's parity block.
        assert report.recovered_blocks == 4
        assert report.recovery_read_rounds > 0
        assert (
            system.faults.stats.recovery_read_ios >= report.recovery_read_rounds
        )
        for addr, keys in zip(run.addresses, before):
            assert np.array_equal(system.peek(addr).keys, keys)

    def test_tear_plus_parity_loss_is_loud_data_loss(self, rng):
        # The URE-during-rebuild window: a latent tear whose repair
        # source (the group's parity block) rides the dying disk is a
        # two-loss group.  The pristine bytes are genuinely gone, and
        # the model must say so rather than serve stale data.
        system = _system()
        run = _run(system, rng, n_blocks=12)
        _tear(system, run.addresses[0])  # member of group 0, parity on 3
        with pytest.raises(DataError, match="corrupt and parity is lost"):
            system._kill_disk(3, "test")

    def test_untracked_block_makes_parity_rebuild_loud(self, rng):
        system = _system()
        _run(system, rng, n_blocks=12)
        rogue = Block(
            keys=np.arange(B, dtype=np.int64), run_id=7, index=0
        ).seal()
        system.disks[1].write(system.disks[1].allocate(), rogue)
        with pytest.raises(DataError, match="not parity-tracked"):
            system._kill_disk(1, "test")


class TestWriterFaultPath:
    def _feed(self, writer, keys):
        """Append in ragged chunks so the ring wraps mid-append."""
        sizes = [5, 17, 64, 3, 96, 40]
        pos, i = 0, 0
        while pos < keys.size:
            take = min(sizes[i % len(sizes)], keys.size - pos)
            writer.append(keys[pos : pos + take])
            pos += take
            i += 1

    def test_ring_wrap_and_partial_stripe_under_write_storm(self, rng):
        system = _system(plan=FaultPlan(seed=21, write_fail_p=0.2))
        writer = RunWriter(system, run_id=0, start_disk=1)
        keys = make_sorted_keys(rng, D * B * 7 + 13)
        self._feed(writer, keys)
        run = writer.finalize()
        assert writer.max_buffered_blocks <= 2 * D
        out = np.concatenate([system.peek(a).keys for a in run.addresses])
        assert np.array_equal(out, keys)
        assert system.faults.stats.write_failures > 0

    def test_torn_writes_surface_on_reread_and_repair(self, rng):
        system = _system(
            plan=FaultPlan(seed=22, torn_write_p=0.25, redundancy="parity")
        )
        writer = RunWriter(system, run_id=0, start_disk=0)
        keys = make_sorted_keys(rng, D * B * 7 + 13)
        self._feed(writer, keys)
        run = writer.finalize()
        s = system.faults.stats
        assert s.torn_writes_injected > 0
        # A charged re-read of every block trips each stale seal and
        # repairs it from parity.
        got = []
        for addr in run.addresses:
            blk = system.read_stripe([addr])[0]
            assert blk.verify()
            got.append(blk.keys)
        assert np.array_equal(np.concatenate(got), keys)
        assert s.torn_writes_detected == s.torn_writes_injected
        assert audit_checksums(system)["stale"] == []


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _pinned_sort(plan, payloads: bool):
    """A traced, fault-armed 12k-key sort; digests of everything it made."""
    n, d, b = 12_000, 4, 16
    keys = uniform_keys(n, 0, 3_000, rng=8)
    system = ParallelDiskSystem(d, b, timing=DISK_1996)
    system.attach_faults(plan)
    infile = StripedFile.from_records(
        system, keys, payloads=np.arange(n, dtype=np.int64) if payloads else None
    )
    tel = Telemetry()
    col = tel.attach_trace()
    system.tracer = SystemTracer(col, col.new_domain("demand"))
    res = srm_mergesort(system, infile, SRMConfig.from_k(2, d, b), rng=4, telemetry=tel)
    system.tracer.finish(system.elapsed_ms)
    out_keys, out_payloads = res.peek_sorted_records()
    assert np.array_equal(out_keys, np.sort(keys))
    if payloads:
        assert np.array_equal(keys[out_payloads], out_keys)
    assert col.dropped == 0
    io = system.stats
    trace = [
        (r.kind, r.cat, r.lane, r.domain, r.queue_ms, r.start_ms, r.end_ms,
         r.dep, r.attrs)
        for r in col.records
    ]
    return system, res, {
        "output": hashlib.sha256(
            out_keys.tobytes() + (out_payloads.tobytes() if payloads else b"")
        ).hexdigest(),
        "trace": _digest(trace),
        "faults": _digest(sorted(system.faults.stats.snapshot().items())),
        "io": _digest(
            (io.parallel_reads, io.parallel_writes, io.blocks_read, io.blocks_written,
             io.reads_per_disk.tolist(), io.writes_per_disk.tolist())
        ),
        "elapsed_ms": system.elapsed_ms.hex(),
    }


_RW = dict(seed=11, read_fail_p=0.05, write_fail_p=0.05, redundancy="parity")

#: Plan and payloads.  No tears in the death plans: a tear plus a death
#: in one group is a double loss and raises by design.  Neither does a
#: death plan kill two disks: the first death's migrants share spindles,
#: so a second death loses two members of some group.
PINNED_PLANS = {
    "torn": (FaultPlan(**_RW, torn_write_p=0.02), False),
    "torn-payloads": (FaultPlan(**_RW, torn_write_p=0.02), True),
    "death": (FaultPlan(**_RW, deaths=(DiskDeath(disk=2, after_ops=300),)), False),
    "death-corrupt-payloads": (
        FaultPlan(**_RW, corrupt_p=0.02, deaths=(DiskDeath(disk=1, after_ops=600),)),
        True,
    ),
}

#: Any change to the disk layer's op order, RNG draws, seals or charged
#: rounds moves these.  The two death plans were re-recorded when run
#: formation began to allocate each stripe's slots just before its
#: write, as merge output does (their outputs stayed put).
PINNED_DIGESTS = {
    "death": {
        "output": "fd8daa7610a0d8fe0f85b149c38a92a9dc017369133ab9163595522012151c3d",
        "trace": "4bf1963c8a1f9a3701cf379a3064296891f79ab44d3257cc21dbadd1af68f210",
        "faults": "cefab8829d57c78facace3a6d64c9b4dcbf55706cbc5af4e99b45cddcf212c58",
        "io": "b317251a257e3550a2e56dcc317a86edc0d87e90bb9be508e023b96764136c87",
        "elapsed_ms": "0x1.b09022d8874b3p+15",
    },
    "death-corrupt-payloads": {
        "output": "098e401b047908f08bd81e2095da1a8591ad4bb969ef881dfbfacb5e91cb6b27",
        "trace": "3231ebaad6e6b479ac342dbbae1cb7f94c95e499f61630d043c9e6fae2a78d4c",
        "faults": "9ce320e97bd0abb8573839a89441b67e74a8e173a9bb98b1f96534b07a73e0f9",
        "io": "f54cd1a25e81f3afb0995f02531cba0d84c21d2a1caa388df3201c1b162828be",
        "elapsed_ms": "0x1.844ac5a686db2p+15",
    },
    "torn": {
        "output": "fd8daa7610a0d8fe0f85b149c38a92a9dc017369133ab9163595522012151c3d",
        "trace": "ef16324c3c9112e825ec8e1ca3ed9a1cd36297981efeb4fbfdd7f9088cd1c662",
        "faults": "ec689bf8aa167c7eab61e3455841d203bb235dcc5a4ddd0749e989dc13a8a1d5",
        "io": "8c9ed434c28551ab80cf0c235b131fa81f5fa18e358e4ab193b9efa355e8044a",
        "elapsed_ms": "0x1.0daebaae63a8ep+15",
    },
    "torn-payloads": {
        "output": "098e401b047908f08bd81e2095da1a8591ad4bb969ef881dfbfacb5e91cb6b27",
        "trace": "ef16324c3c9112e825ec8e1ca3ed9a1cd36297981efeb4fbfdd7f9088cd1c662",
        "faults": "ec689bf8aa167c7eab61e3455841d203bb235dcc5a4ddd0749e989dc13a8a1d5",
        "io": "8c9ed434c28551ab80cf0c235b131fa81f5fa18e358e4ab193b9efa355e8044a",
        "elapsed_ms": "0x1.0daebaae63a8ep+15",
    },
}


class TestPinnedFaultStream:
    """The disk layer's whole fault-armed stream, pinned bit for bit.

    Comparing two mergers over one disk layer cannot catch a change to
    that layer; these digests can.
    """

    @pytest.mark.parametrize("name", sorted(PINNED_PLANS))
    def test_stream_matches_pinned_digests(self, name):
        plan, payloads = PINNED_PLANS[name]
        system, _, got = _pinned_sort(plan, payloads)
        stats = system.faults.stats
        assert stats.retries > 0
        assert stats.disk_deaths == len(plan.deaths)
        assert got == PINNED_DIGESTS[name]


class TestLiveLedger:
    @pytest.mark.parametrize("name", ["torn", "death"])
    def test_ledger_keeps_only_live_groups(self, name):
        system, res, _ = _pinned_sort(*PINNED_PLANS[name])
        store = system._parity
        groups = store.groups
        # Freed groups left the ledger: thousands were built, and only
        # those holding part of the output remain.
        assert 0 < len(groups) < groups[-1].gid
        for g in groups:
            assert not g.dropped
            assert any(not m.freed for m in g.members)
            assert g.n_freed == sum(m.freed for m in g.members)
        members = [m for g in groups for m in g.members]
        assert len(store._by_addr) == len(members)
        assert set(store._by_addr) == {m.addr for m in members}
        # The unfreed tracked members are exactly the output's blocks; a
        # freed member stays only while a sibling is unfreed.
        unfreed = {m.addr for m in members if not m.freed}
        assert unfreed == set(res.output.addresses)
        assert len(store._parity_addrs) == sum(g.sealed for g in groups)
