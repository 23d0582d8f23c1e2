"""Tests for degraded-mode operation after a permanent disk loss."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disks.system import BlockAddress, ParallelDiskSystem
from repro.errors import ConfigError, DiskDeadError
from repro.faults import DiskDeath, FaultPlan
from tests.oracles import write_run


def _system(D=4, B=8, plan=None):
    system = ParallelDiskSystem(D, B)
    system.attach_faults(plan if plan is not None else FaultPlan(seed=1))
    return system


def _run(system, rng, n_blocks=12, run_id=0, start_disk=0):
    keys = np.sort(
        rng.choice(10**9, size=n_blocks * system.block_size, replace=False)
    )
    return write_run(system, keys, run_id, start_disk)


class TestKillDisk:
    def test_blocks_migrate_and_resolve(self, rng):
        system = _system()
        run = _run(system, rng)
        before = [system.peek(a).keys.copy() for a in run.addresses]
        victims = [a for a in run.addresses if a.disk == 2]
        system._kill_disk(2, "test")
        assert system.degraded
        assert system.dead_disks == {2}
        # Every address still reads back the same block, via the remap.
        for addr, keys in zip(run.addresses, before):
            assert np.array_equal(system.peek(addr).keys, keys)
        for addr in victims:
            assert system.resolve(addr).disk != 2

    def test_migration_spreads_over_survivors(self, rng):
        system = _system()
        _run(system, rng, n_blocks=12)  # 3 blocks per disk
        system._kill_disk(1, "test")
        report = system.death_reports[0]
        assert report.disk == 1
        assert report.recovered_blocks == 3
        assert report.survivors == (0, 2, 3)
        # 3 blocks round-robin onto 3 survivors: one charged round.
        assert report.recovery_write_rounds == 1
        targets = {system.resolve(a).disk for a in system._remap}
        assert targets <= {0, 2, 3}

    def test_recovery_writes_are_charged(self, rng):
        system = _system()
        _run(system, rng, n_blocks=12)
        before = system.stats.snapshot()
        system._kill_disk(0, "test")
        delta = system.stats.since(before)
        assert delta.parallel_writes == system.death_reports[0].recovery_write_rounds
        assert delta.blocks_written == 3

    def test_dead_disk_slots_are_cleared(self, rng):
        system = _system()
        _run(system, rng)
        system._kill_disk(3, "test")
        assert system.disks[3].used_blocks == 0

    def test_last_survivor_death_raises(self, rng):
        system = _system(D=2)
        _run(system, rng, n_blocks=4)
        system._kill_disk(0, "test")
        with pytest.raises(DiskDeadError):
            system._kill_disk(1, "test")


class TestDegradedAllocation:
    def test_allocate_redirects_off_dead_disks(self, rng):
        system = _system()
        _run(system, rng)
        system._kill_disk(2, "test")
        for _ in range(8):
            assert system.allocate(2).disk != 2
        assert system.faults.stats.redirected_allocations == 8

    def test_reads_after_death_charge_split_rounds(self, rng):
        system = _system()
        run = _run(system, rng, n_blocks=8)  # blocks 0..7, 2 per disk
        system._kill_disk(1, "test")
        before = system.stats.snapshot()
        # A full stripe now resolves two blocks onto survivors that
        # already serve their own stripe position: reads split.
        blocks = system.read_stripe(run.addresses[:4])
        assert all(b is not None for b in blocks)
        delta = system.stats.since(before)
        assert delta.parallel_reads >= 2
        assert system.faults.stats.degraded_split_ios >= 1

    def test_free_of_migrated_address_releases_survivor_slot(self, rng):
        system = _system()
        run = _run(system, rng)
        victim = next(a for a in run.addresses if a.disk == 0)
        system._kill_disk(0, "test")
        new = system.resolve(victim)
        used_before = system.disks[new.disk].used_blocks
        system.free(victim)
        assert system.disks[new.disk].used_blocks == used_before - 1


class TestPlannedDeathDuringIO:
    def test_planned_death_fires_on_read(self, rng):
        plan = FaultPlan(seed=2, deaths=(DiskDeath(disk=1, after_ops=2),))
        system = _system(plan=plan)
        run = _run(system, rng, n_blocks=8)
        on_disk1 = [a for a in run.addresses if a.disk == 1]
        # Ops 1 and 2 on disk 1 succeed; the next read trips the death
        # and is served from the survivor copy.
        out = []
        for addr in on_disk1:
            out.append(system.read_stripe([addr])[0])
        assert system.dead_disks == {1}
        assert all(b is not None for b in out)
        assert system.faults.stats.disk_deaths == 1

    def test_attach_twice_is_rejected(self):
        system = _system()
        with pytest.raises(ConfigError):
            system.attach_faults(FaultPlan(seed=3))

    def test_writes_after_death_land_on_survivors(self, rng):
        plan = FaultPlan(seed=2, deaths=(DiskDeath(disk=0, after_ops=0),))
        system = _system(plan=plan)
        run = _run(system, rng, n_blocks=4, start_disk=0)
        # after_ops=0: the first operation touching disk 0 kills it, so
        # every block is readable and none physically lives on disk 0.
        for addr in run.addresses:
            assert system.peek(addr) is not None
            assert system.resolve(addr).disk != 0
        assert system.disks[0].used_blocks == 0
