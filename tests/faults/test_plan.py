"""Tests for fault plans and the deterministic injector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults import DiskDeath, FaultInjector, FaultPlan, StallWindow
from repro.telemetry import Telemetry
from repro.telemetry.schema import FAULT_TRANSIENT_FAILURES


class TestFaultPlanValidation:
    def test_defaults_are_noop(self):
        assert FaultPlan().is_noop
        assert FaultPlan().describe() == "no faults"

    def test_probabilities_must_be_sub_unit(self):
        with pytest.raises(ConfigError):
            FaultPlan(read_fail_p=1.0)
        with pytest.raises(ConfigError):
            FaultPlan(corrupt_p=-0.1)

    def test_latency_factor_must_be_positive(self):
        with pytest.raises(ConfigError):
            FaultPlan(latency_factors={0: 0.0})

    def test_stall_window_needs_positive_duration(self):
        with pytest.raises(ConfigError):
            StallWindow(disk=0, start_ms=0.0, duration_ms=0.0)

    def test_death_after_ops_must_be_nonnegative(self):
        with pytest.raises(ConfigError):
            DiskDeath(disk=0, after_ops=-1)

    def test_describe_mentions_enabled_features(self):
        plan = FaultPlan(
            seed=3,
            read_fail_p=0.1,
            fail_disks=(2,),
            deaths=(DiskDeath(disk=1, after_ops=5),),
        )
        text = plan.describe()
        assert "read_fail_p=0.1" in text
        assert "fail_disks=[2]" in text
        assert "death(disk=1" in text


class TestInjectorValidation:
    def test_plan_targets_must_exist(self):
        with pytest.raises(ConfigError):
            FaultInjector(FaultPlan(latency_factors={5: 2.0}), n_disks=4)
        with pytest.raises(ConfigError):
            FaultInjector(FaultPlan(fail_disks=(4,)), n_disks=4)
        with pytest.raises(ConfigError):
            FaultInjector(
                FaultPlan(stalls=(StallWindow(9, 0.0, 1.0),)), n_disks=4
            )

    def test_death_needs_a_survivor(self):
        with pytest.raises(ConfigError):
            FaultInjector(
                FaultPlan(deaths=(DiskDeath(disk=0, after_ops=0),)), n_disks=1
            )

    def test_death_sequence_targets_must_exist(self):
        with pytest.raises(ConfigError):
            FaultInjector(
                FaultPlan(deaths=(DiskDeath(disk=7, after_ops=0),)), n_disks=4
            )

    def test_death_sequence_must_leave_a_survivor(self):
        deaths = tuple(DiskDeath(disk=d, after_ops=d) for d in range(3))
        with pytest.raises(ConfigError):
            FaultInjector(FaultPlan(deaths=deaths), n_disks=3)

    def test_each_disk_dies_at_most_once(self):
        with pytest.raises(ConfigError):
            FaultPlan(
                deaths=(
                    DiskDeath(disk=1, after_ops=0),
                    DiskDeath(disk=1, after_ops=9),
                )
            )

    def test_redundancy_mode_is_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(redundancy="raid6")

    def test_write_probabilities_are_validated(self):
        with pytest.raises(ConfigError):
            FaultPlan(write_fail_p=1.0)
        with pytest.raises(ConfigError):
            FaultPlan(torn_write_p=-0.5)


class TestDeterminism:
    def _outcomes(self, plan, n_disks=3, reads=200):
        inj = FaultInjector(plan, n_disks)
        return [
            (d, o.n_failures, o.corrupt)
            for d in range(n_disks)
            for o in (inj.plan_read(d) for _ in range(reads))
        ]

    def test_same_seed_replays_identically(self):
        plan = FaultPlan(seed=11, read_fail_p=0.2, corrupt_p=0.1)
        assert self._outcomes(plan) == self._outcomes(plan)

    def test_different_seeds_diverge(self):
        a = self._outcomes(FaultPlan(seed=11, read_fail_p=0.2))
        b = self._outcomes(FaultPlan(seed=12, read_fail_p=0.2))
        assert a != b

    def test_disks_have_independent_streams(self):
        plan = FaultPlan(seed=11, read_fail_p=0.5)
        inj = FaultInjector(plan, 2)
        a = [inj.plan_read(0).n_failures for _ in range(100)]
        b = [inj.plan_read(1).n_failures for _ in range(100)]
        assert a != b

    def test_noop_plan_never_fails(self):
        for d, n_failures, corrupt in self._outcomes(FaultPlan(seed=1)):
            assert n_failures == 0 and not corrupt

    def test_failures_capped_by_max_consecutive(self):
        plan = FaultPlan(seed=5, read_fail_p=0.9, max_consecutive_failures=3)
        outcomes = self._outcomes(plan, reads=300)
        assert max(n for _, n, _ in outcomes) == 3

    def test_fail_disks_scopes_the_injection(self):
        plan = FaultPlan(seed=5, read_fail_p=0.5, corrupt_p=0.5, fail_disks=(1,))
        inj = FaultInjector(plan, 3)
        for _ in range(100):
            out = inj.plan_read(0)
            assert out.n_failures == 0 and not out.corrupt
        assert any(inj.plan_read(1).n_failures > 0 for _ in range(100))

    def test_plan_write_replays_identically(self):
        plan = FaultPlan(seed=9, write_fail_p=0.3, torn_write_p=0.2)

        def draws():
            inj = FaultInjector(plan, 2)
            return [
                (o.n_failures, o.torn)
                for _ in range(200)
                for o in (inj.plan_write(0),)
            ]

        outcomes = draws()
        assert outcomes == draws()
        assert any(n > 0 for n, _ in outcomes)
        assert any(t for _, t in outcomes)

    def test_fail_disks_scopes_writes_too(self):
        plan = FaultPlan(
            seed=5, write_fail_p=0.5, torn_write_p=0.5, fail_disks=(1,)
        )
        inj = FaultInjector(plan, 3)
        for _ in range(100):
            out = inj.plan_write(0)
            assert out.n_failures == 0 and not out.torn
        assert any(inj.plan_write(1).n_failures > 0 for _ in range(100))

    def test_write_path_draws_nothing_on_read_only_plans(self):
        # A read-only plan must replay bit-identically whether or not
        # the write path consults the injector: plan_write is feature-
        # gated, so it consumes no randomness here.
        plan = FaultPlan(seed=11, read_fail_p=0.2, corrupt_p=0.1)
        a = FaultInjector(plan, 2)
        b = FaultInjector(plan, 2)
        seq_a = []
        seq_b = []
        for _ in range(100):
            a.plan_write(0)  # interleaved write decisions...
            o = a.plan_read(0)
            seq_a.append((o.n_failures, o.corrupt))
        for _ in range(100):
            o = b.plan_read(0)  # ...versus none at all
            seq_b.append((o.n_failures, o.corrupt))
        assert seq_a == seq_b


class TestInjectorAccounting:
    def test_death_due_fires_after_threshold_ops(self):
        plan = FaultPlan(seed=0, deaths=(DiskDeath(disk=1, after_ops=2),))
        inj = FaultInjector(plan, 3)
        assert not inj.death_due(1)  # only 0 of the 2 required ops served
        inj.note_op(1)
        inj.note_op(1)
        assert inj.death_due(1)
        assert not inj.death_due(0)
        inj.mark_dead(1, "planned", recovered_blocks=7)
        assert inj.is_dead(1)
        assert not inj.death_due(1)  # fires once
        assert inj.stats.disk_deaths == 1
        assert inj.stats.recovery_blocks == 7

    def test_death_due_immediately_when_after_ops_zero(self):
        plan = FaultPlan(seed=0, deaths=(DiskDeath(disk=0, after_ops=0),))
        inj = FaultInjector(plan, 2)
        assert inj.death_due(0)

    def test_stall_release_slides_past_window(self):
        plan = FaultPlan(
            seed=0, stalls=(StallWindow(disk=0, start_ms=10.0, duration_ms=5.0),)
        )
        inj = FaultInjector(plan, 2)
        assert inj.stall_release(0, 12.0) == 15.0
        assert inj.stats.stall_ms == pytest.approx(3.0)
        # Outside the window, and on an unlisted disk: no change.
        assert inj.stall_release(0, 20.0) == 20.0
        assert inj.stall_release(1, 12.0) == 12.0

    def test_stall_release_without_windows_returns_candidate(self):
        # Regression: a disk with no stall windows used to get 0.0 back,
        # which only worked because the caller fed it into a max().
        inj = FaultInjector(FaultPlan(seed=0), 2)
        assert inj.stall_release(0, 37.5) == 37.5
        assert inj.stats.stall_ms == 0.0

    def test_chained_stall_windows(self):
        plan = FaultPlan(
            seed=0,
            stalls=(
                StallWindow(disk=0, start_ms=0.0, duration_ms=10.0),
                StallWindow(disk=0, start_ms=10.0, duration_ms=10.0),
            ),
        )
        inj = FaultInjector(plan, 1)
        assert inj.stall_release(0, 5.0) == 20.0

    def test_penalty_drain_is_one_shot(self):
        inj = FaultInjector(FaultPlan(seed=0, read_fail_p=0.1), 2)
        inj.count_retry(0, 4.0)
        inj.count_retry(0, 2.0)
        assert inj.take_penalty_ms(0) == pytest.approx(6.0)
        assert inj.take_penalty_ms(0) == 0.0
        assert inj.stats.retries == 2
        assert inj.stats.backoff_ms_total == pytest.approx(6.0)

    def test_telemetry_counters_mirror_stats(self):
        tel = Telemetry()
        inj = FaultInjector(FaultPlan(seed=0, read_fail_p=0.1), 2, telemetry=tel)
        inj.count_transient()
        inj.count_transient()
        snap = tel.registry.get(FAULT_TRANSIENT_FAILURES).snapshot()
        assert snap["value"] == 2 == inj.stats.transient_failures


class TestCorruptCopy:
    def test_corrupts_a_copy_not_the_original(self, rng):
        from repro.disks.block import Block
        from repro.faults import corrupt_copy

        blk = Block(keys=np.arange(8, dtype=np.int64)).seal()
        bad = corrupt_copy(blk, rng)
        assert blk.verify()  # original untouched
        assert not bad.verify()  # copy fails its (inherited) checksum
        assert not np.array_equal(blk.keys, bad.keys)

    def test_unsealed_block_corruption_is_invisible(self, rng):
        from repro.disks.block import Block
        from repro.faults import corrupt_copy

        blk = Block(keys=np.arange(8, dtype=np.int64))  # never sealed
        bad = corrupt_copy(blk, rng)
        assert bad.verify()  # no checksum -> nothing to catch
