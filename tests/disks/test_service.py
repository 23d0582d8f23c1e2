"""Tests for the per-disk FIFO service queues (overlap engine substrate)."""

from __future__ import annotations

import pytest

from repro.disks import DISK_1996, DiskService, ServiceNetwork
from repro.errors import ConfigError


class TestDiskService:
    def test_idle_disk_starts_immediately(self):
        d = DiskService()
        assert d.submit(10.0, 5.0) == 15.0
        assert d.busy_ms == 5.0
        assert d.ops == 1

    def test_busy_disk_queues_fifo(self):
        d = DiskService()
        d.submit(0.0, 5.0)  # busy until 5
        assert d.submit(1.0, 5.0) == 10.0  # queued behind the first
        assert d.free_at == 10.0
        assert d.busy_ms == 10.0

    def test_late_submission_after_idle_gap(self):
        d = DiskService()
        d.submit(0.0, 5.0)
        # Disk idles from 5 to 20; the gap is not counted as busy.
        assert d.submit(20.0, 5.0) == 25.0
        assert d.busy_ms == 10.0

    def test_first_request_does_not_count_startup_as_idle(self):
        # Regression: idle_ms used to charge the 0 -> start gap before
        # any request had completed, inflating the idle-gap signal.
        d = DiskService()
        d.submit(30.0, 5.0)
        assert d.idle_ms == 0.0

    def test_idle_counts_only_inter_request_gaps(self):
        d = DiskService()
        d.submit(10.0, 5.0)  # completes at 15
        d.submit(21.0, 5.0)  # 6 ms gap
        d.submit(26.0, 5.0)  # back-to-back: no gap
        assert d.idle_ms == pytest.approx(6.0)


class TestServiceNetwork:
    def _net(self, D=3, B=4):
        return ServiceNetwork(D, DISK_1996, B)

    def test_disjoint_disks_run_concurrently(self):
        net = self._net()
        t = DISK_1996.op_time_ms(4)
        completes = net.submit([0, 1, 2], 0.0)
        assert completes == [t, t, t]  # one service time, in parallel

    def test_same_disk_serializes(self):
        net = self._net()
        t = DISK_1996.op_time_ms(4)
        first = net.submit([0], 0.0)[0]
        second = net.submit([0], 0.0)[0]
        assert first == pytest.approx(t)
        assert second == pytest.approx(2 * t)

    def test_read_write_share_a_spindle(self):
        net = self._net()
        t = DISK_1996.op_time_ms(4)
        net.submit([1], 0.0, kind="write")
        # A read behind the write on disk 1 waits; disk 0 does not.
        r1 = net.submit([1], 0.0)[0]
        r0 = net.submit([0], 0.0)[0]
        assert r1 == pytest.approx(2 * t)
        assert r0 == pytest.approx(t)

    def test_accounting_split_by_kind(self):
        net = self._net()
        t = DISK_1996.op_time_ms(4)
        net.submit([0, 1], 0.0, kind="read")
        net.submit([2], 0.0, kind="write")
        assert net.read_ops == 1
        assert net.write_ops == 1
        assert net.read_busy_ms == pytest.approx(2 * t)
        assert net.write_busy_ms == pytest.approx(t)
        assert net.busy_ms == pytest.approx(3 * t)

    def test_latest_completion(self):
        net = self._net()
        t = DISK_1996.op_time_ms(4)
        net.submit([0], 0.0)
        net.submit([0], 0.0)
        net.submit([1], 0.0)
        assert net.latest_completion_ms == pytest.approx(2 * t)

    def test_utilization(self):
        net = self._net(D=2)
        t = DISK_1996.op_time_ms(4)
        net.submit([0, 1], 0.0)
        assert net.utilization(2 * t) == pytest.approx(0.5)
        assert net.utilization(0.0) == 0.0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            ServiceNetwork(0, DISK_1996, 4)
        with pytest.raises(ConfigError):
            ServiceNetwork(2, DISK_1996, 0)


class TestDegenerateUtilization:
    """Stall-only / empty timelines must not divide by zero."""

    def test_disk_utilization_zero_makespan(self):
        d = DiskService()
        assert d.utilization(0.0) == 0.0
        assert d.utilization(-1.0) == 0.0

    def test_unused_disk_reports_zero(self):
        d = DiskService()
        assert d.utilization(100.0) == 0.0
        assert d.ops == 0 and d.busy_ms == 0.0 and d.idle_ms == 0.0

    def test_per_disk_summary_zero_makespan(self):
        net = ServiceNetwork(2, DISK_1996, 4)
        rows = net.per_disk_summary(0.0)
        assert all(r["utilization"] == 0.0 for r in rows)
        assert all(r["ops"] == 0 for r in rows)

    def test_stall_only_plan_serves_nothing(self):
        # A plan that only stalls never charges service: a network that
        # receives no requests stays fully idle with clean accounting.
        from repro.faults.plan import FaultInjector, FaultPlan, StallWindow

        plan = FaultPlan(
            seed=3, stalls=(StallWindow(disk=0, start_ms=0.0, duration_ms=50.0),)
        )
        net = ServiceNetwork(2, DISK_1996, 4, faults=FaultInjector(plan, 2))
        assert net.busy_ms == 0.0
        assert net.latest_completion_ms == 0.0
        assert net.drained_completion_ms() == 0.0
        assert net.utilization(100.0) == 0.0

    def test_stalled_request_completion_counts_wait(self):
        from repro.faults.plan import FaultInjector, FaultPlan, StallWindow

        plan = FaultPlan(
            seed=3, stalls=(StallWindow(disk=0, start_ms=0.0, duration_ms=50.0),)
        )
        net = ServiceNetwork(2, DISK_1996, 4, faults=FaultInjector(plan, 2))
        t = DISK_1996.op_time_ms(4)
        done = net.submit([0], 0.0)[0]
        assert done == pytest.approx(50.0 + t)  # head held until window end
        assert net.disks[0].busy_ms == pytest.approx(t)  # wait is not service
