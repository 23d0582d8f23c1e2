"""The disk system's I/O trace: causal tracer records and IOStats views.

Every charged round lands on ``system.tracer`` (one channel-lane record
per parallel operation) and in :class:`IOStats` (per-disk participation,
from which utilization, mean width and imbalance follow).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.disks import DISK_1996, Block, IOStats, ParallelDiskSystem
from repro.telemetry.trace import SystemTracer, TraceCollector


def blk(v=0):
    return Block(keys=np.array([v]))


def traced_system(D=4, B=2, collector=None):
    """A timed system (untimed rounds take no time, so leave no record)."""
    sys = ParallelDiskSystem(D, B, timing=DISK_1996)
    col = collector if collector is not None else TraceCollector()
    sys.tracer = SystemTracer(col, col.new_domain("demand"))
    return sys, col


def write_one_per_disk(sys, disks):
    for d in disks:
        sys.write_stripe([(sys.allocate(d), blk())])


class TestRecording:
    def test_events_captured_in_order(self):
        sys, col = traced_system()
        a = sys.allocate(0)
        b = sys.allocate(2)
        sys.write_stripe([(a, blk()), (b, blk())])
        sys.read_stripe([a])
        recs = list(col.records)
        assert [r.kind for r in recs] == ["write", "read"]
        assert [r.attrs["disks"] for r in recs] == [2, 1]
        assert {r.lane for r in recs} == {"channel"}

    def test_indices_sequential(self):
        sys, col = traced_system()
        write_one_per_disk(sys, range(3))
        assert [r.index for r in col.records] == [0, 1, 2]
        # Each round starts where the previous one ended.
        assert [r.dep for r in col.records] == [None, 0, 1]

    def test_no_trace_by_default(self):
        sys = ParallelDiskSystem(2, 2)
        a = sys.allocate(0)
        sys.write_stripe([(a, blk())])  # must not raise
        assert sys.tracer is None

    def test_elapsed_recorded_with_timing(self):
        sys, col = traced_system(D=2)
        a = sys.allocate(0)
        sys.write_stripe([(a, blk())])
        (rec,) = col.records
        assert rec.start_ms == 0.0
        assert rec.end_ms == sys.elapsed_ms > 0


class TestAnalyses:
    def _stats(self) -> IOStats:
        sys = ParallelDiskSystem(4, 2)
        addrs = [sys.allocate(d) for d in range(4)]
        sys.write_stripe([(a, blk()) for a in addrs])
        sys.read_stripe(addrs)
        sys.read_stripe(addrs[:1])
        sys.read_stripe(addrs[:2])
        return sys.stats

    def test_disk_participation(self):
        assert list(self._stats().reads_per_disk) == [3, 2, 1, 1]

    def test_utilization(self):
        s = self._stats()
        u = s.reads_per_disk / s.parallel_reads
        assert u[0] == pytest.approx(1.0)
        assert u[3] == pytest.approx(1 / 3)

    def test_utilization_empty(self):
        assert IOStats(n_disks=3).read_efficiency == 1.0

    def test_mean_width(self):
        s = self._stats()
        assert s.blocks_read / s.parallel_reads == pytest.approx((4 + 1 + 2) / 3)
        assert s.blocks_written / s.parallel_writes == 4.0

    def test_imbalance(self):
        r = self._stats().reads_per_disk
        # read participations 3,2,1,1 -> max/mean = 3/1.75.
        assert r.max() / r.mean() == pytest.approx(3 / 1.75)


class TestTraceOnSorts:
    def test_worst_case_layout_shows_imbalance(self, rng):
        """The §3 adversary is visible in the per-disk read counts."""
        from repro.core import LayoutStrategy, SRMConfig, srm_mergesort
        from repro.disks import StripedFile

        cfg = SRMConfig.from_k(2, 4, 8)
        results = {}
        for strat in (LayoutStrategy.RANDOMIZED, LayoutStrategy.WORST_CASE):
            sys = ParallelDiskSystem(4, 8)
            keys = np.random.default_rng(3).permutation(4096)
            infile = StripedFile.from_records(sys, keys)
            srm_mergesort(sys, infile, cfg, strategy=strat, rng=4, run_length=128)
            r = sys.stats.reads_per_disk
            results[strat] = r.max() / r.mean()
        assert results[LayoutStrategy.WORST_CASE] >= results[LayoutStrategy.RANDOMIZED]


class TestRingBuffer:
    """A bounded collector keeps the newest rounds of a system's trace."""

    def test_bounded_trace_keeps_newest(self):
        col = TraceCollector(max_records=3)
        for i in range(5):
            col.add("read", "channel", "demand:0", i, i, i + 1.0,
                    dep=i - 1 if i else None)
        assert len(col.records) == 3
        assert col.dropped == 2
        assert col.emitted == 5
        # Global indices survive eviction: the trace reads as the tail,
        # and the oldest survivor still names its evicted predecessor.
        assert [r.index for r in col.records] == [2, 3, 4]
        assert col.records[0].dep == 1

    def test_unbounded_by_default(self):
        sys, col = traced_system()
        write_one_per_disk(sys, [0] * 100)
        assert len(col.records) == 100 and col.dropped == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError, match="max_records"):
            TraceCollector(max_records=0)

    def test_summary_reports_drops(self):
        sys, col = traced_system(collector=TraceCollector(max_records=1))
        write_one_per_disk(sys, [0, 1])
        sys.tracer.finish(sys.elapsed_ms)
        (summary,) = [e for e in col.to_events() if e["type"] == "trace_summary"]
        assert summary["dropped"] == 1
        assert summary["records"] == 1

    def test_analyses_use_surviving_window(self):
        """The ring bounds the trace only; IOStats still counts every round."""
        sys, col = traced_system(collector=TraceCollector(max_records=2))
        addrs = [sys.allocate(d) for d in range(3)]
        sys.write_stripe([(a, blk()) for a in addrs])  # evicted
        sys.read_stripe(addrs[:1])
        sys.read_stripe(addrs[1:2])
        assert [r.attrs["disks"] for r in col.records] == [1, 1]
        assert sys.stats.blocks_written == 3
        assert sys.stats.blocks_read == 2

    def test_on_system(self):
        sys, col = traced_system(collector=TraceCollector(max_records=2))
        write_one_per_disk(sys, range(4))
        assert len(col.records) == 2
        assert col.dropped == 2
        assert col.records[-1].end_ms == sys.elapsed_ms
