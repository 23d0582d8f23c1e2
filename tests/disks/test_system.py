"""Tests for the parallel disk system: model constraints and accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.disks import (
    DISK_1996,
    DISK_MODERN,
    Block,
    BlockAddress,
    DiskTimingModel,
    ParallelDiskSystem,
)
from repro.errors import ConfigError, InvalidIOError
from repro.telemetry.trace import SystemTracer, TraceCollector


def blk(v=0):
    return Block(keys=np.array([v]))


def system(D=4, B=2, **kw):
    return ParallelDiskSystem(n_disks=D, block_size=B, **kw)


class TestConstruction:
    def test_invalid_d(self):
        with pytest.raises(ConfigError):
            system(D=0)

    def test_invalid_b(self):
        with pytest.raises(ConfigError):
            system(B=0)


class TestParallelConstraint:
    def test_two_blocks_same_disk_in_one_read_rejected(self):
        sys = system()
        a1 = sys.allocate(1)
        a2 = sys.allocate(1)
        sys.write_stripe([(a1, blk())])
        sys.write_stripe([(a2, blk())])
        with pytest.raises(InvalidIOError):
            sys.read_stripe([a1, a2])

    def test_two_blocks_same_disk_in_one_write_rejected(self):
        sys = system()
        a1 = sys.allocate(2)
        a2 = sys.allocate(2)
        with pytest.raises(InvalidIOError):
            sys.write_stripe([(a1, blk()), (a2, blk())])

    def test_full_stripe_is_one_operation(self):
        sys = system(D=4)
        addrs = [sys.allocate(d) for d in range(4)]
        sys.write_stripe([(a, blk(i)) for i, a in enumerate(addrs)])
        assert sys.stats.parallel_writes == 1
        assert sys.stats.blocks_written == 4
        got = sys.read_stripe(addrs)
        assert sys.stats.parallel_reads == 1
        assert [b.first_key for b in got] == [0, 1, 2, 3]

    def test_partial_stripe_still_one_operation(self):
        sys = system(D=8)
        addrs = [sys.allocate(d) for d in (0, 3)]
        sys.write_stripe([(a, blk()) for a in addrs])
        assert sys.stats.parallel_writes == 1
        assert sys.stats.blocks_written == 2

    def test_none_entries_skipped_in_read(self):
        sys = system(D=4)
        a = sys.allocate(0)
        sys.write_stripe([(a, blk(9))])
        got = sys.read_stripe([None, a, None])
        assert got[0] is None and got[2] is None
        assert got[1].first_key == 9
        assert sys.stats.parallel_reads == 1
        assert sys.stats.blocks_read == 1

    def test_all_none_read_costs_nothing(self):
        sys = system()
        assert sys.read_stripe([None, None]) == [None, None]
        assert sys.stats.parallel_reads == 0

    def test_empty_write_costs_nothing(self):
        sys = system()
        sys.write_stripe([])
        assert sys.stats.parallel_writes == 0


class TestReadBatch:
    def test_cost_is_max_per_disk_count(self):
        # 5 blocks on disk 0, 2 on disk 1: greedy packing needs 5 reads.
        sys = system(D=3)
        addrs = []
        for d, n in [(0, 5), (1, 2)]:
            for i in range(n):
                a = sys.allocate(d)
                sys.write_stripe([(a, blk(d * 100 + i))])
                addrs.append(a)
        sys.stats.reset()
        blocks, ops = sys.read_batch(addrs)
        assert ops == 5
        assert sys.stats.parallel_reads == 5
        assert len(blocks) == 7

    def test_order_preserved(self):
        sys = system(D=4)
        addrs = []
        for i in range(10):
            a = sys.allocate(i % 4)
            sys.write_stripe([(a, blk(i))])
            addrs.append(a)
        blocks, _ = sys.read_batch(addrs)
        assert [b.first_key for b in blocks] == list(range(10))


    def test_fifo_service_order_per_disk(self):
        """Each disk serves its queued requests oldest-first.

        Regression test: the stripe packer used to ``pop()`` the *newest*
        pending request per disk (LIFO), so a caller streaming a file's
        blocks saw the tail of each disk's queue fetched first.  The
        per-op service order is observed by tracing ``read_stripe``.
        """
        sys = system(D=2)
        addrs = []
        for i in range(6):  # three requests per disk, submission order 0..5
            a = sys.allocate(i % 2)
            sys.write_stripe([(a, blk(i))])
            addrs.append(a)
        ops: list[list[int]] = []
        real = sys.read_stripe

        def spy(stripe):
            blocks = real(stripe)
            ops.append([int(b.first_key) for b in blocks if b is not None])
            return blocks

        sys.read_stripe = spy
        blocks, n_ops = sys.read_batch(addrs)
        assert n_ops == 3
        # Op t must carry the t-th submitted request of each disk:
        # (0,1) then (2,3) then (4,5) -- not (4,5),(2,3),(0,1).
        assert [sorted(op) for op in ops] == [[0, 1], [2, 3], [4, 5]]
        assert [b.first_key for b in blocks] == list(range(6))

    def test_empty_batch(self):
        sys = system()
        blocks, ops = sys.read_batch([])
        assert blocks == [] and ops == 0


class TestAccounting:
    def test_per_disk_counters(self):
        sys = system(D=3)
        a0 = sys.allocate(0)
        a2 = sys.allocate(2)
        sys.write_stripe([(a0, blk()), (a2, blk())])
        assert list(sys.stats.writes_per_disk) == [1, 0, 1]
        sys.read_stripe([a0])
        assert list(sys.stats.reads_per_disk) == [1, 0, 0]

    def test_efficiency(self):
        sys = system(D=4)
        a = sys.allocate(0)
        sys.write_stripe([(a, blk())])
        assert sys.stats.write_efficiency == 0.25
        assert sys.stats.read_efficiency == 1.0  # no reads yet

    def test_snapshot_since(self):
        sys = system(D=2)
        a = sys.allocate(0)
        sys.write_stripe([(a, blk())])
        snap = sys.stats.snapshot()
        sys.read_stripe([a])
        delta = sys.stats.since(snap)
        assert delta.parallel_reads == 1
        assert delta.parallel_writes == 0

    def test_free_releases_space(self):
        sys = system()
        a = sys.allocate(0)
        sys.write_stripe([(a, blk())])
        assert sys.used_blocks == 1
        sys.free(a)
        assert sys.used_blocks == 0


class TestChargeRounds:
    """The one greedy splitter every multi-round charge goes through."""

    @pytest.mark.parametrize(
        "disks, widths",
        [
            # A repeated disk closes the open round: [0 1] [0 2] [2 3].
            ([0, 1, 0, 2, 2, 3], [2, 2, 2]),
            ([3, 1, 0], [3]),
            ([], []),
        ],
    )
    def test_greedy_rounds(self, disks, widths):
        sys = system(D=4, timing=DISK_1996)
        col = TraceCollector()
        sys.tracer = SystemTracer(col, col.new_domain("demand"))
        assert sys._charge_rounds("read", disks, "recovery") == len(widths)
        assert sys.stats.parallel_reads == len(widths)
        assert sys.stats.blocks_read == len(disks)
        assert list(sys.stats.reads_per_disk) == [disks.count(d) for d in range(4)]
        assert [r.kind for r in col.records] == ["recovery"] * len(widths)
        assert [r.attrs["disks"] for r in col.records] == widths


class TestTiming:
    def test_clock_advances_per_operation(self):
        t = DiskTimingModel(avg_seek_ms=10, rpm=6000, transfer_mb_per_s=8)
        sys = system(D=4, B=1000, timing=t)
        addrs = [sys.allocate(d) for d in range(4)]
        sys.write_stripe([(a, Block(keys=np.arange(1000))) for a in addrs])
        expected = t.op_time_ms(1000)
        assert sys.elapsed_ms == pytest.approx(expected)
        sys.read_stripe(addrs[:1])
        # A 1-disk operation costs the same elapsed time as a D-disk one.
        assert sys.elapsed_ms == pytest.approx(2 * expected)

    def test_no_timing_model_keeps_clock_zero(self):
        sys = system()
        a = sys.allocate(0)
        sys.write_stripe([(a, blk())])
        assert sys.elapsed_ms == 0.0

    def test_reassigned_timing_charges_like_a_constructed_one(self):
        # The per-round clock terms are fixed when ``timing`` is set, so
        # reassigning it must charge exactly what construction with that
        # model does.  A channel of width 2 gives 4-disk rounds a second
        # transfer term.
        def charge(sys):
            for disks in ([0, 1, 2, 3], [2], [1, 3], [0, 1, 2]):
                sys._charge("read", disks)
            sys._charge_rounds("write", [0, 1, 0, 2, 3, 3])

        live = system(D=4, B=64, channel_width=2)
        charge(live)
        assert live.elapsed_ms == 0.0
        for model in (DISK_1996, DISK_MODERN):
            fresh = system(D=4, B=64, channel_width=2, timing=model)
            charge(fresh)
            live.timing = model
            assert live.timing is model
            live.elapsed_ms = 0.0
            charge(live)
            assert fresh.elapsed_ms > 0.0
            assert live.elapsed_ms == fresh.elapsed_ms
        live.timing = None
        stopped = live.elapsed_ms
        charge(live)
        assert live.elapsed_ms == stopped
