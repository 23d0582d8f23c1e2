"""Tests for the streaming run writer (M_W semantics, §5.1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RunWriter
from repro.disks import NO_KEY, ParallelDiskSystem, split_into_blocks
from repro.errors import DataError, ScheduleError
from tests.oracles import attach_forecasts


def write_run(D=3, B=2, n=20, chunk=5, start=1):
    system = ParallelDiskSystem(D, B)
    w = RunWriter(system, run_id=7, start_disk=start)
    keys = np.arange(n, dtype=np.int64)
    for i in range(0, n, chunk):
        w.append(keys[i : i + chunk])
    return system, w.finalize(), w


class TestBasics:
    def test_roundtrip(self):
        system, run, _ = write_run(n=23)
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in run.addresses]
        )
        assert np.array_equal(out, np.arange(23))

    def test_cyclic_layout(self):
        system, run, _ = write_run(D=3, B=2, n=12, start=2)
        assert [a.disk for a in run.addresses] == [2, 0, 1, 2, 0, 1]

    def test_metadata(self):
        _, run, _ = write_run(D=2, B=4, n=10)
        assert list(run.first_keys) == [0, 4, 8]
        assert list(run.last_keys) == [3, 7, 9]
        assert run.n_records == 10

    def test_empty_run_rejected(self):
        system = ParallelDiskSystem(2, 2)
        w = RunWriter(system, 0, 0)
        with pytest.raises(DataError):
            w.finalize()

    def test_out_of_order_append_rejected(self):
        system = ParallelDiskSystem(2, 2)
        w = RunWriter(system, 0, 0)
        w.append(np.array([5, 6]))
        with pytest.raises(DataError):
            w.append(np.array([3]))

    def test_unsorted_slice_rejected(self):
        system = ParallelDiskSystem(2, 2)
        w = RunWriter(system, 0, 0)
        with pytest.raises(DataError, match="not sorted"):
            w.append(np.array([5, 1, 4, 2, 3]))
        # The rejected slice left nothing behind.
        w.append(np.array([1, 2]))
        assert w.finalize().n_records == 2

    def test_append_after_finalize_rejected(self):
        system, _, w = write_run()
        with pytest.raises(ScheduleError):
            w.append(np.array([99]))

    def test_double_finalize_rejected(self):
        system, _, w = write_run()
        with pytest.raises(ScheduleError):
            w.finalize()

    def test_invalid_start_disk(self):
        system = ParallelDiskSystem(2, 2)
        with pytest.raises(DataError):
            RunWriter(system, 0, start_disk=5)


class TestForecastFormat:
    def _blocks(self, system, run):
        return [system.disks[a.disk].read(a.slot) for a in run.addresses]

    def test_block0_carries_first_d_keys(self):
        system, run, _ = write_run(D=3, B=2, n=30)
        b0 = self._blocks(system, run)[0]
        assert b0.forecast == (0.0, 2.0, 4.0)

    def test_interior_blocks_carry_i_plus_d(self):
        system, run, _ = write_run(D=3, B=2, n=30)  # 15 blocks
        blocks = self._blocks(system, run)
        for i in range(1, 12):
            assert blocks[i].forecast == (float((i + 3) * 2),)

    def test_tail_blocks_carry_sentinel(self):
        system, run, _ = write_run(D=3, B=2, n=30)
        blocks = self._blocks(system, run)
        for i in range(12, 15):
            assert blocks[i].forecast == (NO_KEY,)

    def test_short_run_all_in_finalize(self):
        system, run, _ = write_run(D=4, B=2, n=6)  # 3 blocks < one stripe
        blocks = self._blocks(system, run)
        assert blocks[0].forecast == (0.0, 2.0, 4.0, NO_KEY)
        assert blocks[1].forecast == (NO_KEY,)

    def test_matches_striped_run_writer(self):
        # RunWriter must produce the whole-run format oracle's blocks
        # for the same keys.
        keys = np.arange(0, 37, dtype=np.int64)
        blocks_a = attach_forecasts(split_into_blocks(keys, 4), 3)
        sys_b = ParallelDiskSystem(3, 4)
        w = RunWriter(sys_b, 0, 1)
        w.append(keys)
        run_b = w.finalize()
        blocks_b = [sys_b.disks[a.disk].read(a.slot) for a in run_b.addresses]
        assert len(blocks_a) == len(blocks_b)
        for x, y in zip(blocks_a, blocks_b):
            assert np.array_equal(x.keys, y.keys)
            assert x.forecast == y.forecast


class TestIOAndBuffering:
    def test_full_write_parallelism(self):
        D, B, n = 4, 2, 64
        system, run, _ = write_run(D=D, B=B, n=n, chunk=3)
        assert system.stats.parallel_writes == n // B // D
        assert system.stats.write_efficiency == 1.0

    def test_buffer_bounded_by_2d(self):
        D, B = 4, 2
        system = ParallelDiskSystem(D, B)
        w = RunWriter(system, 0, 0)
        for i in range(0, 200, 2):  # small appends, as the merge produces
            w.append(np.array([i, i + 1]))
        w.finalize()
        assert w.max_buffered_blocks <= 2 * D  # |M_W| = 2D exactly (§5.1)

    def test_on_write_hook_sees_every_stripe(self):
        D, B, n = 3, 2, 20
        stripes: list[list[int]] = []
        system = ParallelDiskSystem(D, B)
        w = RunWriter(system, 0, 0, on_write=stripes.append)
        w.append(np.arange(n, dtype=np.int64))
        run = w.finalize()
        assert sum(len(s) for s in stripes) == run.n_blocks
        for s in stripes:
            assert len(set(s)) == len(s)  # one block per disk per stripe

    def test_single_record_run(self):
        system = ParallelDiskSystem(3, 4)
        w = RunWriter(system, 0, 0)
        w.append(np.array([42]))
        run = w.finalize()
        assert run.n_records == 1
        assert run.n_blocks == 1
        assert system.stats.parallel_writes == 1


class TestRingBuffer:
    """The preallocated ring must be invisible: same blocks, same format."""

    def _format_oracle(self, D, B, keys, payloads=None):
        """The run's blocks, cut and forecast whole (the format oracle)."""
        return attach_forecasts(split_into_blocks(keys, B, payloads=payloads), D)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 16, 64, 1000])
    def test_wrap_preserves_contents_and_forecasts(self, chunk):
        # Enough records to wrap the 4·D·B ring several times.
        D, B, n = 3, 4, 4 * 3 * 4 * 5 + 7  # partial final stripe too
        keys = np.arange(n, dtype=np.int64)
        system = ParallelDiskSystem(D, B)
        w = RunWriter(system, 0, 0)
        for i in range(0, n, chunk):
            w.append(keys[i : i + chunk])
        run = w.finalize()
        got = [system.disks[a.disk].read(a.slot) for a in run.addresses]
        want = self._format_oracle(D, B, keys)
        assert len(got) == len(want)
        for x, y in zip(want, got):
            assert np.array_equal(x.keys, y.keys)
            assert x.forecast == y.forecast  # implants survive the wrap

    def test_blocks_do_not_alias_ring_frames(self):
        # Emitted blocks must own their arrays: later appends reuse the
        # ring frames and would otherwise corrupt already-written blocks.
        D, B = 2, 2
        n = 4 * D * B * 3
        system = ParallelDiskSystem(D, B)
        w = RunWriter(system, 0, 0)
        keys = np.arange(n, dtype=np.int64)
        for i in range(0, n, D * B):
            w.append(keys[i : i + D * B])
        run = w.finalize()
        out = np.concatenate(
            [system.disks[a.disk].read(a.slot).keys for a in run.addresses]
        )
        assert np.array_equal(out, keys)

    def test_partial_final_stripe_with_payloads(self):
        D, B = 3, 2
        n = 2 * D * B + 3  # two full stripes + a ragged tail
        keys = np.arange(n, dtype=np.int64)
        payloads = keys * 10 + 1
        system = ParallelDiskSystem(D, B)
        w = RunWriter(system, 0, 0)
        for i in range(0, n, 5):
            w.append(keys[i : i + 5], payloads[i : i + 5])
        run = w.finalize()
        assert w.max_buffered_blocks <= 2 * D
        blocks = [system.disks[a.disk].read(a.slot) for a in run.addresses]
        assert np.array_equal(np.concatenate([b.keys for b in blocks]), keys)
        assert np.array_equal(
            np.concatenate([b.payloads for b in blocks]), payloads
        )
        want = self._format_oracle(D, B, keys, payloads=payloads)
        for x, y in zip(want, blocks):
            assert x.forecast == y.forecast

    def test_high_water_stays_2d_under_large_appends(self):
        # Appends far larger than the M_W window must still drain stripe
        # by stripe, never holding more than 2D blocks at rest.
        D, B = 4, 8
        system = ParallelDiskSystem(D, B)
        w = RunWriter(system, 0, 0)
        w.append(np.arange(50 * D * B, dtype=np.int64))
        w.finalize()
        assert w.max_buffered_blocks <= 2 * D

    def test_payload_mismatch_rejected(self):
        system = ParallelDiskSystem(2, 2)
        w = RunWriter(system, 0, 0)
        with pytest.raises(DataError):
            w.append(np.arange(4), np.arange(3))

    def test_payload_presence_must_be_consistent(self):
        system = ParallelDiskSystem(2, 2)
        w = RunWriter(system, 0, 0)
        w.append(np.arange(4), np.arange(4))
        with pytest.raises(DataError):
            w.append(np.arange(4, 8))


class TestStripeEmission:
    """Stripe-level emission against a per-block reference of the format."""

    @staticmethod
    def reference(D, B, start, keys, payloads):
        """Each block cut, placed and forecast on its own (§3, §4)."""
        nb = -(-keys.size // B)
        firsts = [int(keys[i * B]) for i in range(nb)]

        def key_of(i):
            return firsts[i] if i < nb else NO_KEY

        out = []
        for i in range(nb):
            fc = tuple(key_of(j) for j in range(D)) if i == 0 else (key_of(i + D),)
            blk = keys[i * B : (i + 1) * B]
            pay = None if payloads is None else payloads[i * B : (i + 1) * B]
            out.append(((start + i) % D, int(blk[0]), int(blk[-1]), fc, blk, pay))
        return out

    @pytest.mark.parametrize("D", [1, 3, 4])
    @pytest.mark.parametrize("B", [1, 4])
    @pytest.mark.parametrize("payloads", [False, True])
    def test_matches_per_block_reference(self, D, B, payloads):
        start = D - 1
        # Several ring wraps and a partial final stripe (and, for B > 1,
        # a partial final block).
        n = 9 * D * B + D * B // 2 + 1
        rng = np.random.default_rng(D * 10 + B)
        keys = np.sort(rng.integers(0, 50, size=n))  # duplicate-heavy
        pays = rng.integers(0, 2**40, size=n) if payloads else None
        system = ParallelDiskSystem(D, B)
        snapshots = []  # each written block's contents at write time
        write_stripe = system.write_stripe

        def recording(writes):
            assert len(writes) <= D
            for _, blk in writes:
                pay = None if blk.payloads is None else blk.payloads.copy()
                snapshots.append((blk.keys.copy(), pay))
            return write_stripe(writes)

        system.write_stripe = recording
        w = RunWriter(system, run_id=3, start_disk=start)
        for i in range(0, n, 7):
            w.append(keys[i : i + 7], None if pays is None else pays[i : i + 7])
        run = w.finalize()

        want = self.reference(D, B, start, keys, pays)
        assert len(run.addresses) == len(want) == len(snapshots)
        assert list(run.first_keys) == [x[1] for x in want]
        assert list(run.last_keys) == [x[2] for x in want]
        for addr, snap, (disk, _, _, fc, blk, pay) in zip(
            run.addresses, snapshots, want
        ):
            got = system.disks[addr.disk].read(addr.slot)
            assert addr.disk == disk
            assert got.forecast == fc
            assert np.array_equal(got.keys, blk)
            # Later appends reused the ring: the written block is unchanged.
            assert np.array_equal(got.keys, snap[0])
            if pay is None:
                assert got.payloads is None
            else:
                assert np.array_equal(got.payloads, pay)
                assert np.array_equal(got.payloads, snap[1])
