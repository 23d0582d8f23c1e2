"""Tests for the pluggable storage backends (memory and mmap)."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.disks import (
    BackendSpec,
    Block,
    MemoryBackend,
    MmapFileBackend,
    ParallelDiskSystem,
    make_backend,
    parse_backend,
)
from repro.disks.backends.mmapfile import (
    HEADER_WORDS,
    SlotLayout,
    open_disk_flat,
)
from repro.disks.block import NO_KEY
from repro.errors import ConfigError


def mmap_system(tmp_path, D=4, B=8, **kw):
    return ParallelDiskSystem(
        D, B, backend=MmapFileBackend(workdir=str(tmp_path)), **kw
    )


class TestSpecParsing:
    def test_default_is_memory(self):
        assert parse_backend(None).kind == "memory"
        assert isinstance(make_backend(None), MemoryBackend)

    def test_string_specs(self):
        assert parse_backend("memory").kind == "memory"
        spec = parse_backend("mmap:/some/dir")
        assert spec.kind == "mmap"
        assert spec.workdir == "/some/dir"
        assert parse_backend("mmap").workdir is None

    def test_instance_passthrough(self):
        be = MmapFileBackend()
        assert parse_backend(be) is be

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            parse_backend("tape")
        with pytest.raises(ConfigError):
            BackendSpec(kind="tape")

    def test_backend_not_shareable(self):
        be = MmapFileBackend()
        ParallelDiskSystem(2, 4, backend=be)
        with pytest.raises(ConfigError):
            ParallelDiskSystem(2, 4, backend=be)


class TestSlotLayout:
    def test_geometry(self):
        lay = SlotLayout.for_geometry(4, 16)
        assert lay.forecast_off == HEADER_WORDS
        assert lay.key_off == HEADER_WORDS + 4
        assert lay.pay_off == lay.key_off + 16
        assert lay.slot_words == HEADER_WORDS + 4 + 32

    def test_too_many_disks_rejected(self):
        with pytest.raises(ConfigError):
            SlotLayout.for_geometry(64, 4)


class TestRoundTrip:
    def test_full_and_partial_blocks(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=2, B=4)
        full = Block(keys=np.array([1, 2, 3, 4]), run_id=7, index=0)
        partial = Block(keys=np.array([9]), run_id=7, index=1)
        a = sys_.allocate(0)
        b = sys_.allocate(1)
        sys_.disks[a.disk].write(a.slot, full)
        sys_.disks[b.disk].write(b.slot, partial)
        got_f = sys_.peek(a)
        got_p = sys_.peek(b)
        assert got_f.keys.tolist() == [1, 2, 3, 4]
        assert got_f.run_id == 7 and got_f.index == 0
        # Partial final blocks keep their true record count.
        assert got_p.keys.tolist() == [9]
        assert len(got_p) == 1

    def test_payloads_round_trip(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=2, B=4)
        blk = Block(
            keys=np.array([5, 6, 7]),
            payloads=np.array([50, 60, 70]),
        )
        a = sys_.allocate(0)
        sys_.disks[a.disk].write(a.slot, blk)
        got = sys_.peek(a)
        assert got.payloads is not None
        assert got.payloads.tolist() == [50, 60, 70]

    def test_no_payloads_stays_none(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=2, B=4)
        a = sys_.allocate(0)
        sys_.disks[a.disk].write(a.slot, Block(keys=np.array([1])))
        assert sys_.peek(a).payloads is None

    def test_forecast_exact_int64_and_no_key(self, tmp_path):
        # Forecast keys must survive exactly — a float64 detour would
        # corrupt keys above 2**53 — and NO_KEY (inf) must round-trip.
        sys_ = mmap_system(tmp_path, D=4, B=4)
        fc = (-(2**62) - 3, NO_KEY, 2**62 + 1, 12)
        blk = Block(keys=np.array([1, 2]), forecast=fc)
        a = sys_.allocate(0)
        sys_.disks[a.disk].write(a.slot, blk)
        assert sys_.peek(a).forecast == fc

    def test_single_forecast_key(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=4, B=4)
        a = sys_.allocate(0)
        sys_.disks[a.disk].write(a.slot, Block(keys=np.array([1]), forecast=(42,)))
        assert sys_.peek(a).forecast == (42,)

    def test_checksum_round_trip(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=2, B=4)
        blk = Block(keys=np.array([3, 4]), payloads=np.array([30, 40])).seal()
        a = sys_.allocate(0)
        sys_.disks[a.disk].write(a.slot, blk)
        got = sys_.peek(a)
        assert got.checksum == blk.checksum
        assert got.verify()

    def test_extreme_keys(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=2, B=4)
        keys = np.array([-(2**63), -1, 0, 2**63 - 1])
        a = sys_.allocate(0)
        sys_.disks[a.disk].write(a.slot, Block(keys=keys))
        assert np.array_equal(sys_.peek(a).keys, keys)


class TestStoreSemantics:
    def test_missing_slot_raises(self, tmp_path):
        sys_ = mmap_system(tmp_path)
        store = sys_.disks[0]._slots
        with pytest.raises(KeyError):
            store[5]

    def test_free_then_read_raises(self, tmp_path):
        sys_ = mmap_system(tmp_path)
        a = sys_.allocate(0)
        sys_.disks[a.disk].write(a.slot, Block(keys=np.array([1])))
        sys_.free(a)
        with pytest.raises(KeyError):
            sys_.disks[a.disk]._slots[a.slot]

    def test_slot_reuse_after_free(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=1, B=4)
        a = sys_.allocate(0)
        sys_.disks[0].write(a.slot, Block(keys=np.array([1, 2, 3, 4])))
        sys_.free(a)
        b = sys_.allocate(0)
        assert b.slot == a.slot
        sys_.disks[0].write(b.slot, Block(keys=np.array([9])))
        assert sys_.peek(b).keys.tolist() == [9]

    def test_iteration_and_len(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=1, B=4)
        for v in range(5):
            a = sys_.allocate(0)
            sys_.disks[0].write(a.slot, Block(keys=np.array([v])))
        store = sys_.disks[0]._slots
        assert len(store) == 5
        assert list(store) == sorted(store)
        assert all(s in store for s in store)

    def test_growth_by_doubling(self, tmp_path):
        be = MmapFileBackend(workdir=str(tmp_path), initial_slots=2)
        sys_ = ParallelDiskSystem(1, 4, backend=be)
        for v in range(40):
            a = sys_.allocate(0)
            sys_.disks[0].write(a.slot, Block(keys=np.array([v])))
        stats = be.stats()
        assert stats["file_grows"] >= 2
        assert stats["live_blocks"] == 40
        # All 40 still readable after re-mmaps.
        got = [int(sys_.disks[0]._slots[s].keys[0]) for s in sys_.disks[0]._slots]
        assert sorted(got) == list(range(40))

    def test_zero_copy_views(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=1, B=4)
        a = sys_.allocate(0)
        sys_.disks[0].write(a.slot, Block(keys=np.array([1, 2, 3, 4])))
        got = sys_.peek(a)
        assert isinstance(got.keys, np.memmap) or got.keys.base is not None

    def test_slot_views_are_plain_ndarrays(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=1, B=4)
        a = sys_.allocate(0)
        sys_.disks[0].write(
            a.slot, Block(keys=np.array([1, 2, 3]), payloads=np.array([7, 8, 9]))
        )
        got = sys_.peek(a)
        for view in (got.keys, got.payloads):
            assert type(view) is np.ndarray
            assert view.base is not None  # a view of the mapping, not a copy


class TestFilesAndCleanup:
    def test_explicit_workdir_kept(self, tmp_path):
        be = MmapFileBackend(workdir=str(tmp_path / "d"))
        sys_ = ParallelDiskSystem(2, 4, backend=be)
        a = sys_.allocate(0)
        sys_.disks[0].write(a.slot, Block(keys=np.array([1])))
        paths = be.file_paths()
        sys_.close()
        assert all(os.path.exists(p) for p in paths)

    def test_tempdir_removed_on_close(self):
        be = MmapFileBackend()
        sys_ = ParallelDiskSystem(2, 4, backend=be)
        wd = be.workdir
        assert os.path.isdir(wd)
        sys_.close()
        assert not os.path.exists(wd)

    def test_context_manager_closes(self):
        with ParallelDiskSystem(2, 4, backend="mmap") as sys_:
            wd = sys_.backend.workdir
            assert os.path.isdir(wd)
        assert not os.path.exists(wd)

    def test_flush_persists_for_reopen(self, tmp_path):
        be = MmapFileBackend(workdir=str(tmp_path), initial_slots=1)
        sys_ = ParallelDiskSystem(1, 4, backend=be)
        addrs = []
        for v in range(5):  # grows (remaps) the file along the way
            a = sys_.allocate(0)
            sys_.disks[0].write(a.slot, Block(keys=np.array([v, v + 10])))
            addrs.append(a)
        be.flush()
        flat = open_disk_flat(be.path_for(0))
        got = [be.layout.keys_of(flat, a.slot).tolist() for a in addrs]
        assert got == [[v, v + 10] for v in range(5)]

    def test_close_drops_both_handles(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=2, B=4)
        for d in range(2):
            a = sys_.allocate(d)
            sys_.disks[d].write(a.slot, Block(keys=np.array([d])))
        stores = list(sys_.backend._stores.values())
        assert all(s._map is not None and s._mm is not None for s in stores)
        sys_.close()
        assert all(s._map is None and s._mm is None for s in stores)

    def test_worker_side_flat_decode(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=2, B=4)
        blk = Block(keys=np.array([4, 5, 6]), payloads=np.array([1, 2, 3]))
        a = sys_.allocate(0)
        sys_.disks[a.disk].write(a.slot, blk)
        sys_.backend.flush()
        lay = sys_.backend.layout
        flat = open_disk_flat(sys_.backend.path_for(a.disk))
        assert lay.keys_of(flat, a.slot).tolist() == [4, 5, 6]
        assert lay.payloads_of(flat, a.slot).tolist() == [1, 2, 3]


class TestSortIdentity:
    def test_mmap_sort_matches_memory(self):
        """Same sort, same layout rng: only the storage layer differs."""
        from repro import SRMConfig, srm_sort

        keys = np.random.default_rng(2).permutation(20_000)
        cfg = SRMConfig.from_k(4, 4, 64)
        out_mem, res_mem = srm_sort(keys, cfg, rng=3)
        out_mm, res_mm = srm_sort(keys, cfg, rng=3, backend="mmap")
        try:
            assert np.array_equal(out_mem, out_mm)
            assert res_mem.merge_schedules == res_mm.merge_schedules
            # IOStats holds numpy arrays; dataclass == is ambiguous.
            assert str(res_mem.io) == str(res_mm.io)
            for field in ("reads_per_disk", "writes_per_disk"):
                assert np.array_equal(
                    getattr(res_mem.io, field), getattr(res_mm.io, field)
                ), field
            assert res_mm.system.backend.stats()["kind"] == "mmap"
        finally:
            res_mm.system.close()


class TestDegradedModeOnMmap:
    def test_remapped_reads_round_trip(self, tmp_path):
        # Degraded migration walks dead._slots and rewrites blocks onto
        # survivors — the slot layout must not assume full blocks.
        from repro.faults.plan import DiskDeath, FaultPlan

        sys_ = mmap_system(tmp_path, D=4, B=4)
        sys_.attach_faults(
            FaultPlan(seed=1, redundancy="parity",
                      deaths=(DiskDeath(disk=2, after_ops=6),))
        )
        addrs, blocks = [], []
        for i in range(12):
            d = i % 4
            a = sys_.allocate(d)
            blk = Block(keys=np.array([3 * i, 3 * i + 1, 3 * i + 2][: 1 + i % 3]))
            sys_.write_stripe([(a, blk)])
            addrs.append(a)
            blocks.append(blk)
        # Keep reading until the death fires and migration remaps disk 2.
        for _ in range(10):
            for a, blk in zip(addrs, blocks):
                got = sys_.read_stripe([a])[0]
                assert got.keys.tolist() == blk.keys.tolist()
            if sys_.degraded:
                break
        assert sys_.degraded
        for a, blk in zip(addrs, blocks):
            got = sys_.read_stripe([a])[0]
            assert got.keys.tolist() == blk.keys.tolist()


class TestBackendStats:
    def test_counters_accumulate(self, tmp_path):
        sys_ = mmap_system(tmp_path, D=2, B=4)
        a = sys_.allocate(0)
        sys_.disks[0].write(a.slot, Block(keys=np.array([1, 2])))
        sys_.peek(a)
        s = sys_.backend.stats()
        assert s["kind"] == "mmap"
        assert s["blocks_written"] == 1
        assert s["blocks_read"] == 1
        assert s["bytes_written"] == 16
        assert s["live_blocks"] == 1
        assert s["file_bytes"] > 0

    def test_memory_backend_stats(self):
        sys_ = ParallelDiskSystem(2, 4)
        a = sys_.allocate(0)
        sys_.disks[0].write(a.slot, Block(keys=np.array([1])))
        s = sys_.backend.stats()
        assert s["kind"] == "memory"
        assert s["live_blocks"] == 1

    @pytest.mark.parametrize("algo", ["srm", "dsm", "psv"])
    @pytest.mark.parametrize("backend", ["memory", "mmap"])
    def test_every_sort_publishes_backend_counters(self, algo, backend):
        # SRM, DSM and PSV close through one helper, so each publishes
        # the six backend.* metrics on mmap and none in memory.
        from repro import DSMConfig, SRMConfig
        from repro.baselines import dsm_mergesort, psv_mergesort
        from repro.core.mergesort import srm_mergesort
        from repro.disks import StripedFile
        from repro.telemetry import Telemetry

        keys = np.random.default_rng(3).integers(0, 10**6, 2_000)
        tel = Telemetry()
        with ParallelDiskSystem(4, 8, backend=backend) as system:
            infile = StripedFile.from_records(system, keys)
            if algo == "srm":
                res = srm_mergesort(
                    system, infile, SRMConfig.from_k(2, 4, 8), rng=1,
                    telemetry=tel,
                )
            elif algo == "dsm":
                res = dsm_mergesort(
                    system, infile, DSMConfig(n_disks=4, block_size=8,
                                              merge_order=3),
                    run_length=256, telemetry=tel,
                )
            else:
                res = psv_mergesort(system, infile, 256, telemetry=tel)
            assert np.array_equal(res.peek_sorted(), np.sort(keys))
            written = system.backend.stats().get("blocks_written")
        metrics = tel.finish()[-1]["metrics"]
        backend_metrics = sorted(m for m in metrics if m.startswith("backend."))
        sort_span = next(
            e for e in tel.events if e["type"] == "span" and e["name"] == "sort"
        )
        if backend == "memory":
            assert backend_metrics == []
            assert "backend" not in sort_span["attrs"]
        else:
            assert len(backend_metrics) == 6
            assert metrics["backend.blocks_written"]["value"] == written
            assert sort_span["attrs"]["backend"] == "mmap"
