"""Record (key + payload) sorting tests, including stability."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Block,
    DSMConfig,
    ParallelDiskSystem,
    SRMConfig,
    StripedFile,
    dsm_sort,
    external_sort_records,
)
from repro.core import RunWriter, srm_sort
from repro.errors import ConfigError, DataError
from tests.oracles import write_run


class TestBlockPayloads:
    def test_payloads_aligned(self):
        b = Block(keys=np.array([1, 2]), payloads=np.array([10, 20]))
        assert list(b.payloads) == [10, 20]

    def test_misaligned_rejected(self):
        with pytest.raises(DataError):
            Block(keys=np.array([1, 2]), payloads=np.array([10]))

    def test_split_carries_payloads(self):
        from repro.disks import split_into_blocks

        blocks = split_into_blocks(
            np.arange(10), 4, payloads=np.arange(100, 110)
        )
        assert list(blocks[0].payloads) == [100, 101, 102, 103]
        assert list(blocks[2].payloads) == [108, 109]

    def test_split_misaligned_rejected(self):
        from repro.disks import split_into_blocks

        with pytest.raises(DataError):
            split_into_blocks(np.arange(10), 4, payloads=np.arange(5))


class TestRunsWithPayloads:
    def test_striped_run_roundtrip(self):
        sys = ParallelDiskSystem(3, 4)
        keys = np.arange(0, 40, 2)
        pays = keys * 7 + 1
        run = write_run(sys, keys, 0, 1, payloads=pays)
        k, p = run.read_all_records(sys)
        assert np.array_equal(k, keys)
        assert np.array_equal(p, pays)

    def test_striped_file_roundtrip(self):
        sys = ParallelDiskSystem(3, 4)
        keys = np.array([5, 1, 9, 2])
        pays = np.array([50, 10, 90, 20])
        f = StripedFile.from_records(sys, keys, payloads=pays)
        k, p = f.read_all_records(sys)
        assert np.array_equal(k, keys)
        assert np.array_equal(p, pays)

    def test_keys_only_run_reports_none(self):
        sys = ParallelDiskSystem(2, 4)
        run = write_run(sys, np.arange(10), 0, 0)
        _, p = run.read_all_records(sys)
        assert p is None

    def test_writer_carries_payloads(self):
        sys = ParallelDiskSystem(3, 2)
        w = RunWriter(sys, 0, 0)
        keys = np.arange(25)
        pays = keys + 1000
        for i in range(0, 25, 4):
            w.append(keys[i : i + 4], pays[i : i + 4])
        run = w.finalize()
        k, p = run.read_all_records(sys)
        assert np.array_equal(k, keys)
        assert np.array_equal(p, pays)

    def test_writer_rejects_inconsistent_payload_presence(self):
        sys = ParallelDiskSystem(2, 2)
        w = RunWriter(sys, 0, 0)
        w.append(np.array([1]), np.array([10]))
        with pytest.raises(DataError):
            w.append(np.array([2]))


class TestEndToEndSorting:
    def _check(self, out_keys, out_pays, keys, pays):
        # Payload must follow its key: reconstruct the mapping.
        assert np.array_equal(out_keys, np.sort(keys))
        # For distinct keys, payload-by-key must match exactly.
        lookup = dict(zip(keys.tolist(), pays.tolist()))
        assert [lookup[k] for k in out_keys.tolist()] == out_pays.tolist()

    def test_srm_sorts_records(self, rng):
        keys = rng.permutation(5000)
        pays = keys * 3 + 7
        cfg = SRMConfig.from_k(2, 4, 8)
        _, res = srm_sort(keys, cfg, rng=1, run_length=128, payloads=pays)
        out_k, out_p = res.peek_sorted_records()
        self._check(out_k, out_p, keys, pays)

    def test_dsm_sorts_records(self, rng):
        keys = rng.permutation(5000)
        pays = keys + 10**6
        cfg = DSMConfig(n_disks=4, block_size=8, merge_order=4)
        _, res = dsm_sort(keys, cfg, run_length=128, payloads=pays)
        out_k, out_p = res.peek_sorted_records()
        self._check(out_k, out_p, keys, pays)

    def test_replacement_selection_with_payloads(self, rng):
        keys = rng.permutation(2000)
        pays = keys * 11
        cfg = SRMConfig.from_k(2, 4, 8)
        _, res = srm_sort(
            keys, cfg, rng=2, run_length=100,
            formation="replacement_selection", payloads=pays,
        )
        out_k, out_p = res.peek_sorted_records()
        self._check(out_k, out_p, keys, pays)

    def test_external_sort_records_api(self, rng):
        keys = rng.permutation(4000)
        pays = keys ^ 0x5A5A
        out_k, out_p, stats = external_sort_records(
            keys, pays, memory_records=600, n_disks=4, block_size=8, rng=3
        )
        self._check(out_k, out_p, keys, pays)
        assert stats.n_records == 4000

    def test_external_sort_records_dsm(self, rng):
        keys = rng.permutation(4000)
        pays = keys + 5
        out_k, out_p, _ = external_sort_records(
            keys, pays, 600, 4, 8, algorithm="dsm"
        )
        self._check(out_k, out_p, keys, pays)

    def test_misaligned_rejected(self, rng):
        with pytest.raises(ConfigError):
            external_sort_records(
                rng.permutation(10), np.arange(5), 600, 2, 4
            )

    def test_empty(self):
        k, p, stats = external_sort_records(
            np.array([], dtype=np.int64), np.array([], dtype=np.int64), 600, 2, 4
        )
        assert k.size == 0 and p.size == 0 and stats.n_records == 0


class TestStability:
    def test_srm_load_sort_is_stable(self, rng):
        """Equal keys keep input order: runs form in input order, the
        in-memory sort is stable, and the merge breaks ties by run id."""
        n = 6000
        keys = rng.integers(0, 40, size=n)  # heavy duplication
        pays = np.arange(n)                 # payload = input position
        out_k, out_p, _ = external_sort_records(
            keys, pays, memory_records=600, n_disks=4, block_size=8, rng=4
        )
        expect_order = np.argsort(keys, kind="stable")
        assert np.array_equal(out_k, keys[expect_order])
        assert np.array_equal(out_p, pays[expect_order])

    def test_dsm_load_sort_is_stable(self, rng):
        n = 6000
        keys = rng.integers(0, 40, size=n)
        pays = np.arange(n)
        out_k, out_p, _ = external_sort_records(
            keys, pays, 600, 4, 8, algorithm="dsm"
        )
        expect_order = np.argsort(keys, kind="stable")
        assert np.array_equal(out_p, pays[expect_order])
