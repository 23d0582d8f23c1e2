"""Tests for the top-level external_sort convenience API."""

from __future__ import annotations

import numpy as np
import pytest

from repro import external_sort, external_sort_records
from repro.errors import ConfigError


class TestExternalSort:
    def test_srm_path(self, rng):
        keys = rng.permutation(5000)
        out, stats = external_sort(keys, memory_records=600, n_disks=4, block_size=8)
        assert np.array_equal(out, np.sort(keys))
        assert stats.algorithm == "srm"
        assert stats.n_records == 5000
        assert stats.parallel_ios == stats.parallel_reads + stats.parallel_writes

    def test_dsm_path(self, rng):
        keys = rng.permutation(5000)
        out, stats = external_sort(
            keys, memory_records=600, n_disks=4, block_size=8, algorithm="dsm"
        )
        assert np.array_equal(out, np.sort(keys))
        assert stats.algorithm == "dsm"

    def test_srm_beats_dsm_under_same_budget(self, rng):
        # 100 initial runs: DSM (R=8) needs 3 merge passes, SRM (R=23)
        # needs 2 — the regime where the merge-order advantage bites.
        keys = rng.permutation(60_000)
        _, srm = external_sort(keys, 600, 4, 8, algorithm="srm", rng=1)
        _, dsm = external_sort(keys, 600, 4, 8, algorithm="dsm")
        assert srm.merge_order > dsm.merge_order
        assert srm.merge_passes < dsm.merge_passes
        assert srm.parallel_ios < dsm.parallel_ios

    def test_replacement_selection_formation(self, rng):
        keys = rng.permutation(3000)
        out, stats = external_sort(
            keys, 600, 4, 8, formation="replacement_selection", rng=2
        )
        assert np.array_equal(out, np.sort(keys))

    def test_dsm_rejects_replacement_selection(self, rng):
        with pytest.raises(ConfigError):
            external_sort(rng.permutation(100), 600, 4, 8,
                          algorithm="dsm", formation="replacement_selection")

    def test_unknown_algorithm(self, rng):
        with pytest.raises(ConfigError):
            external_sort(rng.permutation(100), 600, 4, 8, algorithm="quicksort")

    def test_empty_input(self):
        out, stats = external_sort(np.array([], dtype=np.int64), 600, 4, 8)
        assert out.size == 0
        assert stats.n_records == 0
        assert stats.parallel_ios == 0

    def test_memory_too_small(self, rng):
        with pytest.raises(ConfigError):
            external_sort(rng.permutation(100), memory_records=10,
                          n_disks=4, block_size=8)


class TestEmptyInputValidation:
    """An empty input is held to the same settings as a non-empty one."""

    EMPTY = np.array([], dtype=np.int64)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            external_sort(self.EMPTY, 4096, 4, 16, algorithm="bogus")

    def test_unknown_formation(self):
        with pytest.raises(ConfigError, match="unknown formation"):
            external_sort(self.EMPTY, 4096, 4, 16, formation="bogus")

    def test_dsm_rejects_replacement_selection(self):
        with pytest.raises(ConfigError):
            external_sort(self.EMPTY, 600, 4, 8, algorithm="dsm",
                          formation="replacement_selection")

    @pytest.mark.parametrize("algorithm", ["srm", "dsm"])
    def test_memory_too_small(self, algorithm):
        with pytest.raises(ConfigError):
            external_sort(self.EMPTY, memory_records=10, n_disks=4,
                          block_size=8, algorithm=algorithm)

    def test_records_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            external_sort_records(self.EMPTY, self.EMPTY, 4096, 4, 16,
                                  algorithm="bogus")

    def test_records_memory_too_small(self):
        with pytest.raises(ConfigError):
            external_sort_records(self.EMPTY, self.EMPTY, memory_records=10,
                                  n_disks=4, block_size=8)

    def test_valid_settings_still_return_empty(self):
        keys, pays, stats = external_sort_records(self.EMPTY, self.EMPTY,
                                                  600, 4, 8, algorithm="dsm")
        assert keys.size == pays.size == 0
        assert stats.algorithm == "dsm" and stats.parallel_ios == 0
