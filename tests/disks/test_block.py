"""Tests for blocks, splitting, and the forecast-format oracle (paper §4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.disks.block import NO_KEY, Block, split_into_blocks
from repro.errors import DataError
from tests.oracles import attach_forecasts


class TestBlock:
    def test_basic_properties(self):
        b = Block(keys=np.array([3, 5, 9]), run_id=2, index=7)
        assert len(b) == 3
        assert b.first_key == 3
        assert b.last_key == 9
        assert b.run_id == 2
        assert b.index == 7

    def test_keys_coerced_to_int64(self):
        b = Block(keys=[1, 2, 3])
        assert b.keys.dtype == np.int64

    def test_empty_block_rejected(self):
        with pytest.raises(DataError):
            Block(keys=np.array([], dtype=np.int64))

    def test_non_1d_rejected(self):
        with pytest.raises(DataError):
            Block(keys=np.zeros((2, 2)))

    def test_single_record_block(self):
        b = Block(keys=np.array([42]))
        assert b.first_key == b.last_key == 42


class TestSplitIntoBlocks:
    def test_exact_multiple(self):
        blocks = split_into_blocks(np.arange(12), block_size=4)
        assert len(blocks) == 3
        assert all(len(b) == 4 for b in blocks)
        assert [b.index for b in blocks] == [0, 1, 2]

    def test_partial_tail(self):
        blocks = split_into_blocks(np.arange(10), block_size=4)
        assert [len(b) for b in blocks] == [4, 4, 2]

    def test_empty_input(self):
        assert split_into_blocks(np.array([], dtype=np.int64), 4) == []

    def test_block_size_one(self):
        blocks = split_into_blocks(np.arange(3), 1)
        assert [b.first_key for b in blocks] == [0, 1, 2]

    def test_invalid_block_size(self):
        with pytest.raises(DataError):
            split_into_blocks(np.arange(3), 0)

    def test_run_id_propagates(self):
        blocks = split_into_blocks(np.arange(8), 4, run_id=9)
        assert all(b.run_id == 9 for b in blocks)

    @given(n=st.integers(1, 200), bs=st.integers(1, 16))
    def test_reassembly_roundtrip(self, n, bs):
        keys = np.arange(n, dtype=np.int64)
        blocks = split_into_blocks(keys, bs)
        back = np.concatenate([b.keys for b in blocks])
        assert np.array_equal(back, keys)


class TestAttachForecasts:
    """The whole-run format oracle that ``RunWriter``'s blocks must match."""

    def test_initial_block_carries_first_d_keys(self):
        # 6 blocks of 2 records, D = 3: block 0 carries k_{r,0..2}.
        blocks = split_into_blocks(np.arange(12), 2)
        attach_forecasts(blocks, n_disks=3)
        assert blocks[0].forecast == (0.0, 2.0, 4.0)

    def test_later_blocks_carry_key_i_plus_d(self):
        blocks = split_into_blocks(np.arange(12), 2)
        attach_forecasts(blocks, n_disks=3)
        # block i (i>0) carries k_{r, i+D}; with B=2, k_{r,j} = 2j.
        assert blocks[1].forecast == (8.0,)
        assert blocks[2].forecast == (10.0,)

    def test_exhausted_chain_gets_sentinel(self):
        blocks = split_into_blocks(np.arange(12), 2)
        attach_forecasts(blocks, n_disks=3)
        # blocks 3, 4, 5 have no successor at i+3.
        assert blocks[3].forecast == (NO_KEY,)
        assert blocks[5].forecast == (NO_KEY,)

    def test_run_shorter_than_d(self):
        blocks = split_into_blocks(np.arange(4), 2)  # 2 blocks
        attach_forecasts(blocks, n_disks=4)
        assert blocks[0].forecast == (0.0, 2.0, NO_KEY, NO_KEY)
        assert blocks[1].forecast == (NO_KEY,)

    def test_empty_list_ok(self):
        assert attach_forecasts([], 4) == []

    @given(n_blocks=st.integers(1, 40), d=st.integers(1, 8))
    def test_every_block_has_correct_arity(self, n_blocks, d):
        blocks = split_into_blocks(np.arange(n_blocks * 2), 2)
        attach_forecasts(blocks, d)
        assert len(blocks[0].forecast) == d
        assert all(len(b.forecast) == 1 for b in blocks[1:])
