"""The ``(key, index)`` order must equal numpy's stable argsort, bit for bit."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.keyorder import stable_argsort

I64 = np.iinfo(np.int64)

#: Few distinct values (tie-heavy), any int64, and keys at the extremes.
KEYS = st.one_of(
    st.integers(-3, 3),
    st.integers(I64.min, I64.max),
    st.integers(I64.min, I64.min + 3),
    st.integers(I64.max - 3, I64.max),
)


def _check(keys: np.ndarray) -> None:
    got = stable_argsort(keys)
    assert got.dtype == np.intp
    assert np.array_equal(got, np.argsort(keys, kind="stable"))


@given(keys=arrays(np.int64, st.integers(0, 400), elements=KEYS))
@settings(max_examples=300, deadline=None)
def test_matches_stable_argsort(keys):
    _check(keys)


@given(key=KEYS, n=st.integers(0, 300))
@settings(max_examples=50, deadline=None)
def test_all_equal_keys(key, n):
    _check(np.full(n, key, dtype=np.int64))


def test_empty_and_single():
    _check(np.empty(0, dtype=np.int64))
    _check(np.array([I64.min], dtype=np.int64))


def test_large_tie_heavy_array():
    keys = np.random.default_rng(0).integers(0, 4, 2**16)
    _check(keys)
    _check(keys[::-1].copy())
