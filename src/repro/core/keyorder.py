"""The one ``(key, index)`` order of the data plane.

Every payload-carrying sort in the pipeline must keep equal keys in
arrival (or run) order, which is what ``np.argsort(kind="stable")``
gives.  That kind is a timsort/radix path; on int64 keys the default
unstable kind (a SIMD quicksort where numpy has one) is several times
faster.  :func:`stable_argsort` gets the stable permutation at about
the unstable cost.
"""

from __future__ import annotations

import numpy as np


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, bit for bit, via unstable sorts.

    The stable permutation is the unique sort by ``(key, index)``.  One
    unstable argsort orders the keys; if any are equal, each position is
    tagged with its key group's rank (``group * n + index``, below
    ``n**2``, so int64 holds it for any ``n < 3·10**9``) and one
    unstable sort of those distinct tags puts every group's indices in
    ascending order.  Keys are integers (or any values without NaN,
    which ``==`` cannot group).
    """
    order = np.argsort(keys)
    s = keys[order]
    tie = s[1:] == s[:-1]
    if tie.any():
        base = np.concatenate(([0], np.cumsum(~tie)))
        base *= keys.size
        order += base
        order.sort()
        order -= base
    return order
