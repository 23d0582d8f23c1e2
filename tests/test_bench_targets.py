"""The benchmark's per-layer tracer must find every function it wraps.

``bench/layers.py`` names package functions and methods by string; a
rename in ``src`` makes ``wrap_targets()`` raise ``KeyError``.  This
guard fails in the tier-1 suite instead of only in a benchmark run.
"""

from __future__ import annotations

from bench.layers import LAYER_NAMES, wrap_targets


def test_every_wrapped_target_resolves():
    targets = wrap_targets()
    assert {layer for layer, _, _, _ in targets} == set(LAYER_NAMES)
    for _, owner, name, original in targets:
        assert callable(original), f"{owner.__name__}.{name}"
