"""Top-level convenience API: one call, sensible defaults.

For users who just want to external-sort an array under a memory budget
without hand-building configurations::

    from repro import external_sort

    out, stats = external_sort(keys, memory_records=1 << 16, n_disks=8,
                               block_size=256)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines.dsm import dsm_sort
from .core.config import DSMConfig, SRMConfig
from .core.layout import LayoutStrategy
from .core.mergesort import srm_sort
from .errors import ConfigError
from .rng import RngLike


@dataclass(frozen=True, slots=True)
class ExternalSortStats:
    """Algorithm-independent summary of an external sort."""

    algorithm: str
    n_records: int
    merge_order: int
    runs_formed: int
    merge_passes: int
    parallel_reads: int
    parallel_writes: int

    @property
    def parallel_ios(self) -> int:
        return self.parallel_reads + self.parallel_writes


def _config(
    algorithm: str,
    formation: str,
    memory_records: int,
    n_disks: int,
    block_size: int,
) -> SRMConfig | DSMConfig:
    """Validate the sort's settings and derive its configuration.

    Runs before any input is looked at, so an empty input is held to
    the same settings as a non-empty one.
    """
    if algorithm == "srm":
        if formation not in ("load_sort", "replacement_selection"):
            raise ConfigError(f"unknown formation method {formation!r}")
        return SRMConfig.from_memory(memory_records, n_disks, block_size)
    if algorithm == "dsm":
        if formation != "load_sort":
            raise ConfigError("DSM supports only load_sort run formation")
        return DSMConfig.from_memory(memory_records, n_disks, block_size)
    raise ConfigError(f"unknown algorithm {algorithm!r} (srm or dsm)")


def _stats(algorithm: str, res) -> ExternalSortStats:
    """Summarize a finished SRM or DSM sort's result."""
    return ExternalSortStats(
        algorithm=algorithm,
        n_records=res.n_records,
        merge_order=res.config.merge_order,
        runs_formed=res.runs_formed,
        merge_passes=res.n_merge_passes,
        parallel_reads=res.io.parallel_reads,
        parallel_writes=res.io.parallel_writes,
    )


def _empty_stats(algorithm: str) -> ExternalSortStats:
    return ExternalSortStats(
        algorithm=algorithm, n_records=0, merge_order=0, runs_formed=0,
        merge_passes=0, parallel_reads=0, parallel_writes=0,
    )


def external_sort(
    keys: np.ndarray,
    memory_records: int,
    n_disks: int,
    block_size: int,
    algorithm: str = "srm",
    rng: RngLike = None,
    formation: str = "load_sort",
) -> tuple[np.ndarray, ExternalSortStats]:
    """Sort *keys* on a simulated ``n_disks``-disk system.

    Parameters
    ----------
    memory_records:
        Internal memory budget ``M`` in records; the merge order is
        derived from it (``(M/B - 4D)/(2 + D/B)`` for SRM,
        ``(M/B - 2D)/2D`` for DSM).
    algorithm:
        ``"srm"`` (the paper's algorithm) or ``"dsm"`` (the baseline).
    formation:
        Run-formation method, SRM only (``"load_sort"`` or
        ``"replacement_selection"``).

    Returns the sorted array and an :class:`ExternalSortStats` summary.
    """
    cfg = _config(algorithm, formation, memory_records, n_disks, block_size)
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size == 0:
        return keys.copy(), _empty_stats(algorithm)
    if algorithm == "srm":
        out, res = srm_sort(
            keys,
            cfg,
            strategy=LayoutStrategy.RANDOMIZED,
            rng=rng,
            run_length=memory_records,
            formation=formation,
        )
    else:
        out, res = dsm_sort(keys, cfg, run_length=memory_records)
    return out, _stats(algorithm, res)


def external_sort_records(
    keys: np.ndarray,
    payloads: np.ndarray,
    memory_records: int,
    n_disks: int,
    block_size: int,
    algorithm: str = "srm",
    rng: RngLike = None,
) -> tuple[np.ndarray, np.ndarray, ExternalSortStats]:
    """Sort ``(key, payload)`` records; payloads travel with their keys.

    Returns ``(sorted_keys, payloads_in_key_order, stats)``.  With the
    default ``"srm"`` algorithm and load-sort run formation the sort is
    **stable**: records with equal keys keep their input order (runs are
    formed in input order, internal sorts are stable, and the merge
    breaks key ties by ascending run id).
    """
    cfg = _config(algorithm, "load_sort", memory_records, n_disks, block_size)
    keys = np.asarray(keys, dtype=np.int64)
    payloads = np.asarray(payloads, dtype=np.int64)
    if payloads.shape != keys.shape:
        raise ConfigError("payloads must align with keys")
    if keys.size == 0:
        return keys.copy(), payloads.copy(), _empty_stats(algorithm)
    if algorithm == "srm":
        _, res = srm_sort(
            keys, cfg, rng=rng, run_length=memory_records, payloads=payloads
        )
    else:
        _, res = dsm_sort(keys, cfg, run_length=memory_records, payloads=payloads)
    out_keys, out_pay = res.peek_sorted_records()
    return out_keys, out_pay, _stats(algorithm, res)
