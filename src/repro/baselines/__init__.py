"""Baseline algorithms the paper compares against."""

from .dsm import (
    DSMPassStats,
    DSMSortResult,
    dsm_mergesort,
    dsm_sort,
    merge_superblock_runs,
    write_superblock_run,
)
from .dsm_model import DSMCost, dsm_exact_cost
from .psv import (
    PSVMergeResult,
    PSVSortResult,
    SingleDiskRun,
    psv_merge,
    psv_mergesort,
    write_single_disk_runs_parallel,
)

__all__ = [
    "DSMPassStats",
    "DSMSortResult",
    "dsm_mergesort",
    "dsm_sort",
    "merge_superblock_runs",
    "write_superblock_run",
    "DSMCost",
    "dsm_exact_cost",
    "PSVMergeResult",
    "PSVSortResult",
    "SingleDiskRun",
    "psv_merge",
    "psv_mergesort",
    "write_single_disk_runs_parallel",
]
