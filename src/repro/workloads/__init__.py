"""Workload generators: §9.3 average-case inputs plus stress shapes."""

from .generators import (
    block_sorted,
    duplicate_heavy,
    geometric_length_runs,
    interleaved_runs,
    nearly_sorted,
    reverse_sorted,
    sequential_runs,
    uniform_keys,
    uniform_permutation,
    zipf_keys,
)
from .partitions import random_partition_job, random_partition_runs

__all__ = [
    "block_sorted",
    "geometric_length_runs",
    "zipf_keys",
    "duplicate_heavy",
    "interleaved_runs",
    "nearly_sorted",
    "reverse_sorted",
    "sequential_runs",
    "uniform_keys",
    "uniform_permutation",
    "random_partition_job",
    "random_partition_runs",
]
