"""Output and on-disk-format verification helpers."""

from .checks import (
    assert_sorted_permutation,
    check_striped_run,
    check_superblock_run,
    is_permutation_of,
    is_sorted,
)

__all__ = [
    "assert_sorted_permutation",
    "check_striped_run",
    "check_superblock_run",
    "is_permutation_of",
    "is_sorted",
]
