"""Pluggable block-storage backends for the simulated disk farm.

See :mod:`repro.disks.backends.base` for the contract.  Select one via
the ``backend=`` parameter threaded through
:class:`~repro.disks.system.ParallelDiskSystem`,
:func:`~repro.core.mergesort.srm_sort`,
:func:`~repro.baselines.dsm.dsm_sort` and ``repro sort --backend``:

* ``None`` / ``"memory"`` — in-RAM dicts (default, historical behavior)
* ``"mmap"`` — file-per-disk memory-mapped storage in a self-cleaning
  temporary directory; blocks read back as zero-copy plain ``np.ndarray``
  views of the mapped file
* ``"mmap:/path"`` — same, under an explicit (kept) working directory
* a :class:`BackendSpec` or constructed :class:`StorageBackend`
"""

from .base import (
    BackendSpec,
    BlockStore,
    StorageBackend,
    make_backend,
    parse_backend,
)
from .memory import MemoryBackend
from .mmapfile import MmapDiskStore, MmapFileBackend, SlotLayout, open_disk_flat

__all__ = [
    "BackendSpec",
    "BlockStore",
    "StorageBackend",
    "MemoryBackend",
    "MmapFileBackend",
    "MmapDiskStore",
    "SlotLayout",
    "open_disk_flat",
    "make_backend",
    "parse_backend",
]
