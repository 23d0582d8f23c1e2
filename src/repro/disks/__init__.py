"""Simulated parallel disk substrate (Vitter–Shriver D-disk model).

Public surface:

* :class:`Block`, :func:`split_into_blocks`
* :class:`Disk` — one slot-addressed block store
* :class:`ParallelDiskSystem`, :class:`BlockAddress` — the D-disk system
  with parallel-I/O enforcement and accounting
* :class:`IOStats` — operation/traffic counters
* :class:`StripedFile`, :class:`StripedRun` — file/run layouts, and
  :class:`StripeWriter`, which writes a :class:`StripedFile` a stripe
  per parallel I/O
* striping arithmetic helpers (:func:`cyclic_disk` et al.)
* :class:`DiskTimingModel` and the :data:`DISK_1996` preset
* :class:`DiskService`, :class:`ServiceNetwork` — per-disk FIFO queues
  for the overlapped-I/O engine
* storage backends (:mod:`repro.disks.backends`): :class:`MemoryBackend`
  (default), :class:`MmapFileBackend` (file-per-disk, out-of-core),
  selected via ``ParallelDiskSystem(..., backend=...)``
"""

from .backends import (
    BackendSpec,
    MemoryBackend,
    MmapFileBackend,
    StorageBackend,
    make_backend,
    parse_backend,
)
from .block import NO_KEY, Block, split_into_blocks
from .counters import IOStats
from .disk import Disk
from .files import StripedFile, StripedRun, StripeWriter
from .scan import RunScanner
from .striping import (
    blocks_per_disk,
    chain_length,
    chain_position_to_block,
    chain_start_index,
    cyclic_disk,
)
from .service import DiskService, ServiceNetwork
from .system import BlockAddress, ParallelDiskSystem
from .timing import DISK_1996, DISK_MODERN, DiskTimingModel

__all__ = [
    "BackendSpec",
    "MemoryBackend",
    "MmapFileBackend",
    "StorageBackend",
    "make_backend",
    "parse_backend",
    "NO_KEY",
    "Block",
    "split_into_blocks",
    "IOStats",
    "Disk",
    "StripedFile",
    "StripedRun",
    "StripeWriter",
    "RunScanner",
    "blocks_per_disk",
    "chain_length",
    "chain_position_to_block",
    "chain_start_index",
    "cyclic_disk",
    "BlockAddress",
    "ParallelDiskSystem",
    "DiskService",
    "ServiceNetwork",
    "DiskTimingModel",
    "DISK_1996",
    "DISK_MODERN",
]
