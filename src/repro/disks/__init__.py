"""Simulated parallel disk substrate (Vitter–Shriver D-disk model).

Public surface:

* :class:`Block`, :func:`split_into_blocks`, :func:`attach_forecasts`
* :class:`Disk` — one slot-addressed block store
* :class:`ParallelDiskSystem`, :class:`BlockAddress` — the D-disk system
  with parallel-I/O enforcement and accounting
* :class:`IOStats` — operation/traffic counters
* :class:`StripedFile`, :class:`StripedRun` — file/run layouts
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
from .block import NO_KEY, Block, attach_forecasts, split_into_blocks
from .counters import IOStats
from .disk import Disk
from .files import StripedFile, StripedRun
from .convert import (
    restripe_run,
    striped_run_to_superblock_run,
    superblock_run_to_striped_run,
)
from .scan import RunScanner
from .striping import (
    blocks_per_disk,
    chain_length,
    chain_position_to_block,
    chain_start_index,
    cyclic_disk,
)
from .service import DiskService, ServiceEwma, ServiceNetwork
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
    "attach_forecasts",
    "split_into_blocks",
    "IOStats",
    "Disk",
    "StripedFile",
    "StripedRun",
    "RunScanner",
    "restripe_run",
    "striped_run_to_superblock_run",
    "superblock_run_to_striped_run",
    "blocks_per_disk",
    "chain_length",
    "chain_position_to_block",
    "chain_start_index",
    "cyclic_disk",
    "BlockAddress",
    "ParallelDiskSystem",
    "DiskService",
    "ServiceEwma",
    "ServiceNetwork",
    "DiskTimingModel",
    "DISK_1996",
    "DISK_MODERN",
]
