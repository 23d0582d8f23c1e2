"""Storage-backend contract for the simulated disks.

A :class:`~repro.disks.disk.Disk` keeps its *allocation* bookkeeping
(free list, next slot, capacity) and delegates the *storage* of block
contents to a per-disk **store**: a mutable mapping ``slot -> Block``.
Everything above the disk layer — scheduler, mergers, fault machinery —
keeps speaking addresses and :class:`~repro.disks.block.Block` objects;
only where the bytes live changes.

Two backends ship:

* :class:`~repro.disks.backends.memory.MemoryBackend` — plain dicts,
  the historical in-RAM behavior and the default.
* :class:`~repro.disks.backends.mmapfile.MmapFileBackend` — one
  preallocated file per disk, slots as fixed-size records, blocks read
  back as zero-copy plain ``np.ndarray`` views of the mapped file.
  Sorts can exceed RAM, and
  worker processes can reopen the same files for parallel merging.

Backends are *geometry-lazy*: construct one with its own options, then
the :class:`~repro.disks.system.ParallelDiskSystem` calls
:meth:`StorageBackend.attach` with ``(n_disks, block_size)`` before
asking for stores.  One backend serves exactly one system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import MutableMapping

from ...errors import ConfigError

#: A per-disk block store: mutable mapping ``slot -> Block``.  Stores
#: must support ``[]`` get/set, ``in``, ``pop(slot, default)``,
#: ``items()``, iteration, ``len()`` and ``clear()``.  ``pop`` is used
#: only to discard (callers ignore the return value), so a store may
#: return *default* without materializing the evicted block.
BlockStore = MutableMapping


class StorageBackend:
    """Base class for pluggable block-storage backends."""

    #: Short name used in CLI/specs ("memory", "mmap", ...).
    kind: str = "?"

    def __init__(self) -> None:
        self.n_disks: int | None = None
        self.block_size: int | None = None

    # -- lifecycle -------------------------------------------------------

    def attach(self, n_disks: int, block_size: int) -> None:
        """Bind the backend to one system's geometry (called once)."""
        if self.n_disks is not None:
            raise ConfigError(
                f"{self.kind} backend already attached to a system "
                f"(D={self.n_disks}, B={self.block_size}); backends are "
                "not shareable — create one per system"
            )
        self.n_disks = int(n_disks)
        self.block_size = int(block_size)

    def store_for(self, disk_id: int) -> BlockStore:
        """Return the block store for disk *disk_id* (after attach)."""
        raise NotImplementedError

    def flush(self) -> None:
        """Persist any buffered state (no-op for volatile backends)."""

    def close(self) -> None:
        """Release resources (and scratch files, where applicable)."""

    # -- introspection ---------------------------------------------------

    def stats(self) -> dict:
        """Counters describing backend activity (``backend.*`` metrics)."""
        return {"kind": self.kind}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        geo = (
            f"D={self.n_disks}, B={self.block_size}"
            if self.n_disks is not None
            else "unattached"
        )
        return f"{type(self).__name__}({geo})"


@dataclass(frozen=True)
class BackendSpec:
    """A recipe for creating storage backends.

    Unlike a :class:`StorageBackend` *instance* (bound to one system), a
    spec can be handed to drivers that build many systems; each call to
    :meth:`create` returns a fresh backend.
    """

    kind: str = "memory"
    #: Directory for the mmap backend's disk files.  ``None`` means a
    #: self-cleaning temporary directory.
    workdir: str | None = None
    #: Initial slots preallocated per disk file (files grow by doubling).
    initial_slots: int = 256
    #: Keep files on close.  Defaults to True for explicit workdirs and
    #: False for temporary ones (``None`` = that default).
    keep_files: bool | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("memory", "mmap"):
            raise ConfigError(
                f"unknown storage backend {self.kind!r} (expected 'memory' or 'mmap')"
            )
        if self.initial_slots < 1:
            raise ConfigError(
                f"initial_slots must be >= 1, got {self.initial_slots}"
            )

    def create(self) -> StorageBackend:
        """Instantiate an (unattached) backend from this spec."""
        if self.kind == "memory":
            from .memory import MemoryBackend

            return MemoryBackend()
        from .mmapfile import MmapFileBackend

        return MmapFileBackend(
            workdir=self.workdir,
            initial_slots=self.initial_slots,
            keep_files=self.keep_files,
        )


def parse_backend(value) -> BackendSpec | StorageBackend:
    """Normalize a user-facing ``backend=`` argument.

    Accepts ``None`` (memory), a string spec (``"memory"``, ``"mmap"``,
    ``"mmap:/path/to/dir"``), a :class:`BackendSpec`, or an already
    constructed :class:`StorageBackend` instance (returned unchanged).
    """
    if value is None:
        return BackendSpec("memory")
    if isinstance(value, (BackendSpec, StorageBackend)):
        return value
    if isinstance(value, str):
        kind, _, rest = value.partition(":")
        return BackendSpec(kind=kind or "memory", workdir=rest or None)
    raise ConfigError(
        f"backend must be None, a string, a BackendSpec or a "
        f"StorageBackend, got {type(value).__name__}"
    )


def make_backend(value) -> StorageBackend:
    """Resolve a ``backend=`` argument to a fresh (unattached) backend."""
    spec = parse_backend(value)
    if isinstance(spec, StorageBackend):
        return spec
    return spec.create()
