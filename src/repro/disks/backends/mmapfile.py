"""File-backed block storage: one preallocated file per simulated disk.

Each simulated disk owns one flat file (``disk0000.dat`` …) laid out as
fixed-size **slot records** of ``slot_words`` int64 words:

====  ================================================================
word  contents
====  ================================================================
0     ``n_records`` — live record count (partial tail blocks < ``B``)
1     ``run_id``
2     ``index`` — position of the block within its run
3     ``n_forecast`` — implanted forecast keys present (0, 1 or ``D``)
4     flags — bit 0: payloads present, bit 1: checksum present
5     CRC-32 checksum (valid iff flag bit 1)
6     ``NO_KEY`` bitmask — forecast entry ``i`` is the ``inf`` sentinel
7…    ``D`` words of forecast keys as exact int64 values
…     ``B`` key words
…     ``B`` payload words
====  ================================================================

Forecast keys are int64 record keys except for the ``NO_KEY = inf``
sentinel marking exhausted chains; storing them as int64 plus a
sentinel bitmask keeps the round trip exact (a float64 detour would
corrupt keys above 2**53).

Files are preallocated by ``ftruncate`` and grown by doubling; on any
filesystem with sparse-file support the untouched tail (and the payload
region of payload-free workloads) consumes no physical space.  Reads
hand back **zero-copy** views in ``Block.keys`` / ``Block.payloads``:
plain ``np.ndarray`` views of the mapped file, which slice without the
``np.memmap`` subclass overhead.  That is the safe pattern throughout
this repo, because every merge plane copies records into the writer
ring before the source slot can be freed and reused.

Because slots live at deterministic file offsets, worker processes can
reopen the same files read-only (:func:`open_disk_flat`) and gather run
segments without any block pickling — the transport of the
process-parallel merge plane (:mod:`repro.core.parallel_merge`).
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import weakref
from collections.abc import MutableMapping
from dataclasses import dataclass

import numpy as np

from ...errors import ConfigError, DataError
from ..block import NO_KEY, Block
from .base import BlockStore, StorageBackend

#: Fixed header words before the forecast region.
HEADER_WORDS = 7
FLAG_PAYLOADS = 1
FLAG_CHECKSUM = 2
#: Header word holding the forecast NO_KEY bitmask.
_NOKEY_MASK_WORD = 6


@dataclass(frozen=True)
class SlotLayout:
    """Geometry of one slot record (picklable; shipped to workers)."""

    n_disks: int
    block_size: int
    slot_words: int
    forecast_off: int
    key_off: int
    pay_off: int

    @classmethod
    def for_geometry(cls, n_disks: int, block_size: int) -> "SlotLayout":
        if n_disks > 63:
            raise ConfigError(
                f"mmap backend supports at most 63 disks (forecast NO_KEY "
                f"bitmask is one int64 word), got D={n_disks}"
            )
        forecast_off = HEADER_WORDS
        key_off = forecast_off + n_disks
        pay_off = key_off + block_size
        return cls(
            n_disks=n_disks,
            block_size=block_size,
            slot_words=pay_off + block_size,
            forecast_off=forecast_off,
            key_off=key_off,
            pay_off=pay_off,
        )

    # -- worker-side decoding (flat read-only maps) ----------------------

    def slot_base(self, slot: int) -> int:
        return slot * self.slot_words

    def keys_of(self, flat: np.ndarray, slot: int) -> np.ndarray:
        """Key view of *slot* in a flat per-disk map (zero copy)."""
        base = self.slot_base(slot)
        n = int(flat[base])
        return flat[base + self.key_off : base + self.key_off + n]

    def payloads_of(self, flat: np.ndarray, slot: int) -> np.ndarray | None:
        base = self.slot_base(slot)
        if not int(flat[base + 4]) & FLAG_PAYLOADS:
            return None
        n = int(flat[base])
        return flat[base + self.pay_off : base + self.pay_off + n]


def open_disk_flat(path: str) -> np.ndarray:
    """Reopen a disk file as a flat read-only int64 map (worker side).

    A disk that never received a block has a zero-length file (created
    eagerly, grown on first write); mmap rejects empty files, so hand
    back an empty array instead.
    """
    if os.path.getsize(path) == 0:
        return np.empty(0, dtype=np.int64)
    return np.memmap(path, dtype=np.int64, mode="r")


class MmapDiskStore(MutableMapping):
    """``slot -> Block`` mapping over one disk's slot-record file."""

    __slots__ = ("_backend", "_disk_id", "path", "_map", "_mm", "_capacity", "_live")

    def __init__(self, backend: "MmapFileBackend", disk_id: int, path: str) -> None:
        self._backend = backend
        self._disk_id = disk_id
        self.path = path
        self._map: np.memmap | None = None  # owns the mapping; flushed
        self._mm: np.ndarray | None = None  # plain view of it; sliced
        self._capacity = 0
        self._live: set[int] = set()
        with open(path, "wb"):
            pass  # create/truncate; mapped lazily on first use

    # -- file management -------------------------------------------------

    def _row(self, slot: int, grow: bool) -> np.ndarray:
        if slot >= self._capacity:
            if not grow:
                raise KeyError(slot)
            self._grow(slot + 1)
        lay = self._backend.layout
        base = slot * lay.slot_words
        return self._mm[base : base + lay.slot_words]

    def _grow(self, min_slots: int) -> None:
        new_cap = max(self._backend.initial_slots, self._capacity * 2, min_slots)
        lay = self._backend.layout
        with open(self.path, "r+b") as f:
            f.truncate(new_cap * lay.slot_words * 8)
        # Remapping invalidates nothing: existing Block views map the
        # same (shared) file pages at their old offsets.
        self._map = np.memmap(self.path, dtype=np.int64, mode="r+")
        self._mm = self._map.view(np.ndarray)
        self._capacity = new_cap
        self._backend._grows += 1

    # -- mapping protocol -------------------------------------------------

    def __setitem__(self, slot: int, block: Block) -> None:
        lay = self._backend.layout
        n = int(block.keys.size)
        if n > lay.block_size:
            raise DataError(
                f"block of {n} records exceeds slot capacity B={lay.block_size}"
            )
        fc = block.forecast
        if len(fc) > lay.n_disks:
            raise DataError(
                f"{len(fc)} forecast keys exceed the D={lay.n_disks} slot region"
            )
        row = self._row(slot, grow=True)
        row[0] = n
        row[1] = block.run_id
        row[2] = block.index
        row[3] = len(fc)
        flags = 0
        if block.payloads is not None:
            flags |= FLAG_PAYLOADS
        if block.checksum is not None:
            flags |= FLAG_CHECKSUM
        row[4] = flags
        row[5] = 0 if block.checksum is None else int(block.checksum)
        mask = 0
        for i, v in enumerate(fc):
            fc_slot = lay.forecast_off + i
            if isinstance(v, float) and math.isinf(v):
                mask |= 1 << i
                row[fc_slot] = 0
            else:
                row[fc_slot] = int(v)
        row[_NOKEY_MASK_WORD] = mask
        row[lay.key_off : lay.key_off + n] = block.keys
        words = n
        if block.payloads is not None:
            row[lay.pay_off : lay.pay_off + n] = block.payloads
            words += n
        self._live.add(slot)
        self._backend._blocks_written += 1
        self._backend._bytes_written += 8 * words

    def __getitem__(self, slot: int) -> Block:
        if slot not in self._live:
            raise KeyError(slot)
        lay = self._backend.layout
        row = self._row(slot, grow=False)
        # One conversion decodes the header and forecast words.
        head = row[: lay.key_off].tolist()
        n, run_id, index, nf, flags, checksum, mask = head[:HEADER_WORDS]
        forecast = head[lay.forecast_off : lay.forecast_off + nf]
        if mask:
            forecast = [NO_KEY if mask & (1 << i) else v for i, v in enumerate(forecast)]
        payloads = None
        words = n
        if flags & FLAG_PAYLOADS:
            payloads = row[lay.pay_off : lay.pay_off + n]
            words += n
        self._backend._blocks_read += 1
        self._backend._bytes_read += 8 * words
        return Block(
            keys=row[lay.key_off : lay.key_off + n],
            run_id=run_id,
            index=index,
            forecast=tuple(forecast),
            payloads=payloads,
            checksum=checksum if flags & FLAG_CHECKSUM else None,
        )

    def __delitem__(self, slot: int) -> None:
        self._live.remove(slot)

    def pop(self, slot: int, *default):
        """Discard *slot* without decoding the evicted block.

        Callers (``Disk.free``) ignore the return value; skipping the
        decode keeps frees O(1) instead of rebuilding a Block per free.
        """
        if slot in self._live:
            self._live.discard(slot)
            return None
        if default:
            return default[0]
        raise KeyError(slot)

    def __contains__(self, slot) -> bool:
        return slot in self._live

    def __iter__(self):
        return iter(sorted(self._live))

    def __len__(self) -> int:
        return len(self._live)

    def clear(self) -> None:
        self._live.clear()

    # -- maintenance -----------------------------------------------------

    def flush(self) -> None:
        if self._map is not None:
            self._map.flush()

    @property
    def capacity_slots(self) -> int:
        return self._capacity

    @property
    def file_bytes(self) -> int:
        return self._capacity * self._backend.layout.slot_words * 8


class MmapFileBackend(StorageBackend):
    """One slot-record file per disk under a working directory."""

    kind = "mmap"

    def __init__(
        self,
        workdir: str | None = None,
        initial_slots: int = 256,
        keep_files: bool | None = None,
    ) -> None:
        super().__init__()
        if initial_slots < 1:
            raise ConfigError(f"initial_slots must be >= 1, got {initial_slots}")
        self._requested_workdir = workdir
        self.workdir: str | None = None
        self.initial_slots = int(initial_slots)
        self._requested_keep = keep_files
        self.keep_files = bool(keep_files)
        self.layout: SlotLayout | None = None
        self._stores: dict[int, MmapDiskStore] = {}
        self._cleanup = None
        self._grows = 0
        self._blocks_written = 0
        self._blocks_read = 0
        self._bytes_written = 0
        self._bytes_read = 0

    def attach(self, n_disks: int, block_size: int) -> None:
        super().attach(n_disks, block_size)
        self.layout = SlotLayout.for_geometry(n_disks, block_size)
        if self._requested_workdir is None:
            self.workdir = tempfile.mkdtemp(prefix="repro-disks-")
            keep = False if self._requested_keep is None else self._requested_keep
        else:
            self.workdir = str(self._requested_workdir)
            os.makedirs(self.workdir, exist_ok=True)
            keep = True if self._requested_keep is None else self._requested_keep
        self.keep_files = keep
        if not keep:
            # Scratch directories self-destruct even if close() is
            # never called (interpreter exit, abandoned systems).
            self._cleanup = weakref.finalize(
                self, shutil.rmtree, self.workdir, ignore_errors=True
            )

    def path_for(self, disk_id: int) -> str:
        if self.workdir is None:
            raise ConfigError("mmap backend not attached to a system yet")
        return os.path.join(self.workdir, f"disk{disk_id:04d}.dat")

    def file_paths(self) -> list[str]:
        """Per-disk file paths (what worker processes reopen)."""
        assert self.n_disks is not None
        return [self.path_for(d) for d in range(self.n_disks)]

    def store_for(self, disk_id: int) -> BlockStore:
        store = self._stores.get(disk_id)
        if store is None:
            store = self._stores[disk_id] = MmapDiskStore(
                self, disk_id, self.path_for(disk_id)
            )
        return store

    def flush(self) -> None:
        for store in self._stores.values():
            store.flush()

    def close(self) -> None:
        for store in self._stores.values():
            store._map = None
            store._mm = None
            store._capacity = 0
            store._live.clear()
        self._stores.clear()
        if self._cleanup is not None:
            self._cleanup()
            self._cleanup = None

    def stats(self) -> dict:
        return {
            "kind": self.kind,
            "workdir": self.workdir,
            "live_blocks": sum(len(s) for s in self._stores.values()),
            "blocks_written": self._blocks_written,
            "blocks_read": self._blocks_read,
            "bytes_written": self._bytes_written,
            "bytes_read": self._bytes_read,
            "file_grows": self._grows,
            "file_bytes": sum(s.file_bytes for s in self._stores.values()),
        }
