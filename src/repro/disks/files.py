"""On-disk file and run representations.

Two layouts exist in the paper's world:

* :class:`StripedFile` — blocks laid out round-robin across disks from
  disk 0 (block ``j`` on disk ``j mod D``), so stripe ``s`` is blocks
  ``sD .. sD + D - 1``.  This is the unsorted input file, and also a
  sorted DSM run or PSV output: DSM "has the logical effect of sorting
  with D' = 1 disk and block size B' = DB" (§9.1), and its superblock
  ``s`` is exactly stripe ``s``.  :class:`StripeWriter` writes one,
  a full stripe per parallel I/O.
* :class:`StripedRun` — a *sorted* run in SRM's forecast format,
  cyclically striped from a chosen start disk (§3, §4).  This is both
  the output of run formation / a merge and the input of the next merge.
  :class:`~repro.core.writer.RunWriter` writes one, a full stripe per
  parallel I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from .block import split_into_blocks
from .system import BlockAddress, ParallelDiskSystem


class _ReadBack:
    """Charged read-back of a file's blocks, in order, from ``addresses``."""

    addresses: list[BlockAddress]

    def read_all(self, system: ParallelDiskSystem) -> np.ndarray:
        """Read the keys back (charging parallel reads)."""
        return self.read_all_records(system)[0]

    def read_all_records(
        self, system: ParallelDiskSystem
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Read keys and payloads back (charging parallel reads)."""
        blocks, _ = system.read_batch(self.addresses)
        if not blocks:
            return np.empty(0, dtype=np.int64), None
        keys = np.concatenate([b.keys for b in blocks])
        if blocks[0].payloads is None:
            return keys, None
        return keys, np.concatenate([b.payloads for b in blocks])


@dataclass
class StripedFile(_ReadBack):
    """Blocks striped round-robin across the disks from disk 0.

    Block ``j`` sits on disk ``j mod D`` (degraded mode may relocate a
    dead disk's blocks onto survivors).  Holds an unsorted input file,
    a DSM run, or a DSM or PSV sort's output.

    Attributes
    ----------
    addresses:
        Physical address of each block, in file order.
    n_records:
        Total record count (the final block may be partial).
    block_size:
        Records per full block.
    """

    addresses: list[BlockAddress]
    n_records: int
    block_size: int

    @property
    def n_blocks(self) -> int:
        return len(self.addresses)

    @classmethod
    def from_records(
        cls,
        system: ParallelDiskSystem,
        keys: np.ndarray,
        payloads: np.ndarray | None = None,
    ) -> "StripedFile":
        """Install *keys* (with optional payloads) on disk, round-robin.

        The placement is pre-existing input: no I/O is charged.  A
        :class:`StripeWriter` writes a file with charged parallel writes.
        """
        keys = np.asarray(keys, dtype=np.int64)
        blocks = split_into_blocks(keys, system.block_size, payloads=payloads)
        addresses: list[BlockAddress] = []
        for j, blk in enumerate(blocks):
            addr = system.allocate(j % system.n_disks)
            addresses.append(addr)
            system.install_block(addr, blk)
        return cls(addresses=addresses, n_records=int(keys.size), block_size=system.block_size)


def _joined(chunks: list[np.ndarray]) -> np.ndarray:
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


class StripeWriter:
    """Streams records onto the disks as a :class:`StripedFile`.

    Appended records are buffered until they fill a stripe of ``D·B``
    records; each full stripe gets one slot on each of disks
    ``0..D-1``, allocated just before its single parallel write.
    :meth:`finish` writes the final, possibly partial, stripe.  Block
    ``j`` of the file is numbered ``j`` and tagged with *run_id*.  The
    writer neither sorts nor checks order: a caller writing a sorted
    run appends its records in order.  Either every append carries
    payloads or none does.
    """

    def __init__(self, system: ParallelDiskSystem, run_id: int = -1):
        self.system = system
        self.run_id = run_id
        self.addresses: list[BlockAddress] = []
        self.n_records = 0
        self._keys: list[np.ndarray] = []
        self._payloads: list[np.ndarray] = []
        self._has_payloads: bool | None = None
        self._pending = 0

    def append(self, keys: np.ndarray, payloads: np.ndarray | None = None) -> None:
        """Buffer *keys* (and aligned *payloads*); write every full stripe."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        if self._has_payloads is None:
            self._has_payloads = payloads is not None
        elif self._has_payloads != (payloads is not None):
            raise DataError("payload presence must be consistent across appends")
        if payloads is not None:
            payloads = np.asarray(payloads, dtype=np.int64)
            if payloads.shape != keys.shape:
                raise DataError("payloads must align with keys")
        self._keys.append(keys)
        if payloads is not None:
            self._payloads.append(payloads)
        self._pending += keys.size
        cap = self.system.n_disks * self.system.block_size
        if self._pending >= cap:
            self._write(self._pending - self._pending % cap)

    def finish(self) -> StripedFile:
        """Write the buffered tail and return the file."""
        if self._pending:
            self._write(self._pending)
        return StripedFile(
            addresses=self.addresses,
            n_records=self.n_records,
            block_size=self.system.block_size,
        )

    def _write(self, n: int) -> None:
        """Write the first *n* buffered records, one stripe per I/O."""
        system = self.system
        keys = _joined(self._keys)
        payloads = _joined(self._payloads) if self._payloads else None
        cap = system.n_disks * system.block_size
        for s in range(0, n, cap):
            blocks = split_into_blocks(
                keys[s : s + cap],
                system.block_size,
                run_id=self.run_id,
                payloads=None if payloads is None else payloads[s : s + cap],
            )
            first = len(self.addresses)
            for blk in blocks:
                blk.index += first
            addrs = [system.allocate(d) for d in range(len(blocks))]
            system.write_stripe(list(zip(addrs, blocks)))
            self.addresses.extend(addrs)
        self.n_records += n
        self._keys = [keys[n:]] if n < keys.size else []
        self._payloads = [payloads[n:]] if payloads is not None and n < keys.size else []
        self._pending = keys.size - n


@dataclass
class StripedRun(_ReadBack):
    """A sorted run in SRM forecast format, cyclically striped.

    Attributes
    ----------
    run_id:
        Identifier (unique within one merge).
    start_disk:
        Disk ``d_r`` holding block 0; block ``i`` is on
        ``(d_r + i) mod D``.
    addresses:
        Physical address of block ``i`` at position ``i``.
    n_records:
        Total records in the run.
    block_size:
        Records per full block (the final block may be partial).
    first_keys:
        Smallest key of each block, ``k_{r,i}`` — retained in the extent
        map so jobs for the block-level simulator can be built without
        re-reading the run.  The *algorithms* never peek at this: the
        scheduler learns keys only through implanted forecasts.
    """

    run_id: int
    start_disk: int
    addresses: list[BlockAddress]
    n_records: int
    block_size: int
    first_keys: np.ndarray = field(repr=False)
    last_keys: np.ndarray = field(repr=False)

    @property
    def n_blocks(self) -> int:
        return len(self.addresses)
