"""I/O accounting for the simulated parallel disk system.

The figures of merit in the paper are counts of *parallel I/O
operations*: one operation moves at most one block per disk, so an
operation that touches only 3 of 10 disks still costs one I/O.  These
counters record both the parallel-operation counts (what Theorem 1
bounds) and per-disk block traffic (useful for diagnosing imbalance,
e.g. the worst-case layout of §3 where every read is 1/D efficient).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class IOStats:
    """Mutable I/O counters for a :class:`ParallelDiskSystem`.

    Attributes
    ----------
    parallel_reads / parallel_writes:
        Number of parallel I/O operations of each kind.
    blocks_read / blocks_written:
        Total blocks moved (``<= D`` per operation).
    reads_per_disk / writes_per_disk:
        Per-disk block counts, for utilization analysis.
    """

    n_disks: int
    parallel_reads: int = 0
    parallel_writes: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    reads_per_disk: np.ndarray | None = None
    writes_per_disk: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.reads_per_disk is None:
            self.reads_per_disk = np.zeros(self.n_disks, dtype=np.int64)
        elif len(self.reads_per_disk) != self.n_disks:
            raise ValueError(
                f"reads_per_disk has {len(self.reads_per_disk)} entries "
                f"for n_disks={self.n_disks}"
            )
        if self.writes_per_disk is None:
            self.writes_per_disk = np.zeros(self.n_disks, dtype=np.int64)
        elif len(self.writes_per_disk) != self.n_disks:
            raise ValueError(
                f"writes_per_disk has {len(self.writes_per_disk)} entries "
                f"for n_disks={self.n_disks}"
            )

    # -- recording ----------------------------------------------------

    def record_read(self, disks: list[int]) -> None:
        """Record one parallel read touching *disks* (distinct)."""
        self.parallel_reads += 1
        self.blocks_read += len(disks)
        for d in disks:
            self.reads_per_disk[d] += 1

    def record_write(self, disks: list[int]) -> None:
        """Record one parallel write touching *disks* (distinct)."""
        self.parallel_writes += 1
        self.blocks_written += len(disks)
        for d in disks:
            self.writes_per_disk[d] += 1

    # -- derived quantities -------------------------------------------

    @property
    def parallel_ios(self) -> int:
        """Total parallel operations (reads + writes)."""
        return self.parallel_reads + self.parallel_writes

    @property
    def read_efficiency(self) -> float:
        """Mean fraction of disk bandwidth used per parallel read.

        1.0 means every read moved ``D`` blocks; the §3 adversarial
        layout drives this toward ``1/D``.
        """
        if self.parallel_reads == 0:
            return 1.0
        return self.blocks_read / (self.parallel_reads * self.n_disks)

    @property
    def write_efficiency(self) -> float:
        """Mean fraction of disk bandwidth used per parallel write."""
        if self.parallel_writes == 0:
            return 1.0
        return self.blocks_written / (self.parallel_writes * self.n_disks)

    # -- snapshots ------------------------------------------------------

    def snapshot(self) -> "IOStats":
        """Immutable-by-convention copy of the current counters."""
        return IOStats(
            n_disks=self.n_disks,
            parallel_reads=self.parallel_reads,
            parallel_writes=self.parallel_writes,
            blocks_read=self.blocks_read,
            blocks_written=self.blocks_written,
            reads_per_disk=self.reads_per_disk.copy(),
            writes_per_disk=self.writes_per_disk.copy(),
        )

    def since(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated after the *earlier* snapshot was taken."""
        if earlier.n_disks != self.n_disks:
            raise ValueError("snapshots are from systems with different D")
        return IOStats(
            n_disks=self.n_disks,
            parallel_reads=self.parallel_reads - earlier.parallel_reads,
            parallel_writes=self.parallel_writes - earlier.parallel_writes,
            blocks_read=self.blocks_read - earlier.blocks_read,
            blocks_written=self.blocks_written - earlier.blocks_written,
            reads_per_disk=self.reads_per_disk - earlier.reads_per_disk,
            writes_per_disk=self.writes_per_disk - earlier.writes_per_disk,
        )

    def reset(self) -> None:
        """Zero all counters."""
        self.parallel_reads = 0
        self.parallel_writes = 0
        self.blocks_read = 0
        self.blocks_written = 0
        self.reads_per_disk[:] = 0
        self.writes_per_disk[:] = 0

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IOStats(reads={self.parallel_reads}, writes={self.parallel_writes}, "
            f"blocks_read={self.blocks_read}, blocks_written={self.blocks_written}, "
            f"read_eff={self.read_efficiency:.3f}, write_eff={self.write_efficiency:.3f})"
        )
