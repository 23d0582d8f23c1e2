"""Algorithm configurations: memory budgets and merge orders.

The paper expresses everything in records: internal memory holds ``M``
records, a block holds ``B``, and there are ``D`` disks.

* **SRM** needs ``M/B >= 2R + 4D + RD/B`` internal blocks (§2.2): the
  ``{M_L, M_R, M_D, M_W}`` partition accounts for ``2R + 4D`` of them
  and the forecasting data structure for about ``RD/B``.  Hence the
  merge order ``R = (M/B - 4D) / (2 + D/B)``.
* **DSM** (§9.1) treats the array as one logical disk with block size
  ``DB``; with ``2D`` blocks of read buffer per run and ``2D`` blocks of
  write buffer it merges ``(M/B - 2D) / 2D`` runs at a time.

The paper's comparison grid uses ``R = kD`` and
``M = (2k+4)·D·B + k·D^2`` so that both algorithms get identical memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError


def memory_records_for_k(k: int, n_disks: int, block_size: int) -> int:
    """The paper's memory size ``M = (2k+4)DB + kD^2`` (in records)."""
    return (2 * k + 4) * n_disks * block_size + k * n_disks * n_disks


#: Overlap disciplines of the discrete-event engine
#: (:class:`repro.core.events.OverlapEngine`): demand-paced, read-ahead
#: only, or read-ahead plus write-behind.
OVERLAP_MODES = ("none", "prefetch", "full")


@dataclass(frozen=True, slots=True)
class OverlapConfig:
    """Configuration of the overlapped-I/O execution engine.

    Attributes
    ----------
    mode:
        ``"none"`` — demand-paced (every read and write stalls the
        merge); ``"prefetch"`` — eager case-2a reads fill a read-ahead
        window; ``"full"`` — read-ahead plus write-behind (one output
        stripe in flight, the ``M_W = 2D`` discipline).
    prefetch_depth:
        Read-ahead window in eager ``ParRead`` operations (each brings
        in up to ``D`` blocks).  0 disables read-ahead even in
        ``prefetch``/``full`` mode.
    cpu_us_per_record:
        Internal merge processing cost per record, in microseconds,
        charged against the simulated clock.
    """

    mode: str = "full"
    prefetch_depth: int = 2
    cpu_us_per_record: float = 1.0

    def __post_init__(self) -> None:
        if self.mode not in OVERLAP_MODES:
            raise ConfigError(
                f"overlap mode must be one of {OVERLAP_MODES}, got {self.mode!r}"
            )
        if self.prefetch_depth < 0:
            raise ConfigError(
                f"prefetch depth must be >= 0, got {self.prefetch_depth}"
            )
        if self.cpu_us_per_record < 0:
            raise ConfigError(
                f"cpu cost must be >= 0, got {self.cpu_us_per_record}"
            )


@dataclass(frozen=True, slots=True)
class SRMConfig:
    """Parameters of an SRM mergesort instance.

    Attributes
    ----------
    n_disks:
        ``D`` — number of independent disks.
    block_size:
        ``B`` — records per block.
    merge_order:
        ``R`` — runs merged simultaneously in each merge step.
    """

    n_disks: int
    block_size: int
    merge_order: int

    def __post_init__(self) -> None:
        if self.n_disks < 1:
            raise ConfigError(f"need at least one disk, got D={self.n_disks}")
        if self.block_size < 1:
            raise ConfigError(f"block size must be >= 1, got B={self.block_size}")
        if self.merge_order < 2:
            raise ConfigError(
                f"merge order must be >= 2, got R={self.merge_order}"
                " (not enough memory for any merge?)"
            )

    # -- constructors --------------------------------------------------

    @classmethod
    def from_k(cls, k: int, n_disks: int, block_size: int) -> "SRMConfig":
        """The paper's ``R = kD`` parametrization."""
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        return cls(n_disks=n_disks, block_size=block_size, merge_order=k * n_disks)

    @classmethod
    def from_memory(cls, memory_records: int, n_disks: int, block_size: int) -> "SRMConfig":
        """Largest merge order supported by ``memory_records`` of RAM.

        Solves ``M/B >= 2R + 4D + RD/B`` for integer ``R``:
        ``R = floor((M - 4DB) / (2B + D))``.
        """
        r = (memory_records - 4 * n_disks * block_size) // (2 * block_size + n_disks)
        if r < 2:
            raise ConfigError(
                f"memory of {memory_records} records supports merge order {r} < 2 "
                f"with D={n_disks}, B={block_size}"
            )
        return cls(n_disks=n_disks, block_size=block_size, merge_order=int(r))

    # -- derived quantities ----------------------------------------------

    @property
    def k(self) -> float:
        """``R / D`` — blocks of merge order per disk."""
        return self.merge_order / self.n_disks

    @property
    def memory_blocks(self) -> int:
        """Internal blocks required: ``2R + 4D`` buffers plus ~``RD/B`` FDS."""
        fds_blocks = -(-self.merge_order * self.n_disks // self.block_size)
        return 2 * self.merge_order + 4 * self.n_disks + fds_blocks

    @property
    def memory_records(self) -> int:
        """Memory footprint in records: ``(2R + 4D)B + RD``."""
        return (2 * self.merge_order + 4 * self.n_disks) * self.block_size + (
            self.merge_order * self.n_disks
        )


@dataclass(frozen=True, slots=True)
class DSMConfig:
    """Parameters of a disk-striped mergesort (DSM) instance.

    DSM coordinates the disks so every I/O reads/writes the same slot on
    all ``D`` disks: one logical disk with block size ``D·B``.
    """

    n_disks: int
    block_size: int
    merge_order: int

    def __post_init__(self) -> None:
        if self.n_disks < 1:
            raise ConfigError(f"need at least one disk, got D={self.n_disks}")
        if self.block_size < 1:
            raise ConfigError(f"block size must be >= 1, got B={self.block_size}")
        if self.merge_order < 2:
            raise ConfigError(
                f"merge order must be >= 2, got R={self.merge_order}"
                " (not enough memory for any merge?)"
            )

    @classmethod
    def from_memory(cls, memory_records: int, n_disks: int, block_size: int) -> "DSMConfig":
        """Largest DSM merge order in ``memory_records`` of RAM (§9.1).

        ``R_DSM = floor((M/B - 2D) / 2D)`` — with ``2D`` blocks of write
        buffer and ``2D`` blocks of read buffer per input run.  For the
        paper's ``M = (2k+4)DB + kD^2`` this equals ``k + 1 + kD/2B``.
        """
        r = (memory_records // block_size - 2 * n_disks) // (2 * n_disks)
        if r < 2:
            raise ConfigError(
                f"memory of {memory_records} records supports DSM merge order {r} < 2 "
                f"with D={n_disks}, B={block_size}"
            )
        return cls(n_disks=n_disks, block_size=block_size, merge_order=int(r))

    @classmethod
    def matching_srm(cls, srm: SRMConfig) -> "DSMConfig":
        """DSM given exactly the memory SRM uses — the paper's comparison."""
        return cls.from_memory(srm.memory_records, srm.n_disks, srm.block_size)

    @property
    def superblock_records(self) -> int:
        """Records per logical block: ``D·B``."""
        return self.n_disks * self.block_size

    @property
    def memory_records(self) -> int:
        """Memory footprint in records: ``2D·B·(R + 1)``.

        ``2D`` read-buffer blocks per input run plus ``2D`` write-buffer
        blocks (§9.1).
        """
        return 2 * self.n_disks * self.block_size * (self.merge_order + 1)
