"""Internal-memory buffer accounting: the ``{M_L, M_R, M_D, M_W}`` partition.

Paper §5.1–5.2: SRM partitions ``2R + 4D`` internal blocks into

* ``M_L`` — ``R`` blocks, one per run, holding the run's *leading* block
  whenever it is resident;
* ``M_R`` — ``R + D`` blocks holding full, non-leading resident blocks;
* ``M_D`` — ``D`` staging blocks that every ``ParRead`` lands in;
* ``M_W`` — ``2D`` output-buffer blocks (enough to write full stripes in
  forecast format, since block ``i``'s forecast key comes from block
  ``i + D``).

The three exchange rules of §5.2 move *buffer frames* between the sets
so that occupied/unoccupied counts are preserved; at block granularity
that is pure accounting, which is what this class implements.  It exists
to make the budget explicit and violently checkable: every transition
the scheduler performs calls into the pool, and exceeding any set's
capacity raises :class:`ScheduleError` — turning Lemma 1 (“there is
always room for the next ``ParRead``”) into an executable assertion.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, ScheduleError


@dataclass
class BufferPool:
    """Occupancy accounting for SRM's internal-memory partition.

    Parameters
    ----------
    merge_order:
        ``R``, the number of runs being merged.
    n_disks:
        ``D``.
    """

    merge_order: int
    n_disks: int
    ml_occupied: int = 0
    mr_occupied: int = 0
    mw_occupied: int = 0

    def __post_init__(self) -> None:
        if self.merge_order < 1:
            raise ConfigError(f"merge order must be >= 1, got {self.merge_order}")
        if self.n_disks < 1:
            raise ConfigError(f"need at least one disk, got {self.n_disks}")
        for name, occ, cap in (
            ("M_L", self.ml_occupied, self.ml_capacity),
            ("M_R", self.mr_occupied, self.mr_capacity),
            ("M_W", self.mw_occupied, self.mw_capacity),
        ):
            if not 0 <= occ <= cap:
                raise ConfigError(
                    f"{name} occupancy {occ} outside [0, {cap}]"
                )

    # -- capacities (Definition 3) ----------------------------------------

    @property
    def ml_capacity(self) -> int:
        """``|M_L| = R`` — one leading-block frame per run."""
        return self.merge_order

    @property
    def mr_capacity(self) -> int:
        """``|M_R| = R + D`` — full non-leading resident blocks."""
        return self.merge_order + self.n_disks

    @property
    def md_capacity(self) -> int:
        """``|M_D| = D`` — read-staging frames."""
        return self.n_disks

    @property
    def mw_capacity(self) -> int:
        """``|M_W| = 2D`` — output-buffer frames."""
        return 2 * self.n_disks

    @property
    def total_frames(self) -> int:
        """``2R + 4D`` internal blocks managed by the partition."""
        return self.ml_capacity + self.mr_capacity + self.md_capacity + self.mw_capacity

    @property
    def mr_free(self) -> int:
        """Unoccupied ``M_R`` frames."""
        return self.mr_capacity - self.mr_occupied

    # -- transitions ----------------------------------------------------

    def load_leading(self) -> None:
        """A run's leading block arrives in memory (lands in ``M_L``)."""
        if self.ml_occupied >= self.ml_capacity:
            raise ScheduleError("M_L overflow: more leading blocks than runs")
        self.ml_occupied += 1

    def retire_leading(self) -> None:
        """A leading block is fully consumed; its ``M_L`` frame frees up."""
        if self.ml_occupied <= 0:
            raise ScheduleError("M_L underflow: retiring a block that is not there")
        self.ml_occupied -= 1

    def stage_read_into_mr(self, n_blocks: int) -> None:
        """A ``ParRead`` lands *n_blocks* non-leading blocks in ``M_R``.

        Physically the blocks arrive in ``M_D`` and are exchanged with
        unoccupied ``M_R`` frames (rule 3 of §5.2); the net effect at
        block granularity is ``M_R`` occupancy rising by *n_blocks*.
        """
        if self.mr_occupied + n_blocks > self.mr_capacity:
            raise ScheduleError(
                f"M_R overflow: {self.mr_occupied} + {n_blocks} > {self.mr_capacity}"
                " — the scheduler failed to flush before reading (Lemma 1 violated)"
            )
        self.mr_occupied += n_blocks

    def promote_to_leading(self) -> None:
        """A resident ``M_R`` block becomes its run's leading block.

        Rule 1 of §5.2: ``M_R`` and ``M_L`` exchange frames, so ``M_R``
        gains a free frame while ``M_L`` gains an occupied one.
        """
        if self.mr_occupied <= 0:
            raise ScheduleError("M_R underflow: promoting a block that is not there")
        if self.ml_occupied >= self.ml_capacity:
            # Checked before mutating so a rejected promotion is atomic.
            raise ScheduleError("M_L overflow: more leading blocks than runs")
        self.mr_occupied -= 1
        self.ml_occupied += 1

    def flush(self, n_blocks: int) -> None:
        """``Flush_t(n)``: *n_blocks* leave ``M_R`` with **no I/O** (§ Def. 6)."""
        if n_blocks < 0:
            raise ScheduleError(f"cannot flush {n_blocks} blocks")
        if self.mr_occupied < n_blocks:
            raise ScheduleError(
                f"M_R underflow: flushing {n_blocks} of {self.mr_occupied} blocks"
            )
        self.mr_occupied -= n_blocks

    def can_read_without_flush(self) -> bool:
        """True if ``D`` unoccupied ``M_R`` frames exist (§5.5 case 2a)."""
        return self.mr_free >= self.n_disks

    @property
    def extra(self) -> int:
        """``extra`` of §5.5: occupied ``M_R`` frames beyond ``R`` (0 if none)."""
        return max(0, self.mr_occupied - self.merge_order)

    # -- output buffer -------------------------------------------------

    def buffer_output_block(self) -> None:
        """One output block materializes in ``M_W``."""
        if self.mw_occupied >= self.mw_capacity:
            raise ScheduleError("M_W overflow: output stripe not drained in time")
        self.mw_occupied += 1

    def drain_output_stripe(self, n_blocks: int) -> None:
        """A parallel write drains *n_blocks* from ``M_W``."""
        if self.mw_occupied < n_blocks:
            raise ScheduleError(
                f"M_W underflow: draining {n_blocks} of {self.mw_occupied} blocks"
            )
        self.mw_occupied -= n_blocks

