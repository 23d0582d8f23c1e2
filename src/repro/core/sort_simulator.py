"""Block-level simulation of a FULL SRM mergesort (no data movement).

`repro.core.simulator` makes one merge cheap; this module chains it
into the whole sort.  Keys are taken to be the ranks ``0..N-1`` (only
relative order matters), runs are represented by sorted rank arrays,
and each merge pass:

* derives every group's :class:`MergeJob` from block boundaries,
* replays the exact SRM schedule with the shared scheduler,
* produces the output runs as numpy merges (content, not I/O).

The result is the exact I/O trace of ``srm_mergesort`` on the same
input — verified by a cross-validation test — at a cost independent of
``B`` and linear in the number of blocks, so paper-scale sorts
(``N`` in the hundreds of millions of records with realistic ``B``)
are measurable on a laptop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..rng import RngLike, ensure_rng
from .config import SRMConfig
from .job import MergeJob
from .keyorder import stable_argsort
from .layout import LayoutStrategy, choose_start_disks
from .schedule import ScheduleStats
from .simulator import simulate_merge


@dataclass(frozen=True, slots=True)
class SimPassStats:
    """I/O counts of one simulated merge pass."""

    pass_index: int
    n_merges: int
    n_runs_in: int
    n_runs_out: int
    parallel_reads: int
    parallel_writes: int
    blocks_flushed: int


@dataclass
class SimSortResult:
    """I/O accounting of a simulated full sort."""

    config: SRMConfig
    n_records: int
    runs_formed: int
    formation_reads: int
    formation_writes: int
    passes: list[SimPassStats] = field(default_factory=list)
    merge_schedules: list[ScheduleStats] = field(default_factory=list)

    @property
    def n_merge_passes(self) -> int:
        return len(self.passes)

    @property
    def parallel_reads(self) -> int:
        return self.formation_reads + sum(p.parallel_reads for p in self.passes)

    @property
    def parallel_writes(self) -> int:
        return self.formation_writes + sum(p.parallel_writes for p in self.passes)

    @property
    def parallel_ios(self) -> int:
        return self.parallel_reads + self.parallel_writes

    @property
    def mean_overhead_v(self) -> float:
        """Mean measured per-merge read overhead across all merges."""
        if not self.merge_schedules:
            return 1.0
        return float(np.mean([s.overhead_v for s in self.merge_schedules]))


def _write_ops(n_blocks: int, n_disks: int) -> int:
    """Parallel writes for one cyclically striped run (perfect parallelism)."""
    return -(-n_blocks // n_disks)


def simulate_mergesort(
    keys_or_n: np.ndarray | int,
    config: SRMConfig,
    run_length: int | None = None,
    strategy: LayoutStrategy = LayoutStrategy.RANDOMIZED,
    rng: RngLike = None,
    validate: bool = False,
) -> SimSortResult:
    """Simulate a full SRM sort's I/O schedule.

    Parameters
    ----------
    keys_or_n:
        Either an explicit key array (its rank order is used) or an
        integer ``N`` for a uniformly random permutation of ``N`` ranks
        drawn from *rng* — the average-case input.
    config / run_length / strategy / rng:
        As for :func:`repro.core.srm_mergesort`; run formation is the
        memory-load method (runs of ``run_length`` records, block
        aligned).
    """
    gen = ensure_rng(rng)
    if isinstance(keys_or_n, (int, np.integer)):
        ranks = gen.permutation(int(keys_or_n))
    else:
        keys = np.asarray(keys_or_n)
        if keys.size == 0:
            raise ConfigError("cannot sort an empty input")
        # Stable rank order reproduces the engines' tie handling.
        ranks = np.empty(keys.size, dtype=np.int64)
        ranks[stable_argsort(keys)] = np.arange(keys.size)
    n = int(ranks.size)
    B, D, R = config.block_size, config.n_disks, config.merge_order
    length = run_length if run_length is not None else config.memory_records
    blocks_per_run = max(1, length // B)
    if length < B:
        raise ConfigError(f"run length {length} smaller than one block (B={B})")
    records_per_run = blocks_per_run * B

    # Run formation: sorted rank slices, in input order (stable).  Start
    # disks are drawn exactly as form_runs_load_sort draws them, so the
    # whole simulation replays srm_mergesort's randomness verbatim.
    arrays = [
        np.sort(ranks[i : i + records_per_run])
        for i in range(0, n, records_per_run)
    ]
    starts0 = choose_start_disks(len(arrays), D, strategy, gen)
    runs: list[tuple[np.ndarray, int]] = [
        (a, int(s)) for a, s in zip(arrays, starts0)
    ]
    n_blocks_total = -(-n // B)
    formation_reads = -(-n_blocks_total // D)
    formation_writes = sum(_write_ops(-(-a.size // B), D) for a in arrays)

    result = SimSortResult(
        config=config,
        n_records=n,
        runs_formed=len(runs),
        formation_reads=formation_reads,
        formation_writes=formation_writes,
    )

    pass_index = 0
    while len(runs) > 1:
        pass_index += 1
        groups = [runs[i : i + R] for i in range(0, len(runs), R)]
        out_runs: list[tuple[np.ndarray, int]] = []
        # One output start disk per group, drawn before merging — the
        # same single RNG call srm_mergesort makes per pass.
        starts_out = choose_start_disks(len(groups), D, strategy, gen)
        reads = writes = flushed = n_merges = 0
        for g, group in enumerate(groups):
            if len(group) == 1:
                out_runs.append(group[0])
                continue
            job = MergeJob.from_key_runs(
                [a for a, _ in group], B, D,
                start_disks=[s for _, s in group],
            )
            stats = simulate_merge(job, validate=validate)
            result.merge_schedules.append(stats)
            merged = np.sort(np.concatenate([a for a, _ in group]))
            out_runs.append((merged, int(starts_out[g])))
            reads += stats.total_reads
            writes += _write_ops(-(-merged.size // B), D)
            flushed += stats.blocks_flushed
            n_merges += 1
        result.passes.append(
            SimPassStats(
                pass_index=pass_index,
                n_merges=n_merges,
                n_runs_in=len(runs),
                n_runs_out=len(out_runs),
                parallel_reads=reads,
                parallel_writes=writes,
                blocks_flushed=flushed,
            )
        )
        runs = out_runs
    return result
