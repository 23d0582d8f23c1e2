"""Ablation: I/O-compute overlap headroom (the post-Lemma-1 claim).

Converts measured merge schedules into wall-clock makespans under the
serial and pipelined disciplines across CPU-cost regimes, quantifying
the paper's statement that SRM "overlaps I/O operations and internal
computation, which is important in practice".
"""

from __future__ import annotations

from repro.analysis import execute_merge_timeline, merge_makespan
from repro.core import OVERLAP_MODES, MergeJob, OverlapConfig, simulate_merge
from repro.disks import DISK_1996
from repro.workloads import random_partition_runs

from conftest import paper_scale

D, B = 8, 16


def test_overlap_headroom(benchmark, report):
    blocks = 120 if paper_scale() else 60
    runs = random_partition_runs(4 * D, blocks * B, rng=21)
    job = MergeJob.from_key_runs(runs, B, D, rng=22)

    def run():
        stats = simulate_merge(job)
        t_io = DISK_1996.op_time_ms(B)
        n_writes = -(-stats.n_blocks // D)
        io_ms = (stats.total_reads + n_writes) * t_io
        balanced_us = io_ms / stats.n_blocks * 1000 / B
        rows = []
        for label, cpu in [
            ("io-bound (cpu/10)", balanced_us / 10),
            ("balanced", balanced_us),
            ("cpu-bound (cpu*10)", balanced_us * 10),
        ]:
            est = merge_makespan(stats, DISK_1996, B, cpu)
            rows.append((label, est))
        return stats, rows

    stats, rows = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"merge of {stats.n_blocks} blocks on D = {D} (1996-era disks)",
        f"{'regime':<20} {'serial ms':>10} {'pipelined ms':>13} "
        f"{'speedup':>8} {'pipe eff.':>10}",
    ]
    for label, est in rows:
        lines.append(
            f"{label:<20} {est.serial_ms:>10.0f} {est.pipelined_ms:>13.0f} "
            f"{est.speedup:>8.2f} {est.overlap_efficiency:>10.2f}"
        )
    report("ablation_overlap", "\n".join(lines))

    speedups = {label: est.speedup for label, est in rows}
    assert speedups["balanced"] >= max(
        speedups["io-bound (cpu/10)"], speedups["cpu-bound (cpu*10)"]
    )
    assert speedups["balanced"] > 1.3
    for _, est in rows:
        assert est.pipelined_ms <= est.serial_ms + 1e-9


def test_event_driven_timeline(benchmark, report):
    """The overlap engine's execution: demand vs read-ahead vs full, measured."""
    blocks = 120 if paper_scale() else 60
    runs = random_partition_runs(4 * D, blocks * B, rng=23)
    job = MergeJob.from_key_runs(runs, B, D, rng=24)
    t_io = DISK_1996.op_time_ms(B)
    cpu = t_io * 1000 / B  # balanced regime

    def run():
        return {
            mode: execute_merge_timeline(
                job, DISK_1996, B, OverlapConfig(mode=mode, cpu_us_per_record=cpu)
            )
            for mode in OVERLAP_MODES
        }

    reps = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        f"balanced merge of {job.n_blocks} blocks, D = {D} (overlap engine)",
        f"{'mode':<10} {'makespan ms':>12} {'cpu stall ms':>13} "
        f"{'cpu util':>9} {'disk util':>10}",
    ]
    for mode, rep in reps.items():
        lines.append(
            f"{mode:<10} {rep.makespan_ms:>12.0f} {rep.cpu_stall_ms:>13.0f} "
            f"{rep.cpu_utilization:>9.2f} {rep.disk_utilization:>10.2f}"
        )
    slow, fast = reps["none"], reps["full"]
    lines.append(f"full-overlap speedup: {slow.makespan_ms / fast.makespan_ms:.2f}x")
    report("ablation_timeline", "\n".join(lines))
    assert fast.makespan_ms < slow.makespan_ms
    assert fast.cpu_stall_ms < slow.cpu_stall_ms
