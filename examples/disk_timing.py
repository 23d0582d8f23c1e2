"""Wall-clock view: the timing model and I/O-compute overlap.

The paper counts parallel I/O operations; this example attaches the
Ruemmler-Wilkes-style service-time model to show what those counts mean
in (simulated) milliseconds on a 1996-era disk farm, and how SRM's
prefetching (Lemma 1's guarantee that reads can be issued early) buys
overlap headroom.

Run with::

    python examples/disk_timing.py
"""

from __future__ import annotations

import numpy as np

from repro.analysis import execute_merge_timeline
from repro.core import MergeJob, OverlapConfig, SRMConfig, srm_mergesort
from repro.disks import DISK_1996, DISK_MODERN, ParallelDiskSystem, StripedFile
from repro.workloads import random_partition_runs


def timed_sort(timing, n=100_000, D=8, B=64, k=4, seed=0):
    cfg = SRMConfig.from_k(k, D, B)
    system = ParallelDiskSystem(D, B, timing=timing)
    keys = np.random.default_rng(seed).permutation(n)
    infile = StripedFile.from_records(system, keys)
    res = srm_mergesort(system, infile, cfg, rng=1)
    return res, system.elapsed_ms


def main() -> None:
    print("=== SRM sort wall time under two disk generations ===")
    for name, model in [("1996 drive", DISK_1996), ("modern drive", DISK_MODERN)]:
        res, ms = timed_sort(model)
        print(f"  {name:<13}: {res.io.parallel_ios:>6} parallel I/Os "
              f"-> {ms/1000:>7.2f} s simulated "
              f"({model.op_time_ms(64):.2f} ms/op)")

    print("\n=== Prefetch headroom (demand-paced vs full overlap) ===")
    D, B = 8, 16
    runs = random_partition_runs(4 * D, 80 * B, rng=5)
    job = MergeJob.from_key_runs(runs, B, D, rng=6)
    cpu = DISK_1996.op_time_ms(B) * 1000 / B  # merging a block = one block read
    for mode in ("none", "full"):
        overlap = OverlapConfig(mode=mode, cpu_us_per_record=cpu)
        rep = execute_merge_timeline(job, DISK_1996, B, overlap)
        print(f"  {mode:<5}: makespan {rep.makespan_ms:>8.0f} ms, "
              f"CPU stall {rep.cpu_stall_ms:>6.0f} ms "
              f"({rep.demand_reads} demand + {rep.eager_reads} eager ParReads)")
    print("\nRead-ahead issues case-2a reads (§5.5) before the merge needs")
    print("them and write-behind keeps one output stripe in flight, so the")
    print("disks work while the CPU merges — the overlap the paper highlights")
    print("after Lemma 1.")

if __name__ == "__main__":
    main()
