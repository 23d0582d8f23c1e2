"""Operational tooling: per-disk I/O balance, run scanning, the one-call API.

Shows the "daily driver" surface of the library beyond the paper's
experiments: read a sort's per-disk counters (`IOStats`) to see disk
balance, scan a sorted run with bounded memory, and use `external_sort`
when you just want the answer.  For per-operation timing, arm the causal
trace instead (`Telemetry.attach_trace`, see docs/OBSERVABILITY.md).

Run with::

    python examples/io_tracing.py
"""

from __future__ import annotations

import numpy as np

from repro import SRMConfig, external_sort
from repro.core import LayoutStrategy, srm_mergesort
from repro.disks import ParallelDiskSystem, RunScanner, StripedFile


def counted_sort(strategy: LayoutStrategy, seed: int = 0):
    cfg = SRMConfig.from_k(2, 8, 16)
    system = ParallelDiskSystem(8, 16)
    keys = np.random.default_rng(seed).permutation(40_000)
    infile = StripedFile.from_records(system, keys)
    result = srm_mergesort(system, infile, cfg, strategy=strategy, rng=1,
                           run_length=512)
    return system, result


def main() -> None:
    print("=== Per-disk reads: randomized vs adversarial layout ===")
    for strategy in (LayoutStrategy.RANDOMIZED, LayoutStrategy.WORST_CASE):
        system, result = counted_sort(strategy)
        io = system.stats
        # Fraction of parallel reads each disk took part in; the §3
        # adversary leaves most disks idle on most reads.
        util = io.reads_per_disk / io.parallel_reads
        print(f"\n{strategy.value}:")
        print(f"  {io.parallel_reads} parallel reads, mean width "
              f"{io.blocks_read / io.parallel_reads:.2f} of {io.n_disks}, "
              f"imbalance (max/mean) "
              f"{io.reads_per_disk.max() / io.reads_per_disk.mean():.2f}")
        print(f"  per-disk read utilization: "
              f"{np.array2string(util, precision=2, floatmode='fixed')}")

    print("\n=== Bounded-memory scan of the sorted output ===")
    system, result = counted_sort(LayoutStrategy.RANDOMIZED)
    system.stats.reset()
    scanner = RunScanner(system, result.output)
    running_max = None
    chunks = 0
    while not scanner.exhausted:
        chunk = scanner.next_chunk()
        assert running_max is None or chunk[0] >= running_max
        running_max = int(chunk[-1])
        chunks += 1
    print(f"  scanned {result.output.n_records} records in {chunks} chunks, "
          f"{system.stats.parallel_reads} parallel reads "
          f"(efficiency {system.stats.read_efficiency:.2f})")

    print("\n=== One-call API ===")
    keys = np.random.default_rng(5).permutation(30_000)
    out, stats = external_sort(keys, memory_records=2000, n_disks=8,
                               block_size=16, rng=2)
    assert np.array_equal(out, np.sort(keys))
    print(f"  external_sort: {stats.n_records} records, R={stats.merge_order}, "
          f"{stats.merge_passes} passes, {stats.parallel_ios} parallel I/Os")


if __name__ == "__main__":
    main()
