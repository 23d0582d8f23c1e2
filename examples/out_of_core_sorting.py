"""Sorting more data than fits in RAM with the mmap storage backend.

The default scale is small so the example runs in seconds; set
``REPRO_OOC_RECORDS`` to scale it up.  Past ``BIG`` records the example
switches to a fully streaming pipeline — the input is generated
chunk-wise into a scratch memmap, the sort runs on the mmap backend,
and the output is verified with a bounded-memory ``RunScanner`` — and
then **enforces** the out-of-core claim by capping the process's
anonymous memory (``RLIMIT_DATA``) far below the input size before
sorting.  A multi-GB run completing under that cap is the proof that
the working set is the merge buffers, not the data:

    REPRO_OOC_RECORDS=500000000 python examples/out_of_core_sorting.py

sorts 4 GB of keys under a 1.5 GB heap limit.  ``REPRO_OOC_WORKERS=4``
additionally drains each merge through the process-parallel Merge Path
plane (bit- and schedule-identical to the serial batched drain;
wall-clock gains need real cores).
"""

import os
import resource
import tempfile
import time

import numpy as np

from repro import SRMConfig, srm_sort
from repro.verify import is_sorted

N = int(os.environ.get("REPRO_OOC_RECORDS", 400_000))
WORKERS = int(os.environ.get("REPRO_OOC_WORKERS", "1"))
#: Streaming mode threshold and its anonymous-memory cap.
BIG = 10_000_000
HEAP_CAP = int(os.environ.get("REPRO_OOC_HEAP_CAP", 1_500_000_000))

merge_workers = WORKERS if WORKERS > 1 else None
input_bytes = N * 8


def small_demo() -> None:
    """The plain API path: everything in arrays, storage on files."""
    cfg = SRMConfig.from_k(k=8, n_disks=8, block_size=1024)
    rng = np.random.default_rng(7)
    keys = rng.integers(-(2**62), 2**62, N)
    t0 = time.perf_counter()
    out, res = srm_sort(keys, cfg, rng=1, backend="mmap",
                        merge_workers=merge_workers)
    wall = time.perf_counter() - t0
    assert is_sorted(out)
    stats = res.system.backend.stats()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    print(f"records sorted      {N:>14,}  ({input_bytes / 1e6:,.0f} MB of keys)")
    print(f"wall clock          {wall:>14.2f}s  ({N / wall:,.0f} records/s)")
    print(f"merge passes        {res.n_merge_passes:>14}")
    print(f"parallel I/Os       {res.total_parallel_ios:>14,}")
    print(f"backend file bytes  {stats['file_bytes']:>14,}"
          f"  ({stats['blocks_written']:,} blocks written)")
    print(f"peak RSS            {peak_rss:>14,}")
    res.system.close()
    print("ok: output sorted, storage out of core")


def big_demo() -> None:
    """Streaming pipeline under an enforced anonymous-memory cap."""
    from repro.core.mergesort import srm_mergesort
    from repro.disks import ParallelDiskSystem, RunScanner
    from repro.disks.files import StripedFile

    cfg = SRMConfig.from_k(k=8, n_disks=8, block_size=4096)
    # Shared file mappings (the backend's disk files, the scratch input)
    # are exempt from RLIMIT_DATA, so the cap constrains exactly what
    # must stay small: heap allocations — merge buffers, the writer
    # ring, sort temporaries.  An out-of-cap sort dies with MemoryError.
    enforced = input_bytes > HEAP_CAP
    if enforced:
        resource.setrlimit(resource.RLIMIT_DATA, (HEAP_CAP, HEAP_CAP))

    with ParallelDiskSystem(cfg.n_disks, cfg.block_size,
                            backend="mmap") as system:
        rng = np.random.default_rng(7)
        t0 = time.perf_counter()
        with tempfile.NamedTemporaryFile(prefix="ooc-input-",
                                         suffix=".dat") as f:
            scratch = np.memmap(f.name, dtype=np.int64, mode="w+", shape=(N,))
            chunk = 4_000_000
            for i in range(0, N, chunk):
                j = min(i + chunk, N)
                scratch[i:j] = rng.integers(-(2**62), 2**62, j - i)
            infile = StripedFile.from_records(system, scratch)
            del scratch
        gen_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        res = srm_mergesort(system, infile, cfg, rng=1,
                            merge_workers=merge_workers)
        sort_s = time.perf_counter() - t0

        # Bounded-memory verification: one stripe of blocks at a time.
        t0 = time.perf_counter()
        scanner = RunScanner(system, res.output, free=True)
        prev = None
        total = 0
        while not scanner.exhausted:
            keys = scanner.next_chunk()
            if prev is not None and keys[0] < prev:
                raise AssertionError("output not sorted across chunks")
            if np.any(keys[1:] < keys[:-1]):
                raise AssertionError("output not sorted within a chunk")
            prev = int(keys[-1])
            total += int(keys.size)
        assert total == N
        verify_s = time.perf_counter() - t0
        stats = system.backend.stats()

    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    cap_note = "enforced" if enforced else "unenforced: input under cap"
    print(f"records sorted      {N:>14,}  ({input_bytes / 1e9:.1f} GB of keys)")
    print(f"heap cap ({cap_note}) {HEAP_CAP:,}")
    print(f"generate            {gen_s:>14.1f}s")
    print(f"sort                {sort_s:>14.1f}s  ({N / sort_s:,.0f} records/s)")
    print(f"verify (streaming)  {verify_s:>14.1f}s")
    print(f"merge passes        {res.n_merge_passes:>14}")
    print(f"parallel I/Os       {res.total_parallel_ios:>14,}")
    print(f"backend file bytes  {stats['file_bytes']:>14,}")
    print(f"peak RSS            {peak_rss:>14,}  "
          "(mostly reclaimable shared file pages)")
    if enforced:
        print("ok: sorted under a heap cap the input could never fit in")
    else:
        print("ok: streamed sort verified (raise REPRO_OOC_RECORDS past "
              "the cap for an enforced run)")


if __name__ == "__main__":
    big_demo() if N >= BIG else small_demo()
